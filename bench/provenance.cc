#include <cstdio>
#include <sstream>
#include <string>

#include "common/stats.hh"
#include "experiments.hh"
#include "sim/sweep.hh"

namespace tcpni
{
namespace bench
{

namespace
{

/** `git describe` of the source tree this binary was built from, or
 *  "unknown" outside a git checkout. */
std::string
gitDescribe()
{
    const std::string cmd = "git -C '" TCPNI_SOURCE_DIR
                            "' describe --always --dirty 2>/dev/null";
    std::string out;
    if (FILE *p = popen(cmd.c_str(), "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof(buf), p))
            out += buf;
        pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

} // namespace

std::string
provenanceJson(const exp::Context &ctx, const std::string &experiment)
{
    using stats::jsonEscape;
    std::ostringstream os;
    os << "{\"gitDescribe\":\"" << jsonEscape(gitDescribe())
       << "\",\"buildType\":\"" << jsonEscape(TCPNI_BUILD_TYPE)
       << "\",\"compiler\":\"" << jsonEscape(TCPNI_COMPILER)
       << "\",\"hardwareThreads\":" << SweepRunner::defaultJobs()
       << ",\"argv\":[\"tcpni_bench\",\"" << jsonEscape(experiment)
       << "\"";
    for (const std::string &a : ctx.args)
        os << ",\"" << jsonEscape(a) << "\"";
    os << "]}";
    return os.str();
}

} // namespace bench
} // namespace tcpni
