/**
 * @file
 * Helpers shared by several experiment definitions (see
 * experiments.hh).
 */

#include <charconv>
#include <sstream>

#include "common/logging.hh"
#include "experiments.hh"

namespace tcpni
{
namespace bench
{

std::vector<unsigned>
parseSizes(const std::string &csv, const char *who, unsigned max_nodes)
{
    std::vector<unsigned> sizes;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty())
            continue;
        // from_chars takes no sign or space and reports an overflow.
        unsigned long long v = 0;
        const char *end = item.data() + item.size();
        auto [ptr, ec] = std::from_chars(item.data(), end, v);
        if (ec != std::errc() || ptr != end || v < 2 || v > max_nodes)
            fatal("%s: --sizes entries must be node counts in [2, %u], "
                  "got '%s'", who, max_nodes, item.c_str());
        sizes.push_back(static_cast<unsigned>(v));
    }
    if (sizes.empty())
        fatal("%s: --sizes parsed empty", who);
    return sizes;
}

uint64_t
regionSum(const std::map<std::string, uint64_t> &regions,
          std::initializer_list<const char *> keys)
{
    uint64_t sum = 0;
    for (const char *k : keys) {
        auto it = regions.find(k);
        if (it != regions.end())
            sum += it->second;
    }
    return sum;
}

} // namespace bench
} // namespace tcpni
