#include "common/trace.hh"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdlib>
#include <iostream>
#include <map>
#include <ostream>

#include "common/logging.hh"

namespace tcpni
{
namespace trace
{

namespace detail
{
uint32_t enabledMask = 0;
} // namespace detail

namespace
{

// Thread-local so concurrent simulations (SweepRunner workers) can
// each trace independently without synchronization.
thread_local std::ostream *stream_ = nullptr;
thread_local TraceSink *sink_ = nullptr;

struct FlagEntry
{
    const char *name;
    Flag flag;
};

constexpr FlagEntry flagTable[] = {
    {"NI", Flag::NI},           {"NOC", Flag::NOC},
    {"CPU", Flag::CPU},         {"DISPATCH", Flag::DISPATCH},
    {"EVENT", Flag::EVENT},     {"TAM", Flag::TAM},
    {"HPU", Flag::HPU},
};

/** Apply TCPNI_TRACE once at program start. */
struct EnvInit
{
    EnvInit() { initFromEnv(); }
} envInit;

} // namespace

void
enable(Flag f)
{
    detail::enabledMask |= static_cast<uint32_t>(f);
}

void
disable(Flag f)
{
    detail::enabledMask &= ~static_cast<uint32_t>(f);
}

void
enableAll()
{
    detail::enabledMask = allFlagsMask;
}

void
disableAll()
{
    detail::enabledMask = 0;
}

const char *
flagName(Flag f)
{
    for (const FlagEntry &e : flagTable) {
        if (e.flag == f)
            return e.name;
    }
    return "?";
}

bool
parseFlag(const std::string &name, Flag &out)
{
    std::string upper;
    for (char c : name)
        upper.push_back(static_cast<char>(std::toupper(c)));
    for (const FlagEntry &e : flagTable) {
        if (upper == e.name) {
            out = e.flag;
            return true;
        }
    }
    return false;
}

bool
setFromString(const std::string &spec)
{
    bool all_known = true;
    std::string token;
    auto apply = [&]() {
        if (token.empty())
            return;
        std::string upper;
        for (char c : token)
            upper.push_back(static_cast<char>(std::toupper(c)));
        if (upper == "ALL") {
            enableAll();
        } else {
            Flag f;
            if (parseFlag(token, f)) {
                enable(f);
            } else {
                warn("unknown trace flag '%s' ignored (known: NI NOC "
                     "CPU DISPATCH EVENT TAM HPU ALL)", token.c_str());
                all_known = false;
            }
        }
        token.clear();
    };
    for (char c : spec) {
        if (c == ',' || c == ' ' || c == '\t')
            apply();
        else
            token.push_back(c);
    }
    apply();
    return all_known;
}

void
initFromEnv()
{
    const char *env = std::getenv("TCPNI_TRACE");
    if (env && env[0])
        setFromString(env);
}

void
setStream(std::ostream *os)
{
    stream_ = os;
}

std::ostream &
stream()
{
    return stream_ ? *stream_ : std::cerr;
}

void
emit(Flag, Tick tick, const std::string &who, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = logging::vformat(fmt, ap);
    va_end(ap);
    stream() << tick << ": " << who << ": " << msg << '\n';
}

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::inject: return "inject";
      case Stage::hop: return "hop";
      case Stage::arrive: return "arrive";
      case Stage::dispatch: return "dispatch";
      case Stage::done: return "done";
      case Stage::hpuStart: return "hpuStart";
      case Stage::hpuEnd: return "hpuEnd";
      case Stage::hpuOverrun: return "hpuOverrun";
    }
    return "?";
}

TraceSink *
sink()
{
    return sink_;
}

void
setSink(TraceSink *s)
{
    sink_ = s;
}

void
TraceSink::record(uint64_t id, Stage stage, NodeId node, Tick tick,
                  uint8_t type, uint64_t sim)
{
    if (events_.size() >= limit_) {
        if (dropped_++ == 0)
            warn("trace sink full (%zu events); further lifecycle "
                 "events dropped", limit_);
        return;
    }
    events_.push_back({id, stage, node, tick, type, sim});
}

namespace
{

bool
byTickThenStage(const LifecycleEvent &a, const LifecycleEvent &b)
{
    if (a.tick != b.tick)
        return a.tick < b.tick;
    return static_cast<uint8_t>(a.stage) < static_cast<uint8_t>(b.stage);
}

} // namespace

std::vector<LifecycleEvent>
TraceSink::lifecycle(uint64_t id, uint64_t sim) const
{
    std::vector<LifecycleEvent> out;
    for (const LifecycleEvent &e : events_) {
        if (e.id == id && e.sim == sim)
            out.push_back(e);
    }
    std::stable_sort(out.begin(), out.end(), byTickThenStage);
    return out;
}

size_t
TraceSink::completeLifecycles() const
{
    std::map<std::pair<uint64_t, uint64_t>, unsigned> seen;
    for (const LifecycleEvent &e : events_) {
        if (e.stage == Stage::inject || e.stage == Stage::arrive)
            seen[{e.sim, e.id}] |= 1;
        if (e.stage == Stage::dispatch)
            seen[{e.sim, e.id}] |= 2;
    }
    size_t n = 0;
    for (const auto &[id, mask] : seen) {
        (void)id;
        if (mask == 3)
            ++n;
    }
    return n;
}

void
TraceSink::clear()
{
    events_.clear();
    dropped_ = 0;
}

void
TraceSink::writeChromeTrace(std::ostream &os) const
{
    // Number the simulations in order of first appearance, then group
    // events per message -- (pid, id) -- ordered by time.
    std::map<uint64_t, unsigned> pidOf;
    std::map<std::pair<unsigned, uint64_t>, std::vector<LifecycleEvent>>
        byMsg;
    std::map<std::pair<unsigned, NodeId>, bool> tracks;
    for (const LifecycleEvent &e : events_) {
        const unsigned pid =
            pidOf.emplace(e.sim, unsigned(pidOf.size())).first->second;
        byMsg[{pid, e.id}].push_back(e);
        tracks[{pid, e.node}] = true;
    }

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    // One process per simulation, one named track per node.
    for (unsigned pid = 0; pid < pidOf.size(); ++pid) {
        sep();
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"args\":{\"name\":\"sim " << pid << "\"}}";
    }
    for (const auto &[track, unused] : tracks) {
        (void)unused;
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
           << track.first << ",\"tid\":" << track.second
           << ",\"args\":{\"name\":\"node " << track.second << "\"}}";
    }

    for (auto &[msg, evs] : byMsg) {
        const auto [pid, id] = msg;
        auto slice = [&, pid = pid, id = id](const char *phase,
                                             Tick start, Tick end,
                                             NodeId tid, uint8_t type) {
            sep();
            os << "{\"name\":\"" << phase << "\",\"cat\":\"msg\","
               << "\"ph\":\"X\",\"ts\":" << start << ",\"dur\":"
               << (end - start) << ",\"pid\":" << pid
               << ",\"tid\":" << tid << ",\"args\":{\"id\":" << id
               << ",\"type\":" << unsigned(type) << "}}";
        };
        auto instant = [&, pid = pid, id = id](const char *name,
                                               const LifecycleEvent &e) {
            sep();
            os << "{\"name\":\"" << name << "\",\"cat\":\"msg\","
               << "\"ph\":\"i\",\"ts\":" << e.tick << ",\"pid\":" << pid
               << ",\"tid\":" << e.node << ",\"s\":\"t\",\"args\":{"
               << "\"id\":" << id << "}}";
        };

        std::stable_sort(evs.begin(), evs.end(), byTickThenStage);
        const LifecycleEvent *inject = nullptr, *arrive = nullptr;
        const LifecycleEvent *dispatch = nullptr, *done = nullptr;
        const LifecycleEvent *hpu_start = nullptr, *hpu_end = nullptr;
        for (const LifecycleEvent &e : evs) {
            switch (e.stage) {
              case Stage::inject: if (!inject) inject = &e; break;
              case Stage::arrive: if (!arrive) arrive = &e; break;
              case Stage::dispatch: if (!dispatch) dispatch = &e; break;
              case Stage::done: if (!done) done = &e; break;
              case Stage::hpuStart:
                if (!hpu_start) hpu_start = &e;
                break;
              case Stage::hpuEnd: if (!hpu_end) hpu_end = &e; break;
              case Stage::hpuOverrun: instant("budget_overrun", e); break;
              // Instant event on the router's track.
              case Stage::hop: instant("hop", e); break;
            }
        }
        uint8_t type = evs.empty() ? 0 : evs.front().type;
        if (hpu_start && hpu_end)
            slice("hpu_handler", hpu_start->tick, hpu_end->tick,
                  hpu_end->node, type);
        if (inject && arrive)
            slice("network", inject->tick, arrive->tick, arrive->node,
                  type);
        if (arrive && dispatch)
            slice("queued", arrive->tick, dispatch->tick, dispatch->node,
                  type);
        if (dispatch && done)
            slice("handler", dispatch->tick, done->tick, done->node,
                  type);
    }

    if (dropped_ > 0) {
        sep();
        os << "{\"name\":\"trace_truncated\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":0,\"args\":{\"dropped_events\":" << dropped_
           << "}}";
    }
    os << "\n]}\n";
}

} // namespace trace
} // namespace tcpni
