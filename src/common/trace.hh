/**
 * @file
 * The tcpni observability layer: per-component debug trace flags and
 * structured message-lifecycle tracing.
 *
 * Two coordinated facilities share this header:
 *
 * 1. **Debug trace flags** (gem5 DPRINTF-style).  Every traced
 *    component belongs to one Flag (NI, NOC, CPU, DISPATCH, EVENT,
 *    TAM).  Call sites use the TCPNI_TRACE / TCPNI_TRACE_AT macros,
 *    which compile to a single global load-and-test when the flag is
 *    disabled -- the format arguments are not even evaluated.  Flags
 *    are runtime-settable programmatically (enable()/disable()) or via
 *    the TCPNI_TRACE environment variable, e.g.
 *
 *        TCPNI_TRACE=NI,NOC ./build/examples/quickstart
 *
 *    Lines are emitted as "tick: component.name: message" to stderr
 *    (redirectable with setStream() for tests).
 *
 * 2. **Message-lifecycle tracing.**  Every Message is tagged with a
 *    monotonically increasing trace id (allocated per simulation by
 *    EventQueue::nextTraceId()) when it enters an NI output
 *    queue.  Components report lifecycle points (inject, each mesh
 *    hop, arrival-queue enqueue, dispatch into the input registers,
 *    handler done) to an optionally installed TraceSink, which can
 *    render them as Chrome trace-event JSON (loadable in Perfetto /
 *    chrome://tracing, one track per node).  With no sink installed
 *    the per-message cost is a single null-pointer test.
 */

#ifndef TCPNI_COMMON_TRACE_HH
#define TCPNI_COMMON_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tcpni
{
namespace trace
{

/** One bit per traced component. */
enum class Flag : uint32_t
{
    NI = 1u << 0,        //!< network-interface commands and queues
    NOC = 1u << 1,       //!< fabric injection, hops, delivery
    CPU = 1u << 2,       //!< instruction retire, interrupts
    DISPATCH = 1u << 3,  //!< MsgIp dispatch decisions
    EVENT = 1u << 4,     //!< event-queue activity
    TAM = 1u << 5,       //!< TAM protocol state transitions
    HPU = 1u << 6,       //!< on-NI handler processing unit
};

constexpr uint32_t allFlagsMask = 0x7f;

namespace detail
{
/** Bitwise OR of the enabled Flags.  Exposed only so enabled() can
 *  inline to a load-and-test; do not write it directly. */
extern uint32_t enabledMask;
} // namespace detail

/** True when @p f is enabled.  This is the hot-path check. */
inline bool
enabled(Flag f)
{
    return (detail::enabledMask & static_cast<uint32_t>(f)) != 0;
}

void enable(Flag f);
void disable(Flag f);
void enableAll();
void disableAll();

/** Canonical name of a flag ("NI", "NOC", ...). */
const char *flagName(Flag f);

/** Parse one flag name (case-insensitive). @return false if unknown. */
bool parseFlag(const std::string &name, Flag &out);

/**
 * Enable flags from a comma/space-separated spec such as "NI,NOC" or
 * "all".  Unknown names are warned about and skipped.
 * @return true if every token was recognized.
 */
bool setFromString(const std::string &spec);

/** Apply the TCPNI_TRACE environment variable (no-op when unset).
 *  Called automatically at program start. */
void initFromEnv();

/** Redirect this thread's trace output; nullptr restores the default
 *  (stderr). */
void setStream(std::ostream *os);

/** The current trace output stream. */
std::ostream &stream();

/** Emit one "tick: who: message" line (call via the macros). */
void emit(Flag f, Tick tick, const std::string &who, const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/** Lifecycle points of a message. */
enum class Stage : uint8_t
{
    inject,    //!< entered an NI output queue (SEND)
    hop,       //!< advanced one router in the fabric
    arrive,    //!< enqueued in the destination NI input queue
    dispatch,  //!< loaded into the input registers (handler start)
    done,      //!< consumed by NEXT (handler finished)
    hpuStart,  //!< on-NI handler activation began on the HPU
    hpuEnd,    //!< on-NI handler activation finished
    hpuOverrun, //!< activation exceeded the HPU handler-time budget
};

const char *stageName(Stage s);

/** One recorded lifecycle point. */
struct LifecycleEvent
{
    uint64_t id;    //!< message trace id
    Stage stage;
    NodeId node;    //!< where the event happened
    Tick tick;
    uint8_t type;   //!< 4-bit message type
    uint64_t sim;   //!< recording simulation (EventQueue::queueId())
};

/**
 * Collector of message-lifecycle events.
 *
 * Install with setSink(); components then record() their lifecycle
 * points.  Trace ids are a per-queue sequence that restarts with
 * every simulation, so a message is identified by (sim, id), where
 * sim is the recording queue's queueId().  Recording is bounded (see setLimit) so that multi-million
 * message benchmark runs cannot exhaust host memory; overflow is
 * counted, reported in the Chrome trace metadata, and warned about.
 */
class TraceSink
{
  public:
    TraceSink() = default;

    void record(uint64_t id, Stage stage, NodeId node, Tick tick,
                uint8_t type, uint64_t sim = 0);

    const std::vector<LifecycleEvent> &events() const { return events_; }

    /** Events of one message, ordered by (tick, stage). */
    std::vector<LifecycleEvent> lifecycle(uint64_t id,
                                          uint64_t sim = 0) const;

    /** Number of distinct messages with both an inject (or arrive)
     *  and a dispatch event -- i.e. complete deliveries. */
    size_t completeLifecycles() const;

    /** Events not recorded because the limit was reached. */
    uint64_t dropped() const { return dropped_; }

    /** Cap the number of stored events (default 1M). */
    void setLimit(size_t limit) { limit_ = limit; }

    void clear();

    /**
     * Write the events as Chrome trace-event JSON: one process per
     * simulation (pid = its order of first appearance), one named
     * track per node (tid = node id), duration slices for the
     * network / queued / handler phases of each message, and instant
     * events for individual hops.
     */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::vector<LifecycleEvent> events_;
    size_t limit_ = 1u << 20;
    uint64_t dropped_ = 0;
};

/**
 * The installed sink, or nullptr when lifecycle tracing is off.
 *
 * The sink pointer (like the stream) is thread-local: every worker
 * thread of a parallel sweep can install its own sink (or, by
 * default, none) without racing the others, and recording stays
 * lock-free.  Install the sink from the thread that runs the
 * simulation.
 */
TraceSink *sink();

/** Install (or, with nullptr, remove) this thread's lifecycle sink. */
void setSink(TraceSink *s);

} // namespace trace
} // namespace tcpni

/**
 * Trace from inside a SimObject member: picks up curTick() and name()
 * from the enclosing object.  Arguments are evaluated only when the
 * flag is enabled.
 */
#define TCPNI_TRACE(flag, ...)                                              \
    do {                                                                    \
        if (::tcpni::trace::enabled(::tcpni::trace::Flag::flag))            \
            ::tcpni::trace::emit(::tcpni::trace::Flag::flag, curTick(),     \
                                 name(), __VA_ARGS__);                      \
    } while (0)

/** Trace with an explicit tick and component name (for non-SimObject
 *  contexts such as the event queue or the TAM interpreter). */
#define TCPNI_TRACE_AT(flag, tick, who, ...)                                \
    do {                                                                    \
        if (::tcpni::trace::enabled(::tcpni::trace::Flag::flag))            \
            ::tcpni::trace::emit(::tcpni::trace::Flag::flag, (tick),        \
                                 (who), __VA_ARGS__);                       \
    } while (0)

#endif // TCPNI_COMMON_TRACE_HH
