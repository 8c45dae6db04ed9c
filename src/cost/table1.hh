/**
 * @file
 * The Table-1 harness: measures the per-message cost of sending,
 * dispatching, and processing each protocol message type under each of
 * the paper's six interface models, by executing the hand-written
 * kernels of msg/kernels.hh on the CPU timing model.
 *
 * Methodology (matching Section 4.1): a stream of K identical messages
 * is preloaded into the server's input queue and the handler loop runs
 * to completion; per-region cycle counts are differenced between a
 * K=4 and a K=12 run so that startup and shutdown constants cancel,
 * leaving the exact steady-state cost per message.  Sending costs come
 * from an unrolled sender loop the same way.
 *
 * The harness also evaluates the paper's reference values (Table 1)
 * for comparison; see paperTable1().
 */

#ifndef TCPNI_COST_TABLE1_HH
#define TCPNI_COST_TABLE1_HH

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mem/memory.hh"
#include "msg/kernels.hh"
#include "ni/config.hh"
#include "noc/message.hh"

namespace tcpni
{
namespace cost
{

/** Processing cases measured (Table 1's PROCESSING rows). */
enum class ProcCase
{
    send0,
    send1,
    send2,
    read,
    write,
    preadFull,
    preadEmpty,
    preadDeferred,      //!< element already has one waiting reader
    pwriteEmpty,
    pwriteDeferred,     //!< parameterized by the number of readers n
};

std::string procCaseName(ProcCase c);

/** Result of one processing measurement. */
struct ProcCost
{
    double dispatching;     //!< cycles per message spent dispatching
    double processing;      //!< cycles per message spent in the handler
};

/** A measured (base + slope * n) pair for PWrite with n readers. */
struct LinearCost
{
    double base;
    double slope;
};

/** Measures one interface model. */
class Table1Harness
{
  public:
    /**
     * @param basic_sw_checks  include software queue-threshold checks
     *   in the basic models' dispatch (Section 2.2.4).  Table 1 itself
     *   omits them (its caption says the comparison favors the basic
     *   models); the Figure-12 expansion includes them.
     *
     * The off-chip load-use delay comes from the model itself
     * (Model::withOffchipDelay for the Section 4.2.3 sensitivity).
     */
    explicit Table1Harness(ni::Model model,
                           bool basic_sw_checks = false,
                           bool no_overlap = false);

    const ni::Model &model() const { return model_; }

    /** Sending cost in cycles per message (the copy variant; the
     *  paper's register-mapped lower bounds subtract
     *  msg::directlyComputableWords()). */
    double sendingCost(msg::Kind kind);

    /** Dispatch + processing cost for one case.  @p n is the deferred
     *  reader count for pwriteDeferred. */
    ProcCost processingCost(ProcCase c, unsigned n = 1);

    /** Fit PWrite-deferred processing as base + slope*n (Table 1's
     *  "15+6n" style entries), measured at n = 1 and n = 3. */
    LinearCost pwriteDeferredCost();

  private:
    struct RunResult
    {
        std::map<std::string, uint64_t> regionCycles;
    };

    /** Run the handler server over @p msgs; @p mem_prep initializes
     *  the server's memory before execution. */
    RunResult runServer(const std::vector<Message> &msgs,
                        const std::function<void(Memory &)> &mem_prep);

    RunResult runSender(msg::Kind kind, unsigned count);

    /** Craft the K-message stream (plus STOP) for a processing case. */
    std::vector<Message> makeMsgs(ProcCase c, unsigned n, unsigned k);

    /** Memory initializer for a processing case sized for @p k
     *  messages with @p n deferred readers each. */
    std::function<void(Memory &)> memPrep(ProcCase c, unsigned n,
                                          unsigned k);

    ni::NiConfig config() const;

    ni::Model model_;
    std::optional<isa::Program> handlerProg_;
    /** The host proxy service loop (on-NI models only). */
    std::optional<isa::Program> hostProg_;
};

/** One cell of the paper's published Table 1. */
struct PaperCell
{
    double lo;                  //!< lower bound (ranges) or the value
    double hi;                  //!< upper bound; == lo when exact
    double slope = 0;           //!< per-n slope for PWrite (deferred)
};

/**
 * The paper's Table 1, keyed by (row, model index) where the model
 * index follows ni::paperModels() order: optimized reg / on-chip /
 * off-chip, then basic reg / on-chip / off-chip.  Row keys:
 * "send:<kind>", "dispatch", "proc:<case>".
 */
std::map<std::string, std::array<PaperCell, 6>> paperTable1();

/** Row key helpers. */
std::string sendRowKey(msg::Kind k);
std::string procRowKey(ProcCase c);

} // namespace cost
} // namespace tcpni

#endif // TCPNI_COST_TABLE1_HH
