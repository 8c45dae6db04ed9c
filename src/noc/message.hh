/**
 * @file
 * The network message format defined by the paper's architecture
 * (Figure 2): five 32-bit data words m0..m4 plus a 4-bit type field.
 *
 * The logical address of the destination processor is carried in the
 * high bits of the first word (m0); we use the top 8 bits, allowing
 * machines of up to 256 nodes.  The same convention applies to global
 * memory addresses and global frame pointers used by the message
 * protocols: a global word is (node << 24) | local_address.
 *
 * For the multi-user extensions of Section 2.1.3, each message also
 * carries the sending process's PIN and a privileged flag; these ride
 * alongside the architectural words the way a real network would carry
 * them in the routing envelope.
 */

#ifndef TCPNI_NOC_MESSAGE_HH
#define TCPNI_NOC_MESSAGE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tcpni
{

/** Number of data words in a message. */
constexpr unsigned msgWords = 5;

/** Bit position of the node id within a global word. */
constexpr unsigned nodeShift = 24;

/** Number of node-id bits in a global word. */
constexpr unsigned nodeBits = 8;

/** Largest machine whose node ids a global word can carry.  Kernels
 *  address nodes through global words, so booting one on a larger
 *  machine is rejected (envelope-routed traffic has no such limit). */
constexpr unsigned maxAddressableNodes = 1u << nodeBits;

/** Compose a global word from a node id and a local value. */
constexpr Word
globalWord(NodeId node, Word local)
{
    return (node << nodeShift) | (local & ((1u << nodeShift) - 1));
}

/** Node id field of a global word. */
constexpr NodeId
nodeOf(Word global)
{
    return global >> nodeShift;
}

/** Local part of a global word. */
constexpr Word
localOf(Word global)
{
    return global & ((1u << nodeShift) - 1);
}

/** A network message (Figure 2). */
struct Message
{
    std::array<Word, msgWords> words{};  //!< m0..m4
    uint8_t type = 0;                    //!< 4-bit message type
    uint8_t pin = 0;                     //!< sending process id
    bool privileged = false;             //!< OS-destined message
    NodeId src = 0;                      //!< source node (for tracing)

    /**
     * Routing envelope.  The NI derives this from the high bits of m0
     * at SEND time (for a long SCROLL-OUT message, from the first five
     * words composed, whose m0 carries the destination).
     */
    NodeId dst = 0;

    /**
     * Words beyond the first five of a variable-length message
     * (Section 2.1.2).  A long message is composed with SCROLL-OUT and
     * consumed with SCROLL-IN; it travels the fabric as one unit, the
     * way a wormhole-routed multi-flit packet would.
     */
    std::vector<Word> extra;

    /**
     * @{ Instrumentation envelope (not architectural state): the
     * monotonically increasing lifecycle trace id assigned when the
     * message enters an NI output queue (0 = untagged), and the ticks
     * at which it was injected and arrived, used for the NI latency
     * distributions.  Excluded from equality.
     */
    uint64_t traceId = 0;
    Tick injectTick = 0;
    Tick arriveTick = 0;
    /** @} */

    /** Total payload length in words. */
    size_t length() const { return msgWords + extra.size(); }

    /** Destination node (routing envelope). */
    NodeId dest() const { return dst; }

    /** Set the envelope destination from the high bits of m0. */
    void setDestFromWord0() { dst = nodeOf(words[0]); }

    /** Human-readable rendering for traces and test failures. */
    std::string toString() const;

    /** Architectural equality: the instrumentation envelope (trace id
     *  and timestamps) is ignored. */
    bool
    operator==(const Message &o) const
    {
        return words == o.words && type == o.type && pin == o.pin &&
               privileged == o.privileged && src == o.src &&
               dst == o.dst && extra == o.extra;
    }
};

} // namespace tcpni

#endif // TCPNI_NOC_MESSAGE_HH
