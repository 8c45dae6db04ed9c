/**
 * @file
 * Static k-ary combining-tree topology for the collective message
 * types (protocol.hh): BARRIER, MCAST, and REDUCE/ALLREDUCE fan out
 * over a tree whose shape is fixed before the run, mirroring the
 * software combining trees of Yu et al. but with every interior hop
 * executed by a message handler instead of an interrupted host.
 *
 * Mapping: mesh node 0 is the experiment driver and does not
 * participate; participant nodes 1..N-1 carry 0-based tree ranks
 * r = node - 1.  Rank 0 (node 1) is the root; rank r's parent is
 * (r - 1) / k and its children are k*r + 1 .. k*r + k (clipped to the
 * participant count).  The topology is pure arithmetic — no per-node
 * state — and initFrames() materialises it as one combine frame per
 * participant, written through the node memories before boot.
 */

#ifndef TCPNI_SYSTEM_TREE_HH
#define TCPNI_SYSTEM_TREE_HH

#include <vector>

#include "noc/message.hh"

namespace tcpni
{
namespace sys
{

class System;

class TreeTopology
{
  public:
    /** A k-ary tree over the participants of an @p nodes -node mesh
     *  (nodes >= 2, arity >= 1): node 0 drives, nodes 1..nodes-1 form
     *  the tree. */
    TreeTopology(unsigned nodes, unsigned arity);

    unsigned nodes() const { return nodes_; }
    unsigned participants() const { return nodes_ - 1; }
    unsigned arity() const { return arity_; }
    NodeId root() const { return 1; }

    /** Levels below the root on the longest path (0 for a 1-node
     *  tree). */
    unsigned depth() const { return depth_; }

    /** Parent mesh node of @p node, or 0 when @p node is the root. */
    NodeId parentOf(NodeId node) const;

    /** Child mesh nodes of @p node in rank order (empty at leaves). */
    std::vector<NodeId> childrenOf(NodeId node) const;

    /** Number of children of @p node. */
    unsigned fanOf(NodeId node) const;

    /** True when @p node combines child replies (fan > 0). */
    bool interior(NodeId node) const { return fanOf(node) > 0; }

    /** Global frame pointer of @p node 's combine frame. */
    static Word frameFp(NodeId node);

    /**
     * Write every participant's combine frame into its node memory:
     * CF_PARENT (parent frame FP, 0 at the root), CF_FAN, CF_COUNT
     * armed to fan + 1 (children plus the node's own up-message),
     * CF_ACC and CF_ARMACC to collOpIdentity(@p op), CF_NOTIFY to
     * @p notify_fp (the driver's completion slot), CF_DONE to 0, and
     * the CF_CHILD array of child frame FPs.  Must run before boot so
     * handlers find armed frames.
     */
    void initFrames(System &machine, Word notify_fp, Word op) const;

  private:
    unsigned rankOf(NodeId node) const { return node - 1; }
    NodeId nodeOfRank(unsigned rank) const { return rank + 1; }

    unsigned nodes_;
    unsigned arity_;
    unsigned depth_;
};

} // namespace sys
} // namespace tcpni

#endif // TCPNI_SYSTEM_TREE_HH
