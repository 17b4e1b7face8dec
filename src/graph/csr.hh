/**
 * @file
 * Compressed sparse row (CSR) graph, the on-device data layout.
 *
 * This is exactly the "neighbor edge list array" of the paper (Fig 10):
 * `offsets[u]..offsets[u+1]` delimits node u's neighbor ID list, stored
 * contiguously. The same byte layout is what the simulated SSD stores,
 * so logical block addresses for a node's edge list fall out of the
 * offsets directly.
 */

#ifndef SMARTSAGE_GRAPH_CSR_HH
#define SMARTSAGE_GRAPH_CSR_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace smartsage::graph
{

/** Node id within a materialized graph (4 B on device, as in CSR files). */
using LocalNodeId = std::uint32_t;

/** Byte offset / edge index type. */
using EdgeIndex = std::uint64_t;

/** Immutable CSR graph. Build with GraphBuilder or a generator. */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Adopt prebuilt arrays.
     * @pre offsets.size() == num_nodes + 1, offsets.front() == 0,
     *      offsets.back() == neighbors.size(), offsets nondecreasing.
     */
    CsrGraph(std::vector<EdgeIndex> offsets,
             std::vector<LocalNodeId> neighbors);

    std::uint64_t numNodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
    std::uint64_t numEdges() const { return neighbors_.size(); }

    /** Out-degree of @p u. */
    std::uint64_t
    degree(LocalNodeId u) const
    {
        return offsets_[u + 1] - offsets_[u];
    }

    /** Neighbor list of @p u. */
    std::span<const LocalNodeId>
    neighbors(LocalNodeId u) const
    {
        return {neighbors_.data() + offsets_[u],
                neighbors_.data() + offsets_[u + 1]};
    }

    /** Hint that @p u's offsets entry is read soon. */
    void
    prefetchOffsets(LocalNodeId u) const
    {
        __builtin_prefetch(offsets_.data() + u);
    }

    /**
     * Hint that @p u's neighbor list is read soon: prefetches its first
     * kPrefetchIds ids, a line at a time. Reads @p u's offsets. Every
     * address lies inside the list, so an empty one prefetches nothing.
     */
    void
    prefetchNeighbors(LocalNodeId u) const
    {
        const EdgeIndex begin = offsets_[u];
        const EdgeIndex end = std::min<EdgeIndex>(offsets_[u + 1],
                                                  begin + kPrefetchIds);
        for (EdgeIndex e = begin; e < end; e += kIdsPerLine)
            __builtin_prefetch(neighbors_.data() + e);
    }

    /** Ids one prefetchNeighbors call covers: four 64-byte lines. On
     *  Reddit (mean degree ~126) one line and eight lines both
     *  measured slower. */
    static constexpr EdgeIndex kPrefetchIds = 64;

    /** Edge-array index where @p u's list begins (for LBA computation). */
    EdgeIndex edgeOffset(LocalNodeId u) const { return offsets_[u]; }

    /** Mean out-degree. */
    double avgDegree() const;

    /** Maximum out-degree. */
    std::uint64_t maxDegree() const;

    /** Bytes of the neighbor array as stored on device (4 B per edge). */
    std::uint64_t edgeListBytes() const { return numEdges() * sizeof(LocalNodeId); }

    /** Bytes of the offsets array. */
    std::uint64_t offsetBytes() const { return offsets_.size() * sizeof(EdgeIndex); }

    /** Validate structural invariants; panics on violation. */
    void checkInvariants() const;

    const std::vector<EdgeIndex> &offsets() const { return offsets_; }
    const std::vector<LocalNodeId> &rawNeighbors() const { return neighbors_; }

  private:
    static constexpr EdgeIndex kIdsPerLine = 64 / sizeof(LocalNodeId);

    std::vector<EdgeIndex> offsets_;
    std::vector<LocalNodeId> neighbors_;
};

} // namespace smartsage::graph

#endif // SMARTSAGE_GRAPH_CSR_HH
