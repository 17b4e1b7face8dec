/**
 * @file
 * The sampled subgraph a mini-batch trains on (the paper's Fig 2).
 *
 * Organized as DGL-style blocks: frontier[0] is the M target nodes;
 * block[h] records, for every node of frontier[h], the neighbors that
 * were sampled for it, as indices into frontier[h+1]. frontier[h+1]
 * begins with a verbatim copy of frontier[h] (a node's own embedding is
 * needed for the CONVOLVE self term), followed by newly discovered
 * sources.
 */

#ifndef SMARTSAGE_GNN_SUBGRAPH_HH
#define SMARTSAGE_GNN_SUBGRAPH_HH

#include <cstdint>
#include <vector>

#include "graph/csr.hh"

namespace smartsage::gnn
{

/** Sampled connectivity between two adjacent frontiers. */
struct SampledBlock
{
    /** Per-destination CSR offsets; size = |frontier[h]| + 1. */
    std::vector<std::uint32_t> offsets;
    /** Sampled sources as positions within frontier[h+1]. */
    std::vector<std::uint32_t> src_index;

    std::uint64_t numEdges() const { return src_index.size(); }
    std::uint64_t numDsts() const { return offsets.empty() ? 0 : offsets.size() - 1; }
};

/** The shape of one SampledBlock: all an analytic cost model reads. */
struct BlockShape
{
    std::uint64_t dsts = 0;
    std::uint64_t edges = 0;

    bool operator==(const BlockShape &) const = default;
};

/** A complete multi-hop sampled subgraph for one mini-batch. */
struct Subgraph
{
    /** frontiers[0] = targets, frontiers.back() = deepest input nodes. */
    std::vector<std::vector<graph::LocalNodeId>> frontiers;
    /** blocks[h] connects frontier[h] <- frontier[h+1]; size = depth. */
    std::vector<SampledBlock> blocks;

    std::size_t depth() const { return blocks.size(); }
    const std::vector<graph::LocalNodeId> &targets() const { return frontiers.front(); }
    const std::vector<graph::LocalNodeId> &inputNodes() const { return frontiers.back(); }

    /** Total sampled edges across every hop. */
    std::uint64_t totalSampledEdges() const;

    /** Shape of every block, in block order. */
    std::vector<BlockShape> blockShapes() const;

    /** Distinct nodes across all frontiers (deepest frontier is a
     *  superset of the shallower ones by construction). */
    std::uint64_t numUniqueNodes() const { return frontiers.back().size(); }

    /**
     * Size of the subgraph as a dense sampled-ID list, the payload
     * SmartSAGE DMAs back to the host (Fig 10(b)).
     */
    std::uint64_t
    idListBytes(unsigned entry_bytes) const
    {
        return (totalSampledEdges() + targets().size()) * entry_bytes;
    }

    /** Release every array's growth slack, for a subgraph that is
     *  held on to rather than sampled into again. */
    void shrinkToFit();

    /** Structural sanity (index ranges, frontier prefix property). */
    void checkInvariants() const;
};

} // namespace smartsage::gnn

#endif // SMARTSAGE_GNN_SUBGRAPH_HH
