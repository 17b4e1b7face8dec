/**
 * @file
 * NSconfig: the neighbor-sampling configuration blob (Fig 11/12).
 *
 * The SmartSAGE driver coalesces an entire group of target nodes'
 * sampling work into one NVMe command whose payload — NSconfig — the
 * SSD pulls over a single CPU->SSD DMA. This file sizes that payload
 * and records the per-node work items the firmware will execute.
 */

#ifndef SMARTSAGE_ISP_NSCONFIG_HH
#define SMARTSAGE_ISP_NSCONFIG_HH

#include <cstdint>
#include <span>
#include <vector>

#include "gnn/sampler.hh"
#include "graph/csr.hh"
#include "graph/layout.hh"
#include "ssd/ftl.hh"

namespace smartsage::isp
{

/**
 * The sampling work recorded for one frontier node. Its least and
 * greatest entry are found once, by the constructor, on the thread that
 * recorded the entries (a pool worker, while they are still in its
 * cache), so a replay on another thread need not scan them again. The
 * fields are private so that the extremes always match the entries.
 */
class NodeWork
{
  public:
    NodeWork(graph::LocalNodeId node, std::span<const std::uint64_t> entries);

    graph::LocalNodeId node() const { return node_; }

    /** Absolute edge-array entry indices that were sampled: a view
     *  into the flat entry array of the IspTraceVisitor that recorded
     *  them, valid while that visitor lives. */
    std::span<const std::uint64_t>
    entries() const
    {
        return {first_, count_};
    }

    std::uint64_t minEntry() const { return min_entry_; } //!< 0 if none
    std::uint64_t maxEntry() const { return max_entry_; } //!< 0 if none

  private:
    // Pointer and 32-bit count rather than a std::span, with the node
    // beside the count: 32 bytes, not 40. A batch of sampled-ahead
    // work holds ~12k of these through its replay.
    const std::uint64_t *first_ = nullptr;
    std::uint32_t count_ = 0;
    graph::LocalNodeId node_ = 0;
    std::uint64_t min_entry_ = 0;
    std::uint64_t max_entry_ = 0;
};

/** Sizing parameters of the serialized NSconfig blob. */
struct NsConfigFormat
{
    std::uint64_t header_bytes = 64;
    /** Per-target descriptor: node id + LBA + degree + sample count. */
    std::uint64_t per_target_bytes = 24;

    std::uint64_t
    bytesFor(std::size_t num_targets) const
    {
        return header_bytes + per_target_bytes * num_targets;
    }
};

/**
 * The distinct flash pages that hold @p work's entries, ascending, into
 * @p pages (cleared first). Entries are laid out by @p layout and
 * mapped by @p ftl, both monotone in the entry index, so when the least
 * and the greatest entry share a page every entry is on it, and that
 * page is the whole answer without reading the entries. A list that
 * spans pages is mapped entry by entry, sorted and deduplicated.
 */
void nodePages(const NodeWork &work, const graph::EdgeLayout &layout,
               const ssd::Ftl &ftl, std::vector<std::uint64_t> &pages);

/**
 * SampleVisitor that captures the full per-node access trace of one
 * mini-batch so the ISP timing engine can replay it in-storage.
 *
 * The trace is flat: every sampled entry of the batch lives in one
 * array, and each NodeWork views its own slice of it. A batch thus
 * costs a handful of allocations however many nodes it touches, and
 * moving the visitor keeps every view valid. It is move-only, since a
 * copy's views would still point into the original's array.
 *
 * The library samplers fill the arrays inline through traceSink(); a
 * sampler that only makes the virtual callbacks records the same
 * trace through onOffsetRead and onEdgeEntryRead.
 */
class IspTraceVisitor : public gnn::SampleVisitor
{
  public:
    IspTraceVisitor() = default;
    IspTraceVisitor(IspTraceVisitor &&) = default;
    IspTraceVisitor &operator=(IspTraceVisitor &&) = default;
    IspTraceVisitor(const IspTraceVisitor &) = delete;
    IspTraceVisitor &operator=(const IspTraceVisitor &) = delete;

    gnn::SampleTrace *traceSink() override { return &trace_; }
    void onBatchStart(std::size_t num_targets) override;
    void onOffsetRead(graph::LocalNodeId u) override { trace_.beginNode(u); }
    void
    onEdgeEntryRead(graph::LocalNodeId, std::uint64_t entry_index) override
    {
        trace_.addEntry(entry_index);
    }
    void onBatchEnd() override;

    /** Work items in sampling order (all hops, flattened), made when
     *  the batch ends. */
    const std::vector<NodeWork> &work() const { return work_; }
    std::size_t numTargets() const { return num_targets_; }

    /** Total sampled entries across the batch. */
    std::uint64_t totalEntries() const { return trace_.entries.size(); }

  private:
    std::vector<NodeWork> work_;
    /** Filled while the batch samples; once it ends only its entries
     *  are kept, viewed by work_. */
    gnn::SampleTrace trace_;
    std::size_t num_targets_ = 0;
};

} // namespace smartsage::isp

#endif // SMARTSAGE_ISP_NSCONFIG_HH
