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

namespace smartsage::isp
{

/** The sampling work recorded for one frontier node. */
struct NodeWork
{
    graph::LocalNodeId node = 0;
    /** Absolute edge-array entry indices that were sampled: a view
     *  into the flat entry array of the IspTraceVisitor that recorded
     *  them, valid while that visitor lives. */
    std::span<const std::uint64_t> entries;
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
 * SampleVisitor that captures the full per-node access trace of one
 * mini-batch so the ISP timing engine can replay it in-storage.
 *
 * The trace is flat: every sampled entry of the batch lives in one
 * array, and each NodeWork views its own slice of it. A batch thus
 * costs a handful of allocations however many nodes it touches, and
 * moving the visitor keeps every view valid. It is move-only, since a
 * copy's views would still point into the original's array.
 */
class IspTraceVisitor : public gnn::SampleVisitor
{
  public:
    IspTraceVisitor() = default;
    IspTraceVisitor(IspTraceVisitor &&) = default;
    IspTraceVisitor &operator=(IspTraceVisitor &&) = default;
    IspTraceVisitor(const IspTraceVisitor &) = delete;
    IspTraceVisitor &operator=(const IspTraceVisitor &) = delete;

    void onBatchStart(std::size_t num_targets) override;
    void onOffsetRead(graph::LocalNodeId u) override;
    void onEdgeEntryRead(graph::LocalNodeId u,
                         std::uint64_t entry_index) override;
    void onBatchEnd() override;

    /** Work items in sampling order (all hops, flattened); their
     *  entries are filled in when the batch ends. */
    const std::vector<NodeWork> &work() const { return work_; }
    std::size_t numTargets() const { return num_targets_; }

    /** Total sampled entries across the batch. */
    std::uint64_t totalEntries() const { return entries_.size(); }

  private:
    std::vector<NodeWork> work_;
    std::vector<std::uint64_t> entries_; //!< every node's, in order
    std::vector<std::size_t> starts_;    //!< work_[i]'s first entry
    std::size_t num_targets_ = 0;
};

} // namespace smartsage::isp

#endif // SMARTSAGE_ISP_NSCONFIG_HH
