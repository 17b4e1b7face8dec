#include "nsconfig.hh"

namespace smartsage::isp
{

void
IspTraceVisitor::onBatchStart(std::size_t num_targets)
{
    work_.clear();
    entries_.clear();
    starts_.clear();
    num_targets_ = num_targets;
}

void
IspTraceVisitor::onOffsetRead(graph::LocalNodeId u)
{
    work_.push_back(NodeWork{u, {}});
    starts_.push_back(entries_.size());
}

void
IspTraceVisitor::onEdgeEntryRead(graph::LocalNodeId u,
                                 std::uint64_t entry_index)
{
    (void)u;
    entries_.push_back(entry_index);
}

void
IspTraceVisitor::onBatchEnd()
{
    // entries_ is final now: trim its growth slack first, since the
    // views must not be invalidated after they are made. A finished
    // trace lives on through its batch's whole replay (and a sampled-
    // ahead batch waits behind it), so slack is held for that long.
    entries_.shrink_to_fit();
    work_.shrink_to_fit();
    const std::span<const std::uint64_t> all(entries_);
    for (std::size_t i = 0; i < work_.size(); ++i) {
        const std::size_t end =
            i + 1 < work_.size() ? starts_[i + 1] : entries_.size();
        work_[i].entries = all.subspan(starts_[i], end - starts_[i]);
    }
    starts_ = {}; // only needed to make the views
}

} // namespace smartsage::isp
