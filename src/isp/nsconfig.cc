#include "nsconfig.hh"

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"

namespace smartsage::isp
{

static_assert(sizeof(NodeWork) == 32, "NodeWork grew past 32 bytes");

NodeWork::NodeWork(graph::LocalNodeId node,
                   std::span<const std::uint64_t> entries)
    : first_(entries.data()),
      count_(static_cast<std::uint32_t>(entries.size())), node_(node)
{
    SS_ASSERT(entries.size() <= UINT32_MAX, "node ", node, " sampled ",
              entries.size(), " entries");
    if (entries.empty())
        return;
    const auto [lo, hi] = std::minmax_element(entries.begin(), entries.end());
    min_entry_ = *lo;
    max_entry_ = *hi;
}

void
nodePages(const NodeWork &work, const graph::EdgeLayout &layout,
          const ssd::Ftl &ftl, std::vector<std::uint64_t> &pages)
{
    pages.clear();
    if (work.entries().empty())
        return;
    const std::uint64_t first = ftl.pageOf(layout.addrOf(work.minEntry()));
    if (first == ftl.pageOf(layout.addrOf(work.maxEntry()))) {
        pages.push_back(first);
        return;
    }
    for (std::uint64_t e : work.entries())
        pages.push_back(ftl.pageOf(layout.addrOf(e)));
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
}

void
IspTraceVisitor::onBatchStart(std::size_t num_targets)
{
    work_.clear();
    trace_.clear();
    num_targets_ = num_targets;
}

void
IspTraceVisitor::onBatchEnd()
{
    // The entries are final now: trim their growth slack first, since
    // the views must not be invalidated after they are made. A finished
    // trace lives on through its batch's whole replay (and a sampled-
    // ahead batch waits behind it), so slack is held for that long.
    auto &entries = trace_.entries;
    entries.shrink_to_fit();
    const std::size_t count = trace_.nodes.size();
    work_.clear();
    work_.reserve(count);
    const std::span<const std::uint64_t> all(entries);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t begin = trace_.starts[i];
        const std::size_t end =
            i + 1 < count ? trace_.starts[i + 1] : entries.size();
        work_.emplace_back(trace_.nodes[i], all.subspan(begin, end - begin));
    }
    work_.shrink_to_fit();
    trace_.nodes = {}; // only needed to make the views
    trace_.starts = {};
}

} // namespace smartsage::isp
