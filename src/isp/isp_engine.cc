#include "isp_engine.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"

namespace smartsage::isp
{

IspEngine::IspEngine(const IspConfig &config, ssd::SsdDevice &ssd,
                     const graph::EdgeLayout &layout)
    : config_(config), ssd_(ssd), layout_(layout)
{
    SS_ASSERT(config.coalesce_targets > 0,
              "coalescing granularity must be positive");
}

sim::Tick
IspEngine::runGroup(const NodeWork *work, std::size_t count,
                    sim::Tick arrival, IspBatchResult &result) const
{
    const auto &ssd_cfg = ssd_.config();

    // One NVMe write command carries a pointer to NSconfig; the SSD
    // DMAs the blob over and the firmware parses every work item.
    std::uint64_t ns_bytes = config_.format.bytesFor(count);
    sim::Tick blob_in = ssd_.dmaFromHost(arrival, ns_bytes);
    result.bytes_from_host += ns_bytes;
    ++result.commands;

    sim::Tick parse_work = ssd_cfg.nvme_command +
                           ssd_cfg.isp_per_target * count;
    sim::Tick parsed = ssd_.cores().execute(blob_in, parse_work).finish;

    // Phase 1 (issue loop): translate and launch every node's flash
    // page requests up front; dies and channels overlap freely. The
    // firmware's issue loop runs ahead of completions exactly like
    // this on real CSDs — serializing issue behind gather would idle
    // the flash array.
    struct PendingGather
    {
        sim::Tick buffered;   //!< all of the node's pages in the buffer
        sim::Tick gather;     //!< firmware gather cost
    };
    std::vector<PendingGather> pending;
    pending.reserve(count);
    std::vector<std::uint64_t> pages;
    std::uint64_t subgraph_entries = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const NodeWork &w = work[i];
        if (w.entries().empty())
            continue;
        subgraph_entries += w.entries().size();

        nodePages(w, layout_, ssd_.ftl(), pages);
        result.flash_pages += pages.size();

        sim::Tick buffered = parsed;
        for (std::uint64_t lpn : pages)
            buffered = std::max(buffered, ssd_.fetchPage(parsed, lpn));
        pending.push_back(
            {buffered, ssd_cfg.isp_per_edge * w.entries().size()});
    }

    // Phase 2 (completion loop): gather each node's samples out of the
    // page buffer on the embedded cores, in page-arrival order. The
    // order std::sort leaves among equal arrivals decides which core
    // serves which node, so the published timings depend on this very
    // call: a stable sort, or any other tie order, moves them.
    std::sort(pending.begin(), pending.end(),
              [](const PendingGather &a, const PendingGather &b) {
                  return a.buffered < b.buffered;
              });
    sim::Tick group_done = parsed;
    for (const auto &p : pending) {
        group_done = std::max(
            group_done,
            ssd_.cores().execute(p.buffered, p.gather).finish);
    }

    // Ship back the densely packed sampled-ID list (Fig 10(b)).
    std::uint64_t out_bytes =
        (subgraph_entries + count) * layout_.entry_bytes;
    result.bytes_to_host += out_bytes;
    return ssd_.dmaToHost(group_done, out_bytes);
}

IspBatchResult
IspEngine::runBatch(const IspTraceVisitor &trace,
                    sim::Tick arrival) const
{
    const auto &work = trace.work();
    IspBatchResult result;
    if (work.empty()) {
        result.finish = arrival;
        return result;
    }

    // The coalescing granularity is expressed in top-level targets; the
    // flattened multi-hop work list is split into proportionally many
    // contiguous groups (hop-2 frontier nodes travel with their group).
    std::size_t groups =
        (trace.numTargets() + config_.coalesce_targets - 1) /
        config_.coalesce_targets;
    groups = std::max<std::size_t>(1, std::min(groups, work.size()));
    std::size_t per_group = (work.size() + groups - 1) / groups;

    sim::Tick finish = arrival;
    sim::Tick submit = arrival;
    for (std::size_t g = 0; g < groups; ++g) {
        std::size_t lo = g * per_group;
        if (lo >= work.size())
            break;
        std::size_t n = std::min(per_group, work.size() - lo);
        // Host driver submits commands back-to-back.
        submit += config_.host_submit;
        finish = std::max(finish,
                          runGroup(work.data() + lo, n, submit, result));
    }
    result.finish = finish;
    return result;
}

} // namespace smartsage::isp
