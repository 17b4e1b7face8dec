#include "fpga_csd.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"

namespace smartsage::isp
{

FpgaCsdEngine::FpgaCsdEngine(const FpgaCsdConfig &config,
                             ssd::SsdDevice &ssd,
                             const graph::EdgeLayout &layout)
    : config_(config), ssd_(ssd), layout_(layout),
      p2p_("p2p_wire"), fpga_("fpga_sampler")
{
}

void
FpgaCsdEngine::reset()
{
    p2p_.reset();
    fpga_.reset();
}

FpgaBatchResult
FpgaCsdEngine::runBatch(const IspTraceVisitor &trace, sim::Tick arrival)
{
    const auto &ssd_cfg = ssd_.config();
    FpgaBatchResult result;

    sim::Tick t = arrival + config_.host_submit + config_.kernel_setup;

    // The FPGA kernel's request loop walks the target nodes with a
    // bounded number of P2P reads in flight (queue_depth nodes per
    // window). Each P2P read is a full command round trip over the
    // on-card switch — this latency-bound two-step loop is why the
    // FPGA-based CSD loses (Fig 19).
    std::vector<std::uint64_t> pages;
    sim::Tick window_clock = t;
    std::size_t in_window = 0;
    sim::Tick window_done = t;
    for (const NodeWork &w : trace.work()) {
        if (w.entries.empty())
            continue;

        pages.clear();
        for (std::uint64_t e : w.entries)
            pages.push_back(ssd_.ftl().pageOf(layout_.addrOf(e)));
        std::sort(pages.begin(), pages.end());
        pages.erase(std::unique(pages.begin(), pages.end()),
                    pages.end());

        // Step 1: flash -> page buffer -> FPGA DRAM over P2P.
        sim::Tick in_fpga = window_clock;
        for (std::uint64_t lpn : pages) {
            sim::Tick buffered = ssd_.fetchPage(window_clock, lpn);
            sim::Tick wire_cost =
                config_.p2p_command +
                sim::transferTime(ssd_cfg.flash.page_bytes,
                                  config_.p2p_gbps);
            auto moved = p2p_.request(buffered, wire_cost);
            result.ssd_to_fpga += moved.finish - buffered;
            result.p2p_bytes += ssd_cfg.flash.page_bytes;
            in_fpga = std::max(in_fpga,
                               moved.finish + config_.p2p_latency);
        }

        // Step 2: the hardwired gather unit samples the entries.
        sim::Tick gather = config_.fpga_per_edge * w.entries.size();
        auto sampled = fpga_.request(in_fpga, gather);
        result.sampling += gather;
        window_done = std::max(window_done, sampled.finish);

        if (++in_window >= config_.queue_depth) {
            window_clock = window_done;
            in_window = 0;
        }
    }
    sim::Tick node_clock = window_done;

    // Step 3: the sampled subgraph crosses FPGA -> CPU.
    std::uint64_t out_bytes =
        (trace.totalEntries() + trace.work().size()) *
        layout_.entry_bytes;
    result.out_bytes = out_bytes;
    sim::Tick shipped = ssd_.dmaToHost(node_clock, out_bytes);
    result.fpga_to_cpu = shipped - node_clock;
    result.finish = shipped;
    return result;
}

} // namespace smartsage::isp
