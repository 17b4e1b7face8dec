/**
 * @file
 * Fig 6: end-to-end GNN training time broken into stages, plus total
 * latency normalized to the in-memory (DRAM) system, for DRAM vs the
 * baseline mmap SSD.
 *
 * Paper reference: SSD(mmap) averages 9.8x (max 19.6x) slower.
 */

#include <algorithm>
#include <iostream>

#include "common.hh"

using namespace ssbench;

int
main()
{
    core::TableReporter table(
        "Fig 6: latency breakdown + normalized latency, DRAM vs "
        "SSD (mmap)",
        {"Dataset", "Design", "Sampling", "FeatLookup", "CPU->GPU",
         "GNN", "Else", "Latency (vs DRAM)"});

    std::vector<double> slowdowns;
    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);
        double dram_tput = 0;
        for (std::string backend : {"dram", "ssd-mmap"}) {
            auto sc = baseConfig(backend);
            sc.pipeline.num_batches = pipeline_batches;
            core::GnnSystem system(sc, wl);
            auto r = system.runPipeline();
            if (backend == "dram")
                dram_tput = r.throughput();
            double slowdown = dram_tput / r.throughput();
            if (backend == "ssd-mmap")
                slowdowns.push_back(slowdown);
            auto n = r.stages.normalized();
            table.addRow({graph::datasetName(id),
                          core::backendDisplayName(backend),
                          core::fmtPct(n.sampling),
                          core::fmtPct(n.feature),
                          core::fmtPct(n.transfer), core::fmtPct(n.gpu),
                          core::fmtPct(n.other), core::fmtX(slowdown)});
        }
    }
    table.print(std::cout);
    std::cout << "SSD(mmap) slowdown vs DRAM: avg "
              << core::fmtX(core::mean(slowdowns)) << ", max "
              << core::fmtX(*std::max_element(slowdowns.begin(),
                                              slowdowns.end()))
              << "  (paper: avg 9.8x, max 19.6x)\n";
    return 0;
}
