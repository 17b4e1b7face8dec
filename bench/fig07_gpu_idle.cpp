/**
 * @file
 * Fig 7: fraction of training time the GPU sits idle waiting for input
 * mini-batches, DRAM vs SSD (mmap).
 *
 * Paper reference: near-full utilization in-memory; large idle
 * fractions once data preparation moves to the mmap SSD.
 */

#include <iostream>

#include "common.hh"

using namespace ssbench;

int
main()
{
    core::TableReporter table("Fig 7: GPU idle time (%)",
                              {"Dataset", "DRAM", "SSD (mmap)"});

    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);
        auto idle = [&](const std::string &backend) {
            auto sc = baseConfig(backend);
            sc.pipeline.num_batches = pipeline_batches;
            core::GnnSystem system(sc, wl);
            return system.runPipeline().gpu_idle_frac;
        };
        table.addRow({graph::datasetName(id),
                      core::fmtPct(idle("dram")),
                      core::fmtPct(idle("ssd-mmap"))});
    }
    table.print(std::cout);
    std::cout << "paper: DRAM keeps the GPU mostly busy; mmap leaves "
                 "it idle 60-95% of the time\n";
    return 0;
}
