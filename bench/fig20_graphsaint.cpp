/**
 * @file
 * Fig 20: robustness to the sampling algorithm — repeat the end-to-end
 * comparison with GraphSAINT random-walk sampling instead of
 * GraphSAGE fanout sampling.
 *
 * Paper reference: ~8.2x average end-to-end speedup for
 * SmartSAGE(HW/SW) over the mmap baseline under GraphSAINT.
 */

#include <iostream>

#include "common.hh"

using namespace ssbench;

int
main()
{
    core::TableReporter table(
        "Fig 20: GraphSAINT sampling — speedup vs SSD (mmap)",
        {"Dataset", "SSD (mmap)", "SmartSAGE (SW)",
         "SmartSAGE (HW/SW)"});

    std::vector<double> hw_speedups;
    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);
        auto tput = [&](const std::string &backend) {
            auto sc = baseConfig(backend);
            sc.use_saint = true;
            sc.saint_walk_length = 4;
            sc.pipeline.num_batches = pipeline_batches;
            core::GnnSystem system(sc, wl);
            return system.runPipeline().throughput();
        };
        double mmap = tput("ssd-mmap");
        double sw = tput("direct-io");
        double hwsw = tput("isp-hwsw");
        hw_speedups.push_back(hwsw / mmap);
        table.addRow({graph::datasetName(id), "1.00x",
                      core::fmtX(sw / mmap), core::fmtX(hwsw / mmap)});
    }
    table.print(std::cout);
    std::cout << "average HW/SW speedup "
              << core::fmtX(core::mean(hw_speedups))
              << " (paper: 8.2x avg)\n";
    return 0;
}
