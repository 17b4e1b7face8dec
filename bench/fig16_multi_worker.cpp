/**
 * @file
 * Fig 16: neighbor sampling speedup vs the mmap baseline with 12
 * concurrent workers (the throughput-optimal worker count).
 *
 * Paper reference: HW/SW ~4.4x average (max 5.5x) — less than the
 * single-worker gain because the wimpy embedded cores saturate.
 */

#include <iostream>

#include "common.hh"

using namespace ssbench;

int
main()
{
    const unsigned workers = 12;
    core::TableReporter table(
        "Fig 16: multi-worker (12) sampling speedup vs SSD (mmap)",
        {"Dataset", "SSD (mmap)", "SmartSAGE (SW)",
         "SmartSAGE (HW/SW)"});

    std::vector<double> sw_speedups, hw_speedups;
    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);
        auto tput = [&](const std::string &backend) {
            core::GnnSystem system(baseConfig(backend), wl);
            return system.runSamplingOnly(workers, 2 * sampling_batches)
                .batchesPerSecond();
        };
        double mmap = tput("ssd-mmap");
        double sw = tput("direct-io");
        double hwsw = tput("isp-hwsw");
        sw_speedups.push_back(sw / mmap);
        hw_speedups.push_back(hwsw / mmap);
        table.addRow({graph::datasetName(id), "1.00x",
                      core::fmtX(sw / mmap), core::fmtX(hwsw / mmap)});
    }
    table.print(std::cout);
    std::cout << "average: SW " << core::fmtX(core::mean(sw_speedups))
              << ", HW/SW " << core::fmtX(core::mean(hw_speedups))
              << "  (paper: HW/SW 4.4x avg / 5.5x max)\n";
    return 0;
}
