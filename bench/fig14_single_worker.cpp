/**
 * @file
 * Fig 14: single-worker neighbor sampling speedup of SmartSAGE(SW) and
 * SmartSAGE(HW/SW) over the baseline mmap SSD.
 *
 * Paper reference: SW ~1.5x; HW/SW ~10.1x average (max 12.6x).
 */

#include <iostream>

#include "common.hh"

using namespace ssbench;

int
main()
{
    core::TableReporter table(
        "Fig 14: single-worker sampling speedup vs SSD (mmap)",
        {"Dataset", "SSD (mmap)", "SmartSAGE (SW)",
         "SmartSAGE (HW/SW)", "batch ms (mmap/SW/HWSW)"});

    std::vector<double> sw_speedups, hw_speedups;
    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);
        auto batch_us = [&](const std::string &backend) {
            core::GnnSystem system(baseConfig(backend), wl);
            return system.runSamplingOnly(1, sampling_batches)
                .avg_batch_us;
        };
        double mmap = batch_us("ssd-mmap");
        double sw = batch_us("direct-io");
        double hwsw = batch_us("isp-hwsw");
        sw_speedups.push_back(mmap / sw);
        hw_speedups.push_back(mmap / hwsw);
        table.addRow({graph::datasetName(id), "1.00x",
                      core::fmtX(mmap / sw), core::fmtX(mmap / hwsw),
                      core::fmt(mmap / 1000, 0) + " / " +
                          core::fmt(sw / 1000, 0) + " / " +
                          core::fmt(hwsw / 1000, 1)});
    }
    table.print(std::cout);
    std::cout << "average: SW " << core::fmtX(core::mean(sw_speedups))
              << ", HW/SW " << core::fmtX(core::mean(hw_speedups))
              << "  (paper: SW 1.5x, HW/SW 10.1x avg / 12.6x max)\n";
    return 0;
}
