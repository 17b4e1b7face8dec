/**
 * @file
 * Fig 15: effect of the I/O command coalescing granularity on
 * SmartSAGE(HW/SW) sampling performance. The default folds all 1024
 * targets of a mini-batch into one NSconfig; shrinking the granularity
 * multiplies command/control overhead until it erases the ISP benefit.
 */

#include <iostream>

#include "common.hh"

using namespace ssbench;

int
main()
{
    const std::vector<std::size_t> granularities = {1024, 512, 256,
                                                    64,   16,  1};

    core::TableReporter table(
        "Fig 15: SmartSAGE(HW/SW) performance vs coalescing "
        "granularity (normalized to 1024)",
        {"Dataset", "1024", "512", "256", "64", "16", "1"});

    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);
        std::vector<std::string> row = {graph::datasetName(id)};
        double base = 0;
        for (std::size_t g : granularities) {
            auto sc = baseConfig("isp-hwsw");
            sc.isp.coalesce_targets = g;
            core::GnnSystem system(sc, wl);
            double tput = system.runSamplingOnly(1, 8)
                              .batchesPerSecond();
            if (g == 1024)
                base = tput;
            row.push_back(core::fmt(tput / base, 2));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "paper: performance collapses as granularity shrinks "
                 "(command latency outweighs ISP)\n";
    return 0;
}
