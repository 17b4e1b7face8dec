/**
 * @file
 * Section VI-F "Training batch size": the paper states the chosen
 * mini-batch size has little effect on SmartSAGE's achieved speedup
 * (results omitted there for space). This harness generates the table
 * the paper describes: HW/SW-over-mmap sampling speedup across batch
 * sizes.
 */

#include <iostream>

#include "common.hh"

using namespace ssbench;

int
main()
{
    const std::vector<std::size_t> batch_sizes = {256, 512, 1024, 2048};

    core::TableReporter table(
        "Section VI-F: HW/SW speedup over mmap vs mini-batch size "
        "(12 workers)",
        {"Dataset", "256", "512", "1024", "2048"});

    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);
        std::vector<std::string> row = {graph::datasetName(id)};
        for (std::size_t bs : batch_sizes) {
            auto tput = [&](const std::string &backend) {
                auto sc = baseConfig(backend);
                sc.pipeline.batch_size = bs;
                core::GnnSystem system(sc, wl);
                return system.runSamplingOnly(12, 16)
                    .batchesPerSecond();
            };
            double speedup = tput("isp-hwsw") / tput("ssd-mmap");
            row.push_back(core::fmtX(speedup, 1));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "paper: the chosen mini-batch size has little effect "
                 "on SmartSAGE's speedup\n";
    return 0;
}
