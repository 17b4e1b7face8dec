/**
 * @file
 * Fig 17: SmartSAGE(HW/SW)'s speedup over SmartSAGE(SW) as CPU-side
 * workers scale from 1 to 12 — the gap closes because in-storage
 * sampling time-shares the SSD's embedded cores with the flash
 * management firmware.
 */

#include <iostream>

#include "common.hh"

using namespace ssbench;

int
main()
{
    const std::vector<unsigned> worker_counts = {1, 2, 4, 8, 12};

    core::TableReporter table(
        "Fig 17: HW/SW speedup over SW vs worker count",
        {"Dataset", "1", "2", "4", "8", "12"});

    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);
        std::vector<std::string> row = {graph::datasetName(id)};
        double first = 0, last = 0;
        for (unsigned w : worker_counts) {
            auto tput = [&](const std::string &backend) {
                core::GnnSystem system(baseConfig(backend), wl);
                return system.runSamplingOnly(w, sampling_batches)
                    .batchesPerSecond();
            };
            double speedup = tput("isp-hwsw") / tput("direct-io");
            if (w == 1)
                first = speedup;
            last = speedup;
            row.push_back(core::fmtX(speedup, 1));
        }
        (void)first;
        (void)last;
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "paper: speedup declines monotonically toward ~1.5-2x "
                 "at 12 workers\n";
    return 0;
}
