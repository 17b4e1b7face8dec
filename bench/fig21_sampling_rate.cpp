/**
 * @file
 * Fig 21: sensitivity of SmartSAGE's end-to-end speedup to the
 * sampling rate — 0.5x, 1.0x, and 2.0x of the default (25, 10)
 * fanouts. Larger sampling rates shrink HW/SW's advantage because the
 * returned subgraph approaches the raw transfer size.
 */

#include <iostream>

#include "common.hh"

using namespace ssbench;

int
main()
{
    struct Rate
    {
        const char *label;
        std::vector<unsigned> fanouts;
    };
    const std::vector<Rate> rates = {
        {"0.5x", {13, 5}},
        {"1.0x", {25, 10}},
        {"2.0x", {50, 20}},
    };

    core::TableReporter table(
        "Fig 21: end-to-end speedup vs SSD (mmap) across sampling "
        "rates",
        {"Dataset", "Rate", "SmartSAGE (SW)", "SmartSAGE (HW/SW)"});

    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);
        for (const auto &rate : rates) {
            auto tput = [&](const std::string &backend) {
                auto sc = baseConfig(backend);
                sc.fanouts = rate.fanouts;
                sc.pipeline.num_batches = 8;
                core::GnnSystem system(sc, wl);
                return system.runPipeline().throughput();
            };
            double mmap = tput("ssd-mmap");
            double sw = tput("direct-io");
            double hwsw = tput("isp-hwsw");
            table.addRow({graph::datasetName(id), rate.label,
                          core::fmtX(sw / mmap),
                          core::fmtX(hwsw / mmap)});
        }
    }
    table.print(std::cout);
    std::cout << "paper: HW/SW's speedup shrinks as the sampling rate "
                 "grows (subgraph approaches SW transfer size)\n";
    return 0;
}
