/**
 * @file
 * Fig 19: FPGA-based CSD vs SSD(mmap) and SmartSAGE(SW) — latency
 * breakdown of the two-step P2P design at the training operating point
 * (12 concurrent workers). The SSD->FPGA hop dominates and the design
 * fails to beat even the software-only SmartSAGE.
 */

#include <iostream>
#include <memory>

#include "common.hh"
#include "pipeline/producer.hh"

using namespace ssbench;

int
main()
{
    const unsigned workers = 12;
    core::TableReporter table(
        "Fig 19: FPGA-based CSD sampling (12 workers, latency "
        "normalized to SSD (mmap))",
        {"Dataset", "Design", "SSD->FPGA", "Sampling(FPGA)",
         "FPGA->CPU", "Latency vs mmap"});

    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);
        auto run = [&](const std::string &backend,
                       std::unique_ptr<core::GnnSystem> &holder) {
            holder = std::make_unique<core::GnnSystem>(
                baseConfig(backend), wl);
            // Inverse throughput = effective per-batch latency.
            return 1.0 / holder->runSamplingOnly(workers, 16)
                             .batchesPerSecond();
        };

        std::unique_ptr<core::GnnSystem> h1, h2, h3;
        double mmap = run("ssd-mmap", h1);
        double sw = run("direct-io", h2);
        double fpga = run("fpga-csd", h3);

        auto *producer =
            dynamic_cast<pipeline::FpgaProducer *>(&h3->producer());
        const auto &acc = producer->accumulated();
        double total =
            static_cast<double>(acc.ssd_to_fpga + acc.sampling +
                                acc.fpga_to_cpu);

        table.addRow({graph::datasetName(id), "SSD (mmap)", "-", "-",
                      "-", "1.00x"});
        table.addRow({graph::datasetName(id), "SmartSAGE (SW)", "-",
                      "-", "-", core::fmtX(sw / mmap)});
        table.addRow({graph::datasetName(id), "FPGA-CSD",
                      core::fmtPct(acc.ssd_to_fpga / total),
                      core::fmtPct(acc.sampling / total),
                      core::fmtPct(acc.fpga_to_cpu / total),
                      core::fmtX(fpga / mmap)});
    }
    table.print(std::cout);
    std::cout << "paper: SSD->FPGA movement dominates; FPGA-CSD gives "
                 "no advantage even over SmartSAGE(SW)\n";
    return 0;
}
