/**
 * @file
 * Fig 18: end-to-end GNN training time breakdown across every design
 * point: SSD(mmap), SmartSAGE(SW), SmartSAGE(HW/SW),
 * SmartSAGE(oracle), PMEM, and the DRAM upper bound.
 *
 * Paper reference: HW/SW 3.5x (max 5.0x) over mmap; ~60% loss vs
 * DRAM; PMEM ~1.2x slower than DRAM; oracle at ~70%/90% of DRAM/PMEM.
 */

#include <iostream>
#include <vector>

#include "common.hh"

using namespace ssbench;

int
main()
{
    const std::vector<std::string> backends = {
        "ssd-mmap", "direct-io", "isp-hwsw", "isp-oracle", "pmem", "dram",
    };

    core::TableReporter table(
        "Fig 18: end-to-end training latency breakdown (total "
        "normalized to DRAM)",
        {"Dataset", "Design", "Sampling", "FeatLookup", "CPU->GPU",
         "GNN", "Else", "Total vs DRAM"});

    std::vector<double> hwsw_gain, sw_gain, pmem_vs_dram, oracle_vs_dram;
    for (auto id : graph::allDatasets()) {
        const auto &wl = workload(id);

        struct Row
        {
            std::string backend;
            pipeline::PipelineResult result;
        };
        std::vector<Row> rows;
        for (const auto &backend : backends) {
            auto sc = baseConfig(backend);
            sc.pipeline.num_batches = pipeline_batches;
            core::GnnSystem system(sc, wl);
            rows.push_back({backend, system.runPipeline()});
        }
        double dram = rows.back().result.throughput();

        for (const auto &row : rows) {
            auto n = row.result.stages.normalized();
            table.addRow({graph::datasetName(id),
                          core::backendDisplayName(row.backend),
                          core::fmtPct(n.sampling),
                          core::fmtPct(n.feature),
                          core::fmtPct(n.transfer), core::fmtPct(n.gpu),
                          core::fmtPct(n.other),
                          core::fmtX(dram / row.result.throughput())});
        }

        auto tput = [&](const std::string &backend) {
            for (const auto &row : rows) {
                if (row.backend == backend)
                    return row.result.throughput();
            }
            return 0.0;
        };
        hwsw_gain.push_back(tput("isp-hwsw") / tput("ssd-mmap"));
        sw_gain.push_back(tput("direct-io") / tput("ssd-mmap"));
        pmem_vs_dram.push_back(dram / tput("pmem"));
        oracle_vs_dram.push_back(tput("isp-oracle") / dram);
    }
    table.print(std::cout);
    std::cout << "HW/SW speedup over mmap: avg "
              << core::fmtX(core::mean(hwsw_gain))
              << " (paper 3.5x avg / 5.0x max); SW avg "
              << core::fmtX(core::mean(sw_gain))
              << " (paper 2.5x); PMEM slowdown vs DRAM avg "
              << core::fmtX(core::mean(pmem_vs_dram))
              << " (paper 1.2x); oracle at "
              << core::fmtPct(core::mean(oracle_vs_dram))
              << " of DRAM (paper ~70%)\n";
    return 0;
}
