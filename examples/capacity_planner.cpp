/**
 * @file
 * Capacity planner: the practitioner-facing question the paper opens
 * with — "my graph no longer fits in DRAM; what happens to training
 * time if I move it to storage, and which design should I buy?"
 *
 * Implemented as a custom core::Scenario (all Table I datasets x
 * {DRAM oracle, SmartSAGE HW/SW}) executed through ExperimentRunner;
 * the planning table is post-processed from the grid results.
 *
 * Run: ./capacity_planner [dram_budget_gb] [--workers <n>]
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "core/scenario.hh"
#include "sim/logging.hh"

using namespace smartsage;

int
main(int argc, char **argv)
{
    double dram_gb = 192.0;
    unsigned workers = 1;
    auto fail_usage = [] {
        std::cerr << "usage: capacity_planner [dram_budget_gb] "
                     "[--workers <n>]\n";
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--workers" && i + 1 < argc) {
            int n = std::atoi(argv[++i]);
            if (n < 1)
                return fail_usage();
            workers = static_cast<unsigned>(n);
            continue;
        }
        char *end = nullptr;
        double gb = std::strtod(arg.c_str(), &end);
        if (arg.empty() || *end != '\0' || !std::isfinite(gb) || gb <= 0)
            return fail_usage();
        dram_gb = gb;
    }
    SS_INFORM("planning for a host with ", core::fmt(dram_gb, 0),
              " GB of DRAM (paper testbed: 192 GB)");

    core::Scenario scenario;
    scenario.family = "capacity";
    scenario.title = "Capacity grid: DRAM oracle vs SmartSAGE (HW/SW)";
    scenario.kind = core::ExperimentKind::Pipeline;
    scenario.datasets = graph::allDatasets();
    scenario.backends = {"dram", "isp-hwsw"};
    scenario.worker_grid = {12};
    scenario.num_batches = 12;

    core::RunnerOptions options;
    options.workers = workers;
    core::ExperimentRunner runner(options);
    core::ScenarioRun run = runner.run(scenario);

    auto throughput = [&run](graph::DatasetId id,
                             const std::string &backend) {
        for (const auto &cell : run.cells)
            if (cell.cell.dataset == id &&
                cell.cell.backend == backend)
                return cell.metric("batches_per_s");
        return 0.0;
    };

    core::TableReporter table(
        "Capacity plan @ " + core::fmt(dram_gb, 0) + " GB DRAM",
        {"Dataset", "paper size GB", "fits DRAM?", "best viable design",
         "batches/s", "penalty vs DRAM"});

    for (auto id : graph::allDatasets()) {
        const auto &spec = graph::datasetSpec(id);
        bool fits = spec.paper_large.size_gb <= dram_gb;
        double dram_tput = throughput(id, "dram");
        if (fits) {
            table.addRow({spec.name,
                          core::fmt(spec.paper_large.size_gb, 0), "yes",
                          "DRAM (in-memory)", core::fmt(dram_tput, 1),
                          "1.00x"});
            continue;
        }

        // Does not fit: the SSD-resident designs are the options.
        double hwsw = throughput(id, "isp-hwsw");
        table.addRow({spec.name, core::fmt(spec.paper_large.size_gb, 0),
                      "no", "SmartSAGE (HW/SW)", core::fmt(hwsw, 1),
                      core::fmtX(dram_tput / hwsw)});
    }
    table.print(std::cout);
    std::cout << "note: 'penalty vs DRAM' compares against an oracular "
                 "host with unbounded memory — the configuration that "
                 "does not exist, which is the paper's point.\n";
    return 0;
}
