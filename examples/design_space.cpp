/**
 * @file
 * Design-space sweep runner: expands the built-in scenario families
 * (every design point, fanout sweep, SSD geometry, multi-tenant batch
 * mix, batch-size sensitivity, page-buffer and worker sweeps — plus
 * the --family-only extras such as the registry-driven "backend-space"
 * family covering every registered storage backend) through
 * core::ExperimentRunner, prints the paper-style tables, and emits the
 * machine-readable BENCH_*.json sweep documents.
 *
 * Cells are independent deterministic simulations parallelized over
 * --workers host threads; tables and JSON are bit-identical at any
 * worker count.
 *
 * Run: ./design_space [dataset] [options]
 *   --workers <n>      host threads for independent cells (default 1)
 *   --family <name>    run one family (repeatable; default: builtins)
 *   --design <id>      restrict every family to this storage backend
 *                      (repeatable; unknown ids list the registry)
 *   --bench-dir <dir>  write the BENCH_*.json document of every family
 *                      that ran into <dir> (core::writeBenchArtifacts)
 *   --knobs-doc <path> regenerate docs/KNOBS.md from the knob catalog
 *                      (core/knobs.hh) and exit
 *   --arch-doc <path>  regenerate docs/ARCHITECTURE.md from the live
 *                      registries (core/docgen.hh) and exit
 *   --benches-doc <path> regenerate docs/BENCHES.md (artifact index +
 *                      gated metrics from ci/compare_bench.py; run
 *                      from the repository root) and exit
 *   --stats-json <path> write BENCH-schema per-backend stats here
 *   --smoke            CI sizes: in-memory datasets, few batches and
 *                      requests
 *   --stats            dump every cell's component counters
 *   --list             list scenario families and exit
 *   --backends         print the registered-backend table and exit
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/docgen.hh"
#include "core/experiment.hh"
#include "core/knobs.hh"
#include "core/scenario.hh"
#include "sim/logging.hh"

using namespace smartsage;

namespace
{

int
usage()
{
    std::cerr << "usage: design_space [dataset] [--workers <n>] "
                 "[--family <name>]... [--design <id>]... "
                 "[--bench-dir <dir>] [--knobs-doc <path>] "
                 "[--arch-doc <path>] [--benches-doc <path>] "
                 "[--stats-json <path>] "
                 "[--smoke] [--stats] [--list] [--backends]\n";
    return 2;
}

/** The registered-backend table, markdown-shaped (README source). */
void
printBackendTable(std::ostream &os)
{
    os << "| id | design | SSD | ISP | edge store | knobs | summary "
          "|\n"
       << "|---|---|---|---|---|---|---|\n";
    for (const core::StorageBackend *b :
         core::BackendRegistry::instance().all()) {
        const core::BackendCaps &caps = b->caps();
        std::string namespaces;
        for (const auto &ns : caps.knob_namespaces) {
            if (!namespaces.empty())
                namespaces += " ";
            namespaces += "`" + ns + "`";
        }
        os << "| `" << b->id() << "` | " << b->displayName() << " | "
           << (caps.has_ssd ? "yes" : "no") << " | "
           << (caps.has_isp ? "yes" : "no") << " | "
           << core::edgeStoreKindName(caps.edge_store) << " | "
           << namespaces << " | " << b->summary() << " |\n";
    }
}

/**
 * One smoke-size system per registered backend on @p dataset's
 * in-memory variant, stats emitted as a schema-versioned JSON doc —
 * the diffable backend comparison.
 */
void
writeBackendStatsJson(std::ostream &os, graph::DatasetId dataset)
{
    const unsigned sim_workers = 2;
    const std::size_t batches = 4;
    core::Workload workload = core::Workload::make(dataset, false);

    os.precision(10);
    os << "{\n"
       << "  \"bench\": \"backend_stats\",\n"
       << "  \"schema_version\": 1,\n"
       << "  \"config\": {\n"
       << "    \"dataset\": \"" << graph::datasetName(dataset)
       << "\",\n"
       << "    \"large_scale\": false,\n"
       << "    \"sim_workers\": " << sim_workers << ",\n"
       << "    \"num_batches\": " << batches << "\n"
       << "  },\n"
       << "  \"results\": {\n";

    std::vector<const core::StorageBackend *> backends;
    for (const core::StorageBackend *b :
         core::BackendRegistry::instance().all()) {
        // Dedicated-family backends opt out (BackendCaps), keeping the
        // default stats document byte-stable across registrations.
        if (b->caps().in_default_grids)
            backends.push_back(b);
    }
    for (std::size_t i = 0; i < backends.size(); ++i) {
        core::SystemConfig sc;
        sc.backend = backends[i]->id();
        sc.fanouts = {6, 3};
        sc.pipeline.batch_size = 64;
        core::GnnSystem system(sc, workload);
        system.runSamplingOnly(sim_workers, batches);
        os << "    \"" << backends[i]->id() << "\": ";
        system.dumpStatsJsonMap(os, "    ");
        os << (i + 1 < backends.size() ? ",\n" : "\n");
    }
    os << "  }\n}\n";
}

/** Open @p path (fatal if it cannot be), render into it, announce it. */
template <typename Render>
void
writeFile(const std::string &path, Render &&render)
{
    std::ofstream os(path);
    if (!os)
        SS_FATAL("cannot open ", path);
    render(os);
    std::cout << "design_space: wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned workers = 1;
    bool smoke = false, stats = false;
    std::string bench_dir, stats_json_path;
    std::vector<std::string> families, designs;
    const graph::DatasetId *dataset = nullptr;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--workers" && i + 1 < argc) {
            int n = std::atoi(argv[++i]);
            if (n < 1)
                return usage();
            workers = static_cast<unsigned>(n);
        } else if (arg == "--family" && i + 1 < argc) {
            families.push_back(argv[++i]);
        } else if (arg == "--design" && i + 1 < argc) {
            // Unknown ids die here with the sorted registry listing.
            designs.push_back(
                core::BackendRegistry::instance().get(argv[++i]).id());
        } else if (arg == "--bench-dir" && i + 1 < argc) {
            bench_dir = argv[++i];
        } else if (arg == "--knobs-doc" && i + 1 < argc) {
            writeFile(argv[++i], core::writeKnobsDoc);
            return 0;
        } else if (arg == "--arch-doc" && i + 1 < argc) {
            writeFile(argv[++i], core::writeArchDoc);
            return 0;
        } else if (arg == "--benches-doc" && i + 1 < argc) {
            writeFile(argv[++i], [](std::ostream &os) {
                core::writeBenchesDoc(os, "ci/compare_bench.py");
            });
            return 0;
        } else if (arg == "--stats-json" && i + 1 < argc) {
            stats_json_path = argv[++i];
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--list") {
            for (const auto &s : core::builtinScenarios())
                std::cout << s.family << ": " << s.title << " ("
                          << s.gridSize() << " cells)\n";
            for (const auto &s : core::extraScenarios())
                std::cout << s.family << ": " << s.title << " ("
                          << s.gridSize() << " cells, --family only)\n";
            return 0;
        } else if (arg == "--backends") {
            printBackendTable(std::cout);
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            return usage();
        } else {
            const graph::DatasetId *match = nullptr;
            for (const auto &d : graph::allDatasets())
                if (graph::datasetName(d) == arg)
                    match = &d;
            if (!match)
                SS_FATAL("unknown dataset '", arg, "'");
            dataset = match;
        }
    }

    std::vector<core::Scenario> scenarios;
    if (families.empty()) {
        scenarios = core::builtinScenarios();
    } else {
        for (const auto &name : families) {
            const core::Scenario *s = core::findScenario(name);
            if (!s)
                SS_FATAL("unknown scenario family '", name,
                         "' (try --list)");
            scenarios.push_back(*s);
        }
    }
    for (auto &s : scenarios) {
        if (dataset)
            s.datasets = {*dataset};
        if (!designs.empty())
            s.backends = designs;
        if (smoke)
            s = core::smokeVariant(s);
    }

    core::RunnerOptions options;
    options.workers = workers;
    options.progress = true;
    options.collect_stats = stats;
    core::ExperimentRunner runner(options);

    auto runs = runner.runAll(scenarios);
    for (const auto &run : runs) {
        core::ExperimentRunner::table(run).print(std::cout);
        if (stats)
            for (const auto &cell : run.cells)
                std::cout << cell.stats;
    }

    if (!bench_dir.empty())
        for (const auto &path : core::writeBenchArtifacts(bench_dir, runs))
            std::cout << "design_space: wrote " << path << "\n";
    if (!stats_json_path.empty())
        writeFile(stats_json_path, [&](std::ostream &os) {
            writeBackendStatsJson(
                os, dataset ? *dataset : graph::DatasetId::Amazon);
        });
    return 0;
}
