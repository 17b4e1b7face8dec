#include "docgen.hh"

#include <fstream>
#include <utility>
#include <vector>

#include "backend.hh"
#include "experiment.hh"
#include "scenario.hh"
#include "sim/logging.hh"

namespace smartsage::core
{

namespace
{

const char *
kindName(ExperimentKind kind)
{
    switch (kind) {
      case ExperimentKind::Pipeline:
        return "pipeline";
      case ExperimentKind::SamplingOnly:
        return "sampling-only";
      case ExperimentKind::Serving:
        return "serving";
      case ExperimentKind::Recovery:
        return "recovery";
    }
    return "?";
}

/** One row of the static module map. */
struct ModuleDoc
{
    const char *dir;
    const char *role;
};

constexpr ModuleDoc kModules[] = {
    {"src/sim",
     "simulation substrate: ticks, event queue, bounded service "
     "stations (io.hh), inter-node links (net.hh), fault injection, "
     "RNG, serialization, host thread pool"},
    {"src/graph",
     "CSR graphs, paper datasets at simulation scale, power-law "
     "generator, on-device edge-list layout"},
    {"src/gnn",
     "GraphSAGE/SAINT samplers, Tensor2D + runtime-dispatched GEMM "
     "microkernels (scalar/AVX2, thread-parallel row blocks), model, "
     "feature table"},
    {"src/flash",
     "NAND array: channel/die geometry, page read + transfer timing"},
    {"src/ssd",
     "SSD device: controller page buffer, firmware cores, NVMe/PCIe "
     "front end, sharded multi-device striping"},
    {"src/isp",
     "in-storage processing engines: SmartSAGE ISP cores and the "
     "FPGA CSD design point"},
    {"src/host",
     "host-side edge stores: page cache, direct I/O, tiered DRAM, "
     "feature cache (LRU/hoard, MSHRs), partitioned scale-out store"},
    {"src/pipeline",
     "producer-consumer training pipeline: batch jobs, worker "
     "scheduler, parallel functional sampling"},
    {"src/core",
     "experiment harness: backend registry, scenario grids, "
     "serving/SLO/fault/recovery harnesses, checkpoints, knob "
     "catalog, reports, this docs generator"},
};

/** One row of the service-station inventory. */
struct ChannelDoc
{
    const char *name;
    const char *where;
    const char *what;
};

constexpr ChannelDoc kChannels[] = {
    {"StorageChannel", "src/sim/io.hh",
     "bounded host-I/O submission queue in front of every edge store; "
     "queue-depth contention under open-loop serving load"},
    {"flash channels x dies", "src/flash/flash_array.hh",
     "NAND service stations: page sense (tR) per die, transfer time "
     "per channel; the aggregate die count bounds storage concurrency"},
    {"NVMe command + PCIe link", "src/ssd/ssd_device.hh",
     "per-command firmware/submission cost and the host link "
     "bandwidth in front of the flash array"},
    {"embedded firmware cores", "src/ssd/config.hh",
     "SSD-internal compute budget shared by the FTL baseline and the "
     "ISP engines"},
    {"NetworkChannel", "src/sim/net.hh",
     "point-to-point inter-node link (bandwidth, one-way latency, "
     "lane count); one per remote node of the partitioned backend"},
    {"ThreadPool", "src/sim/thread_pool.hh",
     "real host threads for wall-clock work: parallel sweep cells, "
     "pipeline workers, and the machine-sized kernel pool (gather, "
     "aggregate and GEMMs in 64-row blocks, and the simulated "
     "workers' functional samples)"},
};

/** One row of the ctest label taxonomy. */
struct LabelDoc
{
    const char *label;
    const char *source;
    const char *covers;
};

constexpr LabelDoc kLabels[] = {
    {"unit", "tests/* (default)",
     "everything not claimed by a directory rule below"},
    {"integration", "tests/integration/",
     "end-to-end paper-figure reproductions and cross-design "
     "functional identity"},
    {"backend", "tests/backend/",
     "every-registered-backend smoke plus the plugin backends' "
     "behavior and knob validation"},
    {"serving", "tests/serving/",
     "open-loop latency harness and serving-percentile plumbing"},
    {"cache", "tests/cache/",
     "feature-cache policies, decorator, MSHR/coalescing miss path"},
    {"fault", "tests/fault/",
     "fault injection, retry/timeout policy, degraded-mode recovery"},
    {"slo", "tests/slo/",
     "multi-tenant SLO front end: tenant classes, tagged dispatch, "
     "admission shedding"},
    {"recovery", "tests/recovery/",
     "versioned checkpoint store, suspend/resume bit-identity, "
     "crash-under-load accounting"},
    {"kernel", "tests/kernel/",
     "SIMD/threaded GEMM dispatch: flavor equivalence vs the naive "
     "goldens, worker-count bit-identity"},
    {"scaling", "tests/scaling/",
     "partitioned scale-out backend: partition maps, network channel, "
     "remote routing, dram functional identity"},
    {"perf", "CMakeLists.txt (bench smokes)",
     "perf_* binaries in --quick mode; full suite on main/nightly "
     "only"},
};

/**
 * Parse the GATED_METRICS table out of ci/compare_bench.py: lines of
 * the form `"name": "higher",` between the `GATED_METRICS = {` opener
 * and its closing `}`. Fatal when absent — the doc must not render
 * without the gate's source of truth.
 */
std::vector<std::pair<std::string, std::string>>
parseGatedMetrics(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        SS_FATAL("cannot read ", path,
                 " (run from the repository root so the gated-metric "
                 "table is reachable)");
    std::vector<std::pair<std::string, std::string>> metrics;
    std::string line;
    bool inside = false;
    while (std::getline(in, line)) {
        if (!inside) {
            if (line.find("GATED_METRICS = {") != std::string::npos)
                inside = true;
            continue;
        }
        if (!line.empty() && line[0] == '}')
            break;
        // Match `    "metric": "higher",` allowing trailing comments.
        std::size_t k0 = line.find('"');
        if (k0 == std::string::npos)
            continue;
        std::size_t k1 = line.find('"', k0 + 1);
        std::size_t v0 = line.find('"', k1 + 1);
        std::size_t v1 =
            v0 == std::string::npos ? v0 : line.find('"', v0 + 1);
        if (k1 == std::string::npos || v1 == std::string::npos)
            continue;
        std::string dir = line.substr(v0 + 1, v1 - v0 - 1);
        if (dir != "higher" && dir != "lower")
            continue;
        metrics.emplace_back(line.substr(k0 + 1, k1 - k0 - 1), dir);
    }
    if (metrics.empty())
        SS_FATAL("no GATED_METRICS table found in ", path);
    return metrics;
}

/** Every scenario family, builtin first then --family-only extras. */
std::vector<std::pair<Scenario, bool>>
allScenarios()
{
    std::vector<std::pair<Scenario, bool>> all;
    for (const Scenario &s : builtinScenarios())
        all.emplace_back(s, true);
    for (const Scenario &s : extraScenarios())
        all.emplace_back(s, false);
    return all;
}

} // namespace

void
writeArchDoc(std::ostream &os)
{
    os << "# Architecture map\n"
       << "\n"
       << "<!-- Generated by `design_space --arch-doc`; do not edit "
          "by hand.\n"
       << "     CI regenerates this file and fails on drift. -->\n"
       << "\n"
       << "One page of load-bearing structure: what lives where, "
          "which storage\n"
       << "backends are registered, which service stations time "
          "requests, and\n"
       << "how the test suite is labeled. [DESIGN.md](../DESIGN.md) "
          "has the\n"
       << "narrative; [docs/KNOBS.md](KNOBS.md) has every "
          "configuration knob.\n"
       << "\n"
       << "## Module map\n"
       << "\n"
       << "| directory | role |\n"
       << "|---|---|\n";
    for (const ModuleDoc &m : kModules)
        os << "| `" << m.dir << "` | " << m.role << " |\n";

    os << "\n"
       << "## Storage backends (`core::BackendRegistry`)\n"
       << "\n"
       << "Registered via static `BackendRegistration` objects — no "
          "core edits\n"
       << "to add one. `default grids` marks participation in the "
          "default\n"
       << "design-space artifacts; opt-out backends run only in their "
          "dedicated\n"
       << "`--family` sweeps so the default artifacts stay "
          "byte-stable.\n"
       << "\n"
       << "| id | design | SSD | ISP | edge store | default grids | "
          "knob namespaces | summary |\n"
       << "|---|---|---|---|---|---|---|---|\n";
    for (const StorageBackend *b : BackendRegistry::instance().all()) {
        const BackendCaps &caps = b->caps();
        std::string namespaces;
        for (const std::string &ns : caps.knob_namespaces) {
            if (!namespaces.empty())
                namespaces += " ";
            namespaces += "`" + ns + "`";
        }
        os << "| `" << b->id() << "` | " << b->displayName() << " | "
           << (caps.has_ssd ? "yes" : "no") << " | "
           << (caps.has_isp ? "yes" : "no") << " | "
           << edgeStoreKindName(caps.edge_store) << " | "
           << (caps.in_default_grids ? "yes" : "no") << " | "
           << namespaces << " | " << b->summary() << " |\n";
    }

    os << "\n"
       << "## Service stations\n"
       << "\n"
       << "Every latency in the simulator comes from a busy-until "
          "timeline on\n"
       << "one of these bounded resources; concurrency beyond a "
          "station's lane\n"
       << "count queues.\n"
       << "\n"
       << "| station | where | what queues on it |\n"
       << "|---|---|---|\n";
    for (const ChannelDoc &c : kChannels)
        os << "| " << c.name << " | `" << c.where << "` | " << c.what
           << " |\n";

    os << "\n"
       << "## Scenario families\n"
       << "\n"
       << "Declarative design grids (`core::Scenario`); `builtin` "
          "families run\n"
       << "by default, the rest need `--family <name>`. Cell counts "
          "are the\n"
       << "full-size grid (before `--smoke`).\n"
       << "\n"
       << "| family | kind | cells | builtin | artifact | title |\n"
       << "|---|---|---|---|---|---|\n";
    for (const auto &[s, builtin] : allScenarios())
        os << "| `" << s.family << "` | " << kindName(s.kind) << " | "
           << s.gridSize() << " | " << (builtin ? "yes" : "no")
           << " | `" << benchArtifactFor(s).file << "` | " << s.title
           << " |\n";

    os << "\n"
       << "## Test labels\n"
       << "\n"
       << "`ctest -L <label>`; the PR fast path runs every label "
          "except\n"
       << "`perf` (see `.github/workflows/ci.yml`).\n"
       << "\n"
       << "| label | source | covers |\n"
       << "|---|---|---|\n";
    for (const LabelDoc &l : kLabels)
        os << "| `" << l.label << "` | `" << l.source << "` | "
           << l.covers << " |\n";
}

void
writeBenchesDoc(std::ostream &os,
                const std::string &compare_script_path)
{
    auto gated = parseGatedMetrics(compare_script_path);

    os << "# Bench artifacts\n"
       << "\n"
       << "<!-- Generated by `design_space --benches-doc`; do not "
          "edit by hand.\n"
       << "     CI regenerates this file and fails on drift. -->\n"
       << "\n"
       << "Every CI run's optimized gcc leg emits these "
          "machine-readable\n"
       << "`BENCH_*.json` documents (uploaded as the "
          "`bench-trajectory`\n"
       << "artifact), then `ci/compare_bench.py` diffs the sweep "
          "documents\n"
       << "against the previous successful main run. All share the "
          "same\n"
       << "top-level schema: `bench`, `schema_version`, `config`, "
          "`results`.\n"
       << "\n"
       << "## Artifacts\n"
       << "\n"
       << "`design_space --bench-dir <dir>` writes the document of every "
          "family that\n"
       << "ran (routing below) and none other; CI runs every gated "
          "family in one\n"
       << "`--smoke --workers 2 --bench-dir .` sweep (`ci.yml`).\n"
       << "\n"
       << "| artifact | bench id | schema | gated | producing command "
          "|\n"
       << "|---|---|---|---|---|\n";
    for (const BenchArtifact &a : benchArtifacts())
        os << "| `" << a.file << "` | `" << a.bench
           << "` | 1 | yes | `design_space --bench-dir <dir>` |\n";
    // The two documents no scenario family routes to.
    os << "| `BENCH_backendstats.json` | `backend_stats` | 1 | no | the "
          "`--stats-json` flag of the sweep |\n"
       << "| `BENCH_hotpath.json` | `perf_hotpath` | 2 | no | "
          "`perf_hotpath --quick --out BENCH_hotpath.json` (non-gating: "
          "wall-clock speedups are noisy on shared runners) |\n";

    os << "\n"
       << "## Family-to-artifact routing\n"
       << "\n"
       << "Which scenario family's cells land in which document "
          "(`core::benchArtifactFor`):\n"
       << "a family's `artifact` tag names its document; untagged "
          "serving-kind\n"
       << "families go to the serving document, every other untagged "
          "family to\n"
       << "the design-space document.\n"
       << "\n"
       << "| family | kind | artifact |\n"
       << "|---|---|---|\n";
    for (const auto &[s, builtin] : allScenarios())
        os << "| `" << s.family << "` | " << kindName(s.kind)
           << " | `" << benchArtifactFor(s).file << "` |\n";

    os << "\n"
       << "## Gated metrics\n"
       << "\n"
       << "From `ci/compare_bench.py` (`GATED_METRICS`) — the single "
          "table\n"
       << "declaring which cell metrics gate and in which direction. "
          "\"higher\"\n"
       << "metrics must not drop and \"lower\" metrics must not rise "
          "by more\n"
       << "than the threshold (default 20%) at the same cell "
          "identity; every\n"
       << "other metric is informational.\n"
       << "\n"
       << "| metric | good direction |\n"
       << "|---|---|\n";
    for (const auto &[name, dir] : gated)
        os << "| `" << name << "` | " << dir << " |\n";
}

} // namespace smartsage::core
