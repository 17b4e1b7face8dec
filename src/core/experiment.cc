#include "experiment.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

#include "backend.hh"
#include "host/feature_cache.hh"
#include "recovery.hh"
#include "serving.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace smartsage::core
{

namespace
{

double
finite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

/**
 * Execute one cell against its (shared, read-only) workload. Pure
 * simulated time: the outcome depends only on the cell, never on which
 * runner thread executes it.
 */
CellResult
executeCell(const ExperimentCell &cell, const Workload &workload,
            const RunnerOptions &options)
{
    CellResult result;
    result.cell = cell;
    GnnSystem system(cell.config, workload);

    auto add = [&result](const std::string &name, double value) {
        result.metrics.push_back({name, finite(value)});
    };

    if (cell.kind == ExperimentKind::Pipeline) {
        auto r = system.runPipeline();
        add("batches_per_s", r.throughput());
        add("avg_sample_ms", r.avg_sampling_us / 1000.0);
        add("gpu_idle_frac", r.gpu_idle_frac);
    } else if (cell.kind == ExperimentKind::SamplingOnly) {
        auto r = system.runSamplingOnly(cell.sim_workers,
                                        cell.num_batches);
        add("batches_per_s", r.batchesPerSecond());
        add("avg_sample_ms", r.avg_batch_us / 1000.0);
    } else if (cell.kind == ExperimentKind::Recovery) {
        RecoveryRunSpec spec;
        spec.sim_workers = cell.sim_workers;
        spec.train_workers = cell.sim_workers;
        spec.num_batches = cell.num_batches;
        spec.ckpt_dir =
            (std::filesystem::path(options.ckpt_root) /
             (cell.family + "-" + std::to_string(cell.index)))
                .string();
        RecoveryCellResult r = runRecoveryCell(system, spec);
        add("batches_per_s", r.sim.batchesPerSecond());
        add("avg_sample_ms", r.sim.avg_batch_us / 1000.0);
        add("recovery_time_us", r.recovery_time_us);
        add("lost_work_batches",
            static_cast<double>(r.lost_work_batches));
        add("ckpt_overhead_frac", r.ckpt_overhead_frac);
        add("ckpt_bytes_kib", r.ckpt_bytes_kib);
        add("ckpt_dedup_frac", r.ckpt_dedup_frac);
        add("checkpoints", static_cast<double>(r.checkpoints));
        add("resume_bit_identical", r.resume_bit_identical ? 1.0 : 0.0);
        if (!options.keep_checkpoints) {
            std::error_code ec;
            std::filesystem::remove_all(spec.ckpt_dir, ec);
        }
    } else {
        ServingConfig sc;
        sc.arrival_qps = cell.arrival_qps;
        sc.poisson = cell.serve_poisson;
        sc.num_requests = cell.serve_requests;
        sc.fanout = cell.serve_fanout;
        sc.seed = cell.serve_seed;
        sc.tenants = cell.config.tenants;
        ServingResult r = runServingLoad(system, sc);
        add("p50_us", r.p50_us());
        add("p95_us", r.p95_us());
        add("p99_us", r.p99_us());
        add("max_us", r.max_us());
        add("mean_us", r.latency_us.mean());
        add("achieved_qps", r.achieved_qps);
        add("queue_wait_us", r.mean_queue_wait_us);
        add("peak_outstanding",
            static_cast<double>(r.peak_outstanding));
        // Recovery columns appear only when the cell can actually
        // shed (faults injected or a deadline set), so fault-free
        // serving artifacts keep their pre-fault metric set.
        const bool recovery = cell.config.fault.enabled() ||
                              cell.config.retry.wantsDeadline();
        if (recovery) {
            add("goodput_qps", r.goodput_qps);
            add("shed_frac", r.shedFraction());
            add("shed_timeout",
                static_cast<double>(r.shed_timeout));
            add("shed_error", static_cast<double>(r.shed_error));
            add("io_retries", static_cast<double>(r.io_retries));
            add("io_timeouts", static_cast<double>(r.io_timeouts));
            add("io_abandoned",
                static_cast<double>(r.io_abandoned));
        }
        // Multi-tenant columns appear only when tenant classes are
        // configured, so single-stream serving artifacts keep their
        // pre-tenant metric set.
        if (!r.tenants.empty()) {
            add("slo_attainment", r.sloAttainment());
            if (!recovery) { // else already emitted above
                add("goodput_qps", r.goodput_qps);
                add("shed_frac", r.shedFraction());
            }
            add("shed_admission",
                static_cast<double>(r.shed_admission));
            for (std::size_t t = 0; t < r.tenants.size(); ++t) {
                const TenantServingResult &tr = r.tenants[t];
                std::string prefix = "t" + std::to_string(t) + "_";
                add(prefix + "slo_frac", tr.sloAttainment());
                add(prefix + "p99_us",
                    tr.latency_us.percentile(99.0));
                add(prefix + "goodput_qps", tr.goodput_qps);
            }
        }
    }

    // Backend-specific counters come through the uniform instance
    // surface — no substrate casts, so new backends report for free.
    system.backend().addMetrics(
        [&](const std::string &name, double value) { add(name, value); });
    result.notes = system.backend().notes();

    // Feature-cache columns appear only when the decorator exists, so
    // cache-disabled runs keep their pre-cache metric set and notes.
    if (const host::FeatureCacheStore *cache = system.featureCache()) {
        add("cache_hit_frac", cache->hitRate());
        // The prefetch column only for hoard-enabled cells: demand-only
        // cells keep their pre-prefetch metric set.
        if (cache->params().prefetch_enabled)
            add("prefetch_hit_frac", cache->stats().prefetchHitRate());
        std::string note =
            "cache " +
            host::featureCachePolicyName(cache->params().policy) + " " +
            fmtPct(cache->hitRate());
        result.notes = result.notes.empty()
                           ? note
                           : result.notes + ", " + note;
    }
    if (options.collect_stats) {
        std::ostringstream stats;
        system.dumpStats(stats);
        result.stats = stats.str();
    }
    return result;
}

/** JSON string escaping (quotes, backslashes, control characters). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/**
 * Append scaling_speedup = avg_sample_ms(nodes=1) / avg_sample_ms and
 * scaling_efficiency = scaling_speedup / nodes to each cell whose
 * single-node baseline (same axes and knobs but part.nodes) exists. A
 * pure function of computed metrics, so stable at any worker count.
 */
void
annotateScalingMetrics(std::vector<ScenarioRun> &runs)
{
    for (ScenarioRun &run : runs) {
        // Group key: every cell axis and knob except part.nodes.
        auto keyOf = [](const CellResult &result) {
            const ExperimentCell &cell = result.cell;
            std::string key = graph::datasetName(cell.dataset);
            key += '|' + cell.backend;
            for (unsigned f : cell.fanouts)
                key += '/' + std::to_string(f);
            key += '|' + std::to_string(cell.batch_size);
            key += '|' + std::to_string(cell.sim_workers);
            for (const KnobSetting &k : cell.knobs)
                if (k.key != "part.nodes")
                    key += '|' + k.label();
            return key;
        };
        auto nodesOf = [](const CellResult &result) {
            for (const KnobSetting &k : result.cell.knobs)
                if (k.key == "part.nodes")
                    return k.value;
            return 0.0;
        };

        std::map<std::string, double> baseline_ms;
        for (const CellResult &result : run.cells)
            if (nodesOf(result) == 1.0)
                baseline_ms[keyOf(result)] =
                    result.metric("avg_sample_ms");

        for (CellResult &result : run.cells) {
            const double nodes = nodesOf(result);
            if (nodes < 1)
                continue;
            auto base = baseline_ms.find(keyOf(result));
            if (base == baseline_ms.end() || base->second <= 0)
                continue;
            const double ms = result.metric("avg_sample_ms");
            if (ms <= 0)
                continue;
            const double speedup = base->second / ms;
            result.metrics.push_back({"scaling_speedup", speedup});
            result.metrics.push_back(
                {"scaling_efficiency", speedup / nodes});
        }
    }
}

} // namespace

double
CellResult::metric(const std::string &name) const
{
    for (const auto &m : metrics)
        if (m.name == name)
            return m.value;
    return 0.0;
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(options)
{
    SS_ASSERT(options_.workers > 0, "need at least one runner worker");
    if (options_.ckpt_root.empty()) {
        // Unique per runner so concurrent processes (parallel ctest
        // jobs) never share recovery-cell scratch directories.
        static std::atomic<unsigned> counter{0};
        options_.ckpt_root =
            (std::filesystem::temp_directory_path() /
             ("smartsage-ckpt-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter.fetch_add(1))))
                .string();
        owns_ckpt_root_ = true;
    }
    // parallelFor runs cells on the calling thread too.
    if (options_.workers > 1)
        pool_ = std::make_unique<sim::ThreadPool>(options_.workers - 1);
}

ExperimentRunner::~ExperimentRunner()
{
    if (owns_ckpt_root_ && !options_.keep_checkpoints) {
        std::error_code ec;
        std::filesystem::remove_all(options_.ckpt_root, ec);
    }
}

const Workload &
ExperimentRunner::workload(graph::DatasetId id, bool large_scale)
{
    auto key = std::make_pair(static_cast<int>(id), large_scale);
    auto it = workloads_.find(key);
    if (it == workloads_.end()) {
        it = workloads_
                 .emplace(key, std::make_unique<Workload>(
                                   Workload::make(id, large_scale)))
                 .first;
    }
    return *it->second;
}

ScenarioRun
ExperimentRunner::run(const Scenario &scenario)
{
    ScenarioRun out;
    out.scenario = scenario;
    std::vector<ExperimentCell> cells = expandScenario(scenario);
    if (options_.progress)
        SS_INFORM("scenario ", scenario.family, ": ", cells.size(),
                  " cells, ", scenario.num_batches, " batches each");

    // Workloads are built up front on this thread; cells only read
    // them concurrently.
    for (auto id : scenario.datasets)
        workload(id, scenario.large_scale);

    out.cells.resize(cells.size());
    sim::parallelFor(pool_.get(), cells.size(), [&](std::size_t i) {
        const ExperimentCell &cell = cells[i];
        const Workload &wl =
            *workloads_.at({static_cast<int>(cell.dataset),
                            cell.large_scale});
        out.cells[i] = executeCell(cell, wl, options_);
    });
    return out;
}

std::vector<ScenarioRun>
ExperimentRunner::runAll(const std::vector<Scenario> &scenarios)
{
    std::vector<ScenarioRun> runs;
    runs.reserve(scenarios.size());
    for (const auto &scenario : scenarios)
        runs.push_back(run(scenario));
    return runs;
}

TableReporter
ExperimentRunner::table(const ScenarioRun &run)
{
    const Scenario &s = run.scenario;

    // Axis columns: only the axes that actually vary in this grid.
    struct Axis
    {
        const char *name;
        bool show;
        std::string (*value)(const ExperimentCell &);
    };
    const Axis axes[] = {
        {"dataset", s.datasets.size() > 1,
         [](const ExperimentCell &c) {
             return graph::datasetName(c.dataset);
         }},
        {"design", s.backends.size() > 1,
         [](const ExperimentCell &c) {
             return backendDisplayName(c.backend);
         }},
        {"fanouts", s.fanout_grid.size() > 1,
         [](const ExperimentCell &c) { return fanoutLabel(c.fanouts); }},
        {"batch", s.batch_sizes.size() > 1,
         [](const ExperimentCell &c) {
             return std::to_string(c.batch_size);
         }},
        {"mix", s.batch_mixes.size() > 1,
         [](const ExperimentCell &c) { return mixLabel(c.batch_mix); }},
        {"override", s.overrides.size() > 1,
         [](const ExperimentCell &c) { return overrideLabel(c.knobs); }},
        {"workers", s.worker_grid.size() > 1,
         [](const ExperimentCell &c) {
             return std::to_string(c.sim_workers);
         }},
        {"rate_qps",
         s.kind == ExperimentKind::Serving &&
             s.arrival_rates.size() > 1,
         [](const ExperimentCell &c) {
             char buf[32];
             std::snprintf(buf, sizeof(buf), "%g", c.arrival_qps);
             return std::string(buf);
         }},
        {"qdepth",
         s.kind == ExperimentKind::Serving && s.queue_depths.size() > 1,
         [](const ExperimentCell &c) {
             return c.queue_depth ? std::to_string(c.queue_depth)
                                  : std::string("default");
         }},
    };
    bool any_axis = false;
    for (const auto &axis : axes)
        any_axis = any_axis || axis.show;

    // Metric columns: union across cells in first-appearance order
    // (cells of one scenario normally share the set; SSD counters are
    // absent for host-only design points).
    std::vector<std::string> metric_names;
    for (const auto &cell : run.cells)
        for (const auto &m : cell.metrics)
            if (std::find(metric_names.begin(), metric_names.end(),
                          m.name) == metric_names.end())
                metric_names.push_back(m.name);

    std::vector<std::string> columns;
    if (!any_axis)
        columns.push_back("design");
    for (const auto &axis : axes)
        if (axis.show)
            columns.push_back(axis.name);
    columns.insert(columns.end(), metric_names.begin(),
                   metric_names.end());
    columns.push_back("notes");

    TableReporter table(s.title, columns);
    for (const auto &result : run.cells) {
        std::vector<std::string> row;
        if (!any_axis)
            row.push_back(backendDisplayName(result.cell.backend));
        for (const auto &axis : axes)
            if (axis.show)
                row.push_back(axis.value(result.cell));
        for (const auto &name : metric_names) {
            bool present = false;
            for (const auto &m : result.metrics)
                present = present || m.name == name;
            if (!present) {
                row.push_back("-");
            } else if (name.size() > 5 &&
                       name.substr(name.size() - 5) == "_frac") {
                row.push_back(fmtPct(result.metric(name)));
            } else {
                row.push_back(fmt(result.metric(name), 2));
            }
        }
        row.push_back(result.notes);
        table.addRow(std::move(row));
    }
    return table;
}

void
writeServingJson(std::ostream &os, const std::vector<ScenarioRun> &runs)
{
    os.precision(10);
    os << "{\n"
       << "  \"bench\": \"serving_load\",\n"
       << "  \"schema_version\": 1,\n"
       << "  \"config\": {\n"
       << "    \"families\": [";
    for (std::size_t i = 0; i < runs.size(); ++i)
        os << (i ? ", " : "") << '"'
           << jsonEscape(runs[i].scenario.family) << '"';
    os << "]\n  },\n"
       << "  \"results\": {\n";

    for (std::size_t r = 0; r < runs.size(); ++r) {
        const ScenarioRun &run = runs[r];
        const Scenario &s = run.scenario;
        SS_ASSERT(s.kind == ExperimentKind::Serving,
                  "writeServingJson needs serving runs, got family '",
                  s.family, "'");
        os << "    \"" << jsonEscape(s.family) << "\": {\n"
           << "      \"title\": \"" << jsonEscape(s.title) << "\",\n"
           << "      \"kind\": \"serving\",\n"
           << "      \"large_scale\": "
           << (s.large_scale ? "true" : "false") << ",\n"
           << "      \"requests\": " << s.serve_requests << ",\n"
           << "      \"fanout\": " << s.serve_fanout << ",\n"
           << "      \"poisson\": "
           << (s.serve_poisson ? "true" : "false") << ",\n"
           << "      \"seed\": " << s.seed << ",\n"
           << "      \"cells\": [\n";
        for (std::size_t i = 0; i < run.cells.size(); ++i) {
            const CellResult &cell = run.cells[i];
            const ExperimentCell &c = cell.cell;
            os << "        {\"dataset\": \""
               << jsonEscape(graph::datasetName(c.dataset))
               << "\", \"backend\": \"" << jsonEscape(c.backend)
               << "\", \"design\": \""
               << jsonEscape(backendDisplayName(c.backend))
               << "\", \"arrival_qps\": " << c.arrival_qps
               << ", \"queue_depth\": " << c.queue_depth
               << ", \"knobs\": {";
            for (std::size_t k = 0; k < c.knobs.size(); ++k)
                os << (k ? ", " : "") << '"'
                   << jsonEscape(c.knobs[k].key)
                   << "\": " << c.knobs[k].value;
            os << "}, \"metrics\": {";
            for (std::size_t m = 0; m < cell.metrics.size(); ++m)
                os << (m ? ", " : "") << '"'
                   << jsonEscape(cell.metrics[m].name)
                   << "\": " << cell.metrics[m].value;
            os << "}, \"notes\": \"" << jsonEscape(cell.notes) << "\"}"
               << (i + 1 < run.cells.size() ? ",\n" : "\n");
        }
        os << "      ]\n    }" << (r + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "  }\n}\n";
}

void
writeDesignSpaceJson(std::ostream &os,
                     const std::vector<ScenarioRun> &runs,
                     const std::string &bench_name)
{
    os.precision(10);
    os << "{\n"
       << "  \"bench\": \"" << jsonEscape(bench_name) << "\",\n"
       << "  \"schema_version\": 1,\n"
       << "  \"config\": {\n"
       << "    \"families\": [";
    for (std::size_t i = 0; i < runs.size(); ++i)
        os << (i ? ", " : "") << '"'
           << jsonEscape(runs[i].scenario.family) << '"';
    os << "]\n  },\n"
       << "  \"results\": {\n";

    for (std::size_t r = 0; r < runs.size(); ++r) {
        const ScenarioRun &run = runs[r];
        const Scenario &s = run.scenario;
        os << "    \"" << jsonEscape(s.family) << "\": {\n"
           << "      \"title\": \"" << jsonEscape(s.title) << "\",\n"
           << "      \"kind\": \""
           << (s.kind == ExperimentKind::Pipeline       ? "pipeline"
               : s.kind == ExperimentKind::SamplingOnly ? "sampling"
               : s.kind == ExperimentKind::Recovery     ? "recovery"
                                                        : "serving")
           << "\",\n"
           << "      \"large_scale\": "
           << (s.large_scale ? "true" : "false") << ",\n"
           << "      \"num_batches\": " << s.num_batches << ",\n"
           << "      \"seed\": " << s.seed << ",\n";
        // Serving axes only for serving families, so non-serving
        // documents (the default artifact) are byte-stable.
        if (s.kind == ExperimentKind::Serving)
            os << "      \"requests\": " << s.serve_requests << ",\n"
               << "      \"fanout\": " << s.serve_fanout << ",\n"
               << "      \"poisson\": "
               << (s.serve_poisson ? "true" : "false") << ",\n";
        os << "      \"cells\": [\n";
        for (std::size_t i = 0; i < run.cells.size(); ++i) {
            const CellResult &cell = run.cells[i];
            const ExperimentCell &c = cell.cell;
            os << "        {\"dataset\": \""
               << jsonEscape(graph::datasetName(c.dataset))
               << "\", \"design\": \""
               << jsonEscape(backendDisplayName(c.backend))
               << "\", \"fanouts\": [";
            for (std::size_t f = 0; f < c.fanouts.size(); ++f)
                os << (f ? ", " : "") << c.fanouts[f];
            os << "], \"batch_size\": " << c.batch_size
               << ", \"batch_mix\": [";
            for (std::size_t m = 0; m < c.batch_mix.size(); ++m)
                os << (m ? ", " : "") << c.batch_mix[m];
            os << "], \"sim_workers\": " << c.sim_workers;
            if (c.kind == ExperimentKind::Serving)
                os << ", \"arrival_qps\": " << c.arrival_qps
                   << ", \"queue_depth\": " << c.queue_depth;
            os << ", \"knobs\": {";
            for (std::size_t k = 0; k < c.knobs.size(); ++k)
                os << (k ? ", " : "") << '"' << jsonEscape(c.knobs[k].key)
                   << "\": " << c.knobs[k].value;
            os << "}, \"metrics\": {";
            for (std::size_t m = 0; m < cell.metrics.size(); ++m)
                os << (m ? ", " : "") << '"'
                   << jsonEscape(cell.metrics[m].name)
                   << "\": " << cell.metrics[m].value;
            os << "}, \"notes\": \"" << jsonEscape(cell.notes) << "\"}"
               << (i + 1 < run.cells.size() ? ",\n" : "\n");
        }
        os << "      ]\n    }" << (r + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "  }\n}\n";
}

const std::vector<BenchArtifact> &
benchArtifacts()
{
    static const std::vector<BenchArtifact> artifacts = {
        {"designspace", "BENCH_designspace.json", "design_space", false},
        {"serving", "BENCH_serving.json", "serving_load", true},
        {"cachepolicy", "BENCH_cachepolicy.json", "cache_policy", false},
        {"faults", "BENCH_faults.json", "fault_space", false},
        {"slo", "BENCH_slo.json", "slo_space", false},
        {"recovery", "BENCH_recovery.json", "recovery_space", false},
        {"scaling", "BENCH_scaling.json", "scaling_space", false},
    };
    return artifacts;
}

const BenchArtifact &
benchArtifactFor(const Scenario &scenario)
{
    std::string tag = scenario.artifact;
    if (tag.empty())
        tag = scenario.kind == ExperimentKind::Serving ? "serving"
                                                       : "designspace";
    for (const BenchArtifact &artifact : benchArtifacts())
        if (tag == artifact.tag)
            return artifact;
    SS_FATAL("scenario '", scenario.family, "': unknown artifact tag '",
             scenario.artifact, "'");
}

std::vector<std::string>
writeBenchArtifacts(const std::string &dir,
                    const std::vector<ScenarioRun> &runs)
{
    std::set<std::string> families;
    for (const ScenarioRun &run : runs)
        if (!families.insert(run.scenario.family).second)
            SS_FATAL("family '", run.scenario.family,
                     "' ran twice; its document would repeat a results "
                     "key");

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        SS_FATAL("cannot create ", dir, ": ", ec.message());

    std::vector<std::string> written;
    for (const BenchArtifact &artifact : benchArtifacts()) {
        std::vector<ScenarioRun> group;
        for (const ScenarioRun &run : runs)
            if (&benchArtifactFor(run.scenario) == &artifact)
                group.push_back(run);
        if (group.empty())
            continue;
        if (std::string_view(artifact.tag) == "scaling")
            annotateScalingMetrics(group);
        const std::string path =
            (std::filesystem::path(dir) / artifact.file).string();
        std::ofstream json(path);
        if (!json)
            SS_FATAL("cannot open ", path);
        if (artifact.serving_schema)
            writeServingJson(json, group);
        else
            writeDesignSpaceJson(json, group, artifact.bench);
        written.push_back(path);
    }
    return written;
}

} // namespace smartsage::core
