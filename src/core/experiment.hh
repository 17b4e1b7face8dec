/**
 * @file
 * ExperimentRunner: executes scenario grids through the event-driven
 * system models.
 *
 * The runner expands a Scenario (scenario.hh), builds each dataset's
 * workload once, then runs every cell — an independent, fully
 * deterministic single-threaded simulation — across a sim::ThreadPool.
 * Results are stored by cell index, so tables and JSON are
 * bit-identical at any --workers count. Output goes to TableReporter
 * paper-style tables and the machine-readable BENCH_designspace.json
 * (same schema family as BENCH_hotpath.json).
 */

#ifndef SMARTSAGE_CORE_EXPERIMENT_HH
#define SMARTSAGE_CORE_EXPERIMENT_HH

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "report.hh"
#include "scenario.hh"
#include "system.hh"

namespace smartsage::core
{

/** One named measurement of a cell ("batches_per_s", ...). */
struct CellMetric
{
    std::string name;
    double value = 0;
};

/** Outcome of one executed cell. */
struct CellResult
{
    ExperimentCell cell;
    /** Ordered metrics; SSD counters appear only for SSD-backed
     *  design points, so look up by name, not position. */
    std::vector<CellMetric> metrics;
    /** Design-point specific counter summary (page cache, scratchpad). */
    std::string notes;
    /** gem5-style stats dump (RunnerOptions::collect_stats only). */
    std::string stats;

    /** Lookup by name. @return 0 when absent */
    double metric(const std::string &name) const;
};

/** One executed scenario: the description plus per-cell results. */
struct ScenarioRun
{
    Scenario scenario;
    std::vector<CellResult> cells; //!< in cell-index order
};

/** Runner execution options. */
struct RunnerOptions
{
    /** Host threads executing independent cells; 1 runs inline. */
    unsigned workers = 1;
    /** Announce each scenario on SS_INFORM. */
    bool progress = false;
    /** Capture each cell's component stats dump (CellResult::stats). */
    bool collect_stats = false;
    /**
     * Scratch root for recovery-cell checkpoint directories (each cell
     * gets "<root>/<family>-<index>"). Empty generates a per-runner
     * directory under the system temp dir, removed with the runner.
     */
    std::string ckpt_root;
    /** Leave recovery-cell checkpoint directories behind for
     *  inspection instead of removing them after each cell. */
    bool keep_checkpoints = false;
};

/** Expands, executes, and reports declarative scenarios. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions options = {});
    ~ExperimentRunner();

    /** Run every cell of @p scenario (cells parallelized over the
     *  pool; results in deterministic cell order). */
    ScenarioRun run(const Scenario &scenario);

    /** Run a list of scenarios in order. */
    std::vector<ScenarioRun> runAll(const std::vector<Scenario> &scenarios);

    /**
     * The cached workload for @p id (built on first use on the calling
     * thread). References stay valid for the runner's lifetime.
     */
    const Workload &workload(graph::DatasetId id, bool large_scale);

    /** Render @p run as the paper-style table (axis columns that vary,
     *  then metrics, then notes). */
    static TableReporter table(const ScenarioRun &run);

  private:
    RunnerOptions options_;
    bool owns_ckpt_root_ = false; //!< generated root, removed in dtor
    std::unique_ptr<sim::ThreadPool> pool_; //!< null when workers == 1
    std::map<std::pair<int, bool>, std::unique_ptr<Workload>> workloads_;
};

/**
 * Emit every run as BENCH_designspace.json: schema-versioned, with the
 * required top-level keys (bench, schema_version, config, results)
 * shared with BENCH_hotpath.json. Content is a pure function of the
 * runs, so the artifact is bit-identical at any runner worker count.
 * Serving-kind runs gain their serving axes (requests/fanout/poisson
 * per family, arrival_qps/queue_depth per cell), which lets documents
 * mix kinds; @p bench_name is the document's bench id.
 */
void writeDesignSpaceJson(std::ostream &os,
                          const std::vector<ScenarioRun> &runs,
                          const std::string &bench_name = "design_space");

/**
 * Emit serving-kind runs as BENCH_serving.json (same schema envelope:
 * bench/schema_version/config/results). Per cell: backend, offered
 * rate, queue depth, and the latency metrics (p50/p95/p99/max/mean,
 * achieved qps, queue wait). Bit-identical at any runner worker count.
 * @pre every run's scenario kind is ExperimentKind::Serving
 */
void writeServingJson(std::ostream &os,
                      const std::vector<ScenarioRun> &runs);

/** One sweep document: its Scenario::artifact routing tag, file name,
 *  bench id, and whether writeServingJson (not writeDesignSpaceJson)
 *  renders it. */
struct BenchArtifact
{
    const char *tag;
    const char *file;
    const char *bench;
    bool serving_schema;
};

/** Every sweep document, in the order writeBenchArtifacts writes them. */
const std::vector<BenchArtifact> &benchArtifacts();

/** The document @p scenario routes to. An empty tag routes serving
 *  families to "serving" and every other family to "designspace";
 *  an unknown tag is fatal. */
const BenchArtifact &benchArtifactFor(const Scenario &scenario);

/**
 * Write @p runs into @p dir (created if missing): one file per
 * benchArtifacts() row some run routes to, none for the others.
 * Scaling cells gain scaling_speedup and scaling_efficiency against
 * their part.nodes=1 cell. Fatal on a family that appears twice (its
 * results key would repeat) or a file that cannot be opened.
 * @return the written paths, in table order
 */
std::vector<std::string>
writeBenchArtifacts(const std::string &dir,
                    const std::vector<ScenarioRun> &runs);

} // namespace smartsage::core

#endif // SMARTSAGE_CORE_EXPERIMENT_HH
