/**
 * @file
 * Declarative experiment scenarios.
 *
 * A Scenario names one experiment family and the axes of its design
 * grid: datasets x design points x fanouts x batch sizes x tenant
 * mixes x config-knob overrides x simulated worker counts. Expansion
 * turns the grid into flat ExperimentCells — each a fully resolved
 * SystemConfig plus a deterministic per-cell seed — which the
 * ExperimentRunner (experiment.hh) executes and reports. Every
 * "reproduce figure N" harness is one Scenario away.
 */

#ifndef SMARTSAGE_CORE_SCENARIO_HH
#define SMARTSAGE_CORE_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "system.hh"

namespace smartsage::core
{

/**
 * One named configuration override, e.g. {"ssd.flash.channels", 16}.
 * Keys are namespaced by the owning subsystem ("ssd.", "isp.",
 * "host.", "fault.", "retry.", "sched.", "admit.", "tenant.") or name
 * a top-level SystemConfig knob; each subsystem interprets its own
 * keys (flash::applyKnob etc.). Keys in a namespace a registered
 * backend claims (BackendCaps::knob_namespaces, e.g. "multi-ssd.")
 * are routed into SystemConfig::backend_knobs for that backend to
 * interpret at build time.
 */
struct KnobSetting
{
    std::string key;
    double value = 0;

    /** "key=value" with a compact number rendering. */
    std::string label() const;
};

/**
 * Apply @p knob to @p config, dispatching on the key's namespace
 * prefix. @return false if no subsystem recognizes the key
 */
bool applyKnob(SystemConfig &config, const KnobSetting &knob);

/** "25-10" rendering of a fanout vector. */
std::string fanoutLabel(const std::vector<unsigned> &fanouts);

/** "256+1024" rendering of a tenant mix; "uniform" when empty. */
std::string mixLabel(const std::vector<std::size_t> &mix);

/** Space-joined knob labels; "baseline" when empty. */
std::string overrideLabel(const std::vector<KnobSetting> &knobs);

/** What each cell measures. */
enum class ExperimentKind
{
    Pipeline,     //!< full producer-consumer training pipeline
    SamplingOnly, //!< worker timelines producing batches, no GPU stage
    Serving,      //!< open-loop request latency (core/serving.hh)
    Recovery,     //!< checkpointed crash/restart training (core/recovery.hh)
};

/** Declarative description of one experiment family's design grid. */
struct Scenario
{
    std::string family; //!< machine-readable id ("fanout-sweep")
    std::string title;  //!< table banner
    ExperimentKind kind = ExperimentKind::Pipeline;
    /**
     * Tag of the BENCH_*.json document this family's results belong
     * to: one of the core::benchArtifacts() tags (experiment.hh) —
     * "designspace", "serving", "cachepolicy", "faults", "slo",
     * "recovery" or "scaling". Empty routes by kind: serving families
     * to "serving", every other family to "designspace"
     * (core::benchArtifactFor).
     */
    std::string artifact;

    // ------- grid axes (each defaults to a single point) -------
    std::vector<graph::DatasetId> datasets{graph::DatasetId::Reddit};
    /** Storage-backend axis as registry ids ("dram", "multi-ssd", ...). */
    std::vector<std::string> backends{"isp-hwsw"};
    std::vector<std::vector<unsigned>> fanout_grid{{25, 10}};
    std::vector<std::size_t> batch_sizes{1024};
    /**
     * Multi-tenant batch-size mixes (round-robin over batches); the
     * default single empty mix means homogeneous batch_sizes cells.
     */
    std::vector<std::vector<std::size_t>> batch_mixes{{}};
    /** Config overrides; each entry is one grid point (a knob set). */
    std::vector<std::vector<KnobSetting>> overrides{{}};
    /** Simulated producer-worker timelines per cell. */
    std::vector<unsigned> worker_grid{4};

    // ------- serving axes (ExperimentKind::Serving only) -------
    /** Offered open-loop arrival rates, requests per second. */
    std::vector<double> arrival_rates{20000};
    /** Host-I/O queue-depth axis; 0 keeps the config default. */
    std::vector<unsigned> queue_depths{0};
    /** Requests per serving cell. */
    std::size_t serve_requests = 512;
    /** Neighbor entries gathered per request. */
    unsigned serve_fanout = 10;
    /** Poisson vs fixed-rate arrivals. */
    bool serve_poisson = true;

    // ------- shared cell parameters -------
    bool large_scale = true;   //!< dataset variant
    std::size_t num_batches = 8;
    std::uint64_t seed = 0xba7c;

    /** Number of cells the grid expands to. */
    std::size_t gridSize() const;
};

/** One fully resolved point of a scenario grid. */
struct ExperimentCell
{
    std::size_t index = 0; //!< position in expansion order
    std::string family;
    ExperimentKind kind = ExperimentKind::Pipeline;
    graph::DatasetId dataset = graph::DatasetId::Reddit;
    bool large_scale = true;
    /** Storage-backend registry id. */
    std::string backend = "isp-hwsw";
    std::vector<unsigned> fanouts;
    std::size_t batch_size = 1024;
    std::vector<std::size_t> batch_mix;
    std::vector<KnobSetting> knobs;
    unsigned sim_workers = 4;
    std::size_t num_batches = 8;

    // ------- serving cells only -------
    double arrival_qps = 0;    //!< offered rate; 0 for non-serving
    unsigned queue_depth = 0;  //!< host-I/O depth; 0 = config default
    std::size_t serve_requests = 0;
    unsigned serve_fanout = 0;
    bool serve_poisson = true;
    /**
     * Serving request-stream seed: the *scenario* seed, shared by
     * every cell so rates, depths, and backends are compared on the
     * identical request stream (paired comparison).
     */
    std::uint64_t serve_seed = 0;

    /** Resolved config: design, fanouts, knobs, and per-cell seed. */
    SystemConfig config;

    /** Compact human-readable cell id for tables and logs. */
    std::string label() const;
};

/**
 * Expand @p scenario into its flat cell list (axis order: datasets,
 * backends, fanouts, batch sizes, mixes, overrides, workers). Cell i
 * seeds its pipeline from fork(i) of the scenario seed, so cells are
 * statistically independent yet bit-reproducible no matter how the
 * runner schedules them. Unknown override keys and unknown backend
 * ids are fatal (the latter lists the registered ids), and so is a
 * backend id listed twice (every cell would repeat under one identity).
 */
std::vector<ExperimentCell> expandScenario(const Scenario &scenario);

/**
 * The built-in scenario families: the full design-point comparison
 * plus fanout, SSD-geometry, tenant-mix, batch-size, and page-buffer
 * sweeps. These are the families a bare `design_space` run executes;
 * their grids are pinned to the paper's seven design points so the
 * default BENCH_designspace.json stays comparable across revisions.
 */
const std::vector<Scenario> &builtinScenarios();

/**
 * Additional registry-driven families, excluded from the default
 * all-family sweep so the default artifact's family set stays stable
 * (run via `design_space --family`; `--bench-dir` writes each into the
 * document core::benchArtifactFor names):
 *  - "backend-space": every registered storage backend, including
 *    out-of-core plugins;
 *  - "serving-load": open-loop request serving over every backend
 *    with a host-side edge store, arrival rate x queue depth grid,
 *    emitting BENCH_serving.json (writeServingJson);
 *  - "cache-policy" / "cache-policy-throughput": the feature-cache
 *    policy x capacity grid (host/feature_cache.hh) over every
 *    servable backend, under open-loop serving and under the closed
 *    sampling pipeline respectively, sharing BENCH_cachepolicy.json;
 *  - "fault-space": fault rate x retry policy over every servable
 *    backend under open-loop serving, emitting recovery metrics
 *    (goodput, shed fraction, retry counters) into BENCH_faults.json;
 *  - "slo-space": multi-tenant serving (core/tenant.hh) over every
 *    servable backend — scheduling discipline x arrival shape under an
 *    oversubscribed two-tenant workload — emitting per-tenant SLO
 *    attainment and goodput into BENCH_slo.json;
 *  - "recovery-space": checkpointed training killed mid-run and
 *    restarted from the newest manifest (core/recovery.hh), swept over
 *    checkpoint interval (plus a warm-cache restart point) per
 *    servable backend, emitting recovery time, lost work, and
 *    checkpoint overhead into BENCH_recovery.json;
 *  - "scaling": the partitioned scale-out backend swept over node
 *    count x link bandwidth x cut strategy (sampling-only), emitting
 *    annotated scaling_speedup/scaling_efficiency columns into
 *    BENCH_scaling.json.
 */
const std::vector<Scenario> &extraScenarios();

/** Registered backend ids whose caps include a host-side edge store —
 *  the backends the serving harness can evaluate. Sorted by id. */
std::vector<std::string> servableBackendIds();

/** Find a family by id in builtin + extra. @return nullptr when absent */
const Scenario *findScenario(const std::string &family);

/**
 * Shrink @p scenario to CI smoke size: in-memory dataset variants and
 * a small fixed batch count. Grid shape (and therefore coverage) is
 * preserved.
 */
Scenario smokeVariant(Scenario scenario);

} // namespace smartsage::core

#endif // SMARTSAGE_CORE_SCENARIO_HH
