#include "scenario.hh"

#include <algorithm>
#include <cstdio>

#include "backend.hh"
#include "host/feature_cache.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace smartsage::core
{

namespace
{

/** Compact number rendering for labels ("16", "0.4"). */
std::string
fmtValue(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** Join integers with @p sep ("25-10", "256+1024"). */
template <typename T>
std::string
joinInts(const std::vector<T> &values, char sep)
{
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += sep;
        out += std::to_string(values[i]);
    }
    return out;
}

} // namespace

std::string
KnobSetting::label() const
{
    return key + "=" + fmtValue(value);
}

std::string
fanoutLabel(const std::vector<unsigned> &fanouts)
{
    return joinInts(fanouts, '-');
}

std::string
mixLabel(const std::vector<std::size_t> &mix)
{
    return mix.empty() ? "uniform" : joinInts(mix, '+');
}

std::string
overrideLabel(const std::vector<KnobSetting> &knobs)
{
    if (knobs.empty())
        return "baseline";
    std::string out;
    for (std::size_t i = 0; i < knobs.size(); ++i) {
        if (i)
            out += ' ';
        out += knobs[i].label();
    }
    return out;
}

namespace
{
bool applyBackendKnob(SystemConfig &config, const KnobSetting &knob);
} // namespace

bool
applyKnob(SystemConfig &config, const KnobSetting &knob)
{
    std::string_view key = knob.key;
    double value = knob.value;

    auto strip = [&key](std::string_view prefix) {
        if (key.substr(0, prefix.size()) != prefix)
            return false;
        key.remove_prefix(prefix.size());
        return true;
    };
    if (strip("ssd."))
        return ssd::applyKnob(config.ssd, key, value);
    if (strip("isp."))
        return isp::applyKnob(config.isp, key, value);
    if (strip("fpga."))
        return isp::applyKnob(config.fpga, key, value);
    if (strip("host."))
        return host::applyKnob(config.host, key, value);
    if (strip("fault."))
        return sim::applyKnob(config.fault, key, value);
    if (strip("retry."))
        return sim::applyKnob(config.retry, key, value);
    if (strip("sched."))
        return sim::applyKnob(config.sched, key, value);
    if (strip("admit."))
        return sim::applyKnob(config.admit, key, value);
    if (strip("tenant."))
        return core::applyKnob(config.tenants, key, value);
    if (strip("ckpt."))
        return core::applyKnob(config.ckpt, key, value);

    // Top-level SystemConfig knobs.
    if (key == "page_cache_fraction")
        config.page_cache_fraction = value;
    else if (key == "scratchpad_fraction")
        config.scratchpad_fraction = value;
    else if (key == "ssd_buffer_fraction")
        config.ssd_buffer_fraction = value;
    else if (key == "hidden_dim")
        config.hidden_dim = static_cast<unsigned>(value);
    else if (key == "use_saint")
        config.use_saint = value != 0;
    else if (key == "saint_walk_length")
        config.saint_walk_length = static_cast<unsigned>(value);
    else if (key == "else_per_batch_us")
        config.pipeline.else_per_batch = sim::us(value);
    else
        return applyBackendKnob(config, knob);
    return true;
}

namespace
{

bool
applyBackendKnob(SystemConfig &config, const KnobSetting &knob)
{
    // Extension namespaces claimed by registered backends (e.g.
    // "multi-ssd.shards"): stored verbatim for the owning backend to
    // interpret at build time. The builtin namespaces were already
    // dispatched above, so anything matching here is backend-private.
    for (const StorageBackend *backend :
         BackendRegistry::instance().all()) {
        for (const std::string &ns : backend->caps().knob_namespaces) {
            if (ns == "ssd." || ns == "isp." || ns == "fpga." ||
                ns == "host.")
                continue;
            if (knob.key.rfind(ns, 0) == 0) {
                config.backend_knobs[knob.key] = knob.value;
                return true;
            }
        }
    }
    return false;
}

} // namespace

std::size_t
Scenario::gridSize() const
{
    std::size_t cells = datasets.size() * backends.size() *
                        fanout_grid.size() * batch_sizes.size() *
                        batch_mixes.size() * overrides.size() *
                        worker_grid.size();
    if (kind == ExperimentKind::Serving)
        cells *= arrival_rates.size() * queue_depths.size();
    return cells;
}

std::string
ExperimentCell::label() const
{
    std::string out = graph::datasetName(dataset) + "/" +
                      backendDisplayName(backend) +
                      "/f=" + fanoutLabel(fanouts) + "/b=";
    out += batch_mix.empty() ? std::to_string(batch_size)
                             : mixLabel(batch_mix);
    for (const auto &knob : knobs)
        out += "/" + knob.label();
    if (kind == ExperimentKind::Serving) {
        out += "/rate=" + fmtValue(arrival_qps);
        out += "/qd=" + (queue_depth ? std::to_string(queue_depth)
                                     : std::string("default"));
    } else {
        out += "/w=" + std::to_string(sim_workers);
    }
    return out;
}

std::vector<ExperimentCell>
expandScenario(const Scenario &scenario)
{
    SS_ASSERT(!scenario.datasets.empty() && !scenario.backends.empty() &&
                  !scenario.fanout_grid.empty() &&
                  !scenario.batch_sizes.empty() &&
                  !scenario.batch_mixes.empty() &&
                  !scenario.overrides.empty() &&
                  !scenario.worker_grid.empty(),
              "scenario '", scenario.family, "' has an empty grid axis");

    // Unknown backend ids die here, listing the registered set; a
    // repeated id would double every cell under one identity.
    for (auto it = scenario.backends.begin(); it != scenario.backends.end();
         ++it) {
        BackendRegistry::instance().get(*it);
        if (std::find(scenario.backends.begin(), it, *it) != it)
            SS_FATAL("scenario '", scenario.family, "': backend '", *it,
                     "' listed twice");
    }

    // The serving axes only multiply the grid for serving scenarios;
    // other kinds iterate a single dummy point so their expansion (and
    // therefore the default BENCH_designspace.json) is untouched.
    const bool serving = scenario.kind == ExperimentKind::Serving;
    const std::vector<double> rate_axis =
        serving ? scenario.arrival_rates : std::vector<double>{0};
    const std::vector<unsigned> depth_axis =
        serving ? scenario.queue_depths : std::vector<unsigned>{0};
    if (serving)
        SS_ASSERT(!rate_axis.empty() && !depth_axis.empty(),
                  "scenario '", scenario.family,
                  "' has an empty serving axis");

    std::vector<ExperimentCell> cells;
    cells.reserve(scenario.gridSize());
    sim::Rng master(scenario.seed);

    for (auto dataset : scenario.datasets)
     for (const auto &backend : scenario.backends)
      for (const auto &fanouts : scenario.fanout_grid)
       for (auto batch_size : scenario.batch_sizes)
        for (const auto &mix : scenario.batch_mixes)
         for (const auto &knobs : scenario.overrides)
          for (auto workers : scenario.worker_grid)
           for (auto rate : rate_axis)
            for (auto depth : depth_axis) {
              ExperimentCell cell;
              cell.index = cells.size();
              cell.family = scenario.family;
              cell.kind = scenario.kind;
              cell.dataset = dataset;
              cell.large_scale = scenario.large_scale;
              cell.backend = backend;
              cell.fanouts = fanouts;
              cell.batch_size = batch_size;
              cell.batch_mix = mix;
              cell.knobs = knobs;
              cell.sim_workers = workers;
              cell.num_batches = scenario.num_batches;
              if (serving) {
                  cell.arrival_qps = rate;
                  cell.queue_depth = depth;
                  cell.serve_requests = scenario.serve_requests;
                  cell.serve_fanout = scenario.serve_fanout;
                  cell.serve_poisson = scenario.serve_poisson;
                  cell.serve_seed = scenario.seed;
              }

              SystemConfig sc;
              sc.backend = backend;
              sc.fanouts = fanouts;
              sc.pipeline.workers = workers;
              sc.pipeline.num_batches = scenario.num_batches;
              sc.pipeline.batch_size = batch_size;
              sc.pipeline.batch_mix = mix;
              // Independent stream per cell, reproducible at any
              // runner worker count because it depends only on index.
              sc.pipeline.seed = master.fork(cell.index).next();
              for (const auto &knob : knobs) {
                  if (!applyKnob(sc, knob))
                      SS_FATAL("scenario '", scenario.family,
                               "': unknown config knob '", knob.key, "'");
              }
              if (serving && depth > 0)
                  sc.host.io_queue_depth = depth;
              cell.config = std::move(sc);
              cells.push_back(std::move(cell));
          }
    return cells;
}

namespace
{

Scenario
designSpaceScenario()
{
    Scenario s;
    s.family = "design-space";
    s.title = "Design space: every design point, paper defaults";
    s.kind = ExperimentKind::Pipeline;
    s.backends = paperBackendIds();
    s.worker_grid = {12};
    s.num_batches = 24;
    return s;
}

Scenario
fanoutSweepScenario()
{
    Scenario s;
    s.family = "fanout-sweep";
    s.title = "Fanout sweep: sampling rate vs ISP benefit";
    s.kind = ExperimentKind::SamplingOnly;
    s.backends = {"ssd-mmap", "isp-hwsw"};
    s.fanout_grid = {{5}, {10, 5}, {15, 10}, {25, 10}, {25, 10, 5}};
    s.num_batches = 8;
    return s;
}

Scenario
ssdGeometryScenario()
{
    Scenario s;
    s.family = "ssd-geometry";
    s.title = "SSD geometry: flash channels/dies vs in-storage sampling";
    s.kind = ExperimentKind::SamplingOnly;
    s.backends = {"isp-hwsw"};
    s.overrides = {
        {},
        {{"ssd.flash.channels", 2}},
        {{"ssd.flash.channels", 4}},
        {{"ssd.flash.channels", 16}},
        {{"ssd.flash.channels", 32}},
        {{"ssd.flash.dies_per_channel", 2}},
        {{"ssd.flash.dies_per_channel", 8}},
        {{"ssd.flash.channels", 16}, {"ssd.flash.dies_per_channel", 8}},
    };
    s.num_batches = 8;
    return s;
}

Scenario
tenantMixScenario()
{
    Scenario s;
    s.family = "tenant-mix";
    s.title = "Multi-tenant batch mix: heterogeneous tenants sharing "
              "the storage stack";
    s.kind = ExperimentKind::Pipeline;
    s.backends = {"ssd-mmap", "isp-hwsw"};
    s.batch_mixes = {{}, {256, 1024}, {128, 256, 512, 1024}, {64, 2048}};
    s.worker_grid = {8};
    s.num_batches = 16;
    return s;
}

Scenario
batchSizeScenario()
{
    Scenario s;
    s.family = "batch-size";
    s.title = "Batch-size sensitivity (Section VI-F)";
    s.kind = ExperimentKind::SamplingOnly;
    s.backends = {"ssd-mmap", "isp-hwsw"};
    s.fanout_grid = {{10, 5}};
    s.batch_sizes = {64, 128, 256};
    s.num_batches = 8;
    return s;
}

Scenario
pageBufferScenario()
{
    Scenario s;
    s.family = "page-buffer";
    s.title = "SSD page-buffer capacity sweep (DESIGN.md ablation)";
    s.kind = ExperimentKind::SamplingOnly;
    s.backends = {"isp-hwsw"};
    s.overrides = {
        {{"ssd_buffer_fraction", 0.02}}, {{"ssd_buffer_fraction", 0.15}},
        {{"ssd_buffer_fraction", 0.4}},  {{"ssd_buffer_fraction", 0.8}},
        {{"ssd_buffer_fraction", 1.5}},
    };
    s.num_batches = 8;
    return s;
}

Scenario
workerScalingScenario()
{
    Scenario s;
    s.family = "worker-scaling";
    s.title = "Producer worker scaling (Fig 17 regime)";
    s.kind = ExperimentKind::Pipeline;
    s.backends = {"ssd-mmap", "isp-hwsw"};
    s.worker_grid = {1, 2, 4, 8, 12, 16};
    s.num_batches = 16;
    return s;
}

Scenario
servingLoadScenario()
{
    // Registry-driven like backend-space, but restricted to backends
    // the serving harness can drive (a host-side edge store). The
    // arrival-rate axis spans comfortably-below-capacity through
    // saturation for the SSD-backed stores, so the latency tail's
    // rise with load is visible in one table; the queue-depth axis
    // shows the admission bound trading tail latency for fairness.
    Scenario s;
    s.family = "serving-load";
    s.title = "Online serving: open-loop arrivals vs storage backend";
    s.kind = ExperimentKind::Serving;
    s.backends = servableBackendIds();
    s.arrival_rates = {2000, 10000, 50000};
    s.queue_depths = {4, 32};
    s.serve_requests = 768;
    s.serve_fanout = 10;
    return s;
}

/**
 * The cache-policy override grid: a no-cache baseline plus every
 * replacement policy at a small and a large capacity fraction. Shared
 * by the serving- and throughput-kind cache families so both compare
 * the same policy x capacity points.
 */
std::vector<std::vector<KnobSetting>>
cachePolicyOverrides()
{
    const host::FeatureCachePolicy policies[] = {
        host::FeatureCachePolicy::Lru,
        host::FeatureCachePolicy::Clock,
        host::FeatureCachePolicy::LfuLite,
        host::FeatureCachePolicy::DegreePin,
    };
    std::vector<std::vector<KnobSetting>> overrides{{}};
    for (double fraction : {0.1, 0.4})
        for (host::FeatureCachePolicy policy : policies)
            overrides.push_back(
                {{"cache.policy", static_cast<double>(policy)},
                 {"cache.capacity_fraction", fraction}});
    // Miss-path variants at the headline capacity: the MSHR ablation
    // (coalescing off, the pre-MSHR miss path) quantifies what
    // piggybacking buys, and the hoard-prefetch points are the cells
    // whose prefetch_hit_frac the bench gate watches.
    overrides.push_back({{"cache.policy", 0.0},
                         {"cache.capacity_fraction", 0.4},
                         {"cache.mshr.enabled", 0.0}});
    overrides.push_back({{"cache.policy", 0.0},
                         {"cache.capacity_fraction", 0.4},
                         {"cache.prefetch.enabled", 1.0}});
    overrides.push_back({{"cache.policy", 2.0},
                         {"cache.capacity_fraction", 0.4},
                         {"cache.prefetch.enabled", 1.0}});
    return overrides;
}

Scenario
cachePolicyServingScenario()
{
    // Registry-driven like serving-load: every backend with a host
    // edge store, each behind the same policy x capacity cache grid on
    // one fixed open-loop operating point, so hit-rate and tail
    // latency separate by policy rather than by load.
    Scenario s;
    s.family = "cache-policy";
    s.title = "Feature cache: policy x capacity x backend, open-loop "
              "serving tails";
    s.kind = ExperimentKind::Serving;
    s.artifact = "cachepolicy";
    s.backends = servableBackendIds();
    s.overrides = cachePolicyOverrides();
    s.arrival_rates = {20000};
    s.queue_depths = {16};
    s.serve_requests = 768;
    s.serve_fanout = 10;
    return s;
}

Scenario
cachePolicyThroughputScenario()
{
    // The same policy x capacity grid under the closed sampling
    // pipeline: what the cache buys batch throughput.
    Scenario s;
    s.family = "cache-policy-throughput";
    s.title = "Feature cache: policy x capacity x backend, sampling "
              "throughput";
    s.kind = ExperimentKind::SamplingOnly;
    s.artifact = "cachepolicy";
    s.backends = servableBackendIds();
    s.overrides = cachePolicyOverrides();
    s.fanout_grid = {{10, 5}};
    s.num_batches = 8;
    return s;
}

/**
 * The fault-space override grid: a fault-free baseline plus three
 * fault intensities, each with retries off (max_attempts 1) and on
 * (max_attempts 4). One knob scales every fault source together —
 * transient host read errors and ECC re-reads at the full rate,
 * shard outages at half, slowdowns at a fifth — so a single axis
 * sweeps "how broken is the storage". Every point carries the same
 * deadline, keeping the emitted metric set uniform across the family
 * (the recovery columns appear whenever a deadline is configured).
 */
std::vector<std::vector<KnobSetting>>
faultSpaceOverrides()
{
    std::vector<std::vector<KnobSetting>> overrides;
    for (double rate : {0.0, 0.02, 0.1, 0.25}) {
        for (double attempts : {1.0, 4.0}) {
            std::vector<KnobSetting> point = {
                {"fault.read_error_rate", rate},
                {"fault.ecc_rate", rate},
                {"fault.shard_outage_rate", rate * 0.5},
                {"fault.slow_rate", rate * 0.2},
                {"retry.max_attempts", attempts},
                {"retry.backoff_base_us", 50},
                {"retry.timeout_us", 100000},
            };
            overrides.push_back(std::move(point));
        }
    }
    return overrides;
}

Scenario
faultSpaceScenario()
{
    // Registry-driven like serving-load: every backend with a host
    // edge store on one fixed open-loop operating point, swept over
    // fault intensity x retry policy. The product is the recovery
    // surface: goodput vs offered load, shed fraction, retry counts,
    // and the latency tail under faults.
    Scenario s;
    s.family = "fault-space";
    s.title = "Fault space: fault rate x retry policy x backend, "
              "open-loop serving";
    s.kind = ExperimentKind::Serving;
    s.artifact = "faults";
    s.backends = servableBackendIds();
    s.overrides = faultSpaceOverrides();
    s.arrival_rates = {10000};
    s.queue_depths = {16};
    s.serve_requests = 512;
    s.serve_fanout = 10;
    return s;
}

/**
 * The slo-space override grid. Every point shares the same two-tenant
 * workload — an interactive class (low fanout, tight SLO, high
 * priority) and a batch class (heavy fanout, no SLO) whose combined
 * offered load oversubscribes the host I/O channel — and varies the
 * scheduling discipline and the interactive stream's arrival shape:
 *
 *  - "fifo":      the untagged baseline; the batch flood queues ahead
 *                 of interactive requests and the SLO collapses;
 *  - "edf+admit": deadline-aware dispatch plus SLO-aware admission —
 *                 the closed-loop answer the family exists to measure;
 *  - "prio+bound": strict priority dispatch with a bounded queue, the
 *                 simpler middle ground;
 *  - shape variants (diurnal / bursty / flash-crowd) stress the
 *                 admission estimator with a non-stationary batch
 *                 flood, all under edf+admit;
 *  - "closed":    the interactive class as a closed-loop client
 *                 population pacing itself off completions.
 */
std::vector<std::vector<KnobSetting>>
sloSpaceOverrides()
{
    // The shared two-tenant workload. The interactive class answers
    // users (small gathers, 2 ms SLO); the batch class is a training
    // frontend flooding the same channel with large gathers. Request
    // budgets are explicit and proportional to the rates, so both
    // streams span the same simulated window and the flood is
    // sustained for the whole run rather than draining early.
    const std::vector<KnobSetting> tenants = {
        {"tenant.0.qps", 10000},   {"tenant.0.fanout", 4},
        {"tenant.0.slo_us", 2000}, {"tenant.0.priority", 10},
        {"tenant.0.requests", 64},
        {"tenant.1.qps", 200000},  {"tenant.1.fanout", 16},
        {"tenant.1.requests", 1280},
    };
    auto with = [&tenants](std::initializer_list<KnobSetting> extra) {
        std::vector<KnobSetting> point = tenants;
        point.insert(point.end(), extra.begin(), extra.end());
        return point;
    };
    const KnobSetting edf{"sched.policy", 2};
    const KnobSetting slo_admit{"admit.slo_aware", 1};
    return {
        with({}), // plain FIFO, no admission: the degraded baseline
        with({edf, slo_admit}),
        with({{"sched.policy", 1}, {"admit.max_queue", 64}}),
        // Non-stationary batch floods, each under edf+admit.
        with({{"tenant.1.shape", 2}, {"tenant.1.shape_mag", 3},
              edf, slo_admit}),
        with({{"tenant.1.shape", 3}, {"tenant.1.shape_mag", 4},
              edf, slo_admit}),
        with({{"tenant.1.shape", 4}, {"tenant.1.shape_mag", 6},
              edf, slo_admit}),
        // Interactive tenant as a closed-loop client population.
        with({{"tenant.0.clients", 8}, {"tenant.0.think_us", 300},
              edf, slo_admit}),
    };
}

Scenario
sloSpaceScenario()
{
    // Registry-driven like fault-space: every backend with a host edge
    // store on one oversubscribed operating point, swept over the
    // scheduling-discipline x arrival-shape grid above. The product is
    // the SLO surface: per-tenant attainment, goodput, and shed
    // fraction under contention (BENCH_slo.json).
    Scenario s;
    s.family = "slo-space";
    s.title = "SLO space: multi-tenant serving x scheduling policy x "
              "arrival shape";
    s.kind = ExperimentKind::Serving;
    s.artifact = "slo";
    s.backends = servableBackendIds();
    s.overrides = sloSpaceOverrides();
    s.arrival_rates = {210000}; // nominal aggregate (tenants carry rates)
    s.queue_depths = {8};
    s.serve_requests = 512;
    s.serve_fanout = 10;
    return s;
}

/**
 * The recovery-space override grid: one shared crash point (the run
 * dies while batch 3 of 4 is in flight) under checkpoint intervals
 * 1, 2, and 4 — losing 0, 1, and 3 batches of work respectively —
 * plus a warm-cache restart point at interval 2. Small absolute batch
 * counts keep the family smoke-sized while still separating the
 * intervals.
 */
std::vector<std::vector<KnobSetting>>
recoverySpaceOverrides()
{
    std::vector<std::vector<KnobSetting>> overrides;
    for (double interval : {1.0, 2.0, 4.0})
        overrides.push_back({{"ckpt.interval_batches", interval},
                             {"fault.kill_batch", 3}});
    overrides.push_back(
        {{"ckpt.interval_batches", 2},
         {"fault.kill_batch", 3},
         {"ckpt.warm_cache", 1},
         {"cache.policy",
          static_cast<double>(host::FeatureCachePolicy::Lru)},
         {"cache.capacity_fraction", 0.4}});
    return overrides;
}

Scenario
recoverySpaceScenario()
{
    // Registry-driven like fault-space: every backend with a host edge
    // store, each crash-restarted under the checkpoint-interval grid
    // above. The product is the recovery surface — restart time, lost
    // work, and checkpoint write overhead — plus the headline
    // suspend/resume bit-identity check (BENCH_recovery.json).
    Scenario s;
    s.family = "recovery-space";
    s.title = "Recovery space: checkpoint interval x backend, "
              "crash-restarted training";
    s.kind = ExperimentKind::Recovery;
    s.artifact = "recovery";
    s.backends = servableBackendIds();
    s.overrides = recoverySpaceOverrides();
    s.fanout_grid = {{10, 5}};
    s.batch_sizes = {128};
    s.worker_grid = {4};
    s.num_batches = 4; // smoke-sized by construction
    s.large_scale = false;
    return s;
}

Scenario
backendSpaceScenario()
{
    // Registry-driven: every backend alive in this build, including
    // plugins registered outside core — except backends that opt out
    // of the default grids (BackendCaps::in_default_grids; they have
    // their own dedicated family). Sorted ids keep the grid
    // deterministic regardless of static registration order.
    Scenario s;
    s.family = "backend-space";
    s.title = "Backend space: every registered storage backend";
    s.kind = ExperimentKind::Pipeline;
    s.backends.clear();
    for (const StorageBackend *backend :
         BackendRegistry::instance().all()) {
        if (backend->caps().in_default_grids)
            s.backends.push_back(backend->id());
    }
    s.worker_grid = {8};
    s.num_batches = 16;
    return s;
}

Scenario
scalingScenario()
{
    // Scale-out axes of the partitioned backend: node count x link
    // bandwidth x cut strategy, sampling-only so the storage+network
    // path dominates. The per-group nodes=1 cell is the scaling
    // baseline: scaling_speedup/scaling_efficiency columns are
    // annotated post-run (annotateScalingMetrics) from avg_sample_ms.
    Scenario s;
    s.family = "scaling";
    s.title = "Scale-out: partitioned nodes x link bandwidth x "
              "cut strategy";
    s.kind = ExperimentKind::SamplingOnly;
    s.artifact = "scaling";
    s.backends = {"partitioned"};
    s.overrides.clear();
    for (double strategy : {0.0, 1.0})
        for (double gbps : {10.0, 100.0})
            for (double nodes : {1.0, 2.0, 4.0})
                s.overrides.push_back(
                    {// Keep the cells flash-bound even at smoke sizes:
                     // a single-way controller buffer shrinks the
                     // set-associative floor below the working set, and
                     // a one-channel, one-die flash array per node
                     // makes the cluster's aggregate die count — the
                     // resource scale-out actually buys — the unit the
                     // concurrent producer timelines queue on.
                     {"scratchpad_fraction", 0.02},
                     {"ssd.page_buffer_ways", 1},
                     {"ssd.flash.channels", 1},
                     {"ssd.flash.dies_per_channel", 1},
                     {"part.strategy", strategy},
                     {"net.bandwidth_gbps", gbps},
                     {"part.nodes", nodes}});
    return s;
}

} // namespace

const std::vector<Scenario> &
builtinScenarios()
{
    static const std::vector<Scenario> scenarios = {
        designSpaceScenario(), fanoutSweepScenario(),
        ssdGeometryScenario(), tenantMixScenario(),
        batchSizeScenario(),   pageBufferScenario(),
        workerScalingScenario(),
    };
    return scenarios;
}

std::vector<std::string>
servableBackendIds()
{
    std::vector<std::string> out;
    for (const StorageBackend *backend :
         BackendRegistry::instance().all()) {
        if (backend->caps().edge_store != EdgeStoreKind::None &&
            backend->caps().in_default_grids)
            out.push_back(backend->id());
    }
    return out;
}

const std::vector<Scenario> &
extraScenarios()
{
    static const std::vector<Scenario> scenarios = {
        backendSpaceScenario(),
        servingLoadScenario(),
        cachePolicyServingScenario(),
        cachePolicyThroughputScenario(),
        faultSpaceScenario(),
        sloSpaceScenario(),
        recoverySpaceScenario(),
        scalingScenario(),
    };
    return scenarios;
}

const Scenario *
findScenario(const std::string &family)
{
    for (const auto &s : builtinScenarios())
        if (s.family == family)
            return &s;
    for (const auto &s : extraScenarios())
        if (s.family == family)
            return &s;
    return nullptr;
}

Scenario
smokeVariant(Scenario scenario)
{
    scenario.large_scale = false;
    scenario.num_batches = std::min<std::size_t>(scenario.num_batches, 4);
    scenario.serve_requests =
        std::min<std::size_t>(scenario.serve_requests, 192);
    return scenario;
}

} // namespace smartsage::core
