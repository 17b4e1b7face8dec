#include "system.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "backend.hh"
#include "host/feature_cache.hh"
#include "pipeline/scheduler.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/thread_pool.hh"

namespace smartsage::core
{

Workload
Workload::make(graph::DatasetId id, bool large_scale,
               unsigned num_classes)
{
    const auto &spec = graph::datasetSpec(id);
    graph::CsrGraph g =
        large_scale ? spec.buildLargeScale() : spec.buildInMemory();
    std::uint64_t n = g.numNodes();
    return Workload{
        id, std::move(g),
        gnn::FeatureTable(n, spec.feature_dim, num_classes)};
}

std::uint64_t
Workload::edgeListBytes(const graph::EdgeLayout &layout) const
{
    return graph.numEdges() * layout.entry_bytes;
}

unsigned
SystemConfig::depth() const
{
    return use_saint ? saint_walk_length
                     : static_cast<unsigned>(fanouts.size());
}

double
SystemConfig::knobOr(const std::string &key, double fallback) const
{
    auto it = backend_knobs.find(key);
    return it == backend_knobs.end() ? fallback : it->second;
}

void
SystemConfig::validate() const
{
    auto checkFraction = [](const char *name, double value, double hi) {
        // !(in range) also catches NaN.
        if (!(value >= 0.0 && value <= hi))
            SS_FATAL("SystemConfig: ", name, " must be within [0, ", hi,
                     "], got ", value);
    };
    checkFraction("page_cache_fraction", page_cache_fraction, 1.0);
    checkFraction("scratchpad_fraction", scratchpad_fraction, 1.0);
    // The SSD page buffer may be deliberately oversized past the edge
    // file for ablations (the "page-buffer" family sweeps up to 1.5x).
    checkFraction("ssd_buffer_fraction", ssd_buffer_fraction, 2.0);

    sim::validate(fault);
    sim::validate(retry);
    core::validate(tenants);
    core::validate(ckpt);

    if (use_saint) {
        if (saint_walk_length == 0)
            SS_FATAL("SystemConfig: saint_walk_length must be >= 1 "
                     "when use_saint is set");
        return;
    }
    if (fanouts.empty())
        SS_FATAL("SystemConfig: fanouts must not be empty for "
                 "GraphSAGE sampling (set use_saint for random walks)");
    for (unsigned f : fanouts)
        if (f == 0)
            SS_FATAL("SystemConfig: fanouts must all be >= 1, got a 0 "
                     "entry in the fanout vector");
}

namespace
{

/** Scale a cache budget off the edge-list size, with a sane floor. */
std::uint64_t
scaledCache(double fraction, std::uint64_t edge_bytes,
            std::uint64_t line_bytes, unsigned ways)
{
    std::uint64_t floor_bytes = line_bytes * ways * 8;
    auto want = static_cast<std::uint64_t>(fraction *
                                           static_cast<double>(edge_bytes));
    return std::max(want, floor_bytes);
}

} // namespace

GnnSystem::GnnSystem(const SystemConfig &config, const Workload &workload)
    : config_(config), workload_(workload)
{
    config_.validate();

    // Sampler.
    if (config_.use_saint)
        sampler_ = std::make_unique<gnn::SaintSampler>(
            config_.saint_walk_length);
    else
        sampler_ = std::make_unique<gnn::SageSampler>(config_.fanouts);

    // Cache budgets follow the dataset's on-device footprint.
    std::uint64_t edge_bytes = workload.edgeListBytes(config_.layout);
    config_.host.page_cache_bytes =
        scaledCache(config_.page_cache_fraction, edge_bytes,
                    config_.host.os_page_bytes,
                    config_.host.page_cache_ways);
    config_.host.scratchpad_bytes =
        scaledCache(config_.scratchpad_fraction, edge_bytes,
                    config_.host.os_page_bytes,
                    config_.host.scratchpad_ways);
    config_.ssd.page_buffer_bytes =
        scaledCache(config_.ssd_buffer_fraction, edge_bytes,
                    config_.ssd.flash.page_bytes,
                    config_.ssd.page_buffer_ways);

    // Propagate the system-wide fault schedule into the subsystem
    // configs the backends build from: the host I/O path (transient
    // errors, slowdowns, retry policy) and the flash array (ECC).
    // Sharded backends copy config_.host/config_.ssd per shard, so
    // they inherit the plan with no wiring of their own.
    config_.host.fault = config_.fault;
    config_.host.retry = config_.retry;
    config_.ssd.flash.fault = config_.fault;
    // Scheduling and admission ride the same propagation: the host
    // I/O channel is built from config_.host, so every backend's edge
    // store picks up the dispatch policy without wiring of its own.
    config_.host.sched = config_.sched;
    config_.host.admit = config_.admit;

    // Substrate composition is entirely the backend's business.
    const StorageBackend &backend =
        BackendRegistry::instance().get(config_.backend);
    backend_ = backend.build({config_, workload_, *sampler_});

    gnn::ModelConfig mc;
    mc.in_dim = workload_.features.dim();
    mc.hidden_dim = config_.hidden_dim;
    mc.num_classes = workload_.features.numClasses();
    mc.depth = config_.depth();
    gpu_ = std::make_unique<gnn::GpuTimingModel>(config_.gpu, mc);
}

GnnSystem::~GnnSystem() = default;

pipeline::SubgraphProducer &
GnnSystem::producer()
{
    return backend_->producer();
}

BackendInstance &
GnnSystem::backend() const
{
    return *backend_;
}

ssd::SsdDevice *
GnnSystem::ssd()
{
    return backend_->ssd();
}

host::EdgeStore *
GnnSystem::edgeStore()
{
    return backend_->edgeStore();
}

const host::FeatureCacheStore *
GnnSystem::featureCache() const
{
    return dynamic_cast<const host::FeatureCacheStore *>(
        backend_->edgeStore());
}

host::FeatureCacheStore *
GnnSystem::featureCache()
{
    return dynamic_cast<host::FeatureCacheStore *>(
        backend_->edgeStore());
}

pipeline::PipelineResult
GnnSystem::runPipeline()
{
    pipeline::TrainingPipeline pipe(config_.pipeline, config_.host,
                                    *gpu_, workload_.features);
    return pipe.run(backend_->producer(), workload_.graph);
}

std::vector<GnnSystem::StatRow>
GnnSystem::statRows() const
{
    std::vector<StatRow> rows;
    auto add = [&rows](const std::string &name, double value,
                       const std::string &desc) {
        rows.push_back({name, value, desc});
    };
    add("graph.nodes", static_cast<double>(workload_.graph.numNodes()),
        "graph nodes");
    add("graph.edges", static_cast<double>(workload_.graph.numEdges()),
        "graph edges");
    backend_->addStats(add);
    // The feature-cache decorator reports centrally so every backend's
    // stats gain the cache rows without per-backend wiring. Absent
    // when the cache is disabled, keeping the default stats documents
    // identical to the pre-cache schema.
    if (const host::FeatureCacheStore *cache = featureCache()) {
        const host::FeatureCacheStats &cs = cache->stats();
        add("host.feature_cache.policy",
            static_cast<double>(cache->params().policy),
            "replacement policy id (0=lru 1=clock 2=lfu-lite "
            "3=degree-pin)");
        add("host.feature_cache.capacity_lines",
            static_cast<double>(cache->params().capacityLines()),
            "cache capacity in lines");
        add("host.feature_cache.hits", static_cast<double>(cs.hits),
            "line touches found resident");
        add("host.feature_cache.misses", static_cast<double>(cs.misses),
            "line touches that went to storage");
        add("host.feature_cache.evictions",
            static_cast<double>(cs.evictions),
            "victims replaced by fills");
        add("host.feature_cache.hit_rate", cs.hitRate(),
            "feature-cache line hit rate");
        // Miss-path concurrency rows only when the machinery is on, so
        // an mshr-disabled cache keeps the pre-MSHR stats schema.
        if (cache->params().mshr_enabled) {
            add("host.feature_cache.mshr_piggybacks",
                static_cast<double>(cs.mshr_piggybacks),
                "secondary misses attached to an in-flight fill");
            add("host.feature_cache.gather_dedup",
                static_cast<double>(cs.gather_dedup),
                "duplicate missing lines folded within one gather");
            add("host.feature_cache.mshr_stalls",
                static_cast<double>(cs.mshr_stalls),
                "requests parked on a full MSHR table/waiter list");
        }
        if (cache->params().prefetch_enabled) {
            add("host.feature_cache.prefetch_issued",
                static_cast<double>(cs.prefetch_issued),
                "lines fetched by the hoard prefetcher");
            add("host.feature_cache.prefetch_useful",
                static_cast<double>(cs.prefetch_useful),
                "prefetched lines a demand touch wanted");
            add("host.feature_cache.prefetch_dropped",
                static_cast<double>(cs.prefetch_dropped),
                "announced lines shed (budget or MSHR full)");
            add("host.feature_cache.prefetch_hit_rate",
                cs.prefetchHitRate(),
                "useful fraction of issued prefetch lines");
        }
        if (config_.fault.enabled()) {
            add("host.feature_cache.failed_fills",
                static_cast<double>(cs.failed_fills),
                "demand fill lines never installed (read failed; "
                "counted once per line however many waiters "
                "coalesced)");
            if (cache->params().prefetch_enabled)
                add("host.feature_cache.prefetch_failed",
                    static_cast<double>(cs.prefetch_failed),
                    "prefetch fill lines shed on a failed read");
        }
    }
    // Recovery counters appear only when a fault source or deadline is
    // configured, keeping default stats documents schema-identical.
    if (config_.fault.enabled() || config_.retry.wantsDeadline()) {
        if (const host::EdgeStore *store = backend_->edgeStore()) {
            const sim::StorageChannel &ch = store->ioChannel();
            add("host.io.retries", static_cast<double>(ch.retries()),
                "service attempts re-run after a transient failure");
            add("host.io.timeouts", static_cast<double>(ch.timeouts()),
                "requests that missed their deadline");
            add("host.io.abandoned", static_cast<double>(ch.abandoned()),
                "requests dropped with the attempt budget exhausted");
        }
    }
    return rows;
}

void
GnnSystem::dumpStatsJsonMap(std::ostream &os,
                            const std::string &indent) const
{
    auto prec = os.precision(10);
    os << "{\n";
    std::vector<StatRow> rows = statRows();
    for (std::size_t i = 0; i < rows.size(); ++i)
        os << indent << "  \"" << rows[i].name
           << "\": " << rows[i].value
           << (i + 1 < rows.size() ? ",\n" : "\n");
    os << indent << "}";
    os.precision(prec);
}

void
GnnSystem::dumpStats(std::ostream &os, StatsFormat format) const
{
    const std::string &display =
        backendDisplayName(config_.backend);

    if (format == StatsFormat::Json) {
        auto prec = os.precision(10);
        os << "{\n"
           << "  \"bench\": \"system_stats\",\n"
           << "  \"schema_version\": 1,\n"
           << "  \"config\": {\n"
           << "    \"backend\": \"" << config_.backend
           << "\",\n"
           << "    \"display\": \"" << display << "\",\n"
           << "    \"dataset\": \""
           << graph::datasetName(workload_.id) << "\"\n"
           << "  },\n"
           << "  \"results\": ";
        dumpStatsJsonMap(os, "  ");
        os << "\n}\n";
        os.precision(prec);
        return;
    }

    sim::StatGroup group("system." + display);

    // Scalars must outlive dump(); collect them here.
    std::vector<StatRow> rows = statRows();
    std::vector<std::unique_ptr<sim::Scalar>> owned;
    owned.reserve(rows.size());
    for (const auto &row : rows) {
        owned.push_back(std::make_unique<sim::Scalar>());
        owned.back()->set(row.value);
        group.addScalar(row.name, owned.back().get(), row.desc);
    }
    group.dump(os);
}

GnnSystem::SamplingResult
GnnSystem::runSamplingOnly(unsigned workers, std::size_t batches)
{
    SS_ASSERT(workers > 0 && batches > 0, "degenerate sampling run");

    pipeline::ScheduleConfig sched;
    sched.workers = workers;
    sched.num_batches = batches;
    sched.batch_size = config_.pipeline.batch_size;
    sched.batch_mix = config_.pipeline.batch_mix;
    sched.seed = config_.pipeline.seed;
    auto produced = pipeline::runWorkers(backend_->producer(),
                                         workload_.graph, sched);

    SamplingResult result;
    for (const auto &batch : produced) {
        result.makespan = std::max(result.makespan, batch.ready);
        result.avg_batch_us += sim::toMicros(batch.sampling_time);
    }
    result.batches = batches;
    result.avg_batch_us /= static_cast<double>(batches);
    return result;
}

GnnSystem::SamplingResult
GnnSystem::runSamplingResumed(
    unsigned workers, std::size_t batches,
    const std::vector<std::uint64_t> *warm_lines)
{
    SS_ASSERT(workers > 0 && batches > 0, "degenerate sampling run");

    // A restarted process comes up cold; the checkpointed feature-
    // cache residency is the one piece of state a warm restart
    // carries over, re-installed before the timelines run.
    backend_->producer().reset();
    if (warm_lines) {
        if (host::FeatureCacheStore *cache = featureCache())
            cache->warmFill(*warm_lines);
    }

    pipeline::ScheduleConfig sched;
    sched.workers = workers;
    sched.num_batches = batches;
    sched.batch_size = config_.pipeline.batch_size;
    sched.batch_mix = config_.pipeline.batch_mix;
    sched.seed = config_.pipeline.seed;
    auto produced = pipeline::runWorkers(backend_->producer(),
                                         workload_.graph, sched,
                                         /*reset_producer=*/false);

    SamplingResult result;
    for (const auto &batch : produced) {
        result.makespan = std::max(result.makespan, batch.ready);
        result.avg_batch_us += sim::toMicros(batch.sampling_time);
    }
    result.batches = batches;
    result.avg_batch_us /= static_cast<double>(batches);
    return result;
}

namespace
{

/** Pipeline config for a functional run off this system's settings. */
pipeline::ParallelSampleConfig
functionalConfig(const SystemConfig &config, unsigned workers,
                 std::size_t batches)
{
    pipeline::ParallelSampleConfig psc;
    psc.workers = workers;
    psc.num_batches = batches;
    psc.batch_size = config.pipeline.batch_size;
    psc.seed = config.pipeline.seed;
    return psc;
}

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

GnnSystem::FunctionalResult
GnnSystem::runFunctionalSampling(unsigned workers, std::size_t batches)
{
    SS_ASSERT(workers > 0 && batches > 0, "degenerate functional run");
    auto psc = functionalConfig(config_, workers, batches);
    sim::ThreadPool pool(workers);

    FunctionalResult result;
    auto start = std::chrono::steady_clock::now();
    pipeline::runSamplingPipeline(
        workload_.graph, *sampler_, psc, &pool,
        [&](std::size_t, pipeline::FunctionalBatch &&batch) {
            result.sampled_edges += batch.subgraph.totalSampledEdges();
        });
    result.wall_seconds = elapsedSeconds(start);
    result.batches = batches;
    return result;
}

GnnSystem::FunctionalResult
GnnSystem::runFunctionalTraining(gnn::SageModel &model, unsigned workers,
                                 std::size_t batches)
{
    SS_ASSERT(workers > 0 && batches > 0, "degenerate functional run");
    SS_ASSERT(model.config().depth == config_.depth(),
              "model depth must match the sampling depth");
    auto psc = functionalConfig(config_, workers, batches);
    sim::ThreadPool pool(workers);

    FunctionalResult result;
    double loss_sum = 0;
    auto start = std::chrono::steady_clock::now();
    pipeline::runSamplingPipeline(
        workload_.graph, *sampler_, psc, &pool,
        [&](std::size_t, pipeline::FunctionalBatch &&batch) {
            result.sampled_edges += batch.subgraph.totalSampledEdges();
            loss_sum +=
                model.trainStep(batch.subgraph, workload_.features);
        });
    result.wall_seconds = elapsedSeconds(start);
    result.batches = batches;
    result.mean_loss = loss_sum / static_cast<double>(batches);
    return result;
}

} // namespace smartsage::core
