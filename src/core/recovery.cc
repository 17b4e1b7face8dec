#include "recovery.hh"

#include <bit>
#include <filesystem>
#include <memory>

#include "host/feature_cache.hh"
#include "pipeline/producer.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace smartsage::core
{

namespace
{

/** Section names of a training snapshot. */
constexpr const char *kMetaSection = "meta";
constexpr const char *kModelSection = "model";
constexpr const char *kTrainerSection = "trainer";
constexpr const char *kRngSection = "rng";
constexpr const char *kCacheSection = "cache";

/**
 * Config fingerprint: everything that must match for a snapshot to be
 * resumable on this system — backend, sampling seed/shape, batch size.
 * Model-shape mismatches are caught separately by SageModel::loadState.
 */
std::vector<std::uint8_t>
metaFingerprint(const GnnSystem &system)
{
    const SystemConfig &config = system.config();
    sim::ByteWriter writer;
    writer.str(config.backend);
    writer.u64(config.pipeline.seed);
    writer.u64(config.pipeline.batch_size);
    writer.u64(config.fanouts.size());
    for (unsigned fanout : config.fanouts)
        writer.u32(fanout);
    writer.u8(config.use_saint ? 1 : 0);
    writer.u32(config.saint_walk_length);
    return writer.take();
}

const std::vector<std::uint8_t> &
section(const Snapshot &snapshot, const std::string &name)
{
    auto it = snapshot.sections.find(name);
    if (it == snapshot.sections.end())
        throw sim::SerializeError("checkpoint step " +
                                  std::to_string(snapshot.step) +
                                  " has no '" + name + "' section");
    return it->second;
}

Snapshot
makeSnapshot(const GnnSystem &system, const gnn::SageModel &model,
             std::uint64_t cursor, double loss_sum,
             std::uint64_t sampled_edges,
             const std::vector<std::uint64_t> *cache_lines)
{
    Snapshot snapshot;
    snapshot.step = cursor;
    snapshot.sections.emplace(kMetaSection, metaFingerprint(system));

    sim::ByteWriter model_bytes;
    model.saveState(model_bytes);
    snapshot.sections.emplace(kModelSection, model_bytes.take());

    sim::ByteWriter trainer;
    trainer.u64(cursor);
    trainer.u64(sampled_edges);
    trainer.f64(loss_sum);
    snapshot.sections.emplace(kTrainerSection, trainer.take());

    // The sampler "state" is just the fork position: batch i draws
    // from fork(i), so saving fork(cursor) gives the load path an
    // integrity check that the reader derives the same stream.
    const sim::RngState rng =
        sim::Rng(system.config().pipeline.seed).fork(cursor).save();
    sim::ByteWriter rng_bytes;
    for (std::uint64_t word : rng.s)
        rng_bytes.u64(word);
    rng_bytes.u64(rng.seed);
    snapshot.sections.emplace(kRngSection, rng_bytes.take());

    if (cache_lines) {
        sim::ByteWriter cache;
        cache.u64(cache_lines->size());
        for (std::uint64_t line : *cache_lines)
            cache.u64(line);
        snapshot.sections.emplace(kCacheSection, cache.take());
    }
    return snapshot;
}

/** Restore @p snapshot into the run state; throws on any mismatch. */
void
applySnapshot(const Snapshot &snapshot, const GnnSystem &system,
              gnn::SageModel &model, std::uint64_t &cursor,
              double &loss_sum, std::uint64_t &sampled_edges,
              std::vector<std::uint64_t> &warm_lines)
{
    if (section(snapshot, kMetaSection) != metaFingerprint(system))
        throw sim::SerializeError(
            "checkpoint step " + std::to_string(snapshot.step) +
            " was taken under a different system configuration");

    sim::ByteReader trainer(section(snapshot, kTrainerSection));
    cursor = trainer.u64();
    sampled_edges = trainer.u64();
    loss_sum = trainer.f64();
    if (cursor != snapshot.step)
        throw sim::SerializeError(
            "trainer cursor " + std::to_string(cursor) +
            " disagrees with manifest step " +
            std::to_string(snapshot.step));

    sim::ByteReader model_bytes(section(snapshot, kModelSection));
    model.loadState(model_bytes);

    sim::ByteReader rng_bytes(section(snapshot, kRngSection));
    sim::RngState stored;
    for (std::uint64_t &word : stored.s)
        word = rng_bytes.u64();
    stored.seed = rng_bytes.u64();
    const sim::RngState expected =
        sim::Rng(system.config().pipeline.seed).fork(cursor).save();
    if (!(stored == expected))
        throw sim::SerializeError(
            "checkpoint RNG fork position does not match fork(" +
            std::to_string(cursor) + ") of the pipeline seed");

    warm_lines.clear();
    auto cache_it = snapshot.sections.find(kCacheSection);
    if (cache_it != snapshot.sections.end()) {
        sim::ByteReader cache(cache_it->second);
        const std::uint64_t count = cache.u64();
        warm_lines.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i)
            warm_lines.push_back(cache.u64());
    }
}

bool
bitEqual(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

} // namespace

gnn::ModelConfig
checkpointModelConfig(const GnnSystem &system)
{
    const SystemConfig &config = system.config();
    gnn::ModelConfig mc;
    mc.in_dim = system.workload().features.dim();
    mc.hidden_dim = config.hidden_dim;
    mc.num_classes = system.workload().features.numClasses();
    mc.depth = config.depth();
    mc.seed = config.pipeline.seed;
    return mc;
}

TrainRunResult
runCheckpointedTraining(GnnSystem &system, gnn::SageModel &model,
                        const TrainRunOptions &options)
{
    SS_ASSERT(options.workers > 0 && options.total_batches > 0,
              "degenerate checkpointed run");
    const SystemConfig &config = system.config();
    const CheckpointConfig &ckpt = config.ckpt;

    std::unique_ptr<CheckpointManager> manager;
    if (ckpt.enabled())
        manager = std::make_unique<CheckpointManager>(ckpt);

    TrainRunResult result;
    std::uint64_t cursor = 0;
    double loss_sum = 0;
    std::uint64_t sampled_edges = 0;

    if (manager) {
        if (auto latest = manager->latestStep()) {
            applySnapshot(manager->load(*latest), system, model, cursor,
                          loss_sum, sampled_edges, result.warm_lines);
            result.resumed = true;
        }
    }
    result.start_batch = cursor;
    SS_ASSERT(cursor <= options.total_batches,
              "checkpoint cursor is past the end of this run");

    // A kill at batch K means batches [0, K) completed before the
    // process died; a kill the run never reaches is a no-op.
    const bool kill = options.kill_batch != 0 &&
                      options.kill_batch > cursor &&
                      options.kill_batch < options.total_batches;
    const std::uint64_t stop =
        kill ? options.kill_batch : options.total_batches;

    if (stop > cursor) {
        pipeline::ParallelSampleConfig psc;
        psc.workers = options.workers;
        psc.num_batches = stop - cursor;
        psc.batch_size = config.pipeline.batch_size;
        psc.seed = config.pipeline.seed;
        psc.first_batch = cursor;
        sim::ThreadPool pool(options.workers);

        const std::uint64_t start = cursor;
        pipeline::runSamplingPipeline(
            system.workload().graph, system.sampler(), psc, &pool,
            [&](std::size_t local, pipeline::FunctionalBatch &&batch) {
                sampled_edges += batch.subgraph.totalSampledEdges();
                loss_sum += model.trainStep(batch.subgraph,
                                            system.workload().features);
                cursor = start + local + 1;
                if (manager && cursor % ckpt.interval_batches == 0)
                    manager->save(makeSnapshot(system, model, cursor,
                                               loss_sum, sampled_edges,
                                               options.cache_lines));
            });
    }

    result.end_batch = cursor;
    result.loss_sum = loss_sum;
    result.sampled_edges = sampled_edges;
    if (manager)
        result.stats = manager->stats();
    return result;
}

RecoveryCellResult
runRecoveryCell(GnnSystem &system, const RecoveryRunSpec &spec)
{
    const SystemConfig &config = system.config();
    SS_ASSERT(config.ckpt.interval_batches != 0,
              "recovery cells need ckpt.interval_batches");
    SS_ASSERT(!spec.ckpt_dir.empty(),
              "recovery cells need a checkpoint scratch directory");
    std::filesystem::remove_all(spec.ckpt_dir);

    RecoveryCellResult out;
    const std::uint64_t total = spec.num_batches;
    const std::uint64_t interval = config.ckpt.interval_batches;
    const std::uint64_t kill = config.fault.kill_batch;
    const bool crash = kill != 0 && kill < total;
    const std::uint64_t last_ckpt = crash ? (kill / interval) * interval : 0;

    // Warm-restart residency: what the feature cache held at the last
    // checkpoint, captured from a simulated prefix run. Runs before
    // the headline run, which resets every store, so the final
    // counters describe the uninterrupted run alone.
    std::vector<std::uint64_t> cache_lines;
    if (config.ckpt.warm_cache && last_ckpt > 0 && system.featureCache()) {
        system.runSamplingOnly(spec.sim_workers, last_ckpt);
        cache_lines = system.featureCache()->residentLineIds();
    }
    out.sim = system.runSamplingOnly(spec.sim_workers, total);

    SystemConfig ckpt_config = config;
    ckpt_config.ckpt.dir = spec.ckpt_dir;
    const gnn::ModelConfig mc = checkpointModelConfig(system);
    const std::vector<std::uint64_t> *lines =
        cache_lines.empty() ? nullptr : &cache_lines;

    // Phase A: the run that dies mid-batch, leaving manifests behind.
    CheckpointStats crash_stats;
    {
        GnnSystem crash_system(ckpt_config, system.workload());
        gnn::SageModel crash_model(mc);
        TrainRunOptions opts;
        opts.workers = spec.train_workers;
        opts.total_batches = total;
        opts.kill_batch = crash ? kill : 0;
        opts.cache_lines = lines;
        crash_stats =
            runCheckpointedTraining(crash_system, crash_model, opts).stats;
    }

    // Phase B: a fresh process restarts over the same directory,
    // restores the newest manifest, and trains to the end.
    GnnSystem resumed_system(ckpt_config, system.workload());
    gnn::SageModel resumed_model(mc);
    TrainRunOptions resume_opts;
    resume_opts.workers = spec.train_workers;
    resume_opts.total_batches = total;
    resume_opts.cache_lines = lines;
    const TrainRunResult resumed =
        runCheckpointedTraining(resumed_system, resumed_model, resume_opts);

    // Reference: the uninterrupted run (checkpointing inert on the
    // caller's system — its dir is empty).
    gnn::SageModel reference_model(mc);
    TrainRunOptions reference_opts;
    reference_opts.workers = spec.train_workers;
    reference_opts.total_batches = total;
    const TrainRunResult reference =
        runCheckpointedTraining(system, reference_model, reference_opts);

    out.resume_bit_identical =
        resumed_model.stateHash() == reference_model.stateHash() &&
        bitEqual(resumed.loss_sum, reference.loss_sum) &&
        resumed.sampled_edges == reference.sampled_edges;

    out.lost_work_batches = crash ? kill - last_ckpt : 0;
    if (crash) {
        sim::Tick redo = 0;
        if (out.lost_work_batches > 0) {
            const std::vector<std::uint64_t> *warm =
                resumed.warm_lines.empty() ? nullptr
                                           : &resumed.warm_lines;
            redo = resumed_system
                       .runSamplingResumed(spec.sim_workers,
                                           out.lost_work_batches, warm)
                       .makespan;
        }
        out.recovery_time_us = sim::toMicros(
            sim::transferTime(resumed.stats.bytes_read,
                              config.ckpt.read_gbps) +
            redo);
    }

    const std::uint64_t written =
        crash_stats.bytes_written + crash_stats.manifest_bytes;
    const double write_us =
        sim::toMicros(sim::transferTime(written, config.ckpt.write_gbps));
    const double makespan_us = sim::toMicros(out.sim.makespan);
    out.ckpt_overhead_frac =
        written ? write_us / (makespan_us + write_us) : 0.0;
    out.ckpt_bytes_kib = static_cast<double>(written) / 1024.0;
    const std::uint64_t chunk_refs =
        crash_stats.chunks_written + crash_stats.chunks_deduped;
    out.ckpt_dedup_frac =
        chunk_refs ? static_cast<double>(crash_stats.chunks_deduped) /
                         static_cast<double>(chunk_refs)
                   : 0.0;
    out.checkpoints = crash_stats.saves;
    return out;
}

std::vector<std::uint8_t>
saveServingAccounting(const ServingResult &result)
{
    sim::ByteWriter writer;
    writer.u32(kCheckpointFormatVersion);
    writer.u64(result.requests);
    writer.u64(result.completed_ok);
    writer.u64(result.shed_error);
    writer.u64(result.shed_timeout);
    writer.u64(result.shed_admission);
    writer.u64(result.io_retries);
    writer.u64(result.io_timeouts);
    writer.u64(result.io_abandoned);
    writer.u64(result.tenants.size());
    for (const TenantServingResult &tenant : result.tenants) {
        writer.str(tenant.name);
        writer.u64(tenant.slo);
        writer.u64(tenant.requests);
        writer.u64(tenant.completed_ok);
        writer.u64(tenant.slo_met);
        writer.u64(tenant.shed);
    }

    std::vector<std::uint8_t> body = writer.take();
    const std::uint32_t crc = sim::crc32(body);
    sim::ByteWriter sealed;
    sealed.bytes(body.data(), body.size());
    sealed.u32(crc);
    return sealed.take();
}

void
mergeServingAccounting(const std::vector<std::uint8_t> &saved,
                       ServingResult &into)
{
    if (saved.size() < 4)
        throw sim::SerializeError("serving accounting blob too short");
    const std::size_t body_size = saved.size() - 4;
    sim::ByteReader trailer(saved.data() + body_size, 4);
    if (trailer.u32() != sim::crc32(saved.data(), body_size))
        throw sim::SerializeError("serving accounting CRC mismatch");

    sim::ByteReader reader(saved.data(), body_size);
    const std::uint32_t version = reader.u32();
    if (version > kCheckpointFormatVersion)
        throw sim::SerializeError(
            "serving accounting has format version " +
            std::to_string(version) + "; this build reads up to " +
            std::to_string(kCheckpointFormatVersion));

    into.requests += reader.u64();
    into.completed_ok += reader.u64();
    into.shed_error += reader.u64();
    into.shed_timeout += reader.u64();
    into.shed_admission += reader.u64();
    into.io_retries += reader.u64();
    into.io_timeouts += reader.u64();
    into.io_abandoned += reader.u64();

    const std::uint64_t tenants = reader.u64();
    if (!into.tenants.empty() && into.tenants.size() != tenants)
        throw sim::SerializeError(
            "serving accounting tenant count mismatch: saved " +
            std::to_string(tenants) + ", live " +
            std::to_string(into.tenants.size()));
    const bool fill = into.tenants.empty();
    for (std::uint64_t i = 0; i < tenants; ++i) {
        TenantServingResult saved_tenant;
        saved_tenant.name = reader.str();
        saved_tenant.slo = reader.u64();
        saved_tenant.requests = reader.u64();
        saved_tenant.completed_ok = reader.u64();
        saved_tenant.slo_met = reader.u64();
        saved_tenant.shed = reader.u64();
        if (fill) {
            into.tenants.push_back(std::move(saved_tenant));
            continue;
        }
        TenantServingResult &live = into.tenants[i];
        if (live.name != saved_tenant.name)
            throw sim::SerializeError(
                "serving accounting tenant " + std::to_string(i) +
                " is '" + saved_tenant.name + "' on disk but '" +
                live.name + "' live");
        live.requests += saved_tenant.requests;
        live.completed_ok += saved_tenant.completed_ok;
        live.slo_met += saved_tenant.slo_met;
        live.shed += saved_tenant.shed;
    }
}

} // namespace smartsage::core
