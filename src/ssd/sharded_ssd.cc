#include "sharded_ssd.hh"

#include <algorithm>
#include <utility>

#include "core/backend.hh"
#include "core/report.hh"
#include "host/feature_cache.hh"
#include "sim/logging.hh"

namespace smartsage::ssd
{

namespace
{

/** Per-shard device config: the page-buffer budget splits evenly. */
SsdConfig
shardConfig(const SsdConfig &base, unsigned shards)
{
    SsdConfig cfg = base;
    std::uint64_t floor_bytes =
        cfg.flash.page_bytes * cfg.page_buffer_ways * 8;
    cfg.page_buffer_bytes =
        std::max(cfg.page_buffer_bytes / shards, floor_bytes);
    return cfg;
}

} // namespace

ShardedEdgeStore::ShardedEdgeStore(const host::HostConfig &config,
                                   const SsdConfig &ssd_config,
                                   const ShardedSsdParams &params)
    : host::BlockDeviceStore(config),
      stripe_blocks_(params.stripe_bytes / config.os_page_bytes)
{
    SS_ASSERT(params.shards >= 1, "sharded store needs >= 1 shard");
    SS_ASSERT(stripe_blocks_ >= 1,
              "stripe must cover at least one scratchpad block");
    SsdConfig per_shard = shardConfig(ssd_config, params.shards);
    for (unsigned i = 0; i < params.shards; ++i)
        addDevice(std::make_unique<SsdDevice>(per_shard));
    if (config.fault.injectsOutages())
        outage_ = std::make_unique<sim::OutageSchedule>(config.fault,
                                                        params.shards);
}

void
ShardedEdgeStore::placeBlocks(std::vector<std::uint64_t> &blocks) const
{
    // Stripes land round-robin; a shard sees its stripes densely
    // packed, preserving sequential locality inside the device.
    const std::uint64_t shards = numDevices();
    for (std::uint64_t &block : blocks) {
        std::uint64_t stripe = block / stripe_blocks_;
        block = blockKey(static_cast<unsigned>(stripe % shards),
                         stripe / shards * stripe_blocks_ +
                             block % stripe_blocks_);
    }
}

sim::Tick
ShardedEdgeStore::serveRuns(sim::Tick submitted,
                            const std::vector<BlockRun> &runs)
{
    const std::uint64_t bs = config_.os_page_bytes;
    const unsigned shards = numDevices();
    sim::Tick done = submitted;
    for (const BlockRun &run : runs) {
        // Degraded mode: a run aimed at a shard inside an outage
        // window reroutes to the next healthy shard (reconstruction
        // from redundancy) at a latency penalty, instead of failing
        // the gather. With every shard down there is nothing to
        // reconstruct from; the run services normally rather than
        // deadlocking.
        unsigned serve = run.device;
        bool degraded = false;
        if (outage_ && outage_->down(run.device, submitted)) {
            for (unsigned k = 1; k < shards; ++k) {
                unsigned cand = (run.device + k) % shards;
                if (!outage_->down(cand, submitted)) {
                    serve = cand;
                    degraded = true;
                    break;
                }
            }
        }
        sim::Tick landed = device(serve).readBlocks(
            submitted, run.first * bs, run.blocks * bs);
        if (degraded) {
            ++degraded_reads_;
            landed = submitted +
                     static_cast<sim::Tick>(
                         static_cast<double>(landed - submitted) *
                         config_.fault.degraded_penalty);
        }
        done = std::max(done, landed);
    }
    return done;
}

void
ShardedEdgeStore::resetStore()
{
    host::BlockDeviceStore::resetStore();
    degraded_reads_ = 0;
}

// ------------------------------------------------ backend registration

namespace
{

ShardedSsdParams
paramsFrom(const core::SystemConfig &config)
{
    core::validateBackendKnobs(
        config, "multi-ssd.",
        {"multi-ssd.shards", "multi-ssd.stripe_kib"});

    ShardedSsdParams params;
    double shards = config.knobOr("multi-ssd.shards", 4);
    if (!(shards >= 1 && shards <= 64))
        SS_FATAL("multi-ssd.shards must be within [1, 64], got ",
                 shards);
    double stripe_kib = config.knobOr("multi-ssd.stripe_kib", 64);
    std::uint64_t stripe_bytes = sim::KiB(
        core::requireIntegerKnob("multi-ssd.stripe_kib", stripe_kib));
    if (stripe_bytes < config.host.os_page_bytes ||
        stripe_bytes % config.host.os_page_bytes != 0)
        SS_FATAL("multi-ssd.stripe_kib must be a multiple of the ",
                 config.host.os_page_bytes / 1024,
                 " KiB block size, got ", stripe_kib);
    params.shards = static_cast<unsigned>(
        core::requireIntegerKnob("multi-ssd.shards", shards));
    params.stripe_bytes = stripe_bytes;
    return params;
}

/** Host-CPU sampling over the striped array. */
class MultiSsdInstance : public core::BackendInstance
{
  public:
    explicit MultiSsdInstance(const core::BackendBuildContext &ctx)
        : MultiSsdInstance(ctx,
                           std::make_unique<ShardedEdgeStore>(
                               ctx.config.host, ctx.config.ssd,
                               paramsFrom(ctx.config)))
    {
    }

    pipeline::SubgraphProducer &producer() override { return producer_; }
    host::EdgeStore *edgeStore() override { return wrapped_.get(); }

    void
    addMetrics(const core::MetricSink &add) const override
    {
        add("ssd_buffer_hit_frac", sharded_->bufferHitRate());
        add("flash_pages_read",
            static_cast<double>(sharded_->flashPagesRead()));
    }

    std::string
    notes() const override
    {
        return "shards " + std::to_string(sharded_->numDevices()) +
               ", scratchpad " +
               core::fmtPct(sharded_->scratchpadHitRate()) + ", submits " +
               std::to_string(sharded_->submits());
    }

    void
    addStats(const core::StatSink &add) const override
    {
        add("ssd.shards", static_cast<double>(sharded_->numDevices()),
            "devices in the striped array");
        add("ssd.host_reads", static_cast<double>(sharded_->hostReads()),
            "block read commands served, all shards");
        add("ssd.bytes_to_host",
            static_cast<double>(sharded_->bytesToHost()),
            "bytes shipped over all PCIe links");
        add("ssd.page_buffer.hit_rate", sharded_->bufferHitRate(),
            "controller DRAM buffer hit rate, all shards");
        add("ssd.flash.pages_read",
            static_cast<double>(sharded_->flashPagesRead()),
            "NAND pages sensed, all shards");
        add("host.scratchpad.hit_rate", sharded_->scratchpadHitRate(),
            "user scratchpad hit rate");
        add("host.direct_io.submits",
            static_cast<double>(sharded_->submits()),
            "O_DIRECT submissions");
        // Fault-model rows appear only when the matching fault source
        // is configured, keeping default stat reports identical.
        if (sharded_->outagesEnabled()) {
            add("ssd.degraded_reads",
                static_cast<double>(sharded_->degradedReads()),
                "runs rerouted around a down shard");
        }
        if (sharded_->device(0).config().flash.fault.injectsEcc()) {
            add("ssd.flash.ecc_retries",
                static_cast<double>(sharded_->eccRetries()),
                "injected ECC re-reads, all shards");
        }
    }

  private:
    MultiSsdInstance(const core::BackendBuildContext &ctx,
                     std::unique_ptr<ShardedEdgeStore> store)
        : sharded_(store.get()),
          wrapped_(host::wrapWithFeatureCache(std::move(store), ctx)),
          producer_(ctx.workload.graph, ctx.sampler, *wrapped_,
                    ctx.config.host, ctx.config.layout)
    {
    }

    ShardedEdgeStore *sharded_; //!< undecorated store (typed counters)
    std::unique_ptr<host::EdgeStore> wrapped_;
    pipeline::CpuProducer producer_;
};

std::unique_ptr<core::BackendInstance>
buildMultiSsd(const core::BackendBuildContext &ctx)
{
    return std::make_unique<MultiSsdInstance>(ctx);
}

const core::BackendRegistrar reg_multi_ssd{
    std::make_unique<core::SimpleBackend>(
        "multi-ssd", "Multi-SSD",
        "RAID-0 page striping across N independent SSD timelines, "
        "direct-I/O host path",
        core::BackendCaps{
            true, false, core::EdgeStoreKind::Sharded,
            {"host.", "ssd.", "multi-ssd.", "cache."}},
        buildMultiSsd)};

} // namespace

} // namespace smartsage::ssd
