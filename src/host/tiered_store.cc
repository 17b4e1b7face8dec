#include "tiered_store.hh"

#include <algorithm>

#include "core/backend.hh"
#include "core/report.hh"
#include "feature_cache.hh"
#include "sim/logging.hh"
#include "ssd/ssd_device.hh"

namespace smartsage::host
{

namespace
{

/** Hot-tier capacity: the page-cache budget, floored to one set. */
std::uint64_t
hotCapacity(const HostConfig &config, const TieredStoreParams &params)
{
    std::uint64_t floor_bytes =
        params.hot_line_bytes * config.page_cache_ways;
    return std::max(config.page_cache_bytes, floor_bytes);
}

/**
 * The inner direct-I/O store is driven through its *blocking* adapters
 * from inside the tiered service, so host faults must fire once, at
 * the outer channel — an inner abandon would be fatal with nowhere to
 * retry. Strip the fault plan and retry policy off the cold tier.
 */
HostConfig
coldConfig(const HostConfig &config)
{
    HostConfig cold = config;
    cold.fault = sim::FaultPlan{};
    cold.retry = sim::RetryPolicy{};
    return cold;
}

} // namespace

TieredEdgeStore::TieredEdgeStore(const HostConfig &config,
                                 ssd::SsdDevice &ssd,
                                 const TieredStoreParams &params)
    : TimedEdgeStore(config),
      params_(params),
      hot_(hotCapacity(config, params), params.hot_line_bytes,
           config.page_cache_ways),
      cold_(coldConfig(config), ssd)
{
}

sim::Tick
TieredEdgeStore::serviceGather(sim::Tick start,
                               const std::vector<std::uint64_t> &addrs,
                               unsigned entry_bytes)
{
    SS_ASSERT(entry_bytes > 0, "zero-length tiered gather entry");
    // Install-on-miss: a miss is fetched through the cold path and
    // then resides in the DRAM tier, so the hot set self-tunes to the
    // sampler's reuse pattern.
    cold_addrs_.clear();
    bool any_hot = false;
    for (std::uint64_t a : addrs) {
        std::uint64_t first = hot_.lineOf(a);
        std::uint64_t last = hot_.lineOf(a + entry_bytes - 1);
        bool all_hot = true;
        for (std::uint64_t line = first; line <= last; ++line)
            all_hot = hot_.access(line) && all_hot;
        if (all_hot)
            any_hot = true;
        else
            cold_addrs_.push_back(a);
    }

    sim::Tick done = start;
    if (any_hot)
        done = std::max(done, start + params_.hot_hit);
    if (!cold_addrs_.empty())
        done = std::max(
            done, cold_.readGather(start, cold_addrs_, entry_bytes));
    return done;
}

void
TieredEdgeStore::resetStore()
{
    hot_.reset();
    cold_.reset();
}

// ------------------------------------------------ backend registration

namespace
{

TieredStoreParams
paramsFrom(const core::SystemConfig &config)
{
    core::validateBackendKnobs(
        config, "tiered.",
        {"tiered.hot_line_kib", "tiered.hot_hit_ns"});

    TieredStoreParams params;
    double line_kib = config.knobOr("tiered.hot_line_kib", 64);
    if (!(line_kib >= 1 && line_kib <= 4096))
        SS_FATAL("tiered.hot_line_kib must be within [1, 4096], got ",
                 line_kib);
    double hit_ns = config.knobOr("tiered.hot_hit_ns", 150);
    if (!(hit_ns >= 0))
        SS_FATAL("tiered.hot_hit_ns must be >= 0, got ", hit_ns);
    params.hot_line_bytes = sim::KiB(
        core::requireIntegerKnob("tiered.hot_line_kib", line_kib));
    params.hot_hit = sim::ns(hit_ns);
    return params;
}

/** Host-CPU sampling over the tiered store, SSD below. */
class TieredInstance : public core::BackendInstance
{
  public:
    TieredInstance(const core::BackendBuildContext &ctx,
                   std::unique_ptr<ssd::SsdDevice> ssd,
                   std::unique_ptr<TieredEdgeStore> store)
        : ssd_(std::move(ssd)), tiered_(store.get()),
          wrapped_(wrapWithFeatureCache(std::move(store), ctx)),
          producer_(ctx.workload.graph, ctx.sampler, *wrapped_,
                    ctx.config.host, ctx.config.layout)
    {
    }

    pipeline::SubgraphProducer &producer() override { return producer_; }
    ssd::SsdDevice *ssd() override { return ssd_.get(); }
    host::EdgeStore *edgeStore() override { return wrapped_.get(); }

    void
    addMetrics(const core::MetricSink &add) const override
    {
        core::addSsdMetrics(ssd_.get(), add);
        add("hot_hit_frac", tiered_->hotHitRate());
    }

    std::string
    notes() const override
    {
        return "hot " + core::fmtPct(tiered_->hotHitRate()) +
               ", scratchpad " +
               core::fmtPct(tiered_->scratchpadHitRate()) +
               ", submits " + std::to_string(tiered_->submits());
    }

    void
    addStats(const core::StatSink &add) const override
    {
        core::addSsdStats(ssd_.get(), add);
        add("host.hot_cache.hit_rate", tiered_->hotHitRate(),
            "DRAM hot-tier hit rate");
        add("host.scratchpad.hit_rate", tiered_->scratchpadHitRate(),
            "user scratchpad hit rate");
        add("host.direct_io.submits",
            static_cast<double>(tiered_->submits()),
            "O_DIRECT submissions");
    }

  private:
    std::unique_ptr<ssd::SsdDevice> ssd_;
    TieredEdgeStore *tiered_; //!< undecorated store (typed counters)
    std::unique_ptr<host::EdgeStore> wrapped_;
    pipeline::CpuProducer producer_;
};

std::unique_ptr<core::BackendInstance>
buildTiered(const core::BackendBuildContext &ctx)
{
    auto ssd = std::make_unique<ssd::SsdDevice>(ctx.config.ssd);
    auto store = std::make_unique<TieredEdgeStore>(
        ctx.config.host, *ssd, paramsFrom(ctx.config));
    return std::make_unique<TieredInstance>(ctx, std::move(ssd),
                                            std::move(store));
}

const core::BackendRegistrar reg_tiered{
    std::make_unique<core::SimpleBackend>(
        "tiered-hybrid", "Tiered-Hybrid",
        "host-DRAM hot cache in front of the direct-I/O SSD path, "
        "capacity set by page_cache_fraction",
        core::BackendCaps{true, false, core::EdgeStoreKind::Tiered,
                          {"host.", "ssd.", "tiered.", "cache."}},
        buildTiered)};

} // namespace

} // namespace smartsage::host
