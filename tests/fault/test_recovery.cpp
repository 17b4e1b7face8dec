/** @file Recovery semantics across the storage components and the
 *  system layer: ECC retries add their latency exactly once, a sharded
 *  store reroutes reads around a down shard, the feature cache never
 *  installs a line from a failed read, async and blocking paths agree
 *  tick for tick under faults, bad fault/retry configs die in
 *  SystemConfig::validate, and the fault-space artifact is a pure
 *  function of the scenario. Ctest label `fault`. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/experiment.hh"
#include "core/scenario.hh"
#include "core/serving.hh"
#include "core/system.hh"
#include "flash/flash_array.hh"
#include "graph/layout.hh"
#include "host/feature_cache.hh"
#include "host/io_path.hh"
#include "host/partitioned_store.hh"
#include "host/tiered_store.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "ssd/sharded_ssd.hh"

using namespace smartsage;
using namespace smartsage::core;
namespace sim = smartsage::sim;

namespace
{

const Workload &
smallWorkload()
{
    static Workload wl = Workload::make(graph::DatasetId::Amazon, false);
    return wl;
}

SystemConfig
faultyConfig(const std::string &backend)
{
    SystemConfig sc;
    sc.backend = backend;
    sc.fanouts = {6, 3};
    sc.pipeline.batch_size = 64;
    return sc;
}

/** An edge store with the SSD it reads through, when it takes one. */
struct OwnedStore
{
    std::unique_ptr<ssd::SsdDevice> ssd;
    std::unique_ptr<host::EdgeStore> store;
};

/** One of every concrete timing store over @p config: DRAM, PMEM,
 *  mmap, direct I/O, tiered-hybrid, multi-SSD and partitioned. */
std::vector<OwnedStore>
everyTimedStore(const host::HostConfig &config)
{
    const ssd::SsdConfig ssd_config;
    std::vector<OwnedStore> stores;
    auto add = [&](std::unique_ptr<ssd::SsdDevice> ssd,
                   std::unique_ptr<host::EdgeStore> store) {
        stores.push_back({std::move(ssd), std::move(store)});
    };
    auto newSsd = [&] {
        return std::make_unique<ssd::SsdDevice>(ssd_config);
    };

    add(nullptr, std::make_unique<host::DramEdgeStore>(config));
    add(nullptr, std::make_unique<host::PmemEdgeStore>(config));
    auto device = newSsd();
    auto mmap = std::make_unique<host::MmapEdgeStore>(config, *device);
    add(std::move(device), std::move(mmap));
    device = newSsd();
    auto dio = std::make_unique<host::DirectIoEdgeStore>(config, *device);
    add(std::move(device), std::move(dio));
    device = newSsd();
    auto tiered = std::make_unique<host::TieredEdgeStore>(
        config, *device, host::TieredStoreParams{});
    add(std::move(device), std::move(tiered));
    auto sharded = std::make_unique<ssd::ShardedEdgeStore>(
        config, ssd_config, ssd::ShardedSsdParams{});
    add(nullptr, std::move(sharded));
    auto partitioned = std::make_unique<host::PartitionedEdgeStore>(
        config, ssd_config, sim::NetConfig{}, host::PartitionedParams{},
        smallWorkload().graph, graph::EdgeLayout{});
    add(nullptr, std::move(partitioned));
    return stores;
}

} // namespace

TEST(EccRecovery, RetryLatencyIsAddedExactlyOnce)
{
    flash::FlashConfig clean_cfg;
    flash::FlashConfig ecc_cfg = clean_cfg;
    ecc_cfg.fault.ecc_rate = 1.0; // every sense draws a retry
    ecc_cfg.fault.ecc_retry = sim::us(60);

    flash::FlashArray clean(clean_cfg), ecc(ecc_cfg);
    sim::Tick t_clean = clean.readPage({0, 0, 0}, 0);
    sim::Tick t_ecc = ecc.readPage({0, 0, 0}, 0);
    // One extra die occupancy of exactly ecc_retry; the ONFI transfer
    // is unchanged.
    EXPECT_EQ(t_ecc, t_clean + ecc_cfg.fault.ecc_retry);
    EXPECT_EQ(ecc.eccRetries(), 1u);
    EXPECT_EQ(clean.eccRetries(), 0u);

    // reset() rewinds the draw stream: the rerun is identical.
    ecc.reset();
    EXPECT_EQ(ecc.readPage({0, 0, 0}, 0), t_ecc);
}

TEST(DegradedSharded, ReadsRerouteAroundADownShard)
{
    host::HostConfig config;
    config.scratchpad_bytes = sim::KiB(256);
    config.fault.shard_outage_rate = 0.5;
    ssd::SsdConfig ssd_config;
    ssd::ShardedSsdParams params;

    // The schedule is a pure function of the plan, so the test can
    // precompute which ticks put shard 0 down while another is up.
    sim::OutageSchedule sched(config.fault, params.shards);
    auto submitTick = [&](sim::Tick arrival) {
        return arrival + config.direct_io_submit;
    };
    sim::Tick degraded_at = 0, healthy_at = 0;
    bool found_degraded = false, found_healthy = false;
    for (sim::Tick t = 0; t < 4 * config.fault.outage_period;
         t += sim::us(50)) {
        bool zero_down = sched.down(0, submitTick(t));
        bool any_up = false;
        for (unsigned s = 1; s < params.shards; ++s)
            any_up = any_up || !sched.down(s, submitTick(t));
        if (!found_degraded && zero_down && any_up) {
            degraded_at = t;
            found_degraded = true;
        }
        if (!found_healthy && !zero_down) {
            healthy_at = t;
            found_healthy = true;
        }
    }
    ASSERT_TRUE(found_degraded);
    ASSERT_TRUE(found_healthy);

    // Address 0 lives on shard 0. A read while shard 0 is down
    // completes (rerouted) but pays the degraded penalty relative to
    // the same cold read served by the home shard.
    ssd::ShardedEdgeStore store(config, ssd_config, params);
    sim::Tick degraded_done = store.readGather(degraded_at, {0}, 64);
    EXPECT_EQ(store.degradedReads(), 1u);
    EXPECT_GT(degraded_done, degraded_at);

    ssd::ShardedEdgeStore fresh(config, ssd_config, params);
    sim::Tick healthy_done = fresh.readGather(healthy_at, {0}, 64);
    EXPECT_EQ(fresh.degradedReads(), 0u);
    EXPECT_GT(degraded_done - degraded_at, healthy_done - healthy_at);

    // A store with no outage schedule never degrades.
    host::HostConfig inert = config;
    inert.fault = sim::FaultPlan{};
    ssd::ShardedEdgeStore plain(inert, ssd_config, params);
    EXPECT_FALSE(plain.outagesEnabled());
    EXPECT_EQ(plain.readGather(degraded_at, {0}, 64) - degraded_at,
              healthy_done - healthy_at);
}

TEST(CacheRecovery, FailedFillsNeverInstallLines)
{
    // Every host read fails and the budget is one attempt: no gather
    // ever returns data, so the cache must never serve a hit — a line
    // filled from a failed read would be garbage.
    SystemConfig sc = faultyConfig("ssd-mmap");
    sc.backend_knobs["cache.policy"] = 0; // LRU
    sc.backend_knobs["cache.capacity_fraction"] = 0.5;
    sc.fault.read_error_rate = 1.0;
    sc.retry.max_attempts = 1;
    GnnSystem system(sc, smallWorkload());

    ServingConfig serving;
    serving.arrival_qps = 20000;
    serving.num_requests = 128;
    ServingResult r = runServingLoad(system, serving);
    EXPECT_EQ(r.shed_error, r.requests);
    EXPECT_EQ(r.completed_ok, 0u);
    EXPECT_EQ(r.goodput_qps, 0.0);
    EXPECT_EQ(r.shedFraction(), 1.0);

    const host::FeatureCacheStore *cache = system.featureCache();
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->stats().hits, 0u);
    EXPECT_GT(cache->stats().failed_fills, 0u);
}

TEST(AsyncBlocking, AgreeTickForTickUnderFaults)
{
    // Same fault plan, same retry policy (with jitter), two identical
    // stores of each kind: one driven through the blocking gather, one
    // through single-in-flight async submissions. Injector draws and
    // jitter forks depend only on submission order, so the completion
    // ticks must agree exactly even while requests fail, slow down,
    // and retry.
    host::HostConfig config;
    config.fault.read_error_rate = 0.3;
    config.fault.slow_rate = 0.2;
    config.retry.max_attempts = 10;
    std::vector<OwnedStore> blocking_stores = everyTimedStore(config);
    std::vector<OwnedStore> async_stores = everyTimedStore(config);

    for (std::size_t k = 0; k < blocking_stores.size(); ++k) {
        host::EdgeStore &blocking = *blocking_stores[k].store;
        host::EdgeStore &async = *async_stores[k].store;
        SCOPED_TRACE(blocking.name());
        sim::Rng rng(0x5eed);
        sim::EventQueue eq;
        sim::Tick t_blocking = 0, t_async = 0;
        std::vector<std::uint64_t> addrs(1);
        for (int i = 0; i < 64; ++i) {
            addrs[0] = rng.nextBounded(sim::MiB(4));
            t_blocking = blocking.readGather(t_blocking, addrs, 64);

            sim::Tick finish = 0;
            eq.schedule(t_async, [&] {
                async.submitGather(eq, addrs, 64,
                                   [&](sim::Tick f, sim::IoStatus s) {
                                       EXPECT_EQ(s, sim::IoStatus::Ok);
                                       finish = f;
                                   });
            });
            eq.run();
            t_async = finish;
            ASSERT_EQ(t_blocking, t_async) << "gather " << i;
        }
        EXPECT_GT(blocking.ioChannel().retries(), 0u);
        EXPECT_EQ(blocking.ioChannel().retries(),
                  async.ioChannel().retries());
    }
}

TEST(SystemKnobs, FaultAndRetryNamespacesDispatch)
{
    SystemConfig config;
    EXPECT_TRUE(applyKnob(config, {"fault.read_error_rate", 0.25}));
    EXPECT_TRUE(applyKnob(config, {"fault.seed", 99}));
    EXPECT_TRUE(applyKnob(config, {"retry.max_attempts", 4}));
    EXPECT_TRUE(applyKnob(config, {"retry.timeout_us", 100000}));
    EXPECT_EQ(config.fault.read_error_rate, 0.25);
    EXPECT_EQ(config.fault.seed, 99u);
    EXPECT_EQ(config.retry.max_attempts, 4u);
    EXPECT_EQ(config.retry.timeout, sim::us(100000));
    EXPECT_FALSE(applyKnob(config, {"fault.no_such_knob", 1.0}));
    EXPECT_FALSE(applyKnob(config, {"retry.no_such_knob", 1.0}));
}

TEST(SystemValidate, RejectsBadFaultAndRetryConfigs)
{
    {
        SystemConfig sc = faultyConfig("ssd-mmap");
        sc.fault.read_error_rate = -0.5;
        EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                     "read_error_rate");
    }
    {
        SystemConfig sc = faultyConfig("ssd-mmap");
        sc.retry.max_attempts = 0;
        EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                     "max_attempts");
    }
    {
        SystemConfig sc = faultyConfig("ssd-mmap");
        sc.retry.backoff_base = sim::us(100);
        sc.retry.backoff_cap = sim::us(10);
        EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                     "backoff_cap");
    }
    {
        SystemConfig sc = faultyConfig("ssd-mmap");
        sc.retry.timeout = sim::minServiceTick - 1;
        EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                     "minimum service tick");
    }
}

TEST(FaultStats, RowsAppearOnlyWhenFaultsCanFire)
{
    // Fault-free systems keep their pre-fault stats document (the
    // byte-identity guarantee); enabling any fault source adds the
    // recovery rows.
    GnnSystem plain(faultyConfig("ssd-mmap"), smallWorkload());
    std::ostringstream clean;
    plain.dumpStats(clean);
    EXPECT_EQ(clean.str().find("host.io.retries"), std::string::npos);

    SystemConfig sc = faultyConfig("ssd-mmap");
    sc.fault.read_error_rate = 0.1;
    GnnSystem faulty(sc, smallWorkload());
    std::ostringstream dirty;
    faulty.dumpStats(dirty);
    EXPECT_NE(dirty.str().find("host.io.retries"), std::string::npos);
}

TEST(FaultServing, FixedSeedReproducesRetryAndShedCounts)
{
    SystemConfig sc = faultyConfig("ssd-mmap");
    sc.fault.read_error_rate = 0.2;
    sc.retry.max_attempts = 2;
    sc.retry.timeout = sim::us(100000);

    ServingConfig serving;
    serving.arrival_qps = 20000;
    serving.num_requests = 256;

    GnnSystem a(sc, smallWorkload()), b(sc, smallWorkload());
    ServingResult ra = runServingLoad(a, serving);
    ServingResult rb = runServingLoad(b, serving);
    EXPECT_GT(ra.io_retries, 0u);
    EXPECT_GT(ra.shed_error + ra.shed_timeout, 0u);
    EXPECT_EQ(ra.io_retries, rb.io_retries);
    EXPECT_EQ(ra.shed_error, rb.shed_error);
    EXPECT_EQ(ra.shed_timeout, rb.shed_timeout);
    EXPECT_EQ(ra.completed_ok, rb.completed_ok);
    EXPECT_EQ(ra.p99_us(), rb.p99_us());
}

TEST(FaultSpace, ArtifactIsWorkerCountInvariant)
{
    // The fault-space artifact must be a pure function of the
    // scenario, not of runner scheduling: identical JSON at any
    // --workers count, retry counters included.
    const Scenario *family = findScenario("fault-space");
    ASSERT_NE(family, nullptr);
    Scenario s = smokeVariant(*family);
    s.backends = {"dram", "ssd-mmap"};

    auto renderAt = [&](unsigned workers) {
        RunnerOptions options;
        options.workers = workers;
        ExperimentRunner runner(options);
        std::vector<ScenarioRun> runs{runner.run(s)};
        std::ostringstream json;
        writeDesignSpaceJson(json, runs, "fault_space");
        return json.str();
    };
    std::string one = renderAt(1);
    std::string three = renderAt(3);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, three);
    // The family actually exercises recovery: shed and retry columns
    // are present in the artifact.
    EXPECT_NE(one.find("\"shed_frac\""), std::string::npos);
    EXPECT_NE(one.find("\"io_retries\""), std::string::npos);
}
