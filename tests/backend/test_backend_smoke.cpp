/** @file Backend smoke (ctest label `backend`): every registered
 *  storage backend instantiates on the smallest dataset and runs both
 *  experiment modes; plus behavior checks for the two plugin backends
 *  (multi-ssd striping, tiered-hybrid hot cache) and the JSON stats
 *  mode. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/backend.hh"
#include "core/experiment.hh"
#include "core/scenario.hh"
#include "core/system.hh"
#include "host/tiered_store.hh"
#include "ssd/sharded_ssd.hh"

using namespace smartsage;
using namespace smartsage::core;

namespace
{

const Workload &
smallWorkload()
{
    static Workload wl =
        Workload::make(graph::DatasetId::Amazon, false);
    return wl;
}

SystemConfig
smallConfig(const std::string &backend)
{
    SystemConfig sc;
    sc.backend = backend;
    sc.fanouts = {6, 3};
    sc.pipeline.batch_size = 64;
    sc.pipeline.num_batches = 4;
    sc.pipeline.workers = 2;
    return sc;
}

} // namespace

TEST(BackendSmoke, EveryRegisteredBackendSamples)
{
    for (const StorageBackend *b : BackendRegistry::instance().all()) {
        GnnSystem system(smallConfig(b->id()), smallWorkload());
        auto r = system.runSamplingOnly(2, 3);
        EXPECT_EQ(r.batches, 3u) << b->id();
        EXPECT_GT(r.makespan, 0u) << b->id();
        EXPECT_GT(r.avg_batch_us, 0.0) << b->id();
    }
}

TEST(BackendSmoke, EveryRegisteredBackendRunsThePipeline)
{
    for (const StorageBackend *b : BackendRegistry::instance().all()) {
        GnnSystem system(smallConfig(b->id()), smallWorkload());
        auto r = system.runPipeline();
        EXPECT_EQ(r.batches, 4u) << b->id();
        EXPECT_GT(r.throughput(), 0.0) << b->id();
    }
}

TEST(BackendSmoke, InstanceSurfaceMatchesCapabilityFlags)
{
    for (const StorageBackend *b : BackendRegistry::instance().all()) {
        GnnSystem system(smallConfig(b->id()), smallWorkload());
        const BackendCaps &caps = b->caps();
        if (caps.edge_store == EdgeStoreKind::None)
            EXPECT_EQ(system.edgeStore(), nullptr) << b->id();
        else
            EXPECT_NE(system.edgeStore(), nullptr) << b->id();
        if (!caps.has_ssd)
            EXPECT_EQ(system.ssd(), nullptr) << b->id();
    }
}

TEST(BackendSmoke, EveryEdgeStoreChannelCarriesSchedAndAdmit)
{
    // The sched.* and admit.* knobs reach the host-I/O channel of
    // every backend that has one, plugin backends included.
    for (const StorageBackend *b : BackendRegistry::instance().all()) {
        if (b->caps().edge_store == EdgeStoreKind::None)
            continue;
        SystemConfig sc = smallConfig(b->id());
        sc.sched.policy = sim::DispatchPolicy::Deadline;
        sc.admit.max_queue = 64;
        sc.admit.slo_aware = true;
        GnnSystem system(sc, smallWorkload());
        const sim::StorageChannel &ch = system.edgeStore()->ioChannel();
        EXPECT_EQ(ch.dispatchPolicy(), sim::DispatchPolicy::Deadline)
            << b->id();
        EXPECT_EQ(ch.admission().max_queue, 64u) << b->id();
        EXPECT_TRUE(ch.admission().slo_aware) << b->id();
    }
}

TEST(BackendSmoke, StatsJsonCarriesTheBenchSchema)
{
    GnnSystem system(smallConfig("tiered-hybrid"), smallWorkload());
    system.runSamplingOnly(2, 3);
    std::ostringstream os;
    system.dumpStats(os, GnnSystem::StatsFormat::Json);
    std::string json = os.str();
    for (const char *key :
         {"\"bench\": \"system_stats\"", "\"schema_version\": 1",
          "\"config\"", "\"results\"",
          "\"backend\": \"tiered-hybrid\"", "\"graph.nodes\"",
          "\"host.hot_cache.hit_rate\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));

    // Text mode is unchanged gem5-style output.
    std::ostringstream text;
    system.dumpStats(text);
    EXPECT_NE(text.str().find("ssd.flash.pages_read"),
              std::string::npos);
}

TEST(BackendSmoke, BackendSpaceFamilyCoversTheDefaultGridRegistry)
{
    // The family covers every registered backend that participates in
    // the default grids; backends opting out (in_default_grids ==
    // false, e.g. "partitioned") stay registered but excluded so the
    // default artifacts keep a stable backend set.
    std::vector<std::string> expected;
    for (const StorageBackend *b : BackendRegistry::instance().all())
        if (b->caps().in_default_grids)
            expected.push_back(b->id());
    std::sort(expected.begin(), expected.end());

    const Scenario *s = findScenario("backend-space");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->backends, expected);
    EXPECT_LT(expected.size(),
              BackendRegistry::instance().ids().size());
    Scenario smoke = smokeVariant(*s);
    smoke.num_batches = 2;
    ExperimentRunner runner;
    ScenarioRun run = runner.run(smoke);
    EXPECT_EQ(run.cells.size(), expected.size());
    for (const auto &cell : run.cells)
        EXPECT_GT(cell.metric("batches_per_s"), 0.0)
            << cell.cell.label();
}

TEST(MultiSsd, MoreShardsNeverSlowDownSampling)
{
    auto makespan = [&](double shards) {
        SystemConfig sc = smallConfig("multi-ssd");
        sc.backend_knobs["multi-ssd.shards"] = shards;
        GnnSystem system(sc, smallWorkload());
        return system.runSamplingOnly(4, 6).makespan;
    };
    sim::Tick one = makespan(1);
    sim::Tick four = makespan(4);
    EXPECT_GT(one, 0u);
    // Striping across independent device timelines cannot hurt: the
    // same misses fan out over more channels/cores/links.
    EXPECT_LE(four, one);
}

TEST(MultiSsd, ShardedStoreStripesBlocksRoundRobin)
{
    host::HostConfig host;
    host.scratchpad_bytes = sim::MiB(1);
    ssd::SsdConfig ssd_config;
    ssd::ShardedSsdParams params;
    params.shards = 4;
    params.stripe_bytes = host.os_page_bytes; // one block per stripe
    ssd::ShardedEdgeStore store(host, ssd_config, params);
    ASSERT_EQ(store.numDevices(), 4u);

    // Cold gather touching 8 consecutive blocks: two per shard.
    std::vector<std::uint64_t> addrs;
    for (std::uint64_t b = 0; b < 8; ++b)
        addrs.push_back(b * host.os_page_bytes);
    store.readGather(0, addrs, 8);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_GT(store.device(i).hostReads(), 0u) << "shard " << i;
    EXPECT_EQ(store.submits(), 1u); // one coalesced submission
}

TEST(MultiSsd, BogusShardKnobIsFatal)
{
    SystemConfig sc = smallConfig("multi-ssd");
    sc.backend_knobs["multi-ssd.shards"] = 0;
    EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                 "multi-ssd.shards must be within");
}

TEST(MultiSsd, NonIntegerShardKnobIsFatal)
{
    SystemConfig sc = smallConfig("multi-ssd");
    sc.backend_knobs["multi-ssd.shards"] = 4.7;
    EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                 "multi-ssd.shards must be a whole number");
}

TEST(MultiSsd, MisspelledKnobInClaimedNamespaceIsFatal)
{
    // A typo inside a namespace the backend owns must fail loudly at
    // build time, not silently sweep at the default value.
    SystemConfig sc = smallConfig("multi-ssd");
    sc.backend_knobs["multi-ssd.stripe_kb"] = 128; // sic: _kb
    EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                 "unknown 'multi-ssd\\.' knob 'multi-ssd.stripe_kb'");
}

TEST(TieredHybrid, MisspelledKnobInClaimedNamespaceIsFatal)
{
    SystemConfig sc = smallConfig("tiered-hybrid");
    sc.backend_knobs["tiered.hotline_kib"] = 32;
    EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                 "unknown 'tiered\\.' knob");
}

TEST(TieredHybrid, HotCacheBeatsPlainDirectIo)
{
    // With a DRAM tier sized like the page cache in front of the same
    // direct-I/O path, repeated sampling must not be slower than the
    // bare direct-I/O design.
    SystemConfig tiered = smallConfig("tiered-hybrid");
    SystemConfig dio = smallConfig("direct-io");
    GnnSystem a(tiered, smallWorkload());
    GnnSystem b(dio, smallWorkload());
    auto ra = a.runSamplingOnly(2, 6);
    auto rb = b.runSamplingOnly(2, 6);
    EXPECT_LE(ra.makespan, rb.makespan);
    auto *store =
        dynamic_cast<host::TieredEdgeStore *>(a.edgeStore());
    ASSERT_NE(store, nullptr);
    EXPECT_GT(store->hotHitRate(), 0.0);
}

TEST(TieredHybrid, ColdMissesReachTheSsd)
{
    SystemConfig sc = smallConfig("tiered-hybrid");
    GnnSystem system(sc, smallWorkload());
    system.runSamplingOnly(2, 4);
    ASSERT_NE(system.ssd(), nullptr);
    EXPECT_GT(system.ssd()->hostReads(), 0u);
    EXPECT_FALSE(system.backend().notes().empty());
}
