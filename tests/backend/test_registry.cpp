/** @file Tests for the storage-backend registry: registered ids,
 *  capability flags, knob routing, and error ergonomics. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/backend.hh"
#include "core/scenario.hh"
#include "core/system.hh"

using namespace smartsage;
using namespace smartsage::core;

namespace
{

/** Shared small workload: building graphs is the expensive part. */
const Workload &
smallWorkload()
{
    static Workload wl =
        Workload::make(graph::DatasetId::Amazon, false);
    return wl;
}

SystemConfig
smallConfig()
{
    SystemConfig sc;
    sc.fanouts = {6, 3};
    sc.pipeline.batch_size = 64;
    sc.pipeline.num_batches = 4;
    sc.pipeline.workers = 2;
    return sc;
}

} // namespace

TEST(Registry, AllIsSortedAndContainsPaperPlusPluginBackends)
{
    auto ids = BackendRegistry::instance().ids();
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    std::set<std::string> set(ids.begin(), ids.end());
    EXPECT_EQ(set.size(), ids.size());
    for (const auto &id : paperBackendIds())
        EXPECT_TRUE(set.count(id)) << id;
    // The out-of-core plugins registered from src/ssd and src/host.
    EXPECT_TRUE(set.count("multi-ssd"));
    EXPECT_TRUE(set.count("tiered-hybrid"));
    EXPECT_GE(ids.size(), 9u);
}

TEST(Registry, CapabilityFlagsDescribeTheSubstrate)
{
    auto caps = [](const std::string &id) {
        return BackendRegistry::instance().get(id).caps();
    };
    EXPECT_FALSE(caps("dram").has_ssd);
    EXPECT_EQ(caps("dram").edge_store, EdgeStoreKind::Dram);
    EXPECT_FALSE(caps("pmem").has_ssd);
    EXPECT_EQ(caps("pmem").edge_store, EdgeStoreKind::Pmem);

    EXPECT_TRUE(caps("ssd-mmap").has_ssd);
    EXPECT_FALSE(caps("ssd-mmap").has_isp);
    EXPECT_EQ(caps("ssd-mmap").edge_store, EdgeStoreKind::Mmap);
    EXPECT_EQ(caps("direct-io").edge_store, EdgeStoreKind::DirectIo);

    for (const char *isp : {"isp-hwsw", "isp-oracle", "fpga-csd"}) {
        EXPECT_TRUE(caps(isp).has_ssd) << isp;
        EXPECT_TRUE(caps(isp).has_isp) << isp;
        EXPECT_EQ(caps(isp).edge_store, EdgeStoreKind::None) << isp;
    }

    EXPECT_EQ(caps("multi-ssd").edge_store, EdgeStoreKind::Sharded);
    EXPECT_EQ(caps("tiered-hybrid").edge_store, EdgeStoreKind::Tiered);
    // Extension namespaces are claimed through the caps.
    auto has_ns = [&](const std::string &id, const std::string &ns) {
        const auto &list = caps(id).knob_namespaces;
        return std::find(list.begin(), list.end(), ns) != list.end();
    };
    EXPECT_TRUE(has_ns("multi-ssd", "multi-ssd."));
    EXPECT_TRUE(has_ns("tiered-hybrid", "tiered."));
}

TEST(Registry, BackendKnobsRouteThroughApplyKnob)
{
    SystemConfig sc;
    EXPECT_TRUE(applyKnob(sc, {"multi-ssd.shards", 8}));
    EXPECT_DOUBLE_EQ(sc.knobOr("multi-ssd.shards", 4), 8.0);
    EXPECT_TRUE(applyKnob(sc, {"tiered.hot_line_kib", 128}));
    EXPECT_DOUBLE_EQ(sc.knobOr("tiered.hot_line_kib", 64), 128.0);
    // Unclaimed namespaces still fail.
    EXPECT_FALSE(applyKnob(sc, {"nobody.owns_this", 1}));
    EXPECT_DOUBLE_EQ(sc.knobOr("absent", 7.5), 7.5);
}

TEST(Registry, ScenarioBackendAxisExpandsAnyRegisteredBackend)
{
    Scenario s;
    s.family = "plugin-grid";
    s.title = "plugins";
    s.kind = ExperimentKind::SamplingOnly;
    s.datasets = {graph::DatasetId::Amazon};
    s.large_scale = false;
    s.backends = {"multi-ssd", "tiered-hybrid", "dram"};
    s.fanout_grid = {{6, 3}};
    s.worker_grid = {2};
    s.num_batches = 2;
    EXPECT_EQ(s.gridSize(), 3u);
    auto cells = expandScenario(s);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].backend, "multi-ssd");
    EXPECT_EQ(cells[0].config.backend, "multi-ssd");
    EXPECT_EQ(cells[2].config.backend, "dram");
}

TEST(RegistryDeath, UnknownBackendIdListsTheSortedRegistry)
{
    SystemConfig sc = smallConfig();
    sc.backend = "quantum-holo-store";
    EXPECT_DEATH(
        { GnnSystem system(sc, smallWorkload()); },
        "unknown storage backend 'quantum-holo-store'.*registered "
        "backends: .*direct-io.*dram.*isp-hwsw");
}

TEST(RegistryDeath, UnknownBackendInScenarioIsFatal)
{
    Scenario s;
    s.family = "bogus";
    s.title = "bogus";
    s.backends = {"no-such-backend"};
    EXPECT_DEATH(expandScenario(s), "unknown storage backend");
}

TEST(RegistryDeath, DuplicateRegistrationIsFatal)
{
    EXPECT_DEATH(
        BackendRegistry::instance().add(std::make_unique<SimpleBackend>(
            "dram", "DRAM again", "duplicate", BackendCaps{},
            nullptr)),
        "duplicate storage backend registration for id 'dram'");
}

TEST(ConfigDeath, FractionsOutsideRangeAreFatal)
{
    {
        SystemConfig sc = smallConfig();
        sc.page_cache_fraction = 1.2;
        EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                     "page_cache_fraction must be within");
    }
    {
        SystemConfig sc = smallConfig();
        sc.scratchpad_fraction = -0.1;
        EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                     "scratchpad_fraction must be within");
    }
    {
        SystemConfig sc = smallConfig();
        sc.ssd_buffer_fraction = 2.5;
        EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                     "ssd_buffer_fraction must be within");
    }
}

TEST(ConfigDeath, EmptyOrZeroFanoutsAreFatal)
{
    {
        SystemConfig sc = smallConfig();
        sc.fanouts = {};
        EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                     "fanouts must not be empty");
    }
    {
        SystemConfig sc = smallConfig();
        sc.fanouts = {6, 0};
        EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                     "fanouts must all be >= 1");
    }
    {
        SystemConfig sc = smallConfig();
        sc.use_saint = true;
        sc.saint_walk_length = 0;
        EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                     "saint_walk_length must be >= 1");
    }
}
