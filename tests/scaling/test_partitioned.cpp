/** @file Partitioned scale-out backend (ctest label `scaling`): the
 *  edge-cut partition map, network-channel timing, remote/local block
 *  routing, and the system-level contracts the "scaling" sweep family
 *  depends on — more nodes never slow sampling down, and the produced
 *  subgraphs are functionally identical to the single-host dram
 *  backend. */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/scenario.hh"
#include "core/system.hh"
#include "gnn/sampler.hh"
#include "host/partitioned_store.hh"
#include "sim/net.hh"
#include "sim/random.hh"

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

/** A store cut over the small workload's graph. */
std::unique_ptr<host::PartitionedEdgeStore>
makeStore(unsigned nodes, host::PartitionStrategy strategy,
          const sim::NetConfig &net = {})
{
    host::HostConfig hc;
    hc.scratchpad_bytes = sim::KiB(64);
    ssd::SsdConfig ssd;
    host::PartitionedParams params;
    params.nodes = nodes;
    params.strategy = strategy;
    return std::make_unique<host::PartitionedEdgeStore>(
        hc, ssd, net, params, smallWorkload().graph,
        graph::EdgeLayout{});
}

/** Addresses of every neighbor entry of the first @p n graph nodes. */
std::vector<std::uint64_t>
gatherAddrs(std::uint64_t n)
{
    const graph::CsrGraph &g = smallWorkload().graph;
    graph::EdgeLayout layout;
    std::vector<std::uint64_t> addrs;
    for (sim::NodeId u = 0; u < n; ++u)
        for (std::uint64_t e = g.edgeOffset(u);
             e < g.edgeOffset(u) + g.degree(u); ++e)
            addrs.push_back(layout.addrOf(e));
    return addrs;
}

} // namespace

TEST(PartitionMap, BothStrategiesBalanceEdgesAcrossNodes)
{
    const graph::CsrGraph &g = smallWorkload().graph;
    for (auto strategy : {host::PartitionStrategy::Hash,
                          host::PartitionStrategy::Degree}) {
        auto store = makeStore(4, strategy);
        std::vector<std::uint64_t> edges(4, 0);
        for (sim::NodeId u = 0; u < g.numNodes(); ++u) {
            unsigned p = store->partitionOfNode(u);
            ASSERT_LT(p, 4u);
            edges[p] += g.degree(u);
        }
        // Every partition holds a real share of the edge list: at
        // least half and at most double the perfectly even cut.
        const double even = double(g.numEdges()) / 4.0;
        for (unsigned p = 0; p < 4; ++p) {
            EXPECT_GT(double(edges[p]), 0.5 * even)
                << "strategy " << int(strategy) << " part " << p;
            EXPECT_LT(double(edges[p]), 2.0 * even)
                << "strategy " << int(strategy) << " part " << p;
        }
    }
}

TEST(PartitionMap, DegreeCutAssignsContiguousNodeRanges)
{
    auto store = makeStore(4, host::PartitionStrategy::Degree);
    const graph::CsrGraph &g = smallWorkload().graph;
    unsigned last = 0;
    for (sim::NodeId u = 0; u < g.numNodes(); ++u) {
        unsigned p = store->partitionOfNode(u);
        EXPECT_GE(p, last) << "node " << u;
        last = p;
    }
    EXPECT_EQ(last, 3u);
}

TEST(PartitionedStore, SingleNodeKeepsEveryBlockLocal)
{
    auto store = makeStore(1, host::PartitionStrategy::Hash);
    store->readGather(0, gatherAddrs(400), 8);
    EXPECT_GT(store->localBlocks(), 0u);
    EXPECT_EQ(store->remoteBlocks(), 0u);
    EXPECT_EQ(store->netTransfers(), 0u);
}

TEST(PartitionedStore, HashCutShipsMostBlocksOverTheNetwork)
{
    // A 4-way hash cut owns ~1/4 of the blocks locally; the rest pay
    // a network round trip and show up on the links. Block ownership
    // follows the block's first edge, so a wide gather (many blocks)
    // is needed before the ~3:1 remote:local ratio shows through the
    // per-block variance.
    auto store = makeStore(4, host::PartitionStrategy::Hash);
    store->readGather(0, gatherAddrs(4000), 8);
    EXPECT_GT(store->remoteBlocks(), store->localBlocks());
    EXPECT_GT(store->netTransfers(), 0u);
    EXPECT_GT(store->netBytes(), 0u);
}

TEST(PartitionedStore, GatherTimingIsDeterministic)
{
    auto addrs = gatherAddrs(400);
    auto a = makeStore(4, host::PartitionStrategy::Hash);
    auto b = makeStore(4, host::PartitionStrategy::Hash);
    const sim::Tick cold = a->readGather(0, addrs, 8);
    EXPECT_EQ(cold, b->readGather(0, addrs, 8));
    EXPECT_EQ(a->remoteBlocks(), b->remoteBlocks());
    EXPECT_EQ(a->netBytes(), b->netBytes());

    // Perturb the store's service stations (busy-until lanes, caches),
    // then reset(): a replay must reproduce the cold-state tick.
    a->readGather(0, addrs, 8);
    a->reset();
    EXPECT_EQ(a->readGather(0, addrs, 8), cold);
}

TEST(PartitionedStore, FasterLinksNeverSlowGathers)
{
    auto addrs = gatherAddrs(400);
    sim::NetConfig slow, fast;
    slow.bandwidth_gbps = 10.0;
    fast.bandwidth_gbps = 100.0;
    auto a = makeStore(4, host::PartitionStrategy::Hash, slow);
    auto b = makeStore(4, host::PartitionStrategy::Hash, fast);
    EXPECT_LE(b->readGather(0, addrs, 8), a->readGather(0, addrs, 8));
}

TEST(NetworkChannel, TransferPaysLatencyPlusSerialization)
{
    sim::NetConfig nc;
    nc.bandwidth_gbps = 8.0; // 1 byte per ns: easy arithmetic
    nc.latency = sim::us(2);
    nc.queue_depth = 4;
    sim::NetworkChannel link(nc);
    // 4000 B at 1 B/ns = 4000 ns serialization + 2 us latency.
    EXPECT_EQ(link.serviceTransfer(0, 4000),
              sim::us(2) + sim::Tick(4000));
    EXPECT_EQ(link.transfers(), 1u);
    EXPECT_EQ(link.bytesMoved(), 4000u);
}

TEST(NetworkChannel, LanesOverlapUntilQueueDepthIsExhausted)
{
    sim::NetConfig nc;
    nc.bandwidth_gbps = 8.0;
    nc.latency = 0;
    nc.queue_depth = 2;
    sim::NetworkChannel link(nc);
    sim::Tick t1 = link.serviceTransfer(0, 1000);
    sim::Tick t2 = link.serviceTransfer(0, 1000);
    sim::Tick t3 = link.serviceTransfer(0, 1000);
    EXPECT_EQ(t1, t2); // two lanes carry two transfers in parallel
    EXPECT_GT(t3, t2); // the third queues behind a busy lane

    link.reset();
    EXPECT_EQ(link.transfers(), 0u);
    EXPECT_EQ(link.serviceTransfer(0, 1000), t1);
}

TEST(NetworkChannel, KnobsRoundTripAndRejectUnknownKeys)
{
    sim::NetConfig nc;
    EXPECT_TRUE(sim::applyKnob(nc, "bandwidth_gbps", 100.0));
    EXPECT_DOUBLE_EQ(nc.bandwidth_gbps, 100.0);
    EXPECT_TRUE(sim::applyKnob(nc, "latency_us", 5));
    EXPECT_EQ(nc.latency, sim::us(5));
    EXPECT_TRUE(sim::applyKnob(nc, "queue_depth", 8));
    EXPECT_EQ(nc.queue_depth, 8u);
    EXPECT_FALSE(sim::applyKnob(nc, "no_such_knob", 1));
}

TEST(ScalingBackend, RegisteredButExcludedFromDefaultGrids)
{
    const StorageBackend *b =
        BackendRegistry::instance().find("partitioned");
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->caps().in_default_grids);

    const Scenario *s = findScenario("scaling");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->artifact, "scaling");
    EXPECT_EQ(s->backends,
              std::vector<std::string>{"partitioned"});
}

TEST(ScalingBackend, MoreNodesNeverSlowDownSampling)
{
    // The scaling family's core claim, at test scale: with each node's
    // flash array constrained to one channel x one die, the cluster's
    // aggregate die count is the contended resource, so going from one
    // node to four cannot make the sampling makespan worse.
    auto makespan = [&](double nodes) {
        SystemConfig sc = smallConfig("partitioned");
        sc.ssd.flash.channels = 1;
        sc.ssd.flash.dies_per_channel = 1;
        sc.ssd.page_buffer_ways = 1;
        sc.scratchpad_fraction = 0.02;
        sc.backend_knobs["part.nodes"] = nodes;
        sc.backend_knobs["net.bandwidth_gbps"] = 100.0;
        GnnSystem system(sc, smallWorkload());
        return system.runSamplingOnly(4, 6).makespan;
    };
    sim::Tick one = makespan(1);
    sim::Tick four = makespan(4);
    EXPECT_GT(one, 0u);
    EXPECT_LE(four, one);
}

TEST(ScalingBackend, SubgraphsIdenticalToSingleHostDram)
{
    // Storage placement changes timing only: for the same RNG stream
    // the partitioned producer must emit the same functional subgraph
    // as the single-host dram backend.
    auto subgraph_for = [&](const std::string &backend) {
        SystemConfig sc = smallConfig(backend);
        if (backend == "partitioned")
            sc.backend_knobs["part.nodes"] = 4;
        GnnSystem system(sc, smallWorkload());
        sim::Rng rng(99);
        auto targets =
            gnn::selectTargets(smallWorkload().graph, 64, rng);
        auto job = system.producer().startBatch(targets, rng);
        while (!job->done())
            job->step(0);
        return job->takeSubgraph();
    };
    gnn::Subgraph a = subgraph_for("dram");
    gnn::Subgraph b = subgraph_for("partitioned");
    EXPECT_EQ(a.frontiers, b.frontiers);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t h = 0; h < a.blocks.size(); ++h)
        EXPECT_EQ(a.blocks[h].src_index, b.blocks[h].src_index);
}

TEST(ScalingBackend, MisspelledKnobInClaimedNamespaceIsFatal)
{
    SystemConfig sc = smallConfig("partitioned");
    sc.backend_knobs["part.node"] = 4; // sic: missing 's'
    EXPECT_DEATH({ GnnSystem system(sc, smallWorkload()); },
                 "unknown 'part\\.' knob");
}
