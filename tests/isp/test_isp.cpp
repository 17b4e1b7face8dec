/** @file Tests for NSconfig tracing, the ISP engine, and the FPGA CSD. */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "gnn/sampler.hh"
#include "graph/builder.hh"
#include "graph/powerlaw.hh"
#include "isp/fpga_csd.hh"
#include "isp/isp_engine.hh"
#include "reference/reference.hh"

using namespace smartsage;
using namespace smartsage::isp;
namespace sim = smartsage::sim;

namespace
{

graph::CsrGraph
testGraph()
{
    graph::PowerLawParams p;
    p.num_nodes = 4096;
    p.avg_degree = 40;
    p.seed = 17;
    return graph::generatePowerLaw(p);
}

IspTraceVisitor
traceBatch(const graph::CsrGraph &g, std::size_t batch,
           std::uint64_t seed = 3)
{
    gnn::SageSampler sampler({10, 5});
    sim::Rng rng(seed);
    auto targets = gnn::selectTargets(g, batch, rng);
    IspTraceVisitor trace;
    sampler.sample(g, targets, rng, &trace);
    return trace;
}

/**
 * Records each node's sampled entries in a list of its own, and every
 * onSampled call in order. A visitor with no trace, so the samplers
 * must make every callback.
 */
struct PerNodeVisitor : gnn::SampleVisitor
{
    std::vector<graph::LocalNodeId> nodes;
    std::vector<std::vector<std::uint64_t>> entries;
    /** Each onEdgeEntryRead's node, in call order. */
    std::vector<graph::LocalNodeId> readers;
    std::vector<std::pair<graph::LocalNodeId, graph::LocalNodeId>> sampled;
    std::size_t batches_ended = 0;

    void
    onBatchStart(std::size_t) override
    {
        nodes.clear();
        entries.clear();
        readers.clear();
        sampled.clear();
    }
    void
    onOffsetRead(graph::LocalNodeId u) override
    {
        nodes.push_back(u);
        entries.emplace_back();
    }
    void
    onEdgeEntryRead(graph::LocalNodeId u, std::uint64_t e) override
    {
        entries.back().push_back(e);
        readers.push_back(u);
    }
    void
    onSampled(graph::LocalNodeId u, graph::LocalNodeId v) override
    {
        sampled.emplace_back(u, v);
    }
    void onBatchEnd() override { ++batches_ended; }
};

/**
 * @p lists saw every callback of the batch that sampled @p sg from
 * @p g: one offset read per frontier node of every hop, each edge entry
 * read by the node being expanded, and each followed by the onSampled
 * of the neighbor stored at that entry.
 */
void
expectEveryCallback(const graph::CsrGraph &g, const gnn::Subgraph &sg,
                    const PerNodeVisitor &lists)
{
    std::size_t expanded = 0;
    for (std::size_t h = 0; h < sg.blocks.size(); ++h)
        expanded += sg.frontiers[h].size();
    EXPECT_EQ(lists.nodes.size(), expanded);
    EXPECT_EQ(lists.sampled.size(), sg.totalSampledEdges());
    ASSERT_EQ(lists.readers.size(), lists.sampled.size());
    std::size_t k = 0;
    for (std::size_t i = 0; i < lists.nodes.size(); ++i) {
        for (std::uint64_t e : lists.entries[i]) {
            ASSERT_LT(k, lists.sampled.size());
            EXPECT_EQ(lists.readers[k], lists.nodes[i]) << k;
            EXPECT_EQ(lists.sampled[k].first, lists.nodes[i]) << k;
            EXPECT_EQ(lists.sampled[k].second, g.rawNeighbors()[e]) << k;
            ++k;
        }
    }
    EXPECT_EQ(k, lists.sampled.size());
}

/** Both subgraphs hold the same frontiers and blocks. */
void
expectSameSubgraph(const gnn::Subgraph &a, const gnn::Subgraph &b)
{
    EXPECT_EQ(a.frontiers, b.frontiers);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t h = 0; h < a.blocks.size(); ++h) {
        EXPECT_EQ(a.blocks[h].offsets, b.blocks[h].offsets) << h;
        EXPECT_EQ(a.blocks[h].src_index, b.blocks[h].src_index) << h;
    }
}

/**
 * 600 nodes shaped to reach every branch of the samplers: nodes 0-49
 * have no edges, nodes 50-59 are hubs of 150-200 neighbors (above a
 * fanout of 64), and the rest have 1-12 neighbors, some listed twice
 * (GraphBuilder keeps duplicate edges).
 */
graph::CsrGraph
edgeCaseGraph()
{
    constexpr graph::LocalNodeId kNodes = 600;
    graph::GraphBuilder b(kNodes);
    sim::Rng rng(29);
    auto anyLinked = [&rng] {
        return static_cast<graph::LocalNodeId>(50 + rng.nextBounded(550));
    };
    for (graph::LocalNodeId u = 50; u < kNodes; ++u) {
        const std::uint64_t degree =
            u < 60 ? 150 + rng.nextBounded(51) : 1 + rng.nextBounded(12);
        for (std::uint64_t k = 0; k < degree; ++k) {
            const graph::LocalNodeId v = anyLinked();
            b.addEdge(u, v);
            if (rng.nextBounded(6) == 0)
                b.addEdge(u, v);
        }
    }
    return std::move(b).build();
}

/** @p trace's work equals the per-node lists of @p lists. */
void
expectSameWork(const IspTraceVisitor &trace, const PerNodeVisitor &lists)
{
    ASSERT_EQ(trace.work().size(), lists.nodes.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < lists.nodes.size(); ++i) {
        const NodeWork &w = trace.work()[i];
        EXPECT_EQ(w.node(), lists.nodes[i]) << i;
        const auto entries = w.entries();
        EXPECT_EQ(std::vector<std::uint64_t>(entries.begin(), entries.end()),
                  lists.entries[i])
            << i;
        total += lists.entries[i].size();
    }
    EXPECT_EQ(trace.totalEntries(), total);
}

ssd::SsdConfig
testSsd()
{
    ssd::SsdConfig c;
    c.page_buffer_bytes = sim::MiB(1);
    return c;
}

} // namespace

TEST(NsConfig, FormatSizing)
{
    NsConfigFormat f;
    EXPECT_EQ(f.bytesFor(0), f.header_bytes);
    EXPECT_EQ(f.bytesFor(10),
              f.header_bytes + 10 * f.per_target_bytes);
}

// Each NodeWork views the visitor's own entry array, so a copy would
// view the original's.
static_assert(!std::is_copy_constructible_v<IspTraceVisitor>);
static_assert(!std::is_copy_assignable_v<IspTraceVisitor>);
static_assert(std::is_nothrow_move_constructible_v<IspTraceVisitor>);

TEST(NsConfig, FlatTraceMatchesPerNodeLists)
{
    // The library samplers fill an IspTraceVisitor's trace inline; the
    // reference samplers reach it through the virtual callbacks; a
    // visitor with no trace gets every callback. All three must see
    // the same accesses, and none may change the subgraph.
    const graph::CsrGraph powerlaw = testGraph();
    const graph::CsrGraph edges = edgeCaseGraph();
    const gnn::SageSampler sage({10, 5});
    const gnn::SageSampler wide({80, 3}); // Floyd's hash-set branch
    const gnn::SaintSampler saint(3);

    // Isolated targets, the same target twice, and hubs.
    const std::vector<graph::LocalNodeId> edge_targets = {
        0, 7, 55, 120, 7, 300, 55, 49, 599, 51, 400, 0, 58, 250};

    struct Case
    {
        const gnn::SageSampler *sage;
        const gnn::SaintSampler *saint;
        const graph::CsrGraph *graph;
        bool edge_targets;
    };
    const Case cases[] = {
        {&sage, nullptr, &powerlaw, false},
        {nullptr, &saint, &powerlaw, false},
        {&sage, nullptr, &edges, true},
        {&wide, nullptr, &edges, true},
        {nullptr, &saint, &edges, true},
        {&wide, nullptr, &edges, false},
    };
    IspTraceVisitor reused;
    for (const Case &c : cases) {
        const gnn::AnySampler &sampler =
            c.sage ? static_cast<const gnn::AnySampler &>(*c.sage)
                   : static_cast<const gnn::AnySampler &>(*c.saint);
        const graph::CsrGraph &g = *c.graph;
        for (std::uint64_t seed : {3u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << "case " << (&c - cases) << " seed " << seed);
            sim::Rng rng(seed);
            const auto targets = c.edge_targets
                                     ? edge_targets
                                     : gnn::selectTargets(g, 96, rng);

            sim::Rng rng_plain = rng;
            const gnn::Subgraph plain = sampler.sample(g, targets, rng_plain);

            sim::Rng rng_lists = rng;
            PerNodeVisitor lists;
            const gnn::Subgraph listed =
                sampler.sample(g, targets, rng_lists, &lists);
            ASSERT_GT(lists.nodes.size(), targets.size());
            EXPECT_EQ(lists.batches_ended, 1u);
            expectEveryCallback(g, listed, lists);
            expectSameSubgraph(listed, plain);

            // One visitor over several batches, then moved: the views
            // follow the array.
            sim::Rng rng_trace = rng;
            const gnn::Subgraph traced =
                sampler.sample(g, targets, rng_trace, &reused);
            expectSameSubgraph(traced, plain);
            EXPECT_EQ(rng_trace.next(), rng_plain.next());
            expectSameWork(reused, lists);
            IspTraceVisitor moved = std::move(reused);
            expectSameWork(moved, lists);
            reused = std::move(moved);
            expectSameWork(reused, lists);

            sim::Rng rng_ref = rng;
            IspTraceVisitor by_callbacks;
            if (c.sage)
                ref::sampleBaseline(*c.sage, g, targets, rng_ref,
                                    &by_callbacks);
            else
                ref::sampleBaseline(*c.saint, g, targets, rng_ref,
                                    &by_callbacks);
            expectSameWork(by_callbacks, lists);
        }
    }
}

TEST(NsConfig, TraceCapturesAllWork)
{
    graph::CsrGraph g = testGraph();
    IspTraceVisitor trace = traceBatch(g, 64);
    EXPECT_EQ(trace.numTargets(), 64u);
    EXPECT_FALSE(trace.work().empty());
    // Entries are attributed to the node that read them.
    for (const auto &w : trace.work()) {
        for (std::uint64_t e : w.entries()) {
            EXPECT_GE(e, g.edgeOffset(w.node()));
            EXPECT_LT(e, g.edgeOffset(w.node()) + g.degree(w.node()));
        }
    }
}

TEST(NsConfig, TotalEntriesMatchesSum)
{
    graph::CsrGraph g = testGraph();
    IspTraceVisitor trace = traceBatch(g, 32);
    std::uint64_t sum = 0;
    for (const auto &w : trace.work())
        sum += w.entries().size();
    EXPECT_EQ(trace.totalEntries(), sum);
}

TEST(IspEngine, RunBatchProducesConsistentResult)
{
    graph::CsrGraph g = testGraph();
    ssd::SsdDevice ssd(testSsd());
    graph::EdgeLayout layout;
    IspConfig ic;
    IspEngine engine(ic, ssd, layout);

    IspTraceVisitor trace = traceBatch(g, 64);
    IspBatchResult r = engine.runBatch(trace, 1000);

    EXPECT_GT(r.finish, 1000u);
    EXPECT_EQ(r.commands, 1u); // 64 targets < 1024 coalesce
    EXPECT_GT(r.flash_pages, 0u);
    // Dense ID list: entries + per-node headers, 8 B each.
    EXPECT_EQ(r.bytes_to_host,
              (trace.totalEntries() + trace.work().size()) * 8);
    EXPECT_GT(r.bytes_from_host, 0u);
}

TEST(IspEngine, SmallerCoalescingMeansMoreCommands)
{
    graph::CsrGraph g = testGraph();
    graph::EdgeLayout layout;

    ssd::SsdDevice ssd_a(testSsd());
    IspConfig coarse;
    coarse.coalesce_targets = 1024;
    IspBatchResult ra =
        IspEngine(coarse, ssd_a, layout).runBatch(traceBatch(g, 256), 0);

    ssd::SsdDevice ssd_b(testSsd());
    IspConfig fine;
    fine.coalesce_targets = 16;
    IspBatchResult rb =
        IspEngine(fine, ssd_b, layout).runBatch(traceBatch(g, 256), 0);

    EXPECT_EQ(ra.commands, 1u);
    EXPECT_EQ(rb.commands, 16u);
    // Fig 15: command overheads grow as coalescing shrinks.
    EXPECT_GT(rb.bytes_from_host, ra.bytes_from_host);
}

TEST(IspEngine, FinerCoalescingIsSlowerAtGranularityOne)
{
    // The Fig 15 collapse: per-target commands vs whole-batch command.
    graph::CsrGraph g = testGraph();
    graph::EdgeLayout layout;

    ssd::SsdDevice ssd_a(testSsd());
    IspConfig coarse;
    coarse.coalesce_targets = 1024;
    sim::Tick t_coarse =
        IspEngine(coarse, ssd_a, layout).runBatch(traceBatch(g, 128), 0)
            .finish;

    ssd::SsdDevice ssd_b(testSsd());
    IspConfig fine;
    fine.coalesce_targets = 1;
    sim::Tick t_fine =
        IspEngine(fine, ssd_b, layout).runBatch(traceBatch(g, 128), 0)
            .finish;

    EXPECT_GT(t_fine, t_coarse);
}

TEST(IspEngine, EmptyTraceIsInstant)
{
    graph::CsrGraph g = testGraph();
    ssd::SsdDevice ssd(testSsd());
    graph::EdgeLayout layout;
    IspEngine engine(IspConfig{}, ssd, layout);
    IspTraceVisitor empty;
    IspBatchResult r = engine.runBatch(empty, 555);
    EXPECT_EQ(r.finish, 555u);
    EXPECT_EQ(r.commands, 0u);
}

TEST(IspEngine, SubgraphBytesMuchSmallerThanBlockTransfers)
{
    // The paper's ~20x data-movement reduction: the dense sampled-ID
    // list must be far smaller than the block-granular transfer the
    // host-side baseline would have made for the same trace.
    graph::CsrGraph g = testGraph();
    ssd::SsdDevice ssd(testSsd());
    graph::EdgeLayout layout;
    IspEngine engine(IspConfig{}, ssd, layout);
    IspTraceVisitor trace = traceBatch(g, 256);
    IspBatchResult r = engine.runBatch(trace, 0);

    // Host baseline would fetch >= one 4 KiB block per work item with
    // sampled entries.
    std::uint64_t items = 0;
    for (const auto &w : trace.work())
        items += !w.entries().empty();
    std::uint64_t baseline_bytes = items * 4096;
    EXPECT_GT(baseline_bytes, 10 * r.bytes_to_host);
}

TEST(FpgaCsd, BreakdownAccountsAllStages)
{
    graph::CsrGraph g = testGraph();
    ssd::SsdDevice ssd(testSsd());
    graph::EdgeLayout layout;
    FpgaCsdEngine engine(FpgaCsdConfig{}, ssd, layout);
    IspTraceVisitor trace = traceBatch(g, 64);
    FpgaBatchResult r = engine.runBatch(trace, 0);

    EXPECT_GT(r.finish, 0u);
    EXPECT_GT(r.ssd_to_fpga, 0u);
    EXPECT_GT(r.sampling, 0u);
    EXPECT_GT(r.fpga_to_cpu, 0u);
    EXPECT_GT(r.p2p_bytes, r.out_bytes); // raw blocks vs dense IDs
}

TEST(FpgaCsd, TwoStepTransferDominates)
{
    // Fig 19's shape: SSD->FPGA movement is the largest component.
    graph::CsrGraph g = testGraph();
    ssd::SsdDevice ssd(testSsd());
    graph::EdgeLayout layout;
    FpgaCsdEngine engine(FpgaCsdConfig{}, ssd, layout);
    IspTraceVisitor trace = traceBatch(g, 128);
    FpgaBatchResult r = engine.runBatch(trace, 0);
    EXPECT_GT(r.ssd_to_fpga, r.sampling);
    EXPECT_GT(r.ssd_to_fpga, r.fpga_to_cpu);
}

TEST(FpgaCsd, SlowerThanInStorageSampling)
{
    // The paper's Section VI-D conclusion.
    graph::CsrGraph g = testGraph();
    graph::EdgeLayout layout;

    ssd::SsdDevice ssd_a(testSsd());
    sim::Tick isp_t =
        IspEngine(IspConfig{}, ssd_a, layout)
            .runBatch(traceBatch(g, 128), 0)
            .finish;

    ssd::SsdDevice ssd_b(testSsd());
    FpgaCsdEngine fpga(FpgaCsdConfig{}, ssd_b, layout);
    sim::Tick fpga_t = fpga.runBatch(traceBatch(g, 128), 0).finish;

    EXPECT_GT(fpga_t, isp_t);
}
