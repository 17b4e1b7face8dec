/**
 * @file
 * Tests for sampling ahead of the timing replay: startBatch launches
 * each batch's functional sample on the kernel pool, and the job waits
 * for it on first use. Outputs must be bit-identical at any kernel
 * thread count, the caller's RNG must advance exactly as a synchronous
 * sample would advance it, and jobs destroyed unresolved must leave
 * nothing running behind them.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hh"
#include "gnn/sampler.hh"
#include "gnn/tensor.hh"
#include "graph/powerlaw.hh"
#include "isp/nsconfig.hh"
#include "pipeline/producer.hh"
#include "pipeline/scheduler.hh"

using namespace smartsage;
using namespace smartsage::pipeline;

namespace
{

const core::Workload &
smallWorkload()
{
    static core::Workload wl =
        core::Workload::make(graph::DatasetId::Amazon, false);
    return wl;
}

core::SystemConfig
smallConfig(const std::string &backend,
            const std::vector<std::size_t> &batch_mix)
{
    core::SystemConfig sc;
    sc.backend = backend;
    sc.fanouts = {6, 3};
    sc.pipeline.batch_size = 64;
    sc.pipeline.batch_mix = batch_mix;
    sc.pipeline.num_batches = 10;
    sc.pipeline.workers = 6;
    return sc;
}

/** Every simulated output of one runWorkers and one runPipeline. */
struct RunOutputs
{
    std::vector<ProducedBatch> batches;
    PipelineResult pipeline;
};

RunOutputs
runAt(unsigned threads, const core::SystemConfig &sc)
{
    gnn::ScopedGemmThreads pin(threads);
    RunOutputs out;
    {
        core::GnnSystem system(sc, smallWorkload());
        ScheduleConfig sched;
        sched.workers = sc.pipeline.workers;
        sched.num_batches = sc.pipeline.num_batches;
        sched.batch_size = sc.pipeline.batch_size;
        sched.batch_mix = sc.pipeline.batch_mix;
        sched.seed = sc.pipeline.seed;
        out.batches =
            runWorkers(system.producer(), smallWorkload().graph, sched);
    }
    // A fresh system: a second run on one system starts from the
    // device timelines the first left busy.
    core::GnnSystem system(sc, smallWorkload());
    out.pipeline = system.runPipeline();
    return out;
}

const std::vector<std::string> kBackends = {"dram", "ssd-mmap",
                                            "isp-hwsw", "fpga-csd"};

/** Throws from every sample, to test that the job rethrows it. */
class ThrowingSampler final : public gnn::AnySampler
{
  public:
    void
    sampleInto(const graph::CsrGraph &,
               const std::vector<graph::LocalNodeId> &, sim::Rng &,
               gnn::SampleScratch &, gnn::Subgraph &,
               gnn::SampleVisitor *) const override
    {
        throw std::runtime_error("sampler failed");
    }
};

} // namespace

TEST(SampleAhead, OutputsBitIdenticalAtAnyKernelThreadCount)
{
    const std::vector<std::vector<std::size_t>> mixes = {{}, {16, 64, 40}};
    for (const std::string &backend : kBackends) {
        for (const auto &mix : mixes) {
            SCOPED_TRACE(backend + (mix.empty() ? "" : " with batch_mix"));
            const core::SystemConfig sc = smallConfig(backend, mix);
            const RunOutputs serial = runAt(1, sc);
            const RunOutputs ahead = runAt(4, sc);

            ASSERT_EQ(serial.batches.size(), sc.pipeline.num_batches);
            ASSERT_EQ(ahead.batches.size(), serial.batches.size());
            for (std::size_t i = 0; i < serial.batches.size(); ++i) {
                const ProducedBatch &a = serial.batches[i];
                const ProducedBatch &b = ahead.batches[i];
                EXPECT_EQ(a.ready, b.ready) << "batch " << i;
                EXPECT_EQ(a.sampling_time, b.sampling_time) << "batch " << i;
                EXPECT_EQ(a.stats.num_targets, b.stats.num_targets);
                EXPECT_EQ(a.stats.total_edges, b.stats.total_edges);
                EXPECT_EQ(a.stats.unique_nodes, b.stats.unique_nodes);
                EXPECT_EQ(a.stats.blocks, b.stats.blocks);
                EXPECT_EQ(a.stats.blocks.size(), sc.fanouts.size());
            }

            const PipelineResult &p = serial.pipeline;
            const PipelineResult &q = ahead.pipeline;
            EXPECT_EQ(p.makespan, q.makespan);
            EXPECT_EQ(p.batches, q.batches);
            // Bitwise: EXPECT_EQ on doubles compares exactly.
            EXPECT_EQ(p.stages.sampling, q.stages.sampling);
            EXPECT_EQ(p.stages.feature, q.stages.feature);
            EXPECT_EQ(p.stages.transfer, q.stages.transfer);
            EXPECT_EQ(p.stages.gpu, q.stages.gpu);
            EXPECT_EQ(p.stages.other, q.stages.other);
            EXPECT_EQ(p.gpu_idle_frac, q.gpu_idle_frac);
            EXPECT_EQ(p.avg_sampling_us, q.avg_sampling_us);
        }
    }
}

TEST(SampleAhead, FirstCallAdvancesRngAsASynchronousSampleWould)
{
    const graph::CsrGraph &graph = smallWorkload().graph;
    for (unsigned threads : {1u, 4u}) {
        gnn::ScopedGemmThreads pin(threads);
        for (const std::string &backend : kBackends) {
            for (bool first_call_is_step : {true, false}) {
                SCOPED_TRACE(backend + " at " + std::to_string(threads) +
                             (first_call_is_step ? " threads, step()"
                                                 : " threads, done()"));
                core::GnnSystem system(smallConfig(backend, {}),
                                       smallWorkload());
                sim::Rng rng(41);
                auto targets = gnn::selectTargets(graph, 64, rng);

                sim::Rng expected_rng = rng;
                isp::IspTraceVisitor trace;
                gnn::Subgraph expected = system.sampler().sample(
                    graph, targets, expected_rng, &trace);

                const sim::RngState before = rng.save();
                auto job = system.producer().startBatch(targets, rng);
                sim::Tick now = 0;
                if (first_call_is_step)
                    now = job->step(now);
                else
                    EXPECT_FALSE(job->done());
                EXPECT_FALSE(rng.save() == before);
                EXPECT_TRUE(rng.save() == expected_rng.save());

                while (!job->done())
                    now = job->step(now);
                gnn::Subgraph sg = job->takeSubgraph();
                EXPECT_EQ(sg.frontiers, expected.frontiers);
                ASSERT_EQ(sg.blocks.size(), expected.blocks.size());
                for (std::size_t h = 0; h < sg.blocks.size(); ++h) {
                    EXPECT_EQ(sg.blocks[h].offsets,
                              expected.blocks[h].offsets);
                    EXPECT_EQ(sg.blocks[h].src_index,
                              expected.blocks[h].src_index);
                }
            }
        }
    }
}

TEST(SampleAhead, UnresolvedJobsDestroyCleanlyBeforeTheSystem)
{
    gnn::ScopedGemmThreads pin(4);
    for (const std::string &backend : kBackends) {
        SCOPED_TRACE(backend);
        std::vector<sim::Rng> rngs;
        for (std::uint64_t i = 0; i < 12; ++i)
            rngs.emplace_back(100 + i);
        const std::vector<sim::Rng> initial = rngs;
        {
            core::GnnSystem system(smallConfig(backend, {}),
                                   smallWorkload());
            std::vector<std::unique_ptr<BatchJob>> jobs;
            for (sim::Rng &rng : rngs) {
                sim::Rng pick = rng;
                auto targets =
                    gnn::selectTargets(smallWorkload().graph, 64, pick);
                jobs.push_back(system.producer().startBatch(targets, rng));
            }
            jobs.clear(); // unstepped: cancelled or waited for
        }
        // A job that never resolved never wrote its caller's RNG.
        for (std::size_t i = 0; i < rngs.size(); ++i)
            EXPECT_TRUE(rngs[i].save() == initial[i].save()) << i;
    }
}

TEST(SampleAhead, SamplerExceptionIsRethrownOnFirstUse)
{
    graph::PowerLawParams p;
    p.num_nodes = 1024;
    p.avg_degree = 10;
    p.seed = 5;
    const graph::CsrGraph graph = graph::generatePowerLaw(p);
    host::HostConfig host;
    graph::EdgeLayout layout;
    host::DramEdgeStore store(host);
    ThrowingSampler sampler;
    CpuProducer producer(graph, sampler, store, host, layout);

    for (unsigned threads : {1u, 4u}) {
        gnn::ScopedGemmThreads pin(threads);
        sim::Rng rng(7);
        auto targets = gnn::selectTargets(graph, 16, rng);
        auto job = producer.startBatch(targets, rng);
        EXPECT_THROW(job->step(0), std::runtime_error) << threads;
        EXPECT_THROW(job->done(), std::runtime_error) << threads;
    }
}
