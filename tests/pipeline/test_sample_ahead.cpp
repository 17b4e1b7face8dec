/**
 * @file
 * Tests for sampling ahead of the timing replay: startBatch launches
 * each batch's functional sample on the kernel pool, and the job waits
 * for it on first use; runWorkers starts each worker's next batch once
 * its current one has resolved. Outputs must be bit-identical at any
 * kernel thread count, the caller's RNG must advance exactly as a
 * synchronous sample would advance it, a lookahead of the wrong size
 * must be dropped, and jobs destroyed unresolved must leave nothing
 * running behind them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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

/**
 * Counts startBatch calls and the jobs alive at once. Without
 * lookahead a worker holds one job, so more live jobs than workers
 * means batches were started ahead.
 */
class CountingProducer final : public SubgraphProducer
{
  public:
    explicit CountingProducer(SubgraphProducer &inner) : inner_(inner) {}

    std::unique_ptr<BatchJob>
    startBatch(const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng) override
    {
        ++starts;
        max_live = std::max(max_live, ++live);
        return std::make_unique<Job>(inner_.startBatch(targets, rng),
                                     live);
    }

    void reset() override { inner_.reset(); }

    std::size_t starts = 0;
    std::size_t live = 0;
    std::size_t max_live = 0;

  private:
    class Job final : public BatchJob
    {
      public:
        Job(std::unique_ptr<BatchJob> inner, std::size_t &live)
            : inner_(std::move(inner)), live_(live)
        {
        }
        ~Job() override { --live_; }

        bool done() const override { return inner_->done(); }
        sim::Tick step(sim::Tick now) override { return inner_->step(now); }
        gnn::Subgraph takeSubgraph() override
        {
            return inner_->takeSubgraph();
        }

      private:
        std::unique_ptr<BatchJob> inner_;
        std::size_t &live_;
    };

    SubgraphProducer &inner_;
};

/** One counted runWorkers on a fresh system. */
struct CountedRun
{
    std::vector<ProducedBatch> batches;
    std::size_t starts = 0;
    std::size_t max_live = 0;
};

CountedRun
countedRun(unsigned threads, const core::SystemConfig &sc,
           std::size_t num_batches)
{
    gnn::ScopedGemmThreads pin(threads);
    core::GnnSystem system(sc, smallWorkload());
    CountingProducer counting(system.producer());
    ScheduleConfig sched;
    sched.workers = sc.pipeline.workers;
    sched.num_batches = num_batches;
    sched.batch_size = sc.pipeline.batch_size;
    sched.batch_mix = sc.pipeline.batch_mix;
    sched.seed = sc.pipeline.seed;
    CountedRun run;
    run.batches = runWorkers(counting, smallWorkload().graph, sched);
    run.starts = counting.starts;
    run.max_live = counting.max_live;
    EXPECT_EQ(counting.live, 0u);
    return run;
}

void
expectSameBatches(const std::vector<ProducedBatch> &a,
                  const std::vector<ProducedBatch> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ready, b[i].ready) << "batch " << i;
        EXPECT_EQ(a[i].sampling_time, b[i].sampling_time) << "batch " << i;
        EXPECT_EQ(a[i].stats.num_targets, b[i].stats.num_targets);
        EXPECT_EQ(a[i].stats.total_edges, b[i].stats.total_edges);
        EXPECT_EQ(a[i].stats.unique_nodes, b[i].stats.unique_nodes);
        EXPECT_EQ(a[i].stats.blocks, b[i].stats.blocks);
    }
}

/** Delegates to a SageSampler, but throws from the Nth sample. */
class NthThrowingSampler final : public gnn::AnySampler
{
  public:
    NthThrowingSampler(std::vector<unsigned> fanouts, std::size_t n)
        : inner_(std::move(fanouts)), n_(n)
    {
    }

    void
    sampleInto(const graph::CsrGraph &graph,
               const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng, gnn::SampleScratch &scratch,
               gnn::Subgraph &out,
               gnn::SampleVisitor *visitor) const override
    {
        if (calls_.fetch_add(1) + 1 == n_)
            throw std::runtime_error("sampler failed");
        inner_.sampleInto(graph, targets, rng, scratch, out, visitor);
    }

  private:
    gnn::SageSampler inner_;
    std::size_t n_;
    mutable std::atomic<std::size_t> calls_{0};
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

TEST(SampleAhead, UniformSizesStartExactlyOneJobPerBatch)
{
    // Multi-step replays (one step per node or page fault), so workers
    // resolve well before they finish and lookaheads are handed out;
    // on uniform sizes every one of them must be used.
    for (const std::string backend : {"dram", "ssd-mmap"}) {
        SCOPED_TRACE(backend);
        const core::SystemConfig sc = smallConfig(backend, {});
        const std::size_t num_batches = 30;
        const CountedRun serial = countedRun(1, sc, num_batches);
        const CountedRun ahead = countedRun(4, sc, num_batches);
        EXPECT_EQ(serial.starts, num_batches);
        EXPECT_EQ(ahead.starts, num_batches);
        // One job per worker with no pool; more with lookahead, but
        // never more than a current and a next batch per worker.
        EXPECT_LE(serial.max_live, sc.pipeline.workers);
        EXPECT_GT(ahead.max_live, sc.pipeline.workers);
        EXPECT_LE(ahead.max_live, 2 * sc.pipeline.workers);
        expectSameBatches(serial.batches, ahead.batches);
    }
}

TEST(SampleAhead, BatchMixRejectsWrongSizedLookaheads)
{
    // A mix whose sizes change from batch to batch: lookaheads guessed
    // for one size get handed a batch of another, are dropped, and the
    // batch is sampled afresh from the untouched RNG slot.
    core::SystemConfig sc = smallConfig("ssd-mmap", {16, 64, 40, 64, 16});
    const std::size_t num_batches = 30;
    const CountedRun serial = countedRun(1, sc, num_batches);
    const CountedRun ahead = countedRun(4, sc, num_batches);
    EXPECT_EQ(serial.starts, num_batches);
    EXPECT_GT(ahead.starts, num_batches); // some lookaheads rejected
    EXPECT_LE(ahead.max_live, 2 * sc.pipeline.workers);

    ScheduleConfig sched;
    sched.batch_mix = sc.pipeline.batch_mix;
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < num_batches; ++i)
        want.push_back(sched.sizeOfBatch(i));
    std::vector<std::size_t> got;
    for (const ProducedBatch &b : ahead.batches)
        got.push_back(b.stats.num_targets);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    expectSameBatches(serial.batches, ahead.batches);
}

TEST(SampleAhead, SamplerFailurePropagatesAndEveryJobIsDestroyed)
{
    graph::PowerLawParams p;
    p.num_nodes = 4096;
    p.avg_degree = 12;
    p.seed = 3;
    const graph::CsrGraph graph = graph::generatePowerLaw(p);
    host::HostConfig host;
    graph::EdgeLayout layout;
    ScheduleConfig sched;
    sched.workers = 6;
    sched.num_batches = 40;
    sched.batch_size = 32;

    for (unsigned threads : {1u, 4u}) {
        for (std::size_t nth : {3u, 9u, 20u}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, sample " +
                         std::to_string(nth));
            gnn::ScopedGemmThreads pin(threads);
            host::DramEdgeStore store(host);
            NthThrowingSampler sampler({5, 3}, nth);
            CpuProducer producer(graph, sampler, store, host, layout);
            CountingProducer counting(producer);
            EXPECT_THROW(runWorkers(counting, graph, sched),
                         std::runtime_error);
            // Every job, current or sampled ahead, was destroyed on
            // the way out (cancelled or waited for, never leaked).
            EXPECT_EQ(counting.live, 0u);
            EXPECT_LT(counting.starts, sched.num_batches);
        }
    }
}
