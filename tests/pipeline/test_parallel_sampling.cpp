/**
 * @file
 * Worker-count determinism tests for the functional multi-worker
 * sampling pipeline: for a fixed seed, sampled batches — and a model
 * trained on them — must be bit-identical at 1, 2, and 8 workers.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "graph/powerlaw.hh"
#include "pipeline/producer.hh"
#include "sim/thread_pool.hh"

using namespace smartsage;
using namespace smartsage::pipeline;

namespace
{

graph::CsrGraph
testGraph()
{
    graph::PowerLawParams p;
    p.num_nodes = 4096;
    p.avg_degree = 20;
    p.seed = 21;
    return graph::generatePowerLaw(p);
}

ParallelSampleConfig
testConfig()
{
    ParallelSampleConfig c;
    c.num_batches = 12;
    c.batch_size = 128;
    c.seed = 0xdead5eed;
    return c;
}

void
expectIdentical(const std::vector<FunctionalBatch> &a,
                const std::vector<FunctionalBatch> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].targets, b[i].targets) << "batch " << i;
        ASSERT_EQ(a[i].subgraph.frontiers, b[i].subgraph.frontiers)
            << "batch " << i;
        ASSERT_EQ(a[i].subgraph.blocks.size(),
                  b[i].subgraph.blocks.size());
        for (std::size_t h = 0; h < a[i].subgraph.blocks.size(); ++h) {
            ASSERT_EQ(a[i].subgraph.blocks[h].offsets,
                      b[i].subgraph.blocks[h].offsets);
            ASSERT_EQ(a[i].subgraph.blocks[h].src_index,
                      b[i].subgraph.blocks[h].src_index);
        }
    }
}

/** Every batch of one pipeline run, in consume order. */
std::vector<FunctionalBatch>
collect(const graph::CsrGraph &g, const gnn::AnySampler &sampler,
        const ParallelSampleConfig &config, sim::ThreadPool *pool)
{
    std::vector<FunctionalBatch> batches;
    runSamplingPipeline(g, sampler, config, pool,
                        [&](std::size_t, FunctionalBatch &&batch) {
                            batches.push_back(std::move(batch));
                        });
    return batches;
}

std::vector<FunctionalBatch>
sampleWith(unsigned workers, const graph::CsrGraph &g,
           const gnn::AnySampler &sampler)
{
    sim::ThreadPool pool(workers);
    auto config = testConfig();
    config.workers = workers;
    return collect(g, sampler, config, &pool);
}

/**
 * Delegates to a SageSampler, but throws on one batch. The batch is
 * identified by its targets, not by call count, because samples of
 * different batches race across the workers.
 */
class TargetThrowingSampler final : public gnn::AnySampler
{
  public:
    TargetThrowingSampler(std::vector<unsigned> fanouts,
                          std::vector<graph::LocalNodeId> poison)
        : inner_(std::move(fanouts)), poison_(std::move(poison))
    {
    }

    void
    sampleInto(const graph::CsrGraph &graph,
               const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng, gnn::SampleScratch &scratch,
               gnn::Subgraph &out,
               gnn::SampleVisitor *visitor) const override
    {
        if (targets == poison_)
            throw std::runtime_error("sampler failed");
        inner_.sampleInto(graph, targets, rng, scratch, out, visitor);
    }

  private:
    gnn::SageSampler inner_;
    std::vector<graph::LocalNodeId> poison_;
};

} // namespace

TEST(ParallelSampling, SageBitIdenticalAcrossWorkerCounts)
{
    graph::CsrGraph g = testGraph();
    gnn::SageSampler sampler({10, 5});
    auto one = sampleWith(1, g, sampler);
    auto two = sampleWith(2, g, sampler);
    auto eight = sampleWith(8, g, sampler);
    expectIdentical(one, two);
    expectIdentical(one, eight);
}

TEST(ParallelSampling, SaintBitIdenticalAcrossWorkerCounts)
{
    graph::CsrGraph g = testGraph();
    gnn::SaintSampler sampler(3);
    auto one = sampleWith(1, g, sampler);
    auto two = sampleWith(2, g, sampler);
    auto eight = sampleWith(8, g, sampler);
    expectIdentical(one, two);
    expectIdentical(one, eight);
}

TEST(ParallelSampling, PipelineConsumesInBatchOrder)
{
    graph::CsrGraph g = testGraph();
    gnn::SageSampler sampler({8, 4});
    sim::ThreadPool pool(4);
    auto config = testConfig();
    config.workers = 4;

    std::vector<std::size_t> order;
    std::vector<FunctionalBatch> streamed;
    runSamplingPipeline(g, sampler, config, &pool,
                        [&](std::size_t i, FunctionalBatch &&batch) {
                            order.push_back(i);
                            streamed.push_back(std::move(batch));
                        });

    ASSERT_EQ(order.size(), config.num_batches);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);

    // The streamed batches equal the serial result.
    auto reference = collect(g, sampler, config, nullptr);
    expectIdentical(streamed, reference);
}

TEST(ParallelSampling, NullPoolRunsSerially)
{
    graph::CsrGraph g = testGraph();
    gnn::SageSampler sampler({6});
    auto config = testConfig();
    auto serial = collect(g, sampler, config, nullptr);
    sim::ThreadPool pool(4);
    config.workers = 4;
    auto pooled = collect(g, sampler, config, &pool);
    expectIdentical(serial, pooled);
}

TEST(ParallelSampling, ConsumerExceptionDrainsProducersAndPropagates)
{
    graph::CsrGraph g = testGraph();
    gnn::SageSampler sampler({6, 3});
    sim::ThreadPool pool(4);
    auto config = testConfig();
    config.workers = 4;

    std::size_t consumed = 0;
    EXPECT_THROW(
        runSamplingPipeline(g, sampler, config, &pool,
                            [&](std::size_t i, FunctionalBatch &&) {
                                consumed++;
                                if (i == 3)
                                    throw std::runtime_error("boom");
                            }),
        std::runtime_error);
    EXPECT_EQ(consumed, 4u);

    // The pool must be fully drained and reusable afterwards.
    auto batches = collect(g, sampler, config, &pool);
    EXPECT_EQ(batches.size(), config.num_batches);
}

TEST(ParallelSampling, SamplerExceptionConsumesEarlierBatchesAndPropagates)
{
    graph::CsrGraph g = testGraph();
    gnn::SageSampler sage({6, 3});
    auto config = testConfig();
    const auto reference = collect(g, sage, config, nullptr);
    const std::size_t n = config.num_batches;

    for (unsigned workers : {1u, 2u, 4u}) {
        for (std::size_t k : {std::size_t{0}, n / 2, n - 1}) {
            SCOPED_TRACE("workers " + std::to_string(workers) +
                         ", failing batch " + std::to_string(k));
            TargetThrowingSampler sampler({6, 3}, reference[k].targets);
            sim::ThreadPool pool(workers);
            config.workers = workers;

            std::vector<std::size_t> order;
            EXPECT_THROW(runSamplingPipeline(
                             g, sampler, config, &pool,
                             [&](std::size_t i, FunctionalBatch &&) {
                                 order.push_back(i);
                             }),
                         std::runtime_error);
            // Exactly the batches before the failing one, in order.
            ASSERT_EQ(order.size(), k);
            for (std::size_t i = 0; i < k; ++i)
                EXPECT_EQ(order[i], i);

            // No task is left behind: the pool serves a full run.
            expectIdentical(collect(g, sage, config, &pool), reference);
        }
    }
}

TEST(ParallelSampling, TrainedModelIdenticalAcrossWorkerCounts)
{
    graph::CsrGraph g = testGraph();
    gnn::SageSampler sampler({10, 5});
    gnn::FeatureTable features(g.numNodes(), 16, 8);

    gnn::ModelConfig mc;
    mc.in_dim = 16;
    mc.hidden_dim = 16;
    mc.num_classes = 8;
    mc.depth = 2;

    auto trainWith = [&](unsigned workers) {
        gnn::SageModel model(mc);
        sim::ThreadPool pool(workers);
        auto config = testConfig();
        config.workers = workers;
        runSamplingPipeline(
            g, sampler, config, &pool,
            [&](std::size_t, FunctionalBatch &&batch) {
                model.trainStep(batch.subgraph, features);
            });
        return model;
    };

    gnn::SageModel m1 = trainWith(1);
    gnn::SageModel m8 = trainWith(8);

    ASSERT_EQ(m1.layers().size(), m8.layers().size());
    for (std::size_t l = 0; l < m1.layers().size(); ++l) {
        // Training consumes batches in batch order on one thread, so
        // the weights must be bit-identical, not merely close.
        EXPECT_EQ(m1.layers()[l].wSelf().data(),
                  m8.layers()[l].wSelf().data());
        EXPECT_EQ(m1.layers()[l].wNeigh().data(),
                  m8.layers()[l].wNeigh().data());
        EXPECT_EQ(m1.layers()[l].biasRow().data(),
                  m8.layers()[l].biasRow().data());
    }
}
