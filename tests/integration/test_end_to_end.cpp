/** @file Integration tests: whole-system runs that assert the paper's
 *  qualitative claims hold in the simulator. */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "pipeline/producer.hh"

using namespace smartsage;
using namespace smartsage::core;

namespace
{

const Workload &
workload()
{
    static Workload wl =
        Workload::make(graph::DatasetId::ProteinPI, false);
    return wl;
}

SystemConfig
config(const std::string &backend, unsigned workers = 4)
{
    SystemConfig sc;
    sc.backend = backend;
    sc.fanouts = {10, 5};
    sc.pipeline.batch_size = 128;
    sc.pipeline.num_batches = 6;
    sc.pipeline.workers = workers;
    return sc;
}

double
samplingThroughput(const std::string &backend, unsigned workers)
{
    GnnSystem system(config(backend), workload());
    return system.runSamplingOnly(workers, 8).batchesPerSecond();
}

} // namespace

TEST(EndToEnd, StorageTierOrderingHolds)
{
    // The paper's fundamental ordering (Figs 6, 18): DRAM fastest,
    // PMEM close behind, mmap-SSD slowest of the CPU paths.
    double dram = samplingThroughput("dram", 4);
    double pmem = samplingThroughput("pmem", 4);
    double mmap = samplingThroughput("ssd-mmap", 4);
    EXPECT_GT(dram, pmem);
    EXPECT_GT(pmem, mmap);
}

TEST(EndToEnd, DirectIoBeatsMmap)
{
    // SmartSAGE(SW)'s latency-optimized runtime wins (Section VI-A).
    double sw = samplingThroughput("direct-io", 4);
    double mmap = samplingThroughput("ssd-mmap", 4);
    EXPECT_GT(sw, mmap);
}

TEST(EndToEnd, IspBeatsBothSsdHostPaths)
{
    double hwsw = samplingThroughput("isp-hwsw", 4);
    double sw = samplingThroughput("direct-io", 4);
    double mmap = samplingThroughput("ssd-mmap", 4);
    EXPECT_GT(hwsw, sw);
    EXPECT_GT(hwsw, mmap);
}

TEST(EndToEnd, IspAdvantageShrinksWithWorkers)
{
    // Fig 17: HW/SW-over-SW speedup declines as workers scale, because
    // the wimpy embedded cores saturate.
    double r1 = samplingThroughput("isp-hwsw", 1) /
                samplingThroughput("direct-io", 1);
    double r8 = samplingThroughput("isp-hwsw", 8) /
                samplingThroughput("direct-io", 8);
    EXPECT_GT(r1, r8);
    EXPECT_GT(r1, 1.0);
}

TEST(EndToEnd, IspCutsSsdToHostTraffic)
{
    // The ~20x SSD->DRAM data-movement reduction claim.
    auto bytes_for = [&](const std::string &backend) {
        GnnSystem system(config(backend), workload());
        system.runSamplingOnly(2, 6);
        return system.ssd()->bytesToHost();
    };
    std::uint64_t mmap_bytes = bytes_for("ssd-mmap");
    std::uint64_t isp_bytes = bytes_for("isp-hwsw");
    EXPECT_GT(mmap_bytes, 5 * isp_bytes);
}

TEST(EndToEnd, GpuIdleWorstOnMmap)
{
    // Fig 7: the mmap design starves the GPU.
    auto idle = [&](const std::string &backend) {
        GnnSystem system(config(backend, 6), workload());
        return system.runPipeline().gpu_idle_frac;
    };
    double dram_idle = idle("dram");
    double mmap_idle = idle("ssd-mmap");
    EXPECT_GT(mmap_idle, dram_idle);
    EXPECT_GT(mmap_idle, 0.5);
}

TEST(EndToEnd, PipelineIsDeterministic)
{
    GnnSystem a(config("isp-hwsw"), workload());
    GnnSystem b(config("isp-hwsw"), workload());
    auto ra = a.runPipeline();
    auto rb = b.runPipeline();
    EXPECT_EQ(ra.makespan, rb.makespan);
    EXPECT_DOUBLE_EQ(ra.gpu_idle_frac, rb.gpu_idle_frac);
}

TEST(EndToEnd, FunctionalResultIndependentOfStorageDesign)
{
    // Whatever the storage path, the produced subgraphs are the same
    // functional objects: training on them must behave identically
    // given identical RNG streams.
    auto subgraph_for = [&](const std::string &backend) {
        GnnSystem system(config(backend), workload());
        sim::Rng rng(99);
        auto targets = gnn::selectTargets(workload().graph, 64, rng);
        auto job = system.producer().startBatch(targets, rng);
        while (!job->done())
            job->step(0);
        return job->takeSubgraph();
    };
    gnn::Subgraph a = subgraph_for("dram");
    gnn::Subgraph b = subgraph_for("isp-hwsw");
    EXPECT_EQ(a.frontiers, b.frontiers);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t h = 0; h < a.blocks.size(); ++h)
        EXPECT_EQ(a.blocks[h].src_index, b.blocks[h].src_index);
}

TEST(EndToEnd, TrainingOnProducedSubgraphsLearns)
{
    // Close the loop: subgraphs coming out of the ISP producer train a
    // real model.
    GnnSystem system(config("isp-hwsw"), workload());

    gnn::ModelConfig mc;
    mc.in_dim = 16;
    mc.hidden_dim = 16;
    mc.num_classes = 4;
    mc.depth = 2;
    mc.learning_rate = 0.1f;
    gnn::SageModel model(mc);
    gnn::FeatureTable ft(workload().graph.numNodes(), mc.in_dim,
                         mc.num_classes);

    sim::Rng rng(7);
    double first = 0, last = 0;
    for (int i = 0; i < 20; ++i) {
        auto targets = gnn::selectTargets(workload().graph, 128, rng);
        auto job = system.producer().startBatch(targets, rng);
        while (!job->done())
            job->step(0);
        double loss = model.trainStep(job->takeSubgraph(), ft);
        if (i == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first);
}
