/** @file Repeat-run regression (ctest label `backend`): a second run
 *  on one GnnSystem must repeat the first exactly, for every registered
 *  backend, with the feature cache off and on. Every run resets the
 *  substrate it drives — edge store, borrowed SSD, offload engines —
 *  so no timeline or cache carries over from the previous run. */

#include <gtest/gtest.h>

#include "core/backend.hh"
#include "core/serving.hh"
#include "core/system.hh"

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
repeatConfig(const std::string &backend, double cache_fraction)
{
    SystemConfig sc;
    sc.backend = backend;
    sc.fanouts = {6, 3};
    sc.pipeline.batch_size = 64;
    sc.pipeline.num_batches = 4;
    sc.pipeline.workers = 2;
    if (cache_fraction > 0)
        sc.backend_knobs["cache.capacity_fraction"] = cache_fraction;
    return sc;
}

/** Cache settings to repeat under: off, plus 0.4 for edge-store
 *  backends (the feature cache decorates the host-side store). */
std::vector<double>
cacheFractions(const StorageBackend &backend)
{
    if (backend.caps().edge_store == EdgeStoreKind::None)
        return {0.0};
    return {0.0, 0.4};
}

} // namespace

TEST(RepeatRuns, SamplingRepeatsOnOneSystem)
{
    for (const StorageBackend *b : BackendRegistry::instance().all()) {
        for (double cache : cacheFractions(*b)) {
            GnnSystem system(repeatConfig(b->id(), cache),
                             smallWorkload());
            auto first = system.runSamplingOnly(4, 4);
            auto second = system.runSamplingOnly(4, 4);
            EXPECT_EQ(first.makespan, second.makespan)
                << b->id() << " cache=" << cache;
            EXPECT_EQ(first.avg_batch_us, second.avg_batch_us)
                << b->id() << " cache=" << cache;
        }
    }
}

TEST(RepeatRuns, PipelineRepeatsOnOneSystem)
{
    for (const StorageBackend *b : BackendRegistry::instance().all()) {
        for (double cache : cacheFractions(*b)) {
            GnnSystem system(repeatConfig(b->id(), cache),
                             smallWorkload());
            auto first = system.runPipeline();
            auto second = system.runPipeline();
            EXPECT_EQ(first.makespan, second.makespan)
                << b->id() << " cache=" << cache;
            EXPECT_EQ(first.avg_sampling_us, second.avg_sampling_us)
                << b->id() << " cache=" << cache;
        }
    }
}

TEST(RepeatRuns, ServingRepeatsOnOneSystem)
{
    ServingConfig serve;
    serve.arrival_qps = 50000;
    serve.num_requests = 256;
    for (const StorageBackend *b : BackendRegistry::instance().all()) {
        if (b->caps().edge_store == EdgeStoreKind::None)
            continue; // serving drives the host-side request path
        for (double cache : cacheFractions(*b)) {
            GnnSystem system(repeatConfig(b->id(), cache),
                             smallWorkload());
            ServingResult first = runServingLoad(system, serve);
            ServingResult second = runServingLoad(system, serve);
            EXPECT_EQ(first.makespan, second.makespan)
                << b->id() << " cache=" << cache;
            EXPECT_EQ(first.p99_us(), second.p99_us())
                << b->id() << " cache=" << cache;
        }
    }
}
