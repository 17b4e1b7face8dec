#include "trainer.hh"

#include <algorithm>

#include "gnn/sampler.hh"
#include "scheduler.hh"
#include "sim/logging.hh"
#include "sim/resource.hh"

namespace smartsage::pipeline
{

StageBreakdown
StageBreakdown::normalized() const
{
    StageBreakdown n;
    double t = total();
    if (t <= 0.0)
        return n;
    n.sampling = sampling / t;
    n.feature = feature / t;
    n.transfer = transfer / t;
    n.gpu = gpu / t;
    n.other = other / t;
    return n;
}

TrainingPipeline::TrainingPipeline(const PipelineConfig &config,
                                   const host::HostConfig &host,
                                   const gnn::GpuTimingModel &gpu,
                                   const gnn::FeatureTable &features)
    : config_(config), host_(host), gpu_(gpu), features_(features)
{
    SS_ASSERT(config.workers > 0, "need at least one producer worker");
    SS_ASSERT(config.num_batches > 0, "need at least one batch");
}

sim::Tick
TrainingPipeline::featureTime(std::uint64_t unique_nodes) const
{
    sim::Tick per_row =
        host_.feature_node_overhead +
        sim::transferTime(features_.bytesPerNode(),
                          host_.feature_stream_gbps);
    return per_row * unique_nodes;
}

PipelineResult
TrainingPipeline::run(SubgraphProducer &producer,
                      const graph::CsrGraph &graph)
{
    ScheduleConfig sched;
    sched.workers = config_.workers;
    sched.num_batches = config_.num_batches;
    sched.batch_size = config_.batch_size;
    sched.batch_mix = config_.batch_mix;
    sched.seed = config_.seed;
    std::vector<ProducedBatch> produced =
        runWorkers(producer, graph, sched);

    sim::BandwidthLink gpu_link("host_gpu", host_.host_gpu_gbps,
                                host_.host_gpu_latency);

    struct Finished
    {
        sim::Tick ready;
        sim::Tick gpu_time;
    };
    std::vector<Finished> finished;
    finished.reserve(produced.size());

    PipelineResult result;
    for (const ProducedBatch &batch : produced) {
        // Feature lookup runs on the producing worker's core after the
        // subgraph lands.
        sim::Tick ft = featureTime(batch.stats.unique_nodes);
        sim::Tick after_features = batch.ready + ft;

        // CPU->GPU copy contends on the single host-GPU PCIe link.
        std::uint64_t copy_bytes =
            batch.stats.unique_nodes * features_.bytesPerNode() +
            batch.stats.total_edges * 8;
        auto copied = gpu_link.transfer(after_features, copy_bytes);

        sim::Tick ready = copied.finish + config_.else_per_batch;
        sim::Tick gpu_time = gpu_.batchTime(batch.stats.blocks);
        finished.push_back({ready, gpu_time});

        result.stages.sampling += sim::toSeconds(batch.sampling_time);
        result.stages.feature += sim::toSeconds(ft);
        result.stages.transfer +=
            sim::toSeconds(copied.finish - after_features);
        result.stages.gpu += sim::toSeconds(gpu_time);
        result.stages.other += sim::toSeconds(config_.else_per_batch);
        result.avg_sampling_us += sim::toMicros(batch.sampling_time);
    }

    // The GPU consumer trains batches in ready order (Fig 4's work
    // queue); any gap where the queue is empty is idle time (Fig 7).
    std::sort(finished.begin(), finished.end(),
              [](const Finished &a, const Finished &b) {
                  return a.ready < b.ready;
              });
    sim::Tick gpu_now = 0;
    sim::Tick idle = 0;
    for (const auto &f : finished) {
        sim::Tick start = std::max(gpu_now, f.ready);
        idle += start - gpu_now;
        gpu_now = start + f.gpu_time;
    }

    result.makespan = gpu_now;
    result.batches = config_.num_batches;
    result.gpu_idle_frac =
        gpu_now ? static_cast<double>(idle) / static_cast<double>(gpu_now)
                : 0.0;
    result.avg_sampling_us /= static_cast<double>(config_.num_batches);
    return result;
}

} // namespace smartsage::pipeline
