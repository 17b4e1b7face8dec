#include "scheduler.hh"

#include <algorithm>
#include <memory>

#include "gnn/sampler.hh"
#include "sim/logging.hh"

namespace smartsage::pipeline
{

std::vector<ProducedBatch>
runWorkers(SubgraphProducer &producer, const graph::CsrGraph &graph,
           const ScheduleConfig &config, bool reset_producer)
{
    SS_ASSERT(config.workers > 0 && config.num_batches > 0,
              "degenerate schedule");
    if (reset_producer)
        producer.reset();

    struct Worker
    {
        sim::Tick clock = 0;
        sim::Tick batch_start = 0;
        std::unique_ptr<BatchJob> job;
        sim::Rng rng{0};
    };

    sim::Rng master(config.seed);
    std::vector<Worker> workers(config.workers);
    std::size_t next_batch = 0;

    auto assign = [&](Worker &w) {
        if (next_batch >= config.num_batches)
            return;
        std::size_t batch = next_batch++;
        auto targets = gnn::selectTargets(
            graph, config.sizeOfBatch(batch), w.rng);
        w.batch_start = w.clock;
        w.job = producer.startBatch(targets, w.rng);
    };

    for (unsigned i = 0; i < config.workers; ++i) {
        workers[i].rng = master.fork(i);
        assign(workers[i]);
    }

    std::vector<ProducedBatch> finished;
    finished.reserve(config.num_batches);

    for (;;) {
        // Advance the worker whose clock is furthest behind; its next
        // step is the globally earliest pending storage work.
        Worker *w = nullptr;
        for (auto &cand : workers) {
            if (cand.job && (!w || cand.clock < w->clock))
                w = &cand;
        }
        if (!w)
            break;

        w->clock = w->job->step(w->clock);
        if (w->job->done()) {
            ProducedBatch batch;
            batch.ready = w->clock;
            batch.sampling_time = w->clock - w->batch_start;
            batch.stats = SubgraphStats::of(w->job->takeSubgraph());
            finished.push_back(std::move(batch));
            w->job.reset();
            assign(*w);
        }
    }

    std::sort(finished.begin(), finished.end(),
              [](const ProducedBatch &a, const ProducedBatch &b) {
                  return a.ready < b.ready;
              });
    return finished;
}

} // namespace smartsage::pipeline
