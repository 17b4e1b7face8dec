#include "scheduler.hh"

#include <algorithm>
#include <memory>

#include "gnn/sampler.hh"
#include "gnn/tensor.hh"
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

    // A worker's RNG stream lives in one of two slots. The current
    // job advances its slot by the time it first steps; from then on
    // that state is final, so the worker's next batch can be selected
    // and sampled ahead on a copy in the other slot while the current
    // one replays. Alternating slots keeps each job's stream alive and
    // untouched until it resolves, as startBatch requires.
    struct Worker
    {
        sim::Rng rngs[2];
        unsigned cur = 0; //!< slot of the current job's stream
        sim::Tick clock = 0;
        sim::Tick batch_start = 0;
        std::unique_ptr<BatchJob> job;
        bool resolved = false; //!< job has stepped and is not done
        std::unique_ptr<BatchJob> ahead; //!< next batch, sampled early
        std::size_t ahead_size = 0;      //!< ahead's target count
    };

    sim::Rng master(config.seed);
    std::vector<Worker> workers(config.workers);
    std::size_t next_batch = 0;

    // Lookaheads in flight: at most one per worker, so a run holds at
    // most a current and a next batch per worker, and never more than
    // the batches left to assign. No pool means no lookahead: a fully
    // serial run.
    const bool sample_ahead = gnn::kernelPool() != nullptr;
    std::size_t outstanding = 0;

    auto assign = [&](Worker &w) {
        std::unique_ptr<BatchJob> ahead = std::move(w.ahead);
        if (ahead)
            --outstanding;
        w.resolved = false;
        if (next_batch >= config.num_batches)
            return; // an unused lookahead is cancelled or waited for
        std::size_t batch = next_batch++;
        std::size_t size = config.sizeOfBatch(batch);
        w.batch_start = w.clock;
        if (ahead && w.ahead_size == size) {
            w.cur ^= 1;
            w.job = std::move(ahead);
            return;
        }
        // Wrong size for this batch (a batch_mix): drop the lookahead
        // and sample from the current slot, which it never touched.
        ahead.reset();
        auto targets = gnn::selectTargets(graph, size, w.rngs[w.cur]);
        w.job = producer.startBatch(targets, w.rngs[w.cur]);
    };

    auto lookAhead = [&](Worker &w) {
        sim::Rng &next = w.rngs[w.cur ^ 1];
        next = w.rngs[w.cur];
        // The size guess only matters under a batch_mix; assign()
        // rejects a lookahead whose batch turns out to differ.
        w.ahead_size = config.sizeOfBatch(next_batch + outstanding);
        auto targets = gnn::selectTargets(graph, w.ahead_size, next);
        w.ahead = producer.startBatch(targets, next);
        ++outstanding;
    };

    // Start the next sample of every resolved worker that has none.
    // Only the last batches can run short; they go to the oldest
    // batch first: the likeliest to finish, and so to need it.
    auto fillLookaheads = [&] {
        if (!sample_ahead)
            return;
        while (outstanding < config.num_batches - next_batch) {
            Worker *pick = nullptr;
            for (auto &cand : workers) {
                if (cand.resolved && !cand.ahead &&
                    (!pick || cand.batch_start < pick->batch_start))
                    pick = &cand;
            }
            if (!pick)
                return;
            lookAhead(*pick);
        }
    };

    for (unsigned i = 0; i < config.workers; ++i) {
        workers[i].rngs[0] = master.fork(i);
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
            fillLookaheads();
        } else if (!w->resolved) {
            w->resolved = true;
            fillLookaheads();
        }
    }

    std::sort(finished.begin(), finished.end(),
              [](const ProducedBatch &a, const ProducedBatch &b) {
                  return a.ready < b.ready;
              });
    return finished;
}

} // namespace smartsage::pipeline
