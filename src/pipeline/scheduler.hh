/**
 * @file
 * Worker scheduler: interleaves the BatchJobs of W concurrent producer
 * workers in simulated-time order, so shared storage resources see the
 * globally time-ordered request stream (honest multi-worker
 * contention, Section VI-B). The interleaving runs on the calling
 * thread and only replays timing: each worker's functional sample runs
 * ahead on the kernel pool (producer.hh), and once a worker's current
 * job has resolved its next batch is selected and started too, on a
 * second RNG slot. Each worker holds at most one lookahead, so a run
 * keeps at most two batches per worker, and lookaheads never outnumber
 * the batches left to assign; one whose size differs from the batch
 * it is handed (a batch_mix) is dropped and that batch sampled afresh,
 * so outputs equal a serial run's bit for bit (DESIGN.md §2).
 */

#ifndef SMARTSAGE_PIPELINE_SCHEDULER_HH
#define SMARTSAGE_PIPELINE_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "graph/csr.hh"
#include "producer.hh"
#include "sim/random.hh"

namespace smartsage::pipeline
{

/** Parameters of one scheduled production run. */
struct ScheduleConfig
{
    unsigned workers = 12;
    std::size_t num_batches = 24;
    std::size_t batch_size = 1024;
    /**
     * Multi-tenant mix: when non-empty, batch i uses size
     * batch_mix[i % batch_mix.size()] instead of batch_size — tenants
     * with different mini-batch sizes interleaved round-robin on the
     * shared storage stack.
     */
    std::vector<std::size_t> batch_mix;
    std::uint64_t seed = 0xba7c;

    /** Target count of batch @p index under the mix policy. */
    std::size_t
    sizeOfBatch(std::size_t index) const
    {
        return batch_mix.empty() ? batch_size
                                 : batch_mix[index % batch_mix.size()];
    }
};

/**
 * Drive @p producer through @p config.num_batches mini-batches over
 * @p config.workers interleaved worker timelines. The producer is
 * reset() first unless @p reset_producer is false (checkpoint warm
 * restarts reset and pre-warm the stores themselves before running).
 * Batches are handed to workers dynamically (a worker picks up the
 * next batch the moment it finishes one).
 *
 * @return finished batches in completion order
 */
std::vector<ProducedBatch> runWorkers(SubgraphProducer &producer,
                                      const graph::CsrGraph &graph,
                                      const ScheduleConfig &config,
                                      bool reset_producer = true);

} // namespace smartsage::pipeline

#endif // SMARTSAGE_PIPELINE_SCHEDULER_HH
