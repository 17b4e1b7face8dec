/**
 * @file
 * Subgraph producers: the CPU-side workers of Fig 4, one flavor per
 * design point.
 *
 * startBatch() launches the *functional* sampler — a real subgraph
 * plus its complete storage access trace — on the kernel pool
 * (gnn::kernelPool()) and hands back a resumable BatchJob at once. The
 * job replays the trace against the shared timing models one node (or
 * one coalesced command group) at a time, after waiting for the sample
 * on its first call. The scheduler (scheduler.hh) interleaves jobs
 * from concurrent workers in simulated-time order on its one thread,
 * which is what makes multi-worker contention honest: a busy-until
 * resource only sees requests in global time order, never one whole
 * worker at a time. Meanwhile the samples of the workers it is not
 * stepping run ahead on the pool's threads, and the scheduler starts
 * each worker's next batch as soon as its current job has resolved
 * (one batch of lookahead), so a job's sample is usually done by the
 * time it is first stepped. A sample is a pure function of its
 * targets and RNG stream, so every output is bit-identical at any
 * kernel thread count, one included (no pool: the scheduler samples
 * inline and never ahead).
 */

#ifndef SMARTSAGE_PIPELINE_PRODUCER_HH
#define SMARTSAGE_PIPELINE_PRODUCER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "gnn/sampler.hh"
#include "graph/csr.hh"
#include "graph/layout.hh"
#include "host/config.hh"
#include "host/io_path.hh"
#include "host/llc.hh"
#include "isp/fpga_csd.hh"
#include "isp/isp_engine.hh"
#include "sim/random.hh"
#include "sim/thread_pool.hh"
#include "sim/types.hh"

namespace smartsage::pipeline
{

/** One functionally sampled mini-batch of the parallel pipeline. */
struct FunctionalBatch
{
    std::vector<graph::LocalNodeId> targets;
    gnn::Subgraph subgraph;
};

/** Parameters of one parallel functional sampling run. */
struct ParallelSampleConfig
{
    /** Producer concurrency cap; the effective count is
     *  min(workers, pool size, num_batches). */
    unsigned workers = 1;
    std::size_t num_batches = 16;
    std::size_t batch_size = 1024;
    std::uint64_t seed = 0xba7c;

    /**
     * Global index of the first batch produced: local batch i draws
     * from fork(first_batch + i) of the master seed. A resumed run
     * sets this to its restored cursor and regenerates exactly the
     * batches an uninterrupted run would have seen from that point —
     * the RNG fork position is the whole sampler state.
     */
    std::size_t first_batch = 0;
};

/**
 * Overlapped functional pipeline: the real multi-worker
 * producer/consumer loop of Fig 4 — W samplers feeding one trainer —
 * executing on host cores. Batch i is sampled by a sim::ClaimableTask
 * on @p pool, at most 2 * producers + 2 batches ahead of the consumer,
 * where producers = min(config.workers, pool size, num_batches);
 * @p consume runs on the calling thread, once per batch, in strict
 * batch-index order. A batch no pool worker has started yet is sampled
 * by the calling thread itself; with one producer (or a null @p pool)
 * nothing is queued and every batch is sampled inline.
 *
 * Determinism contract: batch i draws its targets and its sampling
 * stream from fork(first_batch + i) of the master seed, and every
 * thread samples into its own thread-local SampleScratch, so both the
 * batches and the in-order consumer's state evolution are
 * **bit-identical for any worker count**, regardless of thread
 * scheduling.
 *
 * If sampling batch k throws, batches 0..k-1 are consumed and the
 * exception is rethrown; an exception from @p consume propagates too.
 * Either way no task is left running on the pool when this returns.
 */
void runSamplingPipeline(
    const graph::CsrGraph &graph, const gnn::AnySampler &sampler,
    const ParallelSampleConfig &config, sim::ThreadPool *pool,
    const std::function<void(std::size_t, FunctionalBatch &&)> &consume);

/** Shape summary of a produced subgraph (enough for timing models). */
struct SubgraphStats
{
    std::size_t num_targets = 0;
    std::uint64_t total_edges = 0;
    std::uint64_t unique_nodes = 0;
    std::vector<gnn::BlockShape> blocks; //!< per block, in block order

    static SubgraphStats of(const gnn::Subgraph &sg);
};

/** One finished mini-batch. */
struct ProducedBatch
{
    sim::Tick ready = 0;         //!< subgraph available in host DRAM
    sim::Tick sampling_time = 0; //!< ready - start
    SubgraphStats stats;
};

/**
 * A resumable replay of one mini-batch's subgraph generation. step()
 * executes the next slice of work (one node gather, or one coalesced
 * ISP group) starting no earlier than @p now, and returns its
 * completion time. The first call of any member waits for the batch's
 * functional sample (running it inline if no pool thread has started
 * it) and rethrows an exception the sampler threw.
 */
class BatchJob
{
  public:
    virtual ~BatchJob() = default;

    /** True once every slice has executed. */
    virtual bool done() const = 0;

    /** Execute the next slice at @p now. @pre !done() */
    virtual sim::Tick step(sim::Tick now) = 0;

    /** Claim the functional subgraph after completion. @pre done() */
    virtual gnn::Subgraph takeSubgraph() = 0;
};

/** A design point's subgraph-generation path. */
class SubgraphProducer
{
  public:
    virtual ~SubgraphProducer() = default;

    /**
     * Launch the functional sample of @p targets and return its timing
     * replay without waiting for it. @p targets is copied. @p rng is
     * advanced by the time the job's first step()/done()/takeSubgraph()
     * returns; keep it alive and untouched until then. The job must
     * not outlive this producer, or the graph and sampler it reads.
     */
    virtual std::unique_ptr<BatchJob>
    startBatch(const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng) = 0;

    /** Fresh caches/timelines for a new experiment. */
    virtual void reset() = 0;
};

/** Host-CPU sampling over an EdgeStore (DRAM / mmap / directIO / PMEM). */
class CpuProducer : public SubgraphProducer
{
  public:
    CpuProducer(const graph::CsrGraph &graph,
                const gnn::AnySampler &sampler, host::EdgeStore &store,
                const host::HostConfig &config,
                const graph::EdgeLayout &layout);

    std::unique_ptr<BatchJob>
    startBatch(const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng) override;
    void reset() override;

    host::LlcModel &hostLlc() { return host_llc_; }

  private:
    const graph::CsrGraph &graph_;
    const gnn::AnySampler &sampler_;
    host::EdgeStore &store_;
    host::HostConfig config_;
    graph::EdgeLayout layout_;
    host::LlcModel host_llc_;
};

/** SmartSAGE(HW/SW): in-storage subgraph generation. */
class IspProducer : public SubgraphProducer
{
  public:
    IspProducer(const graph::CsrGraph &graph,
                const gnn::AnySampler &sampler, isp::IspEngine &engine,
                ssd::SsdDevice &ssd);

    std::unique_ptr<BatchJob>
    startBatch(const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng) override;
    void reset() override;

    /** Cumulative result counters across produced batches. */
    const isp::IspBatchResult &accumulated() const { return accum_; }

    /** Mutable accumulator the batch jobs write into. */
    isp::IspBatchResult &accum() { return accum_; }

  private:
    const graph::CsrGraph &graph_;
    const gnn::AnySampler &sampler_;
    isp::IspEngine &engine_;
    ssd::SsdDevice &ssd_;
    isp::IspBatchResult accum_;
};

/** FPGA-based CSD (Fig 19). */
class FpgaProducer : public SubgraphProducer
{
  public:
    FpgaProducer(const graph::CsrGraph &graph,
                 const gnn::AnySampler &sampler,
                 isp::FpgaCsdEngine &engine, ssd::SsdDevice &ssd);

    std::unique_ptr<BatchJob>
    startBatch(const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng) override;
    void reset() override;

    /** Breakdown accumulated across produced batches. */
    const isp::FpgaBatchResult &accumulated() const { return accum_; }

    /** Mutable accumulator the batch jobs write into. */
    isp::FpgaBatchResult &accum() { return accum_; }

  private:
    const graph::CsrGraph &graph_;
    const gnn::AnySampler &sampler_;
    isp::FpgaCsdEngine &engine_;
    ssd::SsdDevice &ssd_;
    isp::FpgaBatchResult accum_;
};

} // namespace smartsage::pipeline

#endif // SMARTSAGE_PIPELINE_PRODUCER_HH
