#include "producer.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "host/feature_cache.hh"
#include "sim/logging.hh"

namespace smartsage::pipeline
{

namespace
{

/** Sample batch @p i of @p config from its own RNG fork. */
void
sampleBatchIndex(const graph::CsrGraph &graph,
                 const gnn::AnySampler &sampler,
                 const ParallelSampleConfig &config, std::size_t i,
                 FunctionalBatch &out)
{
    // Per-index RNG forks keep the output independent of how indices
    // land on threads; the shared per-thread scratch gives each worker
    // its own allocation-free arena.
    gnn::SampleScratch &scratch = gnn::threadSampleScratch();
    sim::Rng rng = sim::Rng(config.seed).fork(config.first_batch + i);
    gnn::selectTargetsInto(graph, config.batch_size, rng, scratch,
                           out.targets);
    sampler.sampleInto(graph, out.targets, rng, scratch, out.subgraph);
}

} // namespace

void
runSamplingPipeline(
    const graph::CsrGraph &graph, const gnn::AnySampler &sampler,
    const ParallelSampleConfig &config, sim::ThreadPool *pool,
    const std::function<void(std::size_t, FunctionalBatch &&)> &consume)
{
    SS_ASSERT(config.num_batches > 0 && config.batch_size > 0,
              "degenerate parallel sample run");
    SS_ASSERT(config.workers > 0, "need at least one worker");
    const std::size_t n = config.num_batches;

    const std::size_t producers = std::min<std::size_t>(
        {config.workers, pool ? pool->size() : 1, n});
    if (!pool || producers <= 1) {
        // Serial pipeline: produce then consume, one batch at a time.
        for (std::size_t i = 0; i < n; ++i) {
            FunctionalBatch batch;
            sampleBatchIndex(graph, sampler, config, i, batch);
            consume(i, std::move(batch));
        }
        return;
    }
    // Enough staged batches to keep every producer busy while the
    // consumer catches up. Memory is O(window), never O(num_batches):
    // slots form a ring, and the window backpressure guarantees slot
    // i % slots is free (batch i - slots already consumed) before
    // batch i is produced into it.
    const std::size_t window = 2 * producers + 2;
    const std::size_t slots = std::min(window, n);
    constexpr std::size_t no_batch = static_cast<std::size_t>(-1);

    std::vector<FunctionalBatch> staged(slots);
    std::vector<std::size_t> slot_batch(slots, no_batch);
    std::mutex m;
    std::condition_variable cv_ready, cv_space;
    std::size_t consumed = 0;
    std::size_t live = 0;              // launched tasks, guarded by m
    std::exception_ptr producer_error; // first failure, guarded by m
    bool cancelled = false;            // abort signal, guarded by m
    std::atomic<std::size_t> next{0};

    auto submitProducer = [&] {
        pool->submit([&] {
            try {
                for (;;) {
                    std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= n)
                        break;
                    {
                        std::unique_lock<std::mutex> lock(m);
                        cv_space.wait(lock, [&] {
                            return i < consumed + window ||
                                   producer_error || cancelled;
                        });
                        // Re-check after waking: a drain must not let a
                        // released producer write into a ring slot that
                        // another producer may still be filling.
                        if (producer_error || cancelled)
                            break;
                    }
                    sampleBatchIndex(graph, sampler, config, i,
                                     staged[i % slots]);
                    {
                        std::unique_lock<std::mutex> lock(m);
                        slot_batch[i % slots] = i;
                    }
                    cv_ready.notify_all();
                }
            } catch (...) {
                {
                    std::unique_lock<std::mutex> lock(m);
                    if (!producer_error)
                        producer_error = std::current_exception();
                }
                next.store(n, std::memory_order_relaxed);
                cv_space.notify_all();
            }
            // Notify under the lock: once live reaches 0 the drain may
            // return and destroy this frame, cv_ready included.
            std::unique_lock<std::mutex> lock(m);
            --live;
            cv_ready.notify_all();
        });
    };

    // Wait for *our* producers only — never the whole pool, which may
    // be running unrelated tasks. Stealing the remaining indices and
    // lifting the window lets every producer run to completion first.
    auto drainProducers = [&] {
        next.store(n, std::memory_order_relaxed);
        {
            std::unique_lock<std::mutex> lock(m);
            cancelled = true;
        }
        cv_space.notify_all();
        std::unique_lock<std::mutex> lock(m);
        cv_ready.wait(lock, [&] { return live == 0; });
    };

    // Launch producers one at a time; if a submit itself throws (e.g.
    // allocation failure), the already-launched tasks still reference
    // this frame — drain them before unwinding.
    try {
        for (std::size_t t = 0; t < producers; ++t) {
            {
                std::unique_lock<std::mutex> lock(m);
                ++live;
            }
            try {
                submitProducer();
            } catch (...) {
                std::unique_lock<std::mutex> lock(m);
                --live; // this task never launched
                throw;
            }
        }
    } catch (...) {
        drainProducers();
        throw;
    }

    try {
        for (std::size_t i = 0; i < n; ++i) {
            {
                std::unique_lock<std::mutex> lock(m);
                cv_ready.wait(lock, [&] {
                    return slot_batch[i % slots] == i || producer_error;
                });
                if (slot_batch[i % slots] != i)
                    break; // a producer failed; abort consumption
            }
            consume(i, std::move(staged[i % slots]));
            {
                std::unique_lock<std::mutex> lock(m);
                ++consumed;
            }
            cv_space.notify_all();
        }
    } catch (...) {
        // The producers reference this frame's locals; drain them
        // before unwinding the consumer's exception.
        drainProducers();
        throw;
    }
    drainProducers();
    if (producer_error)
        std::rethrow_exception(producer_error);
}

std::vector<FunctionalBatch>
sampleBatchesParallel(const graph::CsrGraph &graph,
                      const gnn::AnySampler &sampler,
                      const ParallelSampleConfig &config,
                      sim::ThreadPool *pool)
{
    std::vector<FunctionalBatch> batches(config.num_batches);
    runSamplingPipeline(graph, sampler, config, pool,
                        [&batches](std::size_t i,
                                   FunctionalBatch &&batch) {
                            batches[i] = std::move(batch);
                        });
    return batches;
}

SubgraphStats
SubgraphStats::of(const gnn::Subgraph &sg)
{
    SubgraphStats s;
    s.num_targets = sg.targets().size();
    s.total_edges = sg.totalSampledEdges();
    s.unique_nodes = sg.numUniqueNodes();
    return s;
}

namespace
{

/** Replays one node-gather per step through an EdgeStore. */
class CpuBatchJob : public BatchJob
{
  public:
    CpuBatchJob(gnn::Subgraph sg, std::vector<isp::NodeWork> work,
                host::EdgeStore &store, host::LlcModel &llc,
                const host::HostConfig &config,
                const graph::EdgeLayout &layout)
        : sg_(std::move(sg)), work_(std::move(work)), store_(store),
          llc_(llc), config_(config), layout_(layout),
          cache_(dynamic_cast<host::FeatureCacheStore *>(&store))
    {
    }

    bool done() const override { return next_ >= work_.size(); }

    sim::Tick
    step(sim::Tick now) override
    {
        SS_ASSERT(!done(), "step past end of batch");
        // The batch's gather trace is fully materialized at startBatch,
        // so the hoard prefetcher can be handed the whole neighborhood
        // before the first node replays: the fills drain here at `now`
        // and occupy the store's timelines, making later demand reads
        // queue behind them (prefetch is modeled, not free).
        if (next_ == 0 && cache_ && cache_->prefetchEnabled()) {
            std::vector<std::uint64_t> batch_addrs;
            for (const isp::NodeWork &nw : work_)
                for (std::uint64_t e : nw.entries)
                    batch_addrs.push_back(layout_.addrOf(e));
            cache_->announceBlocking(now, batch_addrs,
                                     layout_.entry_bytes);
        }
        const isp::NodeWork &w = work_[next_++];

        // Degree/offset lookup out of host DRAM.
        sim::Tick t =
            now + llc_.access(offset_region + std::uint64_t(w.node) * 8,
                              16);
        if (!w.entries.empty()) {
            addrs_.clear();
            for (std::uint64_t e : w.entries)
                addrs_.push_back(layout_.addrOf(e));
            t = store_.readGather(t, addrs_, layout_.entry_bytes);
            t += config_.cpu_per_edge * w.entries.size();
        }
        return t;
    }

    gnn::Subgraph takeSubgraph() override { return std::move(sg_); }

  private:
    gnn::Subgraph sg_;
    std::vector<isp::NodeWork> work_;
    std::size_t next_ = 0;
    host::EdgeStore &store_;
    host::LlcModel &llc_;
    const host::HostConfig &config_;
    graph::EdgeLayout layout_;
    host::FeatureCacheStore *cache_; //!< null unless the store is one
    std::vector<std::uint64_t> addrs_;

    static constexpr std::uint64_t offset_region = 1ULL << 42;
};

/** Replays one coalesced NSconfig group per step. */
class IspBatchJob : public BatchJob
{
  public:
    IspBatchJob(gnn::Subgraph sg, std::vector<isp::NodeWork> work,
                std::size_t num_targets, IspProducer &owner,
                isp::IspEngine &engine)
        : sg_(std::move(sg)), work_(std::move(work)), owner_(owner),
          engine_(engine)
    {
        std::size_t groups =
            (num_targets + engine.config().coalesce_targets - 1) /
            engine.config().coalesce_targets;
        groups = std::max<std::size_t>(
            1, std::min(groups, std::max<std::size_t>(work_.size(), 1)));
        per_group_ = (work_.size() + groups - 1) / groups;
        if (per_group_ == 0)
            per_group_ = 1;
    }

    bool done() const override { return next_ >= work_.size(); }

    sim::Tick
    step(sim::Tick now) override
    {
        SS_ASSERT(!done(), "step past end of batch");
        std::size_t n = std::min(per_group_, work_.size() - next_);
        sim::Tick submit = now + engine_.config().host_submit;
        sim::Tick t = engine_.runGroup(work_.data() + next_, n, submit,
                                       owner_.accum());
        next_ += n;
        return t;
    }

    gnn::Subgraph takeSubgraph() override { return std::move(sg_); }

  private:
    gnn::Subgraph sg_;
    std::vector<isp::NodeWork> work_;
    std::size_t next_ = 0;
    std::size_t per_group_ = 1;
    IspProducer &owner_;
    isp::IspEngine &engine_;
};

/** Replays the whole batch on the FPGA CSD in one step. */
class FpgaBatchJob : public BatchJob
{
  public:
    FpgaBatchJob(gnn::Subgraph sg, isp::IspTraceVisitor trace,
                 FpgaProducer &owner, isp::FpgaCsdEngine &engine)
        : sg_(std::move(sg)), trace_(std::move(trace)), owner_(owner),
          engine_(engine)
    {
    }

    bool done() const override { return done_; }

    sim::Tick
    step(sim::Tick now) override
    {
        SS_ASSERT(!done_, "step past end of batch");
        done_ = true;
        isp::FpgaBatchResult r = engine_.runBatch(trace_, now);
        owner_.accum().ssd_to_fpga += r.ssd_to_fpga;
        owner_.accum().sampling += r.sampling;
        owner_.accum().fpga_to_cpu += r.fpga_to_cpu;
        owner_.accum().p2p_bytes += r.p2p_bytes;
        owner_.accum().out_bytes += r.out_bytes;
        return r.finish;
    }

    gnn::Subgraph takeSubgraph() override { return std::move(sg_); }

  private:
    gnn::Subgraph sg_;
    isp::IspTraceVisitor trace_;
    FpgaProducer &owner_;
    isp::FpgaCsdEngine &engine_;
    bool done_ = false;
};

/** Run the functional sampler, capturing the per-node access trace. */
gnn::Subgraph
traceSample(const graph::CsrGraph &graph, const gnn::AnySampler &sampler,
            const std::vector<graph::LocalNodeId> &targets, sim::Rng &rng,
            isp::IspTraceVisitor &trace)
{
    return sampler.sample(graph, targets, rng, &trace);
}

} // namespace

CpuProducer::CpuProducer(const graph::CsrGraph &graph,
                         const gnn::AnySampler &sampler,
                         host::EdgeStore &store,
                         const host::HostConfig &config,
                         const graph::EdgeLayout &layout)
    : graph_(graph), sampler_(sampler), store_(store), config_(config),
      layout_(layout), host_llc_(config)
{
}

std::unique_ptr<BatchJob>
CpuProducer::startBatch(const std::vector<graph::LocalNodeId> &targets,
                        sim::Rng &rng)
{
    isp::IspTraceVisitor trace;
    gnn::Subgraph sg = traceSample(graph_, sampler_, targets, rng, trace);
    std::vector<isp::NodeWork> work(trace.work());
    return std::make_unique<CpuBatchJob>(std::move(sg), std::move(work),
                                         store_, host_llc_, config_,
                                         layout_);
}

void
CpuProducer::reset()
{
    store_.reset();
    host_llc_.reset();
}

IspProducer::IspProducer(const graph::CsrGraph &graph,
                         const gnn::AnySampler &sampler,
                         isp::IspEngine &engine, ssd::SsdDevice &ssd)
    : graph_(graph), sampler_(sampler), engine_(engine), ssd_(ssd)
{
}

std::unique_ptr<BatchJob>
IspProducer::startBatch(const std::vector<graph::LocalNodeId> &targets,
                        sim::Rng &rng)
{
    isp::IspTraceVisitor trace;
    gnn::Subgraph sg = traceSample(graph_, sampler_, targets, rng, trace);
    std::vector<isp::NodeWork> work(trace.work());
    return std::make_unique<IspBatchJob>(std::move(sg), std::move(work),
                                         targets.size(), *this, engine_);
}

void
IspProducer::reset()
{
    ssd_.reset();
    engine_.reset();
    accum_ = isp::IspBatchResult{};
}

FpgaProducer::FpgaProducer(const graph::CsrGraph &graph,
                           const gnn::AnySampler &sampler,
                           isp::FpgaCsdEngine &engine,
                           ssd::SsdDevice &ssd)
    : graph_(graph), sampler_(sampler), engine_(engine), ssd_(ssd)
{
}

std::unique_ptr<BatchJob>
FpgaProducer::startBatch(const std::vector<graph::LocalNodeId> &targets,
                         sim::Rng &rng)
{
    isp::IspTraceVisitor trace;
    gnn::Subgraph sg = traceSample(graph_, sampler_, targets, rng, trace);
    return std::make_unique<FpgaBatchJob>(std::move(sg), std::move(trace),
                                          *this, engine_);
}

void
FpgaProducer::reset()
{
    ssd_.reset();
    engine_.reset();
    accum_ = isp::FpgaBatchResult{};
}

} // namespace smartsage::pipeline
