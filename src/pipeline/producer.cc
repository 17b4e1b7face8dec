#include "producer.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>

#include "gnn/tensor.hh"
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
    // land on threads; the shared per-thread scratch gives each thread
    // that samples, the consumer included, its own allocation-free arena.
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
    // One producer: queue nothing, so each resolve() samples inline.
    sim::ThreadPool *helpers = producers > 1 ? pool : nullptr;
    // Enough batches in flight to keep every producer busy while the
    // consumer catches up. Memory is O(window), never O(num_batches):
    // batch i samples into ring slot i % window, launched only once
    // batch i - window has been consumed out of it.
    const std::size_t window = std::min(2 * producers + 2, n);

    std::vector<FunctionalBatch> staged(window);
    // Declared after the ring, so on any exception the tasks still in
    // flight are cancelled or waited out before the slots they write.
    std::deque<sim::ClaimableTask> in_flight;
    auto launch = [&](std::size_t i) {
        in_flight.emplace_back(helpers, [&, i] {
            sampleBatchIndex(graph, sampler, config, i, staged[i % window]);
        });
    };
    for (std::size_t i = 0; i < window; ++i)
        launch(i);
    for (std::size_t i = 0; i < n; ++i) {
        in_flight.front().resolve();
        in_flight.pop_front();
        consume(i, std::move(staged[i % window]));
        if (i + window < n)
            launch(i + window);
    }
}

SubgraphStats
SubgraphStats::of(const gnn::Subgraph &sg)
{
    SubgraphStats s;
    s.num_targets = sg.targets().size();
    s.total_edges = sg.totalSampledEdges();
    s.unique_nodes = sg.numUniqueNodes();
    s.blocks = sg.blockShapes();
    return s;
}

namespace
{

/** Replays one node-gather per step through an EdgeStore. */
class CpuBatchJob : public BatchJob
{
  public:
    CpuBatchJob(gnn::Subgraph sg, isp::IspTraceVisitor trace,
                host::EdgeStore &store, host::LlcModel &llc,
                const host::HostConfig &config,
                const graph::EdgeLayout &layout)
        : sg_(std::move(sg)), trace_(std::move(trace)), store_(store),
          llc_(llc), config_(config), layout_(layout),
          cache_(dynamic_cast<host::FeatureCacheStore *>(&store))
    {
    }

    bool done() const override { return next_ >= work().size(); }

    sim::Tick
    step(sim::Tick now) override
    {
        SS_ASSERT(!done(), "step past end of batch");
        // The batch's gather trace is fully materialized before the
        // first step, so the hoard prefetcher can be handed the whole
        // neighborhood before the first node replays: the fills drain
        // here at `now` and occupy the store's timelines, making later
        // demand reads queue behind them (prefetch is modeled, not
        // free).
        if (next_ == 0 && cache_ && cache_->prefetchEnabled()) {
            std::vector<std::uint64_t> batch_addrs;
            for (const isp::NodeWork &nw : work())
                for (std::uint64_t e : nw.entries())
                    batch_addrs.push_back(layout_.addrOf(e));
            cache_->announceBlocking(now, batch_addrs,
                                     layout_.entry_bytes);
        }
        const isp::NodeWork &w = work()[next_++];

        // Degree/offset lookup out of host DRAM.
        sim::Tick t =
            now + llc_.access(offset_region + std::uint64_t(w.node()) * 8,
                              16);
        if (!w.entries().empty()) {
            addrs_.clear();
            for (std::uint64_t e : w.entries())
                addrs_.push_back(layout_.addrOf(e));
            t = store_.readGather(t, addrs_, layout_.entry_bytes);
            t += config_.cpu_per_edge * w.entries().size();
        }
        return t;
    }

    gnn::Subgraph takeSubgraph() override { return std::move(sg_); }

  private:
    const std::vector<isp::NodeWork> &work() const { return trace_.work(); }

    gnn::Subgraph sg_;
    isp::IspTraceVisitor trace_;
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
    IspBatchJob(gnn::Subgraph sg, isp::IspTraceVisitor trace,
                IspProducer &owner, isp::IspEngine &engine)
        : sg_(std::move(sg)), trace_(std::move(trace)), owner_(owner),
          engine_(engine)
    {
        const std::size_t items = trace_.work().size();
        std::size_t groups =
            (trace_.numTargets() + engine.config().coalesce_targets - 1) /
            engine.config().coalesce_targets;
        groups = std::max<std::size_t>(
            1, std::min(groups, std::max<std::size_t>(items, 1)));
        per_group_ = (items + groups - 1) / groups;
        if (per_group_ == 0)
            per_group_ = 1;
    }

    bool done() const override { return next_ >= trace_.work().size(); }

    sim::Tick
    step(sim::Tick now) override
    {
        SS_ASSERT(!done(), "step past end of batch");
        const std::vector<isp::NodeWork> &work = trace_.work();
        std::size_t n = std::min(per_group_, work.size() - next_);
        sim::Tick submit = now + engine_.config().host_submit;
        sim::Tick t = engine_.runGroup(work.data() + next_, n, submit,
                                       owner_.accum());
        next_ += n;
        return t;
    }

    gnn::Subgraph takeSubgraph() override { return std::move(sg_); }

  private:
    gnn::Subgraph sg_;
    isp::IspTraceVisitor trace_;
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

/**
 * One batch's traced functional sample. The sampler works on private
 * copies of the targets and RNG, so a pool worker never writes the
 * caller's memory.
 */
struct PendingSample
{
    PendingSample(const graph::CsrGraph &g, const gnn::AnySampler &s,
                  const std::vector<graph::LocalNodeId> &t,
                  const sim::Rng &r)
        : graph(g), sampler(s), targets(t), rng(r)
    {
    }

    const graph::CsrGraph &graph;
    const gnn::AnySampler &sampler;
    const std::vector<graph::LocalNodeId> targets;
    sim::Rng rng;
    isp::IspTraceVisitor trace;
    gnn::Subgraph subgraph;
};

/** Builds a batch's replay job from its resolved sample. */
using ReplayFactory = std::function<std::unique_ptr<BatchJob>(
    gnn::Subgraph, isp::IspTraceVisitor)>;

/** The job startBatch returns: its replay, once the sample is in. */
class SampleAheadJob final : public BatchJob
{
  public:
    SampleAheadJob(std::unique_ptr<PendingSample> sample, sim::Rng &rng,
                   ReplayFactory make_replay)
        : sample_(std::move(sample)), rng_(rng),
          make_replay_(std::move(make_replay)),
          task_(std::in_place, gnn::kernelPool(), [s = sample_.get()] {
              s->subgraph =
                  s->sampler.sample(s->graph, s->targets, s->rng, &s->trace);
              // Held until its replay ends, with up to two per
              // worker alive: trim it here, off the replay thread.
              s->subgraph.shrinkToFit();
          })
    {
    }

    bool done() const override { return replay().done(); }
    sim::Tick step(sim::Tick now) override { return replay().step(now); }
    gnn::Subgraph takeSubgraph() override
    {
        return replay().takeSubgraph();
    }

  private:
    /** Resolve the sample on first use. done() is const in BatchJob
     *  yet may be the first call, hence the mutable members. */
    BatchJob &
    replay() const
    {
        if (!replay_) {
            task_->resolve();
            rng_ = sample_->rng;
            replay_ = make_replay_(std::move(sample_->subgraph),
                                   std::move(sample_->trace));
            task_.reset();
            sample_.reset();
        }
        return *replay_;
    }

    mutable std::unique_ptr<PendingSample> sample_;
    sim::Rng &rng_;
    ReplayFactory make_replay_;
    mutable std::unique_ptr<BatchJob> replay_;
    /** Declared last, so a job dropped unresolved cancels or waits out
     *  its sample before the sample's memory goes. */
    mutable std::optional<sim::ClaimableTask> task_;
};

/**
 * Launch the traced sample of @p targets on the kernel pool and return
 * the job that replays it through @p make_replay. With no pool (one
 * kernel thread) the job samples inline on its first call.
 */
std::unique_ptr<BatchJob>
launchSample(const graph::CsrGraph &graph, const gnn::AnySampler &sampler,
             const std::vector<graph::LocalNodeId> &targets, sim::Rng &rng,
             ReplayFactory make_replay)
{
    return std::make_unique<SampleAheadJob>(
        std::make_unique<PendingSample>(graph, sampler, targets, rng), rng,
        std::move(make_replay));
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
    return launchSample(
        graph_, sampler_, targets, rng,
        [this](gnn::Subgraph sg, isp::IspTraceVisitor trace) {
            return std::make_unique<CpuBatchJob>(
                std::move(sg), std::move(trace), store_, host_llc_,
                config_, layout_);
        });
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
    return launchSample(
        graph_, sampler_, targets, rng,
        [this](gnn::Subgraph sg, isp::IspTraceVisitor trace) {
            return std::make_unique<IspBatchJob>(
                std::move(sg), std::move(trace), *this, engine_);
        });
}

void
IspProducer::reset()
{
    ssd_.reset();
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
    return launchSample(
        graph_, sampler_, targets, rng,
        [this](gnn::Subgraph sg, isp::IspTraceVisitor trace) {
            return std::make_unique<FpgaBatchJob>(
                std::move(sg), std::move(trace), *this, engine_);
        });
}

void
FpgaProducer::reset()
{
    ssd_.reset();
    engine_.reset();
    accum_ = isp::FpgaBatchResult{};
}

} // namespace smartsage::pipeline
