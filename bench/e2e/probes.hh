/**
 * @file
 * Layer probes of the end-to-end benchmark: timing wrappers placed
 * around the public calls into each layer, from outside the library.
 *
 *  - SpanLog keeps spans in memory and writes them as Chrome
 *    trace-event JSON (opens in Perfetto or chrome://tracing).
 *  - TimedSampler decorates a gnn::AnySampler (the `gnn` sampler layer
 *    inside the functional pipeline).
 *  - TimedProducer decorates a pipeline::SubgraphProducer and its
 *    BatchJobs (the simulator's host clock: functional sampling plus
 *    trace build in startBatch, timing replay in BatchJob::step).
 *  - StepProbe replays SageModel::trainStep's body from public calls
 *    with a timer around each stage.
 */

#ifndef SMARTSAGE_BENCH_E2E_PROBES_HH
#define SMARTSAGE_BENCH_E2E_PROBES_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "gnn/feature_table.hh"
#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "pipeline/producer.hh"

namespace e2e
{

using namespace smartsage;
using Clock = std::chrono::steady_clock;

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** In-memory span recorder; thread-safe. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Record [start, end) as @p name on the calling thread's track. */
    void
    add(const char *name, Clock::time_point start, Clock::time_point end,
        std::uint64_t arg = 0)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        int tid = tids_.try_emplace(std::this_thread::get_id(),
                                    static_cast<int>(tids_.size()))
                      .first->second;
        spans_.push_back({name, tid, nsBetween(origin_, start),
                          nsBetween(start, end), arg});
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    void
    writeChromeTrace(std::ostream &os, const std::string &process) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        os << std::fixed << std::setprecision(3)
           << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
           << "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
              "\"args\": {\"name\": \""
           << process << "\"}}";
        for (const Span &s : spans_)
            os << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
               << ", \"name\": \"" << s.name << "\", \"ts\": "
               << s.start_ns / 1e3 << ", \"dur\": " << s.dur_ns / 1e3
               << ", \"args\": {\"n\": " << s.arg << "}}";
        os << "\n]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        int tid;
        double start_ns;
        double dur_ns;
        std::uint64_t arg;
    };

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::map<std::thread::id, int> tids_; //!< track per thread, by first use
    std::vector<Span> spans_;
};

/** gnn::AnySampler decorator timing every sampleInto call. */
class TimedSampler final : public gnn::AnySampler
{
  public:
    TimedSampler(const gnn::AnySampler &inner, SpanLog &log)
        : inner_(inner), log_(log)
    {
    }

    void
    sampleInto(const graph::CsrGraph &graph,
               const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng, gnn::SampleScratch &scratch,
               gnn::Subgraph &out,
               gnn::SampleVisitor *visitor) const override
    {
        auto t0 = Clock::now();
        inner_.sampleInto(graph, targets, rng, scratch, out, visitor);
        auto t1 = Clock::now();
        log_.add("gnn.sample", t0, t1, out.totalSampledEdges());
        ns_ += static_cast<std::uint64_t>(nsBetween(t0, t1));
        edges_ += out.totalSampledEdges();
        inputs_ += out.inputNodes().size();
    }

    double ns() const { return static_cast<double>(ns_.load()); }
    double edges() const { return static_cast<double>(edges_.load()); }
    double inputs() const { return static_cast<double>(inputs_.load()); }

  private:
    const gnn::AnySampler &inner_;
    SpanLog &log_;
    mutable std::atomic<std::uint64_t> ns_{0}, edges_{0}, inputs_{0};
};

/**
 * pipeline::SubgraphProducer decorator splitting the simulator's host
 * time into startBatch (functional sampling + trace build) and
 * BatchJob::step (timing replay). Everything else the pipeline does
 * is "other". Single-threaded, like the scheduler that drives it.
 */
class TimedProducer final : public pipeline::SubgraphProducer
{
  public:
    TimedProducer(pipeline::SubgraphProducer &inner, SpanLog &log)
        : inner_(inner), log_(log)
    {
    }

    std::unique_ptr<pipeline::BatchJob>
    startBatch(const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng) override
    {
        closeReplay();
        auto t0 = Clock::now();
        auto job = inner_.startBatch(targets, rng);
        auto t1 = Clock::now();
        log_.add("pipeline.startBatch", t0, t1, targets.size());
        start_ns += nsBetween(t0, t1);
        return std::make_unique<Job>(std::move(job), *this);
    }

    void reset() override { inner_.reset(); }

    /** Record the open replay span; call when the run ends. */
    void
    closeReplay()
    {
        if (segment_steps_ == 0)
            return;
        log_.add("pipeline.replay", segment_start_, segment_end_,
                 segment_steps_);
        segment_steps_ = 0;
    }

    double start_ns = 0;  //!< summed startBatch time
    double replay_ns = 0; //!< summed BatchJob::step time
    std::uint64_t steps = 0;

  private:
    /** Times step(); everything else forwards. */
    class Job final : public pipeline::BatchJob
    {
      public:
        Job(std::unique_ptr<pipeline::BatchJob> inner, TimedProducer &owner)
            : inner_(std::move(inner)), owner_(owner)
        {
        }

        bool done() const override { return inner_->done(); }

        sim::Tick
        step(sim::Tick now) override
        {
            auto t0 = Clock::now();
            sim::Tick finish = inner_->step(now);
            owner_.onStep(t0, Clock::now());
            return finish;
        }

        gnn::Subgraph takeSubgraph() override
        {
            return inner_->takeSubgraph();
        }

      private:
        std::unique_ptr<pipeline::BatchJob> inner_;
        TimedProducer &owner_;
    };

    /** Steps between two startBatch calls share one span: thousands of
     *  steps a batch are too many to trace one by one. The span's arg is its
     *  step count; its length includes the scheduler's gaps. */
    void
    onStep(Clock::time_point t0, Clock::time_point t1)
    {
        replay_ns += nsBetween(t0, t1);
        ++steps;
        if (segment_steps_++ == 0)
            segment_start_ = t0;
        segment_end_ = t1;
    }

    pipeline::SubgraphProducer &inner_;
    SpanLog &log_;
    Clock::time_point segment_start_, segment_end_;
    std::uint64_t segment_steps_ = 0;
};

/** Stages of one training step, in execution order (the update runs
 *  after each layer's backward). */
enum Stage
{
    kGather,
    kFwd0,
    kFwd1,
    kLoss,
    kBwd1,
    kBwd0,
    kUpdate,
    kNumStages
};

inline const char *const kStageNames[kNumStages] = {
    "gnn.feature.gather", "gnn.layer0.fwd", "gnn.layer1.fwd", "gnn.loss",
    "gnn.layer1.bwd",     "gnn.layer0.bwd", "gnn.update"};

/**
 * SageModel::trainStep rebuilt from the public layer calls, in the
 * same order, so the model ends bit-identical to trainStep's. Fixed at
 * two layers, the depth every training workload uses. The workspaces
 * persist across begin() calls, as trainStep's do across batches.
 */
class StepProbe
{
  public:
    StepProbe(gnn::SageModel &model, const gnn::FeatureTable &features)
        : model_(model), features_(features)
    {
    }

    /** Zero the counters; spans of the next steps go to @p log. */
    void
    begin(SpanLog &log)
    {
        log_ = &log;
        std::fill(std::begin(stage_ns), std::end(stage_ns), 0.0);
        flop = gather_bytes = 0;
    }

    /** One SGD step; @return the mean loss before the update. */
    double
    step(const gnn::Subgraph &sg)
    {
        auto &layers = model_.mutableLayers();
        const float lr = model_.config().learning_rate;
        ctxs_.resize(2);

        auto t = Clock::now();
        features_.gather(sg.inputNodes(), act_a_);
        t = mark(kGather, t, sg.inputNodes().size());
        layers[0].forwardInto(act_a_, sg.blocks[1], ctxs_[0], act_b_);
        t = mark(kFwd0, t, sg.blocks[1].numDsts());
        layers[1].forwardInto(act_b_, sg.blocks[0], ctxs_[1], act_a_);
        t = mark(kFwd1, t, sg.blocks[0].numDsts());
        features_.labelsInto(sg.targets(), labels_);
        double loss = gnn::softmaxCrossEntropy(act_a_, labels_, grad_a_);
        t = mark(kLoss, t, sg.targets().size());
        layers[1].backwardInto(grad_a_, ctxs_[1], grads_, grad_b_);
        t = mark(kBwd1, t, sg.blocks[0].numDsts());
        layers[1].applyGrads(grads_, lr);
        t = mark(kUpdate, t, 1);
        layers[0].backwardInto(grad_b_, ctxs_[0], grads_, grad_a_);
        t = mark(kBwd0, t, sg.blocks[1].numDsts());
        layers[0].applyGrads(grads_, lr);
        mark(kUpdate, t, 0);

        // GEMM flops: forward runs two GEMMs a layer (forwardMacs);
        // backward runs four of the same size.
        for (unsigned l = 0; l < 2; ++l)
            flop += 3.0 * 2.0 *
                    static_cast<double>(gnn::SageMeanLayer::forwardMacs(
                        sg.blocks[1 - l].numDsts(), layers[l].inDim(),
                        layers[l].outDim()));
        gather_bytes += static_cast<double>(sg.inputNodes().size()) *
                        static_cast<double>(features_.bytesPerNode());
        return loss;
    }

    double stage_ns[kNumStages] = {};
    double flop = 0;
    double gather_bytes = 0;

  private:
    Clock::time_point
    mark(Stage stage, Clock::time_point since, std::uint64_t arg)
    {
        auto now = Clock::now();
        stage_ns[stage] += nsBetween(since, now);
        log_->add(kStageNames[stage], since, now, arg);
        return now;
    }

    gnn::SageModel &model_;
    const gnn::FeatureTable &features_;
    SpanLog *log_ = nullptr;

    std::vector<gnn::SageContext> ctxs_;
    gnn::Tensor2D act_a_, act_b_, grad_a_, grad_b_;
    gnn::SageLayerGrads grads_;
    std::vector<std::uint32_t> labels_;
};

} // namespace e2e

#endif // SMARTSAGE_BENCH_E2E_PROBES_HH
