/**
 * @file
 * SystemBuilder: the public top-level API.
 *
 * A Workload is one dataset (graph + features); a GnnSystem wires every
 * substrate — SSD, host paths, ISP engine, samplers, GPU model — for
 * one storage backend over that workload, and can run sampling-only
 * experiments (Figs 14-17) or full training pipelines (Figs 6, 7, 18).
 *
 * Substrate composition is delegated to a `core::StorageBackend`
 * looked up in the `core::BackendRegistry` (backend.hh): GnnSystem
 * looks up `SystemConfig::backend` by id, asks the backend to build
 * its substrate pieces, and from then on talks to them only through
 * the uniform BackendInstance surface.
 */

#ifndef SMARTSAGE_CORE_SYSTEM_HH
#define SMARTSAGE_CORE_SYSTEM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "checkpoint.hh"
#include "gnn/feature_table.hh"
#include "gnn/gpu_model.hh"
#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "graph/datasets.hh"
#include "graph/layout.hh"
#include "host/config.hh"
#include "isp/fpga_csd.hh"
#include "isp/isp_engine.hh"
#include "pipeline/trainer.hh"
#include "ssd/config.hh"
#include "tenant.hh"

namespace smartsage::host
{
class EdgeStore;
class FeatureCacheStore;
}
namespace smartsage::ssd
{
class SsdDevice;
}

namespace smartsage::core
{

class BackendInstance; // backend.hh

/** One dataset instantiated at simulation scale. */
struct Workload
{
    graph::DatasetId id;
    graph::CsrGraph graph;
    gnn::FeatureTable features;

    /** Build the large-scale (default) or in-memory variant of @p id. */
    static Workload make(graph::DatasetId id, bool large_scale = true,
                         unsigned num_classes = 16);

    /** Edge-list bytes as stored on the device (8 B entries). */
    std::uint64_t edgeListBytes(const graph::EdgeLayout &layout) const;
};

/** Everything configurable about one system instantiation. */
struct SystemConfig
{
    /** Storage-backend registry id ("isp-hwsw", "ssd-mmap", ...). */
    std::string backend = "isp-hwsw";

    host::HostConfig host;
    ssd::SsdConfig ssd;
    isp::IspConfig isp;
    isp::FpgaCsdConfig fpga;
    gnn::GpuConfig gpu;
    pipeline::PipelineConfig pipeline;
    graph::EdgeLayout layout;

    /**
     * Backend-extension knobs ("multi-ssd.shards", ...): settings in a
     * namespace a registered backend claims via its capability flags,
     * stored verbatim for that backend to interpret at build time.
     */
    std::map<std::string, double> backend_knobs;

    /**
     * System-wide fault schedule (`fault.*` knobs) and retry/timeout
     * policy (`retry.*`). GnnSystem propagates them into the host I/O
     * path and the flash array before the backend builds, so every
     * registered backend composes them for free. Defaults are inert.
     */
    sim::FaultPlan fault;
    sim::RetryPolicy retry;

    /**
     * Host I/O channel dispatch policy (`sched.*`) and admission
     * control (`admit.*`), propagated into the host config like the
     * fault plan above. Defaults (Fifo, admission off) keep the
     * request path byte-identical to a build without scheduling.
     */
    sim::SchedConfig sched;
    sim::AdmissionControl admit;

    /**
     * Checkpoint policy (`ckpt.*` knobs). Inert by default
     * (interval_batches == 0); the recovery harness (core/recovery.hh)
     * fills in the directory and drives save/restore around the
     * functional training loop.
     */
    CheckpointConfig ckpt;

    /**
     * Serving tenant classes (`tenant.*` knobs). Empty means the
     * serving harness runs its classic single-stream open loop; any
     * classes switch it to the multi-tenant front end (core/tenant.hh,
     * runServingLoad). Ignored by non-serving experiment kinds.
     */
    std::vector<TenantClass> tenants;

    /** GraphSAGE fanouts; ignored when use_saint is set. */
    std::vector<unsigned> fanouts = {25, 10};
    bool use_saint = false;
    unsigned saint_walk_length = 2;

    /**
     * The OS page cache and the direct-I/O scratchpad are sized as a
     * fraction of the edge-list file, preserving the paper's
     * DRAM-to-dataset capacity ratio at simulation scale.
     */
    double page_cache_fraction = 0.45;
    double scratchpad_fraction = 0.45;
    /** SSD-internal DRAM page buffer, scaled the same way. A real 256
     *  MiB controller buffer against a 400 GB dataset covers well
     *  under 1% of the edge file; 2% keeps the same regime while
     *  leaving the ISP engine its intra-batch reuse. May exceed 1 (up
     *  to 2) for deliberate oversizing ablations ("page-buffer"
     *  scenario family). */
    double ssd_buffer_fraction = 0.02;

    unsigned hidden_dim = 64;

    /** Effective sampling depth (fanout hops or walk length). */
    unsigned depth() const;

    /** Backend-extension knob lookup with a default. */
    double knobOr(const std::string &key, double fallback) const;

    /**
     * Fatal (with a clear message) on impossible settings: cache
     * fractions outside [0, 1] (ssd_buffer_fraction: [0, 2]), empty or
     * zero fanouts, a zero SAINT walk length, fault rates outside
     * [0, 1], a zero retry attempt budget, a backoff ceiling below the
     * base, or a timeout shorter than the minimum service tick. Called
     * by GnnSystem at construction, before any cache is sized.
     */
    void validate() const;
};

/** A fully wired system for one (workload, backend) pair. */
class GnnSystem
{
  public:
    GnnSystem(const SystemConfig &config, const Workload &workload);
    ~GnnSystem();

    /** The producer implementing this backend's sampling path. */
    pipeline::SubgraphProducer &producer();

    /** Run the full producer-consumer training pipeline. */
    pipeline::PipelineResult runPipeline();

    /**
     * Sampling-only experiment: @p workers worker timelines produce
     * @p batches mini-batches (no GPU stage).
     */
    struct SamplingResult
    {
        sim::Tick makespan = 0;
        double avg_batch_us = 0;   //!< mean per-batch sampling latency
        std::uint64_t batches = 0;

        double
        batchesPerSecond() const
        {
            return makespan ? static_cast<double>(batches) /
                                  sim::toSeconds(makespan)
                            : 0.0;
        }
    };

    SamplingResult runSamplingOnly(unsigned workers,
                                   std::size_t batches);

    /**
     * Post-restart variant of runSamplingOnly: every timeline and
     * store is reset (a restarted process starts cold), then — when
     * @p warm_lines is non-null and this backend carries a feature
     * cache — the checkpointed resident set is re-installed before
     * the run, modeling a warm-cache restart.
     */
    SamplingResult
    runSamplingResumed(unsigned workers, std::size_t batches,
                       const std::vector<std::uint64_t> *warm_lines);

    /** Outcome of a *functional* training run: a real model trained
     *  on real subgraphs, as opposed to the simulated-time results
     *  above. */
    struct FunctionalResult
    {
        double mean_loss = 0;
    };

    /**
     * The real per-batch sampling/training loop: @p workers sampler
     * threads feed @p model's trainStep, which consumes batches in
     * strict batch order on the calling thread — so the trained model
     * state is also independent of the worker count.
     */
    FunctionalResult runFunctionalTraining(gnn::SageModel &model,
                                           unsigned workers,
                                           std::size_t batches);

    const SystemConfig &config() const { return config_; }
    const Workload &workload() const { return workload_; }
    const gnn::AnySampler &sampler() const { return *sampler_; }

    /** The backend's substrate instance (producer, stats, notes). */
    BackendInstance &backend() const;

    /** Convenience: the backend's primary SSD; null when it has none
     *  (host-memory backends) or more than one (sharded backends). */
    ssd::SsdDevice *ssd();

    /** Convenience: the backend's host-side edge store; null for
     *  in-storage (ISP/FPGA) backends. */
    host::EdgeStore *edgeStore();

    /** The feature-cache decorator when the `cache.*` knobs enabled
     *  one over this backend's edge store; null otherwise. */
    const host::FeatureCacheStore *featureCache() const;

    /** Mutable access for checkpoint warm-restore. */
    host::FeatureCacheStore *featureCache();

    /** Rendering of a stats report. */
    enum class StatsFormat
    {
        Text, //!< gem5-style name=value lines
        Json, //!< schema-versioned machine-readable document
    };

    /**
     * Render the component-level counters of this system — SSD page
     * buffer, flash array, host caches, PCIe traffic — as a gem5-style
     * stats report (Text) or a schema-versioned JSON document sharing
     * the BENCH_*.json envelope (Json). Call after an experiment.
     */
    void dumpStats(std::ostream &os,
                   StatsFormat format = StatsFormat::Text) const;

    /**
     * The bare `{"stat": value, ...}` object of the JSON stats mode,
     * for embedding into larger documents (design_space --stats-json).
     * @param indent prefix applied to every emitted line
     */
    void dumpStatsJsonMap(std::ostream &os,
                          const std::string &indent) const;

  private:
    SystemConfig config_;
    const Workload &workload_;

    std::unique_ptr<gnn::AnySampler> sampler_;
    std::unique_ptr<BackendInstance> backend_;
    std::unique_ptr<gnn::GpuTimingModel> gpu_;

    struct StatRow
    {
        std::string name;
        double value;
        std::string desc;
    };

    /** All stats rows, graph counters first then backend counters. */
    std::vector<StatRow> statRows() const;
};

} // namespace smartsage::core

#endif // SMARTSAGE_CORE_SYSTEM_HH
