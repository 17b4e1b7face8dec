/**
 * @file
 * Analytic GPU training-time model for the backend GNN stages.
 *
 * The paper's backend (steps 4-5 of Fig 1) runs dense MLP math on a
 * Tesla T4; its duration depends only on subgraph shape and layer
 * widths, not on where the edge list lives. We therefore model it
 * analytically from MAC counts at an effective throughput, plus a
 * fixed kernel-launch overhead.
 */

#ifndef SMARTSAGE_GNN_GPU_MODEL_HH
#define SMARTSAGE_GNN_GPU_MODEL_HH

#include <cstdint>
#include <span>

#include "model.hh"
#include "sim/types.hh"
#include "subgraph.hh"

namespace smartsage::gnn
{

/** GPU execution-time parameters. */
struct GpuConfig
{
    double effective_tflops = 0.5; //!< sustained fp32 MACs/s x 1e12
    sim::Tick launch_overhead = sim::us(3500); //!< kernel launches + optimizer step
    double fwd_bwd_factor = 3.0;   //!< backward ~ 2x forward compute
};

/** Analytic timing of the GPU training stage. */
class GpuTimingModel
{
  public:
    GpuTimingModel(const GpuConfig &config, const ModelConfig &model);

    /** Wall time of forward+backward+update for @p sg. */
    sim::Tick batchTime(const Subgraph &sg) const;

    /** batchTime of a subgraph whose blocks have shapes @p blocks. */
    sim::Tick batchTime(std::span<const BlockShape> blocks) const;

    /** Total MACs of one forward pass over @p sg. */
    std::uint64_t forwardMacs(const Subgraph &sg) const;

    /** forwardMacs of a subgraph whose blocks have shapes @p blocks. */
    std::uint64_t forwardMacs(std::span<const BlockShape> blocks) const;

    const GpuConfig &config() const { return config_; }

  private:
    GpuConfig config_;
    ModelConfig model_;
};

} // namespace smartsage::gnn

#endif // SMARTSAGE_GNN_GPU_MODEL_HH
