#include "gpu_model.hh"

#include "layers.hh"
#include "sim/logging.hh"

namespace smartsage::gnn
{

GpuTimingModel::GpuTimingModel(const GpuConfig &config,
                               const ModelConfig &model)
    : config_(config), model_(model)
{
    SS_ASSERT(config.effective_tflops > 0.0, "GPU throughput must be > 0");
}

std::uint64_t
GpuTimingModel::forwardMacs(std::span<const BlockShape> blocks) const
{
    std::uint64_t total = 0;
    for (std::size_t l = 0; l < model_.depth; ++l) {
        unsigned in = (l == 0) ? model_.in_dim : model_.hidden_dim;
        unsigned out = (l + 1 == model_.depth) ? model_.num_classes
                                               : model_.hidden_dim;
        const BlockShape &block = blocks[blocks.size() - 1 - l];
        total += SageMeanLayer::forwardMacs(block.dsts, in, out);
        // Aggregation: in_dim adds per sampled edge.
        total += block.edges * in;
    }
    return total;
}

std::uint64_t
GpuTimingModel::forwardMacs(const Subgraph &sg) const
{
    return forwardMacs(sg.blockShapes());
}

sim::Tick
GpuTimingModel::batchTime(std::span<const BlockShape> blocks) const
{
    double macs = static_cast<double>(forwardMacs(blocks)) *
                  config_.fwd_bwd_factor;
    double seconds = macs / (config_.effective_tflops * 1e12);
    return config_.launch_overhead + sim::sec(seconds);
}

sim::Tick
GpuTimingModel::batchTime(const Subgraph &sg) const
{
    return batchTime(sg.blockShapes());
}

} // namespace smartsage::gnn
