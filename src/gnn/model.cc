#include "model.hh"

#include "sim/logging.hh"
#include "sim/random.hh"

namespace smartsage::gnn
{

SageModel::SageModel(const ModelConfig &config) : config_(config)
{
    SS_ASSERT(config.depth >= 1, "model needs at least one layer");
    sim::Rng rng(config.seed);
    for (unsigned l = 0; l < config.depth; ++l) {
        unsigned in = (l == 0) ? config.in_dim : config.hidden_dim;
        unsigned out = (l + 1 == config.depth) ? config.num_classes
                                               : config.hidden_dim;
        bool relu = (l + 1 != config.depth);
        layers_.emplace_back(in, out, relu, rng);
    }
    // The input layer's h_src is raw features: no gradient needed.
    layers_.front().setNeedsInputGrad(false);
}

const Tensor2D &
SageModel::runForward(const Subgraph &sg, const FeatureTable &ft,
                      std::vector<SageContext> &ctxs, Tensor2D &act_a,
                      Tensor2D &act_b) const
{
    SS_ASSERT(sg.depth() == config_.depth,
              "subgraph depth ", sg.depth(), " != model depth ",
              config_.depth);
    SS_ASSERT(ft.dim() == config_.in_dim, "feature width mismatch");

    ctxs.resize(layers_.size());

    // Layer l consumes block[depth-1-l]: the deepest hop feeds the
    // first layer. Activations ping-pong between the two buffers.
    ft.gather(sg.inputNodes(), act_a);
    Tensor2D *cur = &act_a, *nxt = &act_b;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const SampledBlock &block = sg.blocks[sg.depth() - 1 - l];
        layers_[l].forwardInto(*cur, block, ctxs[l], *nxt);
        std::swap(cur, nxt);
    }
    return *cur;
}

Tensor2D
SageModel::forward(const Subgraph &sg, const FeatureTable &ft,
                   std::vector<SageContext> *ctxs) const
{
    std::vector<SageContext> local;
    Tensor2D act_a, act_b;
    const Tensor2D &out =
        runForward(sg, ft, ctxs ? *ctxs : local, act_a, act_b);
    return &out == &act_a ? std::move(act_a) : std::move(act_b);
}

double
SageModel::trainStep(const Subgraph &sg, const FeatureTable &ft)
{
    // Hot path: every buffer below is a member workspace, so a warm
    // trainStep allocates nothing.
    const Tensor2D &logits = runForward(sg, ft, ctxs_, act_a_, act_b_);

    ft.labelsInto(sg.targets(), labels_ws_);
    double loss = softmaxCrossEntropy(logits, labels_ws_, grad_a_);

    // Backward through the stack; gradients apply immediately (plain
    // SGD, single worker semantics). Layer 0 leaves *dn untouched: it
    // computes no input gradient.
    Tensor2D *d = &grad_a_, *dn = &grad_b_;
    for (std::size_t l = layers_.size(); l-- > 0;) {
        layers_[l].backwardInto(*d, ctxs_[l], grads_ws_, *dn);
        layers_[l].applyGrads(grads_ws_, config_.learning_rate);
        std::swap(d, dn);
    }
    return loss;
}

double
SageModel::evaluate(const Subgraph &sg, const FeatureTable &ft) const
{
    Tensor2D logits = forward(sg, ft, nullptr);
    auto labels = ft.labels(sg.targets());
    auto preds = argmaxRows(logits);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
        if (preds[i] == labels[i])
            ++correct;
    }
    return preds.empty()
               ? 0.0
               : static_cast<double>(correct) / preds.size();
}

std::uint64_t
SageModel::parameterCount() const
{
    std::uint64_t total = 0;
    for (const auto &l : layers_) {
        total += 2ULL * l.inDim() * l.outDim(); // W_self + W_neigh
        total += l.outDim();                    // bias
    }
    return total;
}

void
SageModel::saveState(sim::ByteWriter &writer) const
{
    // Fingerprint: a checkpoint only resumes into an identically
    // shaped model (same dims, depth, lr, init seed).
    writer.u32(config_.in_dim);
    writer.u32(config_.hidden_dim);
    writer.u32(config_.num_classes);
    writer.u32(config_.depth);
    writer.f32(config_.learning_rate);
    writer.u64(config_.seed);
    for (const auto &layer : layers_)
        layer.saveState(writer);
}

void
SageModel::loadState(sim::ByteReader &reader)
{
    const std::uint32_t in_dim = reader.u32();
    const std::uint32_t hidden = reader.u32();
    const std::uint32_t classes = reader.u32();
    const std::uint32_t depth = reader.u32();
    const float lr = reader.f32();
    const std::uint64_t seed = reader.u64();
    if (in_dim != config_.in_dim || hidden != config_.hidden_dim ||
        classes != config_.num_classes || depth != config_.depth ||
        lr != config_.learning_rate || seed != config_.seed)
        throw sim::SerializeError(
            "model checkpoint fingerprint mismatch: saved for a "
            "differently configured model");
    for (auto &layer : layers_)
        layer.loadState(reader);
}

std::uint64_t
SageModel::stateHash() const
{
    sim::ByteWriter writer;
    saveState(writer);
    return sim::fnv1a64(writer.buffer().data(), writer.buffer().size());
}

} // namespace smartsage::gnn
