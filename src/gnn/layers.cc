#include "layers.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace smartsage::gnn
{

namespace
{

/**
 * Mask the rows x cols gradient @p dz by the ReLU @p mask (null for a
 * linear layer) and add each row into @p bias_sum, rows in order.
 * Branch-free over restrict-qualified pointers so both loops vectorize.
 */
void
maskAndSumRows(float *__restrict dz, const char *__restrict mask,
               float *__restrict bias_sum, std::size_t rows,
               std::size_t cols)
{
    for (std::size_t u = 0; u < rows; ++u, dz += cols) {
        if (mask) {
            for (std::size_t j = 0; j < cols; ++j)
                dz[j] = mask[j] ? dz[j] : 0.0f;
            mask += cols;
        }
        for (std::size_t j = 0; j < cols; ++j)
            bias_sum[j] += dz[j];
    }
}

} // namespace

SageMeanLayer::SageMeanLayer(unsigned in_dim, unsigned out_dim, bool relu,
                             sim::Rng &rng)
    : in_dim_(in_dim), out_dim_(out_dim), relu_(relu)
{
    float scale =
        std::sqrt(6.0f / static_cast<float>(in_dim + out_dim));
    w_self_ = Tensor2D::uniform(in_dim, out_dim, scale, rng);
    w_neigh_ = Tensor2D::uniform(in_dim, out_dim, scale, rng);
    bias_ = Tensor2D(1, out_dim);
}

Tensor2D
SageMeanLayer::forward(const Tensor2D &h_src, const SampledBlock &block,
                       SageContext &ctx) const
{
    Tensor2D out;
    forwardInto(h_src, block, ctx, out);
    return out;
}

void
SageMeanLayer::forwardInto(const Tensor2D &h_src,
                           const SampledBlock &block, SageContext &ctx,
                           Tensor2D &out) const
{
    SS_ASSERT(h_src.cols() == in_dim_, "layer input width mismatch");
    std::size_t n_dst = block.numDsts();
    SS_ASSERT(h_src.rows() >= n_dst,
              "src activations must cover the dst prefix");

    // Self term: dsts are the prefix of the src frontier, so the self
    // rows are one contiguous copy. Each task copies its row block in
    // the same pass that mean-aggregates it, every h_agg row written
    // once (rowMean).
    const std::size_t dim = in_dim_;
    const float *src = h_src.data().data();
    ctx.h_self.resizeTo(n_dst, dim);
    ctx.h_agg.resizeTo(n_dst, dim);
    float *self = ctx.h_self.data().data();
    float *agg = ctx.h_agg.data().data();
    parallelRows(n_dst, [&](std::size_t u0, std::size_t u1) {
        std::copy(src + u0 * dim, src + u1 * dim, self + u0 * dim);
        for (std::size_t u = u0; u < u1; ++u) {
            const std::uint32_t lo = block.offsets[u];
            rowMean(agg + u * dim, src, block.src_index.data() + lo,
                    block.offsets[u + 1] - lo, dim);
        }
    });

    matmulInto(ctx.h_self, w_self_, out);
    matmulAccumulate(ctx.h_agg, w_neigh_, out);
    if (relu_) {
        addBiasReluInto(out, bias_, ctx.relu_mask);
    } else {
        addBias(out, bias_);
        ctx.relu_mask.clear();
    }

    ctx.block = &block;
    ctx.src_rows = h_src.rows();
}

Tensor2D
SageMeanLayer::backward(const Tensor2D &d_out, const SageContext &ctx,
                        SageLayerGrads &grads) const
{
    Tensor2D dz = d_out; // copy; masked in place by backwardInto
    Tensor2D d_src;
    backwardInto(dz, ctx, grads, d_src);
    return d_src;
}

void
SageMeanLayer::backwardInto(Tensor2D &d_out, const SageContext &ctx,
                            SageLayerGrads &grads, Tensor2D &d_src) const
{
    SS_ASSERT(ctx.block, "backward without forward context");
    const SampledBlock &block = *ctx.block;
    std::size_t n_dst = block.numDsts();
    SS_ASSERT(d_out.rows() == n_dst && d_out.cols() == out_dim_,
              "output grad shape mismatch");

    // One pass masks dz by the ReLU and sums it into the bias
    // gradient. It stays serial and in row order, so each bias sum
    // rounds as it always did.
    grads.bias.resizeToZero(1, out_dim_);
    maskAndSumRows(d_out.data().data(),
                   relu_ ? ctx.relu_mask.data() : nullptr,
                   grads.bias.data().data(), n_dst, out_dim_);
    const Tensor2D &dz = d_out;

    // Weight gradients, both in one pass over dz.
    matmulTNPairInto(ctx.h_self, ctx.h_agg, dz, grads.w_self,
                     grads.w_neigh);
    if (!input_grad_)
        return;

    // Input gradients: self path lands on the dst prefix rows; the
    // aggregation path scatters 1/deg shares to every sampled src.
    const std::size_t dim = in_dim_;
    matmulNTInto(dz, w_self_, ctx.d_self_ws);
    d_src.resizeTo(ctx.src_rows, dim);
    float *dst = d_src.data().data();
    std::copy_n(ctx.d_self_ws.data().data(), n_dst * dim, dst);
    std::fill(dst + n_dst * dim, dst + ctx.src_rows * dim, 0.0f);

    matmulNTInto(dz, w_neigh_, ctx.d_agg_ws);
    float *aggdata = ctx.d_agg_ws.data().data();
    for (std::size_t u = 0; u < n_dst; ++u) {
        std::uint32_t lo = block.offsets[u];
        std::uint32_t hi = block.offsets[u + 1];
        if (lo == hi)
            continue;
        float inv = 1.0f / static_cast<float>(hi - lo);
        float *arow = aggdata + u * dim;
        // Pre-scale the dst row once, then scatter plain adds: one
        // multiply per element instead of one per (edge, element).
        for (std::size_t j = 0; j < dim; ++j)
            arow[j] *= inv;
        for (std::uint32_t e = lo; e < hi; ++e)
            rowAccumulate(dst + block.src_index[e] * dim, arow, dim);
    }
}

void
SageMeanLayer::applyGrads(const SageLayerGrads &grads, float lr)
{
    auto step = [lr](Tensor2D &param, const Tensor2D &grad) {
        auto &p = param.data();
        const auto &g = grad.data();
        SS_ASSERT(p.size() == g.size(), "grad shape mismatch in step");
        for (std::size_t i = 0; i < p.size(); ++i)
            p[i] -= lr * g[i];
    };
    step(w_self_, grads.w_self);
    step(w_neigh_, grads.w_neigh);
    step(bias_, grads.bias);
}

void
SageMeanLayer::saveState(sim::ByteWriter &writer) const
{
    w_self_.saveState(writer);
    w_neigh_.saveState(writer);
    bias_.saveState(writer);
}

void
SageMeanLayer::loadState(sim::ByteReader &reader)
{
    Tensor2D loaded;
    const auto check = [&](Tensor2D &param, const char *what) {
        loaded.loadState(reader);
        if (loaded.rows() != param.rows() ||
            loaded.cols() != param.cols())
            throw sim::SerializeError(
                std::string("layer checkpoint shape mismatch in ") +
                what);
        param = loaded;
    };
    check(w_self_, "w_self");
    check(w_neigh_, "w_neigh");
    check(bias_, "bias");
}

std::uint64_t
SageMeanLayer::forwardMacs(std::uint64_t num_dsts, unsigned in_dim,
                           unsigned out_dim)
{
    // Two GEMMs (self + neighbor) of num_dsts x in_dim x out_dim.
    return 2ULL * num_dsts * in_dim * out_dim;
}

} // namespace smartsage::gnn
