#include "pool_layer.hh"

#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace smartsage::gnn
{

namespace
{

constexpr std::uint32_t no_winner =
    std::numeric_limits<std::uint32_t>::max();

} // namespace

SagePoolLayer::SagePoolLayer(unsigned in_dim, unsigned pool_dim,
                             unsigned out_dim, bool relu, sim::Rng &rng)
    : in_dim_(in_dim), pool_dim_(pool_dim), out_dim_(out_dim),
      relu_(relu)
{
    float s_pool =
        std::sqrt(6.0f / static_cast<float>(in_dim + pool_dim));
    float s_out =
        std::sqrt(6.0f / static_cast<float>(in_dim + out_dim));
    w_pool_ = Tensor2D::uniform(in_dim, pool_dim, s_pool, rng);
    b_pool_ = Tensor2D(1, pool_dim);
    w_self_ = Tensor2D::uniform(in_dim, out_dim, s_out, rng);
    w_neigh_ = Tensor2D::uniform(pool_dim, out_dim, s_out, rng);
    bias_ = Tensor2D(1, out_dim);
}

Tensor2D
SagePoolLayer::forward(const Tensor2D &h_src, const SampledBlock &block,
                       SagePoolContext &ctx) const
{
    SS_ASSERT(h_src.cols() == in_dim_, "pool layer input width mismatch");
    std::size_t n_dst = block.numDsts();
    SS_ASSERT(h_src.rows() >= n_dst,
              "src activations must cover the dst prefix");

    // Pooling MLP over every src activation.
    Tensor2D z_pool = matmul(h_src, w_pool_);
    addBias(z_pool, b_pool_);
    ctx.pool_relu_mask = reluForward(z_pool);

    // Element-wise max over each dst's sampled neighbors.
    Tensor2D pooled(n_dst, pool_dim_);
    ctx.argmax.assign(n_dst * pool_dim_, no_winner);
    for (std::size_t u = 0; u < n_dst; ++u) {
        std::uint32_t lo = block.offsets[u];
        std::uint32_t hi = block.offsets[u + 1];
        if (lo == hi)
            continue; // isolated: pooled stays zero
        auto prow = pooled.row(u);
        for (unsigned c = 0; c < pool_dim_; ++c) {
            float best = -std::numeric_limits<float>::infinity();
            std::uint32_t win = no_winner;
            for (std::uint32_t e = lo; e < hi; ++e) {
                float v = z_pool.at(block.src_index[e], c);
                if (v > best) {
                    best = v;
                    win = e;
                }
            }
            prow[c] = best;
            ctx.argmax[u * pool_dim_ + c] = win;
        }
    }

    // Self term: dsts are the prefix of the src frontier.
    Tensor2D h_self(n_dst, in_dim_);
    for (std::size_t u = 0; u < n_dst; ++u) {
        auto dst = h_self.row(u);
        auto src = h_src.row(u);
        for (unsigned j = 0; j < in_dim_; ++j)
            dst[j] = src[j];
    }

    Tensor2D out = matmul(h_self, w_self_);
    out += matmul(pooled, w_neigh_);
    addBias(out, bias_);

    ctx.h_self = std::move(h_self);
    ctx.h_src = h_src; // copy: backward re-derives the pool gradients
    ctx.pooled = std::move(pooled);
    ctx.block = &block;
    ctx.src_rows = h_src.rows();
    if (relu_)
        ctx.relu_mask = reluForward(out);
    else
        ctx.relu_mask.clear();
    return out;
}

Tensor2D
SagePoolLayer::backward(const Tensor2D &d_out,
                        const SagePoolContext &ctx,
                        SagePoolGrads &grads) const
{
    SS_ASSERT(ctx.block, "backward without forward context");
    const SampledBlock &block = *ctx.block;
    std::size_t n_dst = block.numDsts();
    SS_ASSERT(d_out.rows() == n_dst && d_out.cols() == out_dim_,
              "output grad shape mismatch");

    Tensor2D dz = d_out;
    if (relu_)
        reluBackward(dz, ctx.relu_mask);

    matmulTNPairInto(ctx.h_self, ctx.pooled, dz, grads.w_self,
                     grads.w_neigh);
    grads.bias = Tensor2D(1, out_dim_);
    for (std::size_t u = 0; u < n_dst; ++u) {
        auto zrow = dz.row(u);
        auto brow = grads.bias.row(0);
        for (unsigned j = 0; j < out_dim_; ++j)
            brow[j] += zrow[j];
    }

    Tensor2D d_src(ctx.src_rows, in_dim_);

    // Self path onto the dst prefix.
    Tensor2D d_self = matmulNT(dz, w_self_);
    for (std::size_t u = 0; u < n_dst; ++u) {
        auto drow = d_src.row(u);
        auto srow = d_self.row(u);
        for (unsigned j = 0; j < in_dim_; ++j)
            drow[j] += srow[j];
    }

    // Max routes each pooled gradient to its winning neighbor only.
    Tensor2D d_pooled = matmulNT(dz, w_neigh_);
    Tensor2D d_zpool(ctx.src_rows, pool_dim_);
    for (std::size_t u = 0; u < n_dst; ++u) {
        for (unsigned c = 0; c < pool_dim_; ++c) {
            std::uint32_t e = ctx.argmax[u * pool_dim_ + c];
            if (e == no_winner)
                continue;
            d_zpool.at(block.src_index[e], c) += d_pooled.at(u, c);
        }
    }
    reluBackward(d_zpool, ctx.pool_relu_mask);

    grads.w_pool = matmulTN(ctx.h_src, d_zpool);
    grads.b_pool = Tensor2D(1, pool_dim_);
    for (std::size_t r = 0; r < d_zpool.rows(); ++r) {
        auto row = d_zpool.row(r);
        auto brow = grads.b_pool.row(0);
        for (unsigned c = 0; c < pool_dim_; ++c)
            brow[c] += row[c];
    }

    Tensor2D d_from_pool = matmulNT(d_zpool, w_pool_);
    d_src += d_from_pool;
    return d_src;
}

void
SagePoolLayer::applyGrads(const SagePoolGrads &grads, float lr)
{
    auto step = [lr](Tensor2D &param, const Tensor2D &grad) {
        auto &p = param.data();
        const auto &g = grad.data();
        SS_ASSERT(p.size() == g.size(), "grad shape mismatch in step");
        for (std::size_t i = 0; i < p.size(); ++i)
            p[i] -= lr * g[i];
    };
    step(w_pool_, grads.w_pool);
    step(b_pool_, grads.b_pool);
    step(w_self_, grads.w_self);
    step(w_neigh_, grads.w_neigh);
    step(bias_, grads.bias);
}

} // namespace smartsage::gnn
