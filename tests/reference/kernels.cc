#include "reference.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace smartsage::ref
{

using gnn::Tensor2D;

void
matmulNaive(const Tensor2D &a, const Tensor2D &b, Tensor2D &c)
{
    SS_ASSERT(a.cols() == b.rows() && c.rows() == a.rows() &&
                  c.cols() == b.cols(),
              "matmulNaive shape mismatch");
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            float aik = a.at(i, k);
            if (aik == 0.0f)
                continue;
            auto brow = b.row(k);
            auto crow = c.row(i);
            for (std::size_t j = 0; j < b.cols(); ++j)
                crow[j] += aik * brow[j];
        }
    }
}

Tensor2D
matmulNaive(const Tensor2D &a, const Tensor2D &b)
{
    Tensor2D c(a.rows(), b.cols());
    matmulNaive(a, b, c);
    return c;
}

Tensor2D
matmulTNNaive(const Tensor2D &a, const Tensor2D &b)
{
    SS_ASSERT(a.rows() == b.rows(), "matmulTNNaive shape mismatch");
    Tensor2D c(a.cols(), b.cols());
    for (std::size_t k = 0; k < a.rows(); ++k) {
        auto arow = a.row(k);
        auto brow = b.row(k);
        for (std::size_t i = 0; i < a.cols(); ++i) {
            float aki = arow[i];
            if (aki == 0.0f)
                continue;
            auto crow = c.row(i);
            for (std::size_t j = 0; j < b.cols(); ++j)
                crow[j] += aki * brow[j];
        }
    }
    return c;
}

Tensor2D
matmulNTNaive(const Tensor2D &a, const Tensor2D &b)
{
    SS_ASSERT(a.cols() == b.cols(), "matmulNTNaive shape mismatch");
    Tensor2D c(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        auto arow = a.row(i);
        for (std::size_t j = 0; j < b.rows(); ++j) {
            auto brow = b.row(j);
            float acc = 0.0f;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += arow[k] * brow[k];
            c.at(i, j) = acc;
        }
    }
    return c;
}

void
aggregateNaive(const Tensor2D &h_src, const gnn::SampledBlock &block,
               Tensor2D &agg)
{
    const std::size_t dim = h_src.cols();
    agg.resizeToZero(block.numDsts(), dim);
    for (std::size_t u = 0; u < block.numDsts(); ++u) {
        std::uint32_t lo = block.offsets[u];
        std::uint32_t hi = block.offsets[u + 1];
        if (lo == hi)
            continue; // isolated node: aggregate stays zero
        auto arow = agg.row(u);
        for (std::uint32_t e = lo; e < hi; ++e) {
            auto srow = h_src.row(block.src_index[e]);
            for (std::size_t j = 0; j < dim; ++j)
                arow[j] += srow[j];
        }
        float inv = 1.0f / static_cast<float>(hi - lo);
        for (std::size_t j = 0; j < dim; ++j)
            arow[j] *= inv;
    }
}

void
rowMeanEdgeByEdge(float *dst, const float *rows, const std::uint32_t *index,
                  std::size_t deg, std::size_t n)
{
    if (deg == 0) {
        for (std::size_t j = 0; j < n; ++j)
            dst[j] = 0.0f;
        return;
    }
    const float *first = rows + index[0] * n;
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = first[j];
    if (deg == 1)
        return;
    for (std::size_t e = 1; e + 1 < deg; ++e) {
        const float *src = rows + index[e] * n;
        for (std::size_t j = 0; j < n; ++j)
            dst[j] += src[j];
    }
    const float inv = 1.0f / static_cast<float>(deg);
    const float *last = rows + index[deg - 1] * n;
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = (dst[j] + last[j]) * inv;
}

LayerPass
sageLayerNaive(const gnn::SageMeanLayer &layer, const Tensor2D &h_src,
               const gnn::SampledBlock &block, const Tensor2D &d_out)
{
    const std::size_t n_dst = block.numDsts();
    const std::size_t in_dim = layer.inDim(), out_dim = layer.outDim();
    SS_ASSERT(h_src.cols() == in_dim && h_src.rows() >= n_dst,
              "sageLayerNaive input shape mismatch");
    SS_ASSERT(d_out.rows() == n_dst && d_out.cols() == out_dim,
              "sageLayerNaive output grad shape mismatch");

    // Forward: out = act(h_self * W_self + mean(h_srcs) * W_neigh + b).
    // The dsts are the prefix of the src frontier.
    Tensor2D h_self(n_dst, in_dim);
    std::copy_n(h_src.data().begin(), n_dst * in_dim, h_self.data().begin());
    Tensor2D h_agg;
    aggregateNaive(h_src, block, h_agg);

    LayerPass pass;
    pass.out = matmulNaive(h_self, layer.wSelf());
    matmulNaive(h_agg, layer.wNeigh(), pass.out);
    Tensor2D dz = d_out;
    for (std::size_t u = 0; u < n_dst; ++u) {
        for (std::size_t j = 0; j < out_dim; ++j) {
            float &v = pass.out.at(u, j);
            v += layer.biasRow().at(0, j);
            if (layer.hasRelu() && !(v > 0.0f)) {
                v = 0.0f;
                dz.at(u, j) = 0.0f;
            }
        }
    }

    // Backward: parameter gradients from the masked output gradient.
    pass.grads.bias = Tensor2D(1, out_dim);
    for (std::size_t u = 0; u < n_dst; ++u)
        for (std::size_t j = 0; j < out_dim; ++j)
            pass.grads.bias.at(0, j) += dz.at(u, j);
    pass.grads.w_self = matmulTNNaive(h_self, dz);
    pass.grads.w_neigh = matmulTNNaive(h_agg, dz);

    // Input gradient: the self path lands on the dst prefix rows, the
    // aggregate path spreads 1/deg of each dst row over its srcs.
    const Tensor2D d_self = matmulNTNaive(dz, layer.wSelf());
    const Tensor2D d_agg = matmulNTNaive(dz, layer.wNeigh());
    pass.d_src = Tensor2D(h_src.rows(), in_dim);
    for (std::size_t u = 0; u < n_dst; ++u) {
        for (std::size_t j = 0; j < in_dim; ++j)
            pass.d_src.at(u, j) = d_self.at(u, j);
    }
    for (std::size_t u = 0; u < n_dst; ++u) {
        std::uint32_t lo = block.offsets[u];
        std::uint32_t hi = block.offsets[u + 1];
        if (lo == hi)
            continue;
        float inv = 1.0f / static_cast<float>(hi - lo);
        for (std::uint32_t e = lo; e < hi; ++e) {
            auto srow = pass.d_src.row(block.src_index[e]);
            for (std::size_t j = 0; j < in_dim; ++j)
                srow[j] += d_agg.at(u, j) * inv;
        }
    }
    return pass;
}

} // namespace smartsage::ref
