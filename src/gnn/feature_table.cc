#include "feature_table.hh"

#include "sim/logging.hh"

namespace smartsage::gnn
{

namespace
{

std::uint64_t
hashMix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/** Map a 64-bit hash to [-1, 1). */
float
toUnit(std::uint64_t h)
{
    return static_cast<float>(
        static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0);
}

} // namespace

FeatureTable::FeatureTable(std::uint64_t num_nodes, unsigned dim,
                           unsigned num_classes, std::uint64_t seed)
    : num_nodes_(num_nodes), dim_(dim), num_classes_(num_classes),
      seed_(seed)
{
    SS_ASSERT(num_nodes > 0 && dim > 0 && num_classes > 1,
              "degenerate feature table shape");
    // The class centroid depends only on (label, col): precompute the
    // centroid rows once so gather() hashes once per element instead
    // of three times. Raw (unscaled) values are cached so the per-
    // element arithmetic — and therefore every generated feature —
    // stays exactly what it was before the cache existed.
    centroid_.resize(std::size_t(num_classes_) * dim_);
    for (unsigned y = 0; y < num_classes_; ++y) {
        for (unsigned j = 0; j < dim_; ++j)
            centroid_[std::size_t(y) * dim_ + j] =
                toUnit(hashMix(seed_ ^ 0xc1a55ULL ^
                               (std::uint64_t(y) << 32) ^ j));
    }
}

std::uint32_t
FeatureTable::label(graph::LocalNodeId u) const
{
    SS_ASSERT(u < num_nodes_, "node ", u, " out of range");
    return static_cast<std::uint32_t>(hashMix(seed_ ^ (u * 31 + 7)) %
                                      num_classes_);
}

float
FeatureTable::element(std::uint64_t node, unsigned col) const
{
    // Base noise per (node, col), plus a class centroid per (label,
    // col) so classes are linearly separable in expectation. Must stay
    // in lockstep with the loop in gather().
    float noise = toUnit(hashMix(seed_ ^ (node << 20) ^ col));
    std::uint32_t y = static_cast<std::uint32_t>(
        hashMix(seed_ ^ (node * 31 + 7)) % num_classes_);
    return 0.5f * noise + 0.8f * centroid_[std::size_t(y) * dim_ + col];
}

void
FeatureTable::gather(std::span<const graph::LocalNodeId> nodes,
                     Tensor2D &out) const
{
    out.resizeTo(nodes.size(), dim_); // every element written below
    parallelRows(nodes.size(), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
            const std::uint64_t node = nodes[i];
            SS_ASSERT(node < num_nodes_, "node out of range in gather");
            auto row = out.row(i);
            const std::uint32_t y = static_cast<std::uint32_t>(
                hashMix(seed_ ^ (node * 31 + 7)) % num_classes_);
            const float *crow = centroid_.data() + std::size_t(y) * dim_;
            const std::uint64_t base = seed_ ^ (node << 20);
            for (unsigned j = 0; j < dim_; ++j)
                row[j] =
                    0.5f * toUnit(hashMix(base ^ j)) + 0.8f * crow[j];
        }
    });
}

std::vector<std::uint32_t>
FeatureTable::labels(std::span<const graph::LocalNodeId> nodes) const
{
    std::vector<std::uint32_t> out;
    labelsInto(nodes, out);
    return out;
}

void
FeatureTable::labelsInto(std::span<const graph::LocalNodeId> nodes,
                         std::vector<std::uint32_t> &out) const
{
    out.clear();
    out.reserve(nodes.size());
    for (auto u : nodes)
        out.push_back(label(u));
}

} // namespace smartsage::gnn
