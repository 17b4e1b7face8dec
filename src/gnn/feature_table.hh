/**
 * @file
 * Node feature table and labels.
 *
 * Features are generated deterministically from (seed, node, column) so
 * that a billion-node table costs no storage — gather materializes rows
 * on demand. A class-dependent centroid is mixed in so the features are
 * actually informative of the labels and training measurably learns.
 */

#ifndef SMARTSAGE_GNN_FEATURE_TABLE_HH
#define SMARTSAGE_GNN_FEATURE_TABLE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hh"
#include "tensor.hh"

namespace smartsage::gnn
{

/** Virtual feature/label store for a graph's nodes. */
class FeatureTable
{
  public:
    /**
     * @param num_nodes   table height
     * @param dim         feature vector width
     * @param num_classes label cardinality
     * @param seed        generation seed
     */
    FeatureTable(std::uint64_t num_nodes, unsigned dim,
                 unsigned num_classes, std::uint64_t seed = 99);

    /** Materialize feature rows for @p nodes into @p out, in row
     *  blocks on the kernel pool (parallelRows): each row's values
     *  depend only on its node, so any thread count gives the same
     *  bits. */
    void gather(std::span<const graph::LocalNodeId> nodes,
                Tensor2D &out) const;

    /** Ground-truth class of @p u. */
    std::uint32_t label(graph::LocalNodeId u) const;

    /** Labels for a node list. */
    std::vector<std::uint32_t>
    labels(std::span<const graph::LocalNodeId> nodes) const;

    /** labels() into a caller-owned buffer (capacity reused). */
    void labelsInto(std::span<const graph::LocalNodeId> nodes,
                    std::vector<std::uint32_t> &out) const;

    unsigned dim() const { return dim_; }
    unsigned numClasses() const { return num_classes_; }
    std::uint64_t numNodes() const { return num_nodes_; }

    /** Bytes of one row as stored (fp32). */
    std::uint64_t bytesPerNode() const { return std::uint64_t(dim_) * 4; }

  private:
    std::uint64_t num_nodes_;
    unsigned dim_;
    unsigned num_classes_;
    std::uint64_t seed_;
    /** Cached raw class centroid rows (num_classes x dim). */
    std::vector<float> centroid_;

    float element(std::uint64_t node, unsigned col) const;
};

} // namespace smartsage::gnn

#endif // SMARTSAGE_GNN_FEATURE_TABLE_HH
