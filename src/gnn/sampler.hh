/**
 * @file
 * Neighbor samplers: GraphSAGE fanout sampling (Algorithm 1 of the
 * paper) and GraphSAINT random walks (Section VI-F).
 *
 * Samplers are *functional* — they produce real subgraphs the GNN can
 * train on — and simultaneously *observable*: every memory touch is
 * reported to a SampleVisitor, which is how the storage timing models
 * replay the exact access stream of each design point.
 *
 * Two execution paths produce bit-identical subgraphs:
 *
 *  - the **fast path** (`sampleInto` with a null visitor): frontier
 *    dedup through a reusable epoch-stamped flat table, a caller-owned
 *    SampleScratch arena, and statically dispatched (no-op) visitor
 *    calls — zero allocation and zero virtual dispatch per edge in
 *    steady state;
 *  - the **instrumented path** (non-null visitor): the same algorithm
 *    with every access forwarded through the virtual SampleVisitor
 *    interface, used by the storage timing drivers.
 *
 * The original per-batch `std::unordered_map`/`unordered_set`
 * implementation lives on outside the library, in the test/bench-only
 * reference target (tests/reference), as the baseline the golden tests
 * and `bench/perf_hotpath` compare against.
 */

#ifndef SMARTSAGE_GNN_SAMPLER_HH
#define SMARTSAGE_GNN_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "graph/csr.hh"
#include "sim/flat_table.hh"
#include "sim/random.hh"
#include "subgraph.hh"

namespace smartsage::gnn
{

/** Observer of the sampler's memory access stream. */
class SampleVisitor
{
  public:
    virtual ~SampleVisitor() = default;

    /** A new mini-batch of @p num_targets begins. */
    virtual void onBatchStart(std::size_t num_targets) { (void)num_targets; }

    /** The degree/offset entry of node @p u was read. */
    virtual void onOffsetRead(graph::LocalNodeId u) { (void)u; }

    /**
     * Edge-array entry @p entry_index (absolute index into the neighbor
     * array) was read while sampling node @p u.
     */
    virtual void
    onEdgeEntryRead(graph::LocalNodeId u, std::uint64_t entry_index)
    {
        (void)u;
        (void)entry_index;
    }

    /** Node @p v was chosen as a sampled neighbor of @p u. */
    virtual void
    onSampled(graph::LocalNodeId u, graph::LocalNodeId v)
    {
        (void)u;
        (void)v;
    }

    /** The mini-batch completed. */
    virtual void onBatchEnd() {}
};

/** No-op visitor for functional-only use. */
class NullVisitor final : public SampleVisitor
{
};

/**
 * Reusable per-worker sampling arena. After the first batch against a
 * given graph, sampling through the same scratch performs no heap
 * allocation. One instance per thread — instances are not
 * synchronized.
 */
struct SampleScratch
{
    /** Frontier dedup: node id -> position within the next frontier. */
    sim::FlatEpochTable<std::uint32_t> frontier_index;
    /** Floyd-sampled edge slots of the node being expanded. */
    std::vector<std::uint64_t> picks;
    /** Partial Fisher-Yates pool for selectTargetsInto. */
    std::vector<graph::LocalNodeId> fy_pool;
};

/** Common interface of all mini-batch subgraph samplers. */
class AnySampler
{
  public:
    virtual ~AnySampler() = default;

    /**
     * Sample a subgraph for @p targets into @p out, reusing @p scratch
     * and @p out's buffers (zero steady-state allocation with a null
     * @p visitor; instrumented path when @p visitor is non-null).
     */
    virtual void sampleInto(const graph::CsrGraph &graph,
                            const std::vector<graph::LocalNodeId> &targets,
                            sim::Rng &rng, SampleScratch &scratch,
                            Subgraph &out,
                            SampleVisitor *visitor = nullptr) const = 0;

    /**
     * Convenience wrapper: sample into a fresh Subgraph through a
     * thread-local scratch. Same output as sampleInto.
     */
    Subgraph sample(const graph::CsrGraph &graph,
                    const std::vector<graph::LocalNodeId> &targets,
                    sim::Rng &rng,
                    SampleVisitor *visitor = nullptr) const;
};

/**
 * GraphSAGE sampler: per hop h, sample `fanouts[h]` neighbors of every
 * frontier node (without replacement when the degree allows, Floyd's
 * algorithm; all neighbors when degree <= fanout).
 */
class SageSampler : public AnySampler
{
  public:
    /** @param fanouts per-hop sample sizes, e.g. {25, 10} (paper default) */
    explicit SageSampler(std::vector<unsigned> fanouts);

    void sampleInto(const graph::CsrGraph &graph,
                    const std::vector<graph::LocalNodeId> &targets,
                    sim::Rng &rng, SampleScratch &scratch, Subgraph &out,
                    SampleVisitor *visitor = nullptr) const override;

    const std::vector<unsigned> &fanouts() const { return fanouts_; }

    /** Expected sampled edges per batch (upper bound, full-degree). */
    std::uint64_t expectedEdges(std::size_t batch_size) const;

  private:
    std::vector<unsigned> fanouts_;
};

/**
 * GraphSAINT-style random-walk sampler: from each of the batch's root
 * nodes, walk `walk_length` steps; the visited set induces the
 * subgraph. Produces the same Subgraph/block structure (one block per
 * step) so the training loop and timing drivers are sampler-agnostic.
 */
class SaintSampler : public AnySampler
{
  public:
    explicit SaintSampler(unsigned walk_length);

    void sampleInto(const graph::CsrGraph &graph,
                    const std::vector<graph::LocalNodeId> &roots,
                    sim::Rng &rng, SampleScratch &scratch, Subgraph &out,
                    SampleVisitor *visitor = nullptr) const override;

    unsigned walkLength() const { return walk_length_; }

  private:
    unsigned walk_length_;
};

/**
 * The calling thread's shared sampling arena, used by every
 * convenience wrapper (AnySampler::sample, selectTargets, the parallel
 * pipeline's workers) so a thread holds exactly one O(numNodes) dedup
 * table no matter how many entry points it mixes.
 */
SampleScratch &threadSampleScratch();

/**
 * Uniformly draw @p count distinct target nodes for a mini-batch into
 * @p out, reusing @p scratch. Sparse batches use epoch-stamped
 * rejection sampling; once @p count approaches numNodes() (where
 * rejection degrades to coupon-collector behavior) it switches to a
 * partial Fisher-Yates shuffle over the scratch's index pool.
 */
void selectTargetsInto(const graph::CsrGraph &graph, std::size_t count,
                       sim::Rng &rng, SampleScratch &scratch,
                       std::vector<graph::LocalNodeId> &out);

/** Convenience wrapper over selectTargetsInto (thread-local scratch). */
std::vector<graph::LocalNodeId> selectTargets(const graph::CsrGraph &graph,
                                              std::size_t count,
                                              sim::Rng &rng);

} // namespace smartsage::gnn

#endif // SMARTSAGE_GNN_SAMPLER_HH
