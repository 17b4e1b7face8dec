#include "reference.hh"

#include <unordered_map>
#include <unordered_set>

#include "sim/logging.hh"

namespace smartsage::ref
{

namespace
{

/**
 * Draw @p want distinct indices out of [0, degree) with Floyd's
 * algorithm through a per-call unordered_set.
 */
void
sampleDistinctBaseline(std::uint64_t degree, unsigned want, sim::Rng &rng,
                       std::vector<std::uint64_t> &out)
{
    out.clear();
    std::unordered_set<std::uint64_t> chosen;
    for (std::uint64_t j = degree - want; j < degree; ++j) {
        std::uint64_t t = rng.nextBounded(j + 1);
        if (chosen.insert(t).second) {
            out.push_back(t);
        } else {
            chosen.insert(j);
            out.push_back(j);
        }
    }
}

/** Grow the next frontier, preserving the self-prefix property. */
class FrontierBuilder
{
  public:
    explicit FrontierBuilder(const std::vector<graph::LocalNodeId> &prev)
    {
        nodes_ = prev; // prefix copy: self embeddings
        for (std::size_t i = 0; i < prev.size(); ++i)
            index_[prev[i]] = static_cast<std::uint32_t>(i);
    }

    std::uint32_t
    indexOf(graph::LocalNodeId v)
    {
        auto [it, inserted] = index_.try_emplace(
            v, static_cast<std::uint32_t>(nodes_.size()));
        if (inserted)
            nodes_.push_back(v);
        return it->second;
    }

    std::vector<graph::LocalNodeId> take() { return std::move(nodes_); }

  private:
    std::vector<graph::LocalNodeId> nodes_;
    std::unordered_map<graph::LocalNodeId, std::uint32_t> index_;
};

} // namespace

gnn::Subgraph
sampleBaseline(const gnn::SageSampler &sampler, const graph::CsrGraph &graph,
               const std::vector<graph::LocalNodeId> &targets, sim::Rng &rng,
               gnn::SampleVisitor *visitor)
{
    SS_ASSERT(!targets.empty(), "empty target batch");
    gnn::NullVisitor null_visitor;
    if (!visitor)
        visitor = &null_visitor;

    visitor->onBatchStart(targets.size());

    gnn::Subgraph sg;
    sg.frontiers.push_back(targets);

    std::vector<std::uint64_t> picks;
    for (unsigned fanout : sampler.fanouts()) {
        const auto &frontier = sg.frontiers.back();
        FrontierBuilder next(frontier);
        gnn::SampledBlock block;
        block.offsets.reserve(frontier.size() + 1);
        block.offsets.push_back(0);

        for (graph::LocalNodeId u : frontier) {
            visitor->onOffsetRead(u);
            std::uint64_t degree = graph.degree(u);
            std::uint64_t base = graph.edgeOffset(u);
            auto nbrs = graph.neighbors(u);

            if (degree == 0) {
                block.offsets.push_back(
                    static_cast<std::uint32_t>(block.src_index.size()));
                continue;
            }

            if (degree <= fanout) {
                // Take the whole neighborhood.
                for (std::uint64_t j = 0; j < degree; ++j) {
                    visitor->onEdgeEntryRead(u, base + j);
                    graph::LocalNodeId v = nbrs[j];
                    visitor->onSampled(u, v);
                    block.src_index.push_back(next.indexOf(v));
                }
            } else {
                sampleDistinctBaseline(degree, fanout, rng, picks);
                for (std::uint64_t j : picks) {
                    visitor->onEdgeEntryRead(u, base + j);
                    graph::LocalNodeId v = nbrs[j];
                    visitor->onSampled(u, v);
                    block.src_index.push_back(next.indexOf(v));
                }
            }
            block.offsets.push_back(
                static_cast<std::uint32_t>(block.src_index.size()));
        }

        sg.blocks.push_back(std::move(block));
        sg.frontiers.push_back(next.take());
    }

    visitor->onBatchEnd();
    return sg;
}

gnn::Subgraph
sampleBaseline(const gnn::SaintSampler &sampler, const graph::CsrGraph &graph,
               const std::vector<graph::LocalNodeId> &roots, sim::Rng &rng,
               gnn::SampleVisitor *visitor)
{
    SS_ASSERT(!roots.empty(), "empty root batch");
    gnn::NullVisitor null_visitor;
    if (!visitor)
        visitor = &null_visitor;

    visitor->onBatchStart(roots.size());

    gnn::Subgraph sg;
    sg.frontiers.push_back(roots);

    for (unsigned step = 0; step < sampler.walkLength(); ++step) {
        const auto &frontier = sg.frontiers.back();
        FrontierBuilder next(frontier);
        gnn::SampledBlock block;
        block.offsets.reserve(frontier.size() + 1);
        block.offsets.push_back(0);

        for (graph::LocalNodeId u : frontier) {
            visitor->onOffsetRead(u);
            std::uint64_t degree = graph.degree(u);
            if (degree == 0) {
                block.offsets.push_back(
                    static_cast<std::uint32_t>(block.src_index.size()));
                continue;
            }
            std::uint64_t j = rng.nextBounded(degree);
            visitor->onEdgeEntryRead(u, graph.edgeOffset(u) + j);
            graph::LocalNodeId v = graph.neighbors(u)[j];
            visitor->onSampled(u, v);
            block.src_index.push_back(next.indexOf(v));
            block.offsets.push_back(
                static_cast<std::uint32_t>(block.src_index.size()));
        }

        sg.blocks.push_back(std::move(block));
        sg.frontiers.push_back(next.take());
    }

    visitor->onBatchEnd();
    return sg;
}

} // namespace smartsage::ref
