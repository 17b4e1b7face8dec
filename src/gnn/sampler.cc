#include "sampler.hh"

#include <numeric>
#include <unordered_set>

#include "sim/logging.hh"

namespace smartsage::gnn
{

namespace
{

// ------------------------------------------------------------------
// The sampler cores take the visitor as a concrete type, so with
// NoopVisitor every per-edge callback compiles away entirely and with
// TraceRecorder it is an inline append.
// ------------------------------------------------------------------

/** Statically dispatched no-op visitor (null visitor). */
struct NoopVisitor
{
    void onBatchStart(std::size_t) {}
    void onOffsetRead(graph::LocalNodeId) {}
    void onEdgeEntryRead(graph::LocalNodeId, std::uint64_t) {}
    void onSampled(graph::LocalNodeId, graph::LocalNodeId) {}
    void onBatchEnd() {}
};

/** Fills a visitor's SampleTrace inline; only the batch boundaries
 *  reach the visitor itself. */
struct TraceRecorder
{
    SampleVisitor &v;
    SampleTrace &trace;

    void onBatchStart(std::size_t n) { v.onBatchStart(n); }

    void onOffsetRead(graph::LocalNodeId u) { trace.beginNode(u); }
    void
    onEdgeEntryRead(graph::LocalNodeId, std::uint64_t e)
    {
        trace.addEntry(e);
    }
    void onSampled(graph::LocalNodeId, graph::LocalNodeId) {}
    void onBatchEnd() { v.onBatchEnd(); }
};

/** Forwards every access to the virtual SampleVisitor. */
struct ForwardingVisitor
{
    SampleVisitor &v;

    void onBatchStart(std::size_t n) { v.onBatchStart(n); }
    void onOffsetRead(graph::LocalNodeId u) { v.onOffsetRead(u); }
    void
    onEdgeEntryRead(graph::LocalNodeId u, std::uint64_t e)
    {
        v.onEdgeEntryRead(u, e);
    }
    void
    onSampled(graph::LocalNodeId u, graph::LocalNodeId w)
    {
        v.onSampled(u, w);
    }
    void onBatchEnd() { v.onBatchEnd(); }
};

/**
 * Run @p core with the statically dispatched visitor that reports to
 * @p visitor: none, its trace, or its virtual callbacks.
 */
template <typename Core>
void
withVisitor(SampleVisitor *visitor, Core &&core)
{
    if (!visitor)
        core(NoopVisitor{});
    else if (SampleTrace *trace = visitor->traceSink())
        core(TraceRecorder{*visitor, *trace});
    else
        core(ForwardingVisitor{*visitor});
}

/**
 * Prefetch distances, in frontier nodes ahead of the one being
 * expanded. The offsets run further ahead so that the adjacency
 * prefetch, which reads them, finds them in cache.
 */
constexpr std::size_t kOffsetsAhead = 16;
constexpr std::size_t kAdjacencyAhead = 8;

/** Prefetch the CSR lines that frontier[i]'s successors will read. */
inline void
prefetchAhead(const graph::CsrGraph &graph,
              const std::vector<graph::LocalNodeId> &frontier,
              std::size_t i)
{
    if (i + kOffsetsAhead < frontier.size())
        graph.prefetchOffsets(frontier[i + kOffsetsAhead]);
    if (i + kAdjacencyAhead < frontier.size())
        graph.prefetchNeighbors(frontier[i + kAdjacencyAhead]);
}

/** Reset @p out to @p depth empty hops, keeping every buffer's capacity. */
void
prepareSubgraph(Subgraph &out, std::size_t depth)
{
    out.frontiers.resize(depth + 1);
    out.blocks.resize(depth);
    for (auto &f : out.frontiers)
        f.clear();
    for (auto &b : out.blocks) {
        b.offsets.clear();
        b.src_index.clear();
    }
}

/**
 * Draw @p want distinct indices out of [0, degree) with Floyd's
 * algorithm (O(want) expected work regardless of degree). Same draw
 * sequence and output order as the unordered_set reference sampler
 * (tests/reference). Typical fanouts dedup by scanning the picks
 * gathered so far — allocation-free and O(want) memory; very large
 * fanouts fall back to a hash set rather than scale scratch memory
 * with the node degree.
 */
void
sampleDistinctFast(std::uint64_t degree, unsigned want, sim::Rng &rng,
                   SampleScratch &scratch)
{
    auto &out = scratch.picks;
    out.clear();
    if (want <= 64) {
        auto seen = [&out](std::uint64_t x) {
            for (std::uint64_t p : out)
                if (p == x)
                    return true;
            return false;
        };
        for (std::uint64_t j = degree - want; j < degree; ++j) {
            std::uint64_t t = rng.nextBounded(j + 1);
            out.push_back(seen(t) ? j : t);
        }
        return;
    }
    std::unordered_set<std::uint64_t> chosen;
    chosen.reserve(want);
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

/** GraphSAGE core, templated on the (statically known) visitor type. */
template <typename Visitor>
void
sageSampleCore(const std::vector<unsigned> &fanouts,
               const graph::CsrGraph &graph,
               const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng, Visitor &&vis, SampleScratch &scratch,
               Subgraph &out)
{
    SS_ASSERT(!targets.empty(), "empty target batch");
    vis.onBatchStart(targets.size());

    const std::size_t depth = fanouts.size();
    prepareSubgraph(out, depth);
    out.frontiers[0].assign(targets.begin(), targets.end());

    auto &dedup = scratch.frontier_index;
    dedup.reserve(graph.numNodes());

    for (std::size_t h = 0; h < depth; ++h) {
        const unsigned fanout = fanouts[h];
        const auto &frontier = out.frontiers[h];
        auto &next = out.frontiers[h + 1];
        SampledBlock &block = out.blocks[h];

        // Self-prefix property: the next frontier starts as a verbatim
        // copy of the current one. put() (last occurrence wins) keeps
        // duplicate-target batches index-compatible with the reference
        // sampler.
        next.assign(frontier.begin(), frontier.end());
        dedup.clear();
        for (std::uint32_t i = 0; i < next.size(); ++i)
            dedup.put(next[i], i);

        block.offsets.reserve(frontier.size() + 1);
        block.offsets.push_back(0);

        for (std::size_t i = 0; i < frontier.size(); ++i) {
            prefetchAhead(graph, frontier, i);
            const graph::LocalNodeId u = frontier[i];
            vis.onOffsetRead(u);
            std::uint64_t degree = graph.degree(u);
            std::uint64_t base = graph.edgeOffset(u);
            auto nbrs = graph.neighbors(u);

            if (degree == 0) {
                block.offsets.push_back(
                    static_cast<std::uint32_t>(block.src_index.size()));
                continue;
            }

            auto emit = [&](std::uint64_t j) {
                vis.onEdgeEntryRead(u, base + j);
                graph::LocalNodeId v = nbrs[j];
                vis.onSampled(u, v);
                auto [slot, inserted] = dedup.tryEmplace(
                    v, static_cast<std::uint32_t>(next.size()));
                if (inserted)
                    next.push_back(v);
                block.src_index.push_back(slot);
            };

            if (degree <= fanout) {
                for (std::uint64_t j = 0; j < degree; ++j)
                    emit(j);
            } else {
                sampleDistinctFast(degree, fanout, rng, scratch);
                for (std::uint64_t j : scratch.picks)
                    emit(j);
            }
            block.offsets.push_back(
                static_cast<std::uint32_t>(block.src_index.size()));
        }
    }

    vis.onBatchEnd();
}

/** GraphSAINT core, templated on the (statically known) visitor type. */
template <typename Visitor>
void
saintSampleCore(unsigned walk_length, const graph::CsrGraph &graph,
                const std::vector<graph::LocalNodeId> &roots,
                sim::Rng &rng, Visitor &&vis, SampleScratch &scratch,
                Subgraph &out)
{
    SS_ASSERT(!roots.empty(), "empty root batch");
    vis.onBatchStart(roots.size());

    prepareSubgraph(out, walk_length);
    out.frontiers[0].assign(roots.begin(), roots.end());

    auto &dedup = scratch.frontier_index;
    dedup.reserve(graph.numNodes());

    // Each walk step is one block: every frontier node samples exactly
    // one neighbor (or stalls in place on a dead end).
    for (unsigned step = 0; step < walk_length; ++step) {
        const auto &frontier = out.frontiers[step];
        auto &next = out.frontiers[step + 1];
        SampledBlock &block = out.blocks[step];

        // Last occurrence wins, matching the reference sampler when
        // the caller passes duplicate roots.
        next.assign(frontier.begin(), frontier.end());
        dedup.clear();
        for (std::uint32_t i = 0; i < next.size(); ++i)
            dedup.put(next[i], i);

        block.offsets.reserve(frontier.size() + 1);
        block.offsets.push_back(0);

        for (graph::LocalNodeId u : frontier) {
            vis.onOffsetRead(u);
            std::uint64_t degree = graph.degree(u);
            if (degree == 0) {
                block.offsets.push_back(
                    static_cast<std::uint32_t>(block.src_index.size()));
                continue;
            }
            std::uint64_t j = rng.nextBounded(degree);
            vis.onEdgeEntryRead(u, graph.edgeOffset(u) + j);
            graph::LocalNodeId v = graph.neighbors(u)[j];
            vis.onSampled(u, v);
            auto [slot, inserted] = dedup.tryEmplace(
                v, static_cast<std::uint32_t>(next.size()));
            if (inserted)
                next.push_back(v);
            block.src_index.push_back(slot);
            block.offsets.push_back(
                static_cast<std::uint32_t>(block.src_index.size()));
        }
    }

    vis.onBatchEnd();
}

} // namespace

SampleScratch &
threadSampleScratch()
{
    thread_local SampleScratch scratch;
    return scratch;
}

Subgraph
AnySampler::sample(const graph::CsrGraph &graph,
                   const std::vector<graph::LocalNodeId> &targets,
                   sim::Rng &rng, SampleVisitor *visitor) const
{
    Subgraph out;
    sampleInto(graph, targets, rng, threadSampleScratch(), out, visitor);
    return out;
}

SageSampler::SageSampler(std::vector<unsigned> fanouts)
    : fanouts_(std::move(fanouts))
{
    SS_ASSERT(!fanouts_.empty(), "need at least one hop fanout");
    for (unsigned f : fanouts_)
        SS_ASSERT(f > 0, "fanout must be positive");
}

void
SageSampler::sampleInto(const graph::CsrGraph &graph,
                        const std::vector<graph::LocalNodeId> &targets,
                        sim::Rng &rng, SampleScratch &scratch,
                        Subgraph &out, SampleVisitor *visitor) const
{
    withVisitor(visitor, [&](auto &&vis) {
        sageSampleCore(fanouts_, graph, targets, rng, vis, scratch, out);
    });
}

std::uint64_t
SageSampler::expectedEdges(std::size_t batch_size) const
{
    std::uint64_t frontier = batch_size;
    std::uint64_t total = 0;
    for (unsigned f : fanouts_) {
        total += frontier * f;
        frontier += frontier * f;
    }
    return total;
}

SaintSampler::SaintSampler(unsigned walk_length)
    : walk_length_(walk_length)
{
    SS_ASSERT(walk_length_ > 0, "walk length must be positive");
}

void
SaintSampler::sampleInto(const graph::CsrGraph &graph,
                         const std::vector<graph::LocalNodeId> &roots,
                         sim::Rng &rng, SampleScratch &scratch,
                         Subgraph &out, SampleVisitor *visitor) const
{
    withVisitor(visitor, [&](auto &&vis) {
        saintSampleCore(walk_length_, graph, roots, rng, vis, scratch,
                        out);
    });
}

void
selectTargetsInto(const graph::CsrGraph &graph, std::size_t count,
                  sim::Rng &rng, SampleScratch &scratch,
                  std::vector<graph::LocalNodeId> &out)
{
    SS_ASSERT(count > 0, "batch size must be positive");
    SS_ASSERT(count <= graph.numNodes(), "batch larger than graph");
    const std::uint64_t n = graph.numNodes();
    out.clear();
    out.reserve(count);

    if (count * 4 < n) {
        // Sparse batch: rejection sampling, epoch-stamped dedup.
        auto &seen = scratch.frontier_index;
        seen.reserve(n);
        seen.clear();
        while (out.size() < count) {
            auto u = static_cast<graph::LocalNodeId>(rng.nextBounded(n));
            if (seen.tryEmplace(u, 0).second)
                out.push_back(u);
        }
        return;
    }

    // Dense batch: rejection degrades to coupon-collector waits, so run
    // a partial Fisher-Yates shuffle over the reusable index pool.
    auto &pool = scratch.fy_pool;
    pool.resize(n);
    std::iota(pool.begin(), pool.end(), graph::LocalNodeId{0});
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t j = i + rng.nextBounded(n - i);
        std::swap(pool[i], pool[j]);
        out.push_back(pool[i]);
    }
}

std::vector<graph::LocalNodeId>
selectTargets(const graph::CsrGraph &graph, std::size_t count,
              sim::Rng &rng)
{
    std::vector<graph::LocalNodeId> out;
    selectTargetsInto(graph, count, rng, threadSampleScratch(), out);
    return out;
}

} // namespace smartsage::gnn
