#include "subgraph.hh"

#include "sim/logging.hh"

namespace smartsage::gnn
{

std::uint64_t
Subgraph::totalSampledEdges() const
{
    std::uint64_t total = 0;
    for (const auto &b : blocks)
        total += b.numEdges();
    return total;
}

std::vector<BlockShape>
Subgraph::blockShapes() const
{
    std::vector<BlockShape> shapes;
    shapes.reserve(blocks.size());
    for (const auto &b : blocks)
        shapes.push_back({b.numDsts(), b.numEdges()});
    return shapes;
}

void
Subgraph::shrinkToFit()
{
    for (auto &f : frontiers)
        f.shrink_to_fit();
    for (auto &b : blocks) {
        b.offsets.shrink_to_fit();
        b.src_index.shrink_to_fit();
    }
}

void
Subgraph::checkInvariants() const
{
    SS_ASSERT(frontiers.size() == blocks.size() + 1,
              "frontier/block count mismatch: ", frontiers.size(),
              " vs ", blocks.size());
    for (std::size_t h = 0; h < blocks.size(); ++h) {
        const auto &b = blocks[h];
        SS_ASSERT(b.numDsts() == frontiers[h].size(),
                  "block ", h, " dst count mismatch");
        SS_ASSERT(b.offsets.front() == 0 &&
                  b.offsets.back() == b.src_index.size(),
                  "block ", h, " offsets malformed");
        for (std::uint32_t s : b.src_index) {
            SS_ASSERT(s < frontiers[h + 1].size(),
                      "block ", h, " src index ", s, " out of range");
        }
        // Self-embedding prefix property.
        for (std::size_t i = 0; i < frontiers[h].size(); ++i) {
            SS_ASSERT(frontiers[h + 1][i] == frontiers[h][i],
                      "frontier ", h + 1,
                      " must begin with frontier ", h);
        }
    }
}

} // namespace smartsage::gnn
