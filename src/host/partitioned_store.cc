#include "partitioned_store.hh"

#include <algorithm>
#include <utility>

#include "core/backend.hh"
#include "core/report.hh"
#include "host/feature_cache.hh"
#include "pipeline/producer.hh"
#include "sim/logging.hh"

namespace smartsage::host
{

namespace
{

/** splitmix64 finalizer: uncorrelated with CSR node-id locality. */
std::uint64_t
mixNodeId(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

PartitionedEdgeStore::PartitionedEdgeStore(
    const HostConfig &config, const ssd::SsdConfig &ssd_config,
    const sim::NetConfig &net_config, const PartitionedParams &params,
    const graph::CsrGraph &graph, const graph::EdgeLayout &layout)
    : host::BlockDeviceStore(config), params_(params), layout_(layout),
      graph_(graph)
{
    SS_ASSERT(params_.nodes >= 1, "partitioned store needs >= 1 node");
    links_.resize(params_.nodes);
    for (unsigned i = 0; i < params_.nodes; ++i) {
        addDevice(std::make_unique<ssd::SsdDevice>(ssd_config));
        if (i > 0)
            links_[i] =
                std::make_unique<sim::NetworkChannel>(net_config);
    }
    buildPartitionMap();
}

void
PartitionedEdgeStore::buildPartitionMap()
{
    const sim::NodeId n = graph_.numNodes();
    node_part_.assign(n, 0);
    if (params_.nodes <= 1)
        return;
    if (params_.strategy == PartitionStrategy::Hash) {
        for (sim::NodeId u = 0; u < n; ++u)
            node_part_[u] = static_cast<std::uint8_t>(
                mixNodeId(u) % params_.nodes);
        return;
    }
    // Degree-balanced contiguous ranges: walk nodes in id order and
    // advance the cut whenever the accumulated edge count crosses the
    // next ~numEdges/nodes boundary. Contiguity keeps a neighbor run's
    // blocks on one node, so per-partition command coalescing survives
    // the cut.
    const std::uint64_t total = graph_.numEdges();
    std::uint64_t acc = 0;
    unsigned part = 0;
    for (sim::NodeId u = 0; u < n; ++u) {
        node_part_[u] = static_cast<std::uint8_t>(part);
        acc += graph_.degree(u);
        while (part + 1 < params_.nodes &&
               acc * params_.nodes >= total * (part + 1))
            ++part;
    }
}

unsigned
PartitionedEdgeStore::partitionOfNode(sim::NodeId node) const
{
    SS_ASSERT(node < node_part_.size(), "node out of range");
    return node_part_[node];
}

unsigned
PartitionedEdgeStore::partitionOfBlock(std::uint64_t block) const
{
    // A block is owned by the partition of the node whose neighbor
    // list holds the block's first edge entry. Blocks spanning a
    // partition boundary (rare: one per cut) are charged wholly to the
    // first owner — a deterministic approximation.
    const std::uint64_t addr = block * config_.os_page_bytes;
    std::uint64_t entry = 0;
    if (addr > layout_.base)
        entry = (addr - layout_.base) / layout_.entry_bytes;
    const auto &offsets = graph_.offsets();
    if (entry >= graph_.numEdges())
        entry = graph_.numEdges() ? graph_.numEdges() - 1 : 0;
    auto it = std::upper_bound(offsets.begin(), offsets.end(), entry);
    sim::NodeId node =
        it == offsets.begin()
            ? 0
            : static_cast<sim::NodeId>(it - offsets.begin() - 1);
    if (node >= node_part_.size())
        node = node_part_.empty() ? 0 : node_part_.size() - 1;
    return node_part_.empty() ? 0 : node_part_[node];
}

void
PartitionedEdgeStore::placeBlocks(std::vector<std::uint64_t> &blocks) const
{
    for (std::uint64_t &block : blocks)
        block = blockKey(partitionOfBlock(block), block);
}

sim::Tick
PartitionedEdgeStore::serveRuns(sim::Tick submitted,
                                const std::vector<BlockRun> &runs)
{
    // Nodes service their runs on independent SSD timelines, and a
    // remote partition's results ride its link back as one payload.
    const std::uint64_t bs = config_.os_page_bytes;
    sim::Tick done = submitted;
    std::size_t i = 0;
    while (i < runs.size()) {
        const unsigned part = runs[i].device;
        // The request message to a remote node pays one link latency
        // before its SSD sees the commands; node 0 is the caller.
        const sim::Tick cmd_at =
            part == 0 ? submitted
                      : submitted + links_[part]->messageLatency();
        sim::Tick dev_done = cmd_at;
        std::uint64_t part_blocks = 0;
        for (; i < runs.size() && runs[i].device == part; ++i) {
            const sim::Tick landed = device(part).readBlocks(
                cmd_at, runs[i].first * bs, runs[i].blocks * bs);
            dev_done = std::max(dev_done, landed);
            part_blocks += runs[i].blocks;
        }
        if (part == 0) {
            local_blocks_ += part_blocks;
            done = std::max(done, dev_done);
        } else {
            remote_blocks_ += part_blocks;
            done = std::max(done, links_[part]->serviceTransfer(
                                      dev_done, part_blocks * bs));
        }
    }
    return done;
}

void
PartitionedEdgeStore::resetStore()
{
    host::BlockDeviceStore::resetStore();
    remote_blocks_ = 0;
    local_blocks_ = 0;
    for (auto &link : links_)
        if (link)
            link->reset();
}

std::uint64_t
PartitionedEdgeStore::netBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &link : links_)
        if (link)
            bytes += link->bytesMoved();
    return bytes;
}

std::uint64_t
PartitionedEdgeStore::netTransfers() const
{
    std::uint64_t transfers = 0;
    for (const auto &link : links_)
        if (link)
            transfers += link->transfers();
    return transfers;
}

// ------------------------------------------------ backend registration

namespace
{

PartitionedParams
paramsFrom(const core::SystemConfig &config)
{
    core::validateBackendKnobs(config, "part.",
                               {"part.nodes", "part.strategy"});

    PartitionedParams params;
    double nodes = config.knobOr("part.nodes", 2);
    if (!(nodes >= 1 && nodes <= 64))
        SS_FATAL("part.nodes must be within [1, 64], got ", nodes);
    params.nodes = static_cast<unsigned>(
        core::requireIntegerKnob("part.nodes", nodes));
    double strategy = config.knobOr("part.strategy", 0);
    if (strategy == 0)
        params.strategy = PartitionStrategy::Hash;
    else if (strategy == 1)
        params.strategy = PartitionStrategy::Degree;
    else
        SS_FATAL("part.strategy must be 0 (hash) or 1 (degree), got ",
                 strategy);
    return params;
}

sim::NetConfig
netConfigFrom(const core::SystemConfig &config)
{
    core::validateBackendKnobs(config, "net.",
                               {"net.bandwidth_gbps", "net.latency_us",
                                "net.queue_depth"});

    sim::NetConfig net;
    sim::applyKnob(net, "bandwidth_gbps",
                   config.knobOr("net.bandwidth_gbps",
                                 net.bandwidth_gbps));
    sim::applyKnob(net, "latency_us",
                   config.knobOr("net.latency_us",
                                 sim::toMicros(net.latency)));
    sim::applyKnob(net, "queue_depth",
                   config.knobOr("net.queue_depth", net.queue_depth));
    return net;
}

/** Host-CPU sampling over the partitioned cluster. */
class PartitionedInstance : public core::BackendInstance
{
  public:
    explicit PartitionedInstance(const core::BackendBuildContext &ctx)
        : PartitionedInstance(
              ctx, std::make_unique<PartitionedEdgeStore>(
                       ctx.config.host, ctx.config.ssd,
                       netConfigFrom(ctx.config), paramsFrom(ctx.config),
                       ctx.workload.graph, ctx.config.layout))
    {
    }

    pipeline::SubgraphProducer &producer() override { return producer_; }
    host::EdgeStore *edgeStore() override { return wrapped_.get(); }

    void
    addMetrics(const core::MetricSink &add) const override
    {
        const double remote =
            static_cast<double>(partitioned_->remoteBlocks());
        const double total =
            remote + static_cast<double>(partitioned_->localBlocks());
        add("net_remote_frac", total > 0 ? remote / total : 0.0);
        add("net_bytes",
            static_cast<double>(partitioned_->netBytes()));
        add("ssd_buffer_hit_frac", partitioned_->bufferHitRate());
        const double submits =
            static_cast<double>(partitioned_->submits());
        add("blocks_per_submit", submits > 0 ? total / submits : 0.0);
    }

    std::string
    notes() const override
    {
        const double remote =
            static_cast<double>(partitioned_->remoteBlocks());
        const double total =
            remote + static_cast<double>(partitioned_->localBlocks());
        return "nodes " + std::to_string(partitioned_->numDevices()) +
               ", " +
               (partitioned_->strategy() == PartitionStrategy::Hash
                    ? "hash"
                    : "degree") +
               " cut, remote " +
               core::fmtPct(total > 0 ? remote / total : 0.0);
    }

    void
    addStats(const core::StatSink &add) const override
    {
        add("part.nodes",
            static_cast<double>(partitioned_->numDevices()),
            "simulated host+SSD nodes");
        add("part.remote_blocks",
            static_cast<double>(partitioned_->remoteBlocks()),
            "missing blocks owned by a remote partition");
        add("part.local_blocks",
            static_cast<double>(partitioned_->localBlocks()),
            "missing blocks owned by the training host");
        add("net.bytes",
            static_cast<double>(partitioned_->netBytes()),
            "payload bytes over all inter-node links");
        add("net.transfers",
            static_cast<double>(partitioned_->netTransfers()),
            "response transfers over all inter-node links");
        add("ssd.page_buffer.hit_rate", partitioned_->bufferHitRate(),
            "controller DRAM buffer hit rate, all nodes");
        add("ssd.flash.pages_read",
            static_cast<double>(partitioned_->flashPagesRead()),
            "NAND pages sensed, all nodes");
        add("host.scratchpad.hit_rate",
            partitioned_->scratchpadHitRate(),
            "training-host scratchpad hit rate");
        add("host.direct_io.submits",
            static_cast<double>(partitioned_->submits()),
            "O_DIRECT submissions");
    }

  private:
    PartitionedInstance(const core::BackendBuildContext &ctx,
                        std::unique_ptr<PartitionedEdgeStore> store)
        : partitioned_(store.get()),
          wrapped_(host::wrapWithFeatureCache(std::move(store), ctx)),
          producer_(ctx.workload.graph, ctx.sampler, *wrapped_,
                    ctx.config.host, ctx.config.layout)
    {
    }

    PartitionedEdgeStore *partitioned_; //!< undecorated (counters)
    std::unique_ptr<host::EdgeStore> wrapped_;
    pipeline::CpuProducer producer_;
};

std::unique_ptr<core::BackendInstance>
buildPartitioned(const core::BackendBuildContext &ctx)
{
    return std::make_unique<PartitionedInstance>(ctx);
}

const core::BackendRegistrar reg_partitioned{
    std::make_unique<core::SimpleBackend>(
        "partitioned", "Partitioned",
        "edge-cut CSR across N host+SSD nodes, cross-partition "
        "gathers over a bounded network channel",
        core::BackendCaps{true, false, core::EdgeStoreKind::Partitioned,
                          {"host.", "ssd.", "part.", "net.", "cache."},
                          /*in_default_grids=*/false},
        buildPartitioned)};

} // namespace

} // namespace smartsage::host
