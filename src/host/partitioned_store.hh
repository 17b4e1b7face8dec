/**
 * @file
 * Partitioned-graph scale-out edge store: the CSR edge list is
 * edge-cut across N simulated host+SSD nodes, and cross-partition
 * gathers traverse a per-remote-node sim::NetworkChannel.
 *
 * Node 0 is the training host. Its host path is the scratchpad block
 * store (host::BlockDeviceStore: user scratchpad, one coalesced
 * O_DIRECT submission a request); this store only places each missing
 * block on its owning partition's SSD and serves the runs: node-0 runs
 * are serviced by the local SSD directly, while a remote partition
 * pays a one-way request message, its own SSD's service time, and one
 * response payload transfer back over the link. Every node is a complete
 * machine — its own SsdDevice with full controller buffer — so
 * aggregate storage bandwidth (and cache) grows with `part.nodes`,
 * which is precisely the scaling story the "scaling" sweep family
 * measures against `net.bandwidth_gbps`.
 *
 * Partition strategies (`part.strategy`): 0 = hash (node-id bit mix,
 * locality-destroying but trivially balanced), 1 = degree-balanced
 * contiguous ranges (node-id ranges cut so each partition holds
 * ~numEdges/N edges, preserving neighbor-run locality).
 *
 * This file also registers the "partitioned" storage backend
 * (core::BackendRegistry) — zero edits to core, like multi-ssd — with
 * BackendCaps::in_default_grids = false so every pre-existing default
 * artifact stays byte-identical.
 */

#ifndef SMARTSAGE_HOST_PARTITIONED_STORE_HH
#define SMARTSAGE_HOST_PARTITIONED_STORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr.hh"
#include "graph/layout.hh"
#include "host/config.hh"
#include "host/io_path.hh"
#include "sim/net.hh"
#include "ssd/ssd_device.hh"

namespace smartsage::host
{

/** Edge-cut assignment of graph nodes to partitions. */
enum class PartitionStrategy { Hash, Degree };

/** Scale-out geometry (`part.*` knobs). */
struct PartitionedParams
{
    unsigned nodes = 2; //!< simulated host+SSD nodes
    PartitionStrategy strategy = PartitionStrategy::Hash;
};

/** Direct-I/O edge store spread over N host+SSD nodes. */
class PartitionedEdgeStore : public host::BlockDeviceStore
{
  public:
    /**
     * @param config     training-host parameters (scratchpad sizing)
     * @param ssd_config per-node device template (each node keeps the
     *                   full controller budget — it is a whole machine)
     * @param net_config per-remote-node link parameters
     * @param params     partition count and strategy
     * @param graph      the CSR graph whose edge list is being cut
     * @param layout     on-device byte layout of the edge array
     */
    PartitionedEdgeStore(const HostConfig &config,
                         const ssd::SsdConfig &ssd_config,
                         const sim::NetConfig &net_config,
                         const PartitionedParams &params,
                         const graph::CsrGraph &graph,
                         const graph::EdgeLayout &layout);

    const std::string &name() const override { return name_; }

    PartitionStrategy strategy() const { return params_.strategy; }

    /** Missing blocks owned by a remote partition (network round
     *  trips), vs local_blocks_ on the training host. */
    std::uint64_t remoteBlocks() const { return remote_blocks_; }
    std::uint64_t localBlocks() const { return local_blocks_; }
    /** Payload bytes shipped over all inter-node links. */
    std::uint64_t netBytes() const;
    /** Response transfers over all inter-node links. */
    std::uint64_t netTransfers() const;

    /** Partition owning graph node @p node (exposed for tests). */
    unsigned partitionOfNode(sim::NodeId node) const;

  protected:
    /** Key (owning partition, block): a node's SSD holds the blocks
     *  it owns under their global numbers. */
    void placeBlocks(std::vector<std::uint64_t> &blocks) const override;

    /** Per partition: the request message, one command per run on
     *  that node's SSD, and for a remote node one payload transfer. */
    sim::Tick serveRuns(sim::Tick submitted,
                        const std::vector<BlockRun> &runs) override;

    void resetStore() override;

  private:
    std::string name_ = "Partitioned";
    PartitionedParams params_;
    graph::EdgeLayout layout_;
    const graph::CsrGraph &graph_;
    /** Links to nodes 1..N-1; index 0 (the local node) is null. */
    std::vector<std::unique_ptr<sim::NetworkChannel>> links_;
    std::vector<std::uint8_t> node_part_; //!< graph node -> partition
    std::uint64_t remote_blocks_ = 0;
    std::uint64_t local_blocks_ = 0;

    /** Partition owning scratchpad block @p block (by first edge). */
    unsigned partitionOfBlock(std::uint64_t block) const;

    /** Fill node_part_ per the configured strategy. */
    void buildPartitionMap();
};

} // namespace smartsage::host

#endif // SMARTSAGE_HOST_PARTITIONED_STORE_HH
