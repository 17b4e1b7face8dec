/**
 * @file
 * RAID-0-style sharded SSD edge store: page striping across N
 * independent SsdDevice timelines.
 *
 * The host path is the scratchpad block store (host::BlockDeviceStore:
 * user scratchpad, one coalesced O_DIRECT submission a request); this
 * store only places blocks on the stripe set: block b belongs to
 * stripe b/stripe_blocks, stripes are assigned round-robin to shards,
 * and each shard is a complete SsdDevice with its own firmware cores,
 * page buffer, flash channels, and PCIe link — so per-channel
 * (per-device) contention and the striping speedup both emerge from
 * the independent busy-until timelines. A run aimed at a shard inside
 * an outage window reroutes to a healthy shard at a latency penalty.
 *
 * This file also registers the "multi-ssd" storage backend
 * (core::BackendRegistry) — the whole design point lives here, with
 * zero edits to src/core.
 */

#ifndef SMARTSAGE_SSD_SHARDED_SSD_HH
#define SMARTSAGE_SSD_SHARDED_SSD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "host/config.hh"
#include "host/io_path.hh"
#include "sim/fault.hh"
#include "ssd/ssd_device.hh"

namespace smartsage::ssd
{

/** Stripe geometry of the sharded array. */
struct ShardedSsdParams
{
    unsigned shards = 4;                       //!< devices in the array
    std::uint64_t stripe_bytes = sim::KiB(64); //!< RAID-0 chunk size
};

/** Direct-I/O edge store striped over N independent SSDs. */
class ShardedEdgeStore : public host::BlockDeviceStore
{
  public:
    /**
     * @param config     host-side parameters (scratchpad sizing)
     * @param ssd_config per-device template; the controller page
     *                   buffer budget is split evenly across shards
     * @param params     stripe geometry
     */
    ShardedEdgeStore(const host::HostConfig &config,
                     const SsdConfig &ssd_config,
                     const ShardedSsdParams &params);

    const std::string &name() const override { return name_; }

    /** Shard outage windows active in this configuration. */
    bool outagesEnabled() const { return outage_ != nullptr; }
    /** Runs rerouted around a down shard (degraded-mode reads). */
    std::uint64_t degradedReads() const { return degraded_reads_; }

  protected:
    /** Key (shard, shard-local block): a shard's locally contiguous
     *  blocks form one run even where other shards' stripes
     *  interleave in global block order. */
    void placeBlocks(std::vector<std::uint64_t> &blocks) const override;

    /** One command per run; a run aimed at a down shard reroutes. */
    sim::Tick serveRuns(sim::Tick submitted,
                        const std::vector<BlockRun> &runs) override;

    void resetStore() override;

  private:
    std::string name_ = "Multi-SSD";
    std::uint64_t stripe_blocks_; //!< scratchpad blocks per stripe
    std::unique_ptr<sim::OutageSchedule> outage_; //!< null when inert
    std::uint64_t degraded_reads_ = 0;
};

} // namespace smartsage::ssd

#endif // SMARTSAGE_SSD_SHARDED_SSD_HH
