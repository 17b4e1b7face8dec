/**
 * @file
 * Tiered-hybrid edge store: a host-DRAM hot cache in front of the
 * direct-I/O SSD path.
 *
 * The runtime pins the hottest edge-list lines in a DRAM tier sized by
 * the existing `page_cache_fraction` knob (the DRAM-to-dataset ratio
 * the paper's testbed fixes); anything colder falls through to the
 * O_DIRECT scratchpad + SSD path. Hot hits cost a DRAM access, so the
 * backend interpolates between the DRAM oracle and SmartSAGE(SW) as
 * the fraction knob moves.
 *
 * This file also registers the "tiered-hybrid" storage backend
 * (core::BackendRegistry) — the whole design point lives here, with
 * zero edits to src/core.
 */

#ifndef SMARTSAGE_HOST_TIERED_STORE_HH
#define SMARTSAGE_HOST_TIERED_STORE_HH

#include <cstdint>

#include "io_path.hh"
#include "sim/set_assoc.hh"

namespace smartsage::host
{

/** Hot-tier parameters of the hybrid store. */
struct TieredStoreParams
{
    std::uint64_t hot_line_bytes = sim::KiB(64); //!< tier granularity
    sim::Tick hot_hit = sim::ns(150);            //!< DRAM-tier access
};

/** DRAM hot-cache over a DirectIoEdgeStore cold path. */
class TieredEdgeStore : public TimedEdgeStore
{
  public:
    TieredEdgeStore(const HostConfig &config, ssd::SsdDevice &ssd,
                    const TieredStoreParams &params);

    const std::string &name() const override { return name_; }

    double hotHitRate() const { return hot_.hitRate(); }
    double scratchpadHitRate() const { return cold_.scratchpadHitRate(); }
    std::uint64_t submits() const { return cold_.submits(); }

  protected:
    /** Hot hits answer from DRAM; the cold remainder rides one
     *  coalesced O_DIRECT gather. */
    sim::Tick serviceGather(sim::Tick start,
                            const std::vector<std::uint64_t> &addrs,
                            unsigned entry_bytes) override;

    void resetStore() override;

  private:
    std::string name_ = "Tiered-Hybrid";
    TieredStoreParams params_;
    sim::SetAssocLru hot_; //!< DRAM tier, hot_line_bytes lines
    DirectIoEdgeStore cold_;
    std::vector<std::uint64_t> cold_addrs_; //!< gather scratch
};

} // namespace smartsage::host

#endif // SMARTSAGE_HOST_TIERED_STORE_HH
