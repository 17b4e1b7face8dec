/**
 * @file
 * Timing model of the NAND array: per-die read occupancy (tR) followed
 * by per-channel transfer occupancy. Requests to distinct dies overlap;
 * this internal parallelism is exactly the bandwidth headroom the
 * SmartSAGE ISP engine exploits (Section IV-B).
 */

#ifndef SMARTSAGE_FLASH_FLASH_ARRAY_HH
#define SMARTSAGE_FLASH_FLASH_ARRAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "config.hh"
#include "sim/fault.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace smartsage::flash
{

/** The bank of NAND dies and channels, as busy-until resources. */
class FlashArray
{
  public:
    explicit FlashArray(const FlashConfig &config);

    /**
     * Read the flash page at @p addr, with the request issued at
     * @p arrival. @return tick at which the page data sits in the
     * channel-side buffer (i.e. is available to the SSD controller).
     */
    sim::Tick readPage(const PageAddress &addr, sim::Tick arrival);

    const FlashConfig &config() const { return config_; }

    /** Pages read so far. */
    std::uint64_t pagesRead() const { return pages_read_; }

    /** Page senses that needed an ECC re-read (injected faults). */
    std::uint64_t eccRetries() const { return ecc_retries_; }

    /** Aggregate die utilization over [0, horizon]. */
    double dieUtilization(sim::Tick horizon) const;

    /** Aggregate channel utilization over [0, horizon]. */
    double channelUtilization(sim::Tick horizon) const;

    /** Fresh timeline for a new experiment. */
    void reset();

  private:
    FlashConfig config_;
    std::vector<sim::Server> dies_;     //!< channels * dies_per_channel
    std::vector<sim::Server> channels_; //!< one per channel
    std::unique_ptr<sim::FaultInjector> ecc_; //!< null when inert
    std::uint64_t pages_read_ = 0;
    std::uint64_t ecc_retries_ = 0;

    unsigned
    dieIndex(const PageAddress &addr) const
    {
        return addr.channel * config_.dies_per_channel + addr.die;
    }
};

} // namespace smartsage::flash

#endif // SMARTSAGE_FLASH_FLASH_ARRAY_HH
