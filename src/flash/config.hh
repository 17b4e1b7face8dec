/**
 * @file
 * NAND flash geometry and timing parameters.
 *
 * Defaults approximate the Cosmos+ OpenSSD platform the paper prototyped
 * on: 8 channels x 4 dies of MLC NAND with 16 KiB pages and a ~65 us
 * array read (tR).
 */

#ifndef SMARTSAGE_FLASH_CONFIG_HH
#define SMARTSAGE_FLASH_CONFIG_HH

#include <cstdint>
#include <string_view>

#include "sim/fault.hh"
#include "sim/types.hh"

namespace smartsage::flash
{

/** Static configuration of a flash subsystem. */
struct FlashConfig
{
    unsigned channels = 8;          //!< independent ONFI channels
    unsigned dies_per_channel = 4;  //!< dies (LUNs) per channel
    std::uint64_t page_bytes = sim::KiB(16); //!< NAND page size
    sim::Tick read_latency = sim::us(55);    //!< tR: cell array -> die reg
    double channel_gbps = 1.0;      //!< ONFI transfer rate per channel

    /**
     * Fault schedule consulted for ECC-retry injection (ecc_rate /
     * ecc_retry); inert by default. Propagated from the system-level
     * plan by GnnSystem, not an applyKnob key of this struct.
     */
    sim::FaultPlan fault;

    unsigned totalDies() const { return channels * dies_per_channel; }

    /** Time to shift one page from the die register over its channel. */
    sim::Tick
    pageTransferTime() const
    {
        return sim::transferTime(page_bytes, channel_gbps);
    }
};

/**
 * Set the named flash knob (scenario override support). Durations use
 * the unit in the key suffix. @return false for an unknown key
 */
inline bool
applyKnob(FlashConfig &config, std::string_view key, double value)
{
    if (key == "channels")
        config.channels = static_cast<unsigned>(value);
    else if (key == "dies_per_channel")
        config.dies_per_channel = static_cast<unsigned>(value);
    else if (key == "page_kib")
        config.page_bytes = sim::KiB(static_cast<std::uint64_t>(value));
    else if (key == "read_latency_us")
        config.read_latency = sim::us(value);
    else if (key == "channel_gbps")
        config.channel_gbps = value;
    else
        return false;
    return true;
}

/** Physical location of a flash page. */
struct PageAddress
{
    unsigned channel;
    unsigned die;
    std::uint64_t page; //!< page index within the die
};

} // namespace smartsage::flash

#endif // SMARTSAGE_FLASH_CONFIG_HH
