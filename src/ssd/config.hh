/**
 * @file
 * SSD-level configuration: flash geometry plus controller-side
 * resources (DRAM page buffer, embedded firmware cores, NVMe front end,
 * PCIe link to the host).
 */

#ifndef SMARTSAGE_SSD_CONFIG_HH
#define SMARTSAGE_SSD_CONFIG_HH

#include <cstdint>
#include <string_view>

#include "flash/config.hh"
#include "sim/types.hh"

namespace smartsage::ssd
{

/** Static configuration of the simulated NVMe SSD. */
struct SsdConfig
{
    flash::FlashConfig flash;

    /** SSD-internal DRAM page buffer (Fig 8 "DRAM (Page buffer)"). */
    std::uint64_t page_buffer_bytes = sim::MiB(256);
    unsigned page_buffer_ways = 16;      //!< set associativity
    sim::Tick page_buffer_hit = sim::us(2); //!< controller DRAM access

    /**
     * Embedded firmware cores (OpenSSD: dual Cortex-A9). These run the
     * FTL and, for SmartSAGE(HW/SW), the ISP sampling loop.
     */
    unsigned embedded_cores = 2;
    /** Fraction of core time reserved by baseline FTL/flash management. */
    double firmware_duty = 0.30;
    /** Firmware cost to translate + issue one flash page request. */
    sim::Tick ftl_translate = sim::ns(400);
    /** Firmware cost to gather one sampled edge out of the page buffer. */
    sim::Tick isp_per_edge = sim::ns(150);
    /** Firmware cost to parse one target entry of an NSconfig. */
    sim::Tick isp_per_target = sim::ns(250);

    /** NVMe command handling (submission + completion doorbells). */
    sim::Tick nvme_command = sim::us(5);

    /** PCIe link to host (OpenSSD: gen2 x8 ~ 3.2 GB/s effective). */
    double pcie_gbps = 3.2;
    sim::Tick pcie_latency = sim::ns(900);

    /** Logical block size exposed to the host. */
    std::uint64_t block_bytes = sim::KiB(4);
};

/**
 * Set the named SSD knob (scenario override support). Keys prefixed
 * "flash." delegate to flash::applyKnob. The page-buffer *capacity*
 * is deliberately not a knob here: GnnSystem scales it from the
 * system-level "ssd_buffer_fraction" to preserve the paper's
 * buffer-to-dataset ratio. @return false for an unknown key
 */
inline bool
applyKnob(SsdConfig &config, std::string_view key, double value)
{
    constexpr std::string_view flash_prefix = "flash.";
    if (key.substr(0, flash_prefix.size()) == flash_prefix)
        return flash::applyKnob(config.flash,
                                key.substr(flash_prefix.size()), value);
    if (key == "page_buffer_ways")
        config.page_buffer_ways = static_cast<unsigned>(value);
    else if (key == "embedded_cores")
        config.embedded_cores = static_cast<unsigned>(value);
    else if (key == "firmware_duty")
        config.firmware_duty = value;
    else if (key == "isp_per_edge_ns")
        config.isp_per_edge = sim::ns(value);
    else if (key == "nvme_command_us")
        config.nvme_command = sim::us(value);
    else if (key == "pcie_gbps")
        config.pcie_gbps = value;
    else
        return false;
    return true;
}

} // namespace smartsage::ssd

#endif // SMARTSAGE_SSD_CONFIG_HH
