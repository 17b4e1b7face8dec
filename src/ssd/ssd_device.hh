/**
 * @file
 * Top-level simulated NVMe SSD (Fig 8).
 *
 * Composes the FTL, the DRAM page buffer, the embedded firmware cores,
 * the NAND array, and the PCIe front end. The host-side I/O paths
 * (src/host) call readBlocks(); the ISP engine (src/isp) reaches the
 * internal components directly — that asymmetry *is* the paper's
 * architecture.
 */

#ifndef SMARTSAGE_SSD_SSD_DEVICE_HH
#define SMARTSAGE_SSD_SSD_DEVICE_HH

#include <cstdint>

#include "embedded_cores.hh"
#include "flash/flash_array.hh"
#include "ftl.hh"
#include "sim/resource.hh"
#include "sim/set_assoc.hh"

namespace smartsage::ssd
{

/** The simulated SSD device. */
class SsdDevice
{
  public:
    /**
     * @param config        device configuration
     * @param dedicated_isp model Newport-style dedicated ISP cores
     */
    explicit SsdDevice(const SsdConfig &config,
                       bool dedicated_isp = false);

    /**
     * Host block read of the byte range [@p addr, @p addr+@p bytes):
     * NVMe command handling on the firmware cores, the flash page
     * fetches (overlapping across dies), then the PCIe DMA of the
     * blocks. The range is rounded out to logical-block (4 KiB)
     * granularity, as a real block device must.
     *
     * @param arrival tick the NVMe command reaches the device
     * @return tick the last byte lands in host memory
     */
    sim::Tick readBlocks(sim::Tick arrival, std::uint64_t addr,
                         std::uint64_t bytes);

    /**
     * Internal fetch of logical page @p lpn into the DRAM page buffer
     * (no PCIe crossing). Used by the ISP sampling loop.
     * @return tick the page is readable in the buffer
     */
    sim::Tick fetchPage(sim::Tick arrival, std::uint64_t lpn);

    /** DMA @p bytes from the device to host DRAM over PCIe. */
    sim::Tick dmaToHost(sim::Tick arrival, std::uint64_t bytes);

    /** DMA @p bytes from host DRAM into the device over PCIe. */
    sim::Tick dmaFromHost(sim::Tick arrival, std::uint64_t bytes);

    const SsdConfig &config() const { return config_; }
    const Ftl &ftl() const { return ftl_; }
    /** The DRAM page buffer: an LRU cache of flash pages keyed by
     *  logical page number. */
    sim::SetAssocLru &pageBuffer() { return buffer_; }
    EmbeddedCores &cores() { return cores_; }
    flash::FlashArray &flashArray() { return flash_; }

    /** Host-visible block reads served. */
    std::uint64_t hostReads() const { return host_reads_; }
    /** Injected ECC re-reads in the flash array. */
    std::uint64_t eccRetries() const { return flash_.eccRetries(); }
    /** Bytes shipped to the host over PCIe. */
    std::uint64_t bytesToHost() const { return bytes_to_host_; }

    void reset();

  private:
    SsdConfig config_;
    Ftl ftl_;
    sim::SetAssocLru buffer_;
    EmbeddedCores cores_;
    flash::FlashArray flash_;
    sim::BandwidthLink pcie_;
    std::uint64_t host_reads_ = 0;
    std::uint64_t bytes_to_host_ = 0;
};

} // namespace smartsage::ssd

#endif // SMARTSAGE_SSD_SSD_DEVICE_HH
