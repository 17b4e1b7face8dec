#include "ssd_device.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace smartsage::ssd
{

SsdDevice::SsdDevice(const SsdConfig &config, bool dedicated_isp)
    : config_(config), ftl_(config),
      buffer_(config.page_buffer_bytes, config.flash.page_bytes,
              config.page_buffer_ways),
      cores_(config, dedicated_isp), flash_(config.flash),
      pcie_("pcie", config.pcie_gbps, config.pcie_latency)
{
}

sim::Tick
SsdDevice::fetchPage(sim::Tick arrival, std::uint64_t lpn)
{
    if (buffer_.access(lpn))
        return arrival + config_.page_buffer_hit;

    // Miss: firmware translates and issues the flash read, the page is
    // sensed + transferred, then lands in the page buffer.
    auto issue = cores_.execute(arrival, config_.ftl_translate);
    sim::Tick in_reg = flash_.readPage(ftl_.translate(lpn), issue.finish);
    return in_reg + config_.page_buffer_hit;
}

sim::Tick
SsdDevice::readBlocks(sim::Tick arrival, std::uint64_t addr,
                      std::uint64_t bytes)
{
    SS_ASSERT(bytes > 0, "zero-length block read");
    // Round the range out to logical-block granularity: a block device
    // cannot transfer less than a block.
    std::uint64_t bs = config_.block_bytes;
    std::uint64_t lo = addr / bs * bs;
    std::uint64_t hi = (addr + bytes + bs - 1) / bs * bs;
    std::uint64_t xfer = hi - lo;

    // NVMe command handling on the firmware cores; then every flash
    // page the range spans proceeds in parallel across dies, and the
    // transfer starts once all are buffered.
    sim::Tick issued = cores_.execute(arrival, config_.nvme_command).finish;
    sim::Tick ready = issued;
    const std::uint64_t last = ftl_.pageOf(hi - 1);
    for (std::uint64_t lpn = ftl_.pageOf(lo); lpn <= last; ++lpn)
        ready = std::max(ready, fetchPage(issued, lpn));
    ++host_reads_;
    bytes_to_host_ += xfer;
    return dmaToHost(ready, xfer);
}

sim::Tick
SsdDevice::dmaToHost(sim::Tick arrival, std::uint64_t bytes)
{
    return pcie_.transfer(arrival, bytes).finish;
}

sim::Tick
SsdDevice::dmaFromHost(sim::Tick arrival, std::uint64_t bytes)
{
    return pcie_.transfer(arrival, bytes).finish;
}

void
SsdDevice::reset()
{
    buffer_.reset();
    cores_.reset();
    flash_.reset();
    pcie_.reset();
    host_reads_ = 0;
    bytes_to_host_ = 0;
}

} // namespace smartsage::ssd
