/**
 * @file
 * The SmartSAGE in-storage subgraph generator (Section IV-B, Fig 11).
 *
 * Replays a mini-batch's sampling trace inside the SSD: the host sends
 * one coalesced NVMe command per target group, the firmware translates
 * and issues flash page reads, samples edge entries directly out of the
 * SSD DRAM page buffer on the embedded cores, and DMAs back only the
 * densely packed sampled-ID list.
 */

#ifndef SMARTSAGE_ISP_ISP_ENGINE_HH
#define SMARTSAGE_ISP_ISP_ENGINE_HH

#include <cstdint>
#include <string_view>

#include "graph/layout.hh"
#include "nsconfig.hh"
#include "sim/types.hh"
#include "ssd/ssd_device.hh"

namespace smartsage::isp
{

/** Host-driver + firmware parameters of the ISP path. */
struct IspConfig
{
    /** ioctl() + driver submit cost per NVMe command (Section IV-C). */
    sim::Tick host_submit = sim::us(3);
    /**
     * Coalescing granularity: target nodes folded into one NSconfig.
     * The paper's default folds the whole mini-batch (1024).
     */
    std::size_t coalesce_targets = 1024;
    NsConfigFormat format;
};

/**
 * Set the named ISP knob (scenario override support).
 * @return false for an unknown key
 */
inline bool
applyKnob(IspConfig &config, std::string_view key, double value)
{
    if (key == "coalesce_targets")
        config.coalesce_targets = static_cast<std::size_t>(value);
    else if (key == "host_submit_us")
        config.host_submit = sim::us(value);
    else
        return false;
    return true;
}

/** Outcome of one in-storage batch generation. */
struct IspBatchResult
{
    sim::Tick finish = 0;            //!< subgraph resident in host DRAM
    std::uint64_t commands = 0;      //!< NVMe commands issued
    std::uint64_t bytes_to_host = 0; //!< sampled-ID payload over PCIe
    std::uint64_t bytes_from_host = 0; //!< NSconfig payload over PCIe
    std::uint64_t flash_pages = 0;   //!< flash pages touched
};

/** Timing engine for SmartSAGE(HW/SW) subgraph generation. */
class IspEngine
{
  public:
    IspEngine(const IspConfig &config, ssd::SsdDevice &ssd,
              const graph::EdgeLayout &layout);

    /**
     * Simulate in-storage generation of one mini-batch whose access
     * trace is @p trace, starting at @p arrival.
     */
    IspBatchResult runBatch(const IspTraceVisitor &trace,
                            sim::Tick arrival) const;

    /**
     * Service one coalesced group of node work arriving at @p arrival:
     * NSconfig DMA, firmware parse, flash fetches, in-buffer gather,
     * and the subgraph DMA back. Exposed so the pipeline can
     * interleave groups from concurrent workers in time order.
     * @return tick the group's subgraph chunk lands in host DRAM
     */
    sim::Tick runGroup(const NodeWork *work, std::size_t count,
                       sim::Tick arrival, IspBatchResult &result) const;

    const IspConfig &config() const { return config_; }

  private:
    IspConfig config_;
    ssd::SsdDevice &ssd_;
    graph::EdgeLayout layout_;
};

} // namespace smartsage::isp

#endif // SMARTSAGE_ISP_ISP_ENGINE_HH
