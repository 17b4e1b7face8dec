/**
 * @file
 * FPGA-based CSD alternative (SmartSSD-style), Section VI-D / Fig 19.
 *
 * Offloading sampling to an FPGA beside the SSD costs a *two-step* P2P
 * transfer: the raw edge-list blocks move SSD->FPGA over the on-card
 * PCIe switch, the FPGA's hardwired gather unit samples them quickly,
 * and the subgraph then moves FPGA->CPU. The paper's finding — the
 * SSD->FPGA hop dominates and erases the ISP benefit — emerges from
 * exactly this structure.
 */

#ifndef SMARTSAGE_ISP_FPGA_CSD_HH
#define SMARTSAGE_ISP_FPGA_CSD_HH

#include <cstdint>
#include <string_view>

#include "graph/layout.hh"
#include "nsconfig.hh"
#include "sim/resource.hh"
#include "sim/types.hh"
#include "ssd/ssd_device.hh"

namespace smartsage::isp
{

/** FPGA-side parameters of the SmartSSD-style CSD. */
struct FpgaCsdConfig
{
    double p2p_gbps = 3.0;           //!< SSD->FPGA over on-card switch
    sim::Tick p2p_latency = sim::us(2);
    /** Per-P2P-read command round trip through the on-card switch. */
    sim::Tick p2p_command = sim::us(10);
    /** Target nodes whose P2P reads the kernel keeps in flight. */
    unsigned queue_depth = 64;
    sim::Tick fpga_per_edge = sim::ns(8); //!< hardwired gather unit
    sim::Tick kernel_setup = sim::us(40); //!< per-batch kernel control
    sim::Tick host_submit = sim::us(3);
};

/**
 * Set the named FPGA-CSD knob (scenario override support).
 * @return false for an unknown key
 */
inline bool
applyKnob(FpgaCsdConfig &config, std::string_view key, double value)
{
    if (key == "p2p_gbps")
        config.p2p_gbps = value;
    else if (key == "queue_depth")
        config.queue_depth = static_cast<unsigned>(value);
    else if (key == "fpga_per_edge_ns")
        config.fpga_per_edge = sim::ns(value);
    else if (key == "kernel_setup_us")
        config.kernel_setup = sim::us(value);
    else
        return false;
    return true;
}

/** Per-stage latency breakdown of one batch (Fig 19's bar segments). */
struct FpgaBatchResult
{
    sim::Tick finish = 0;
    sim::Tick ssd_to_fpga = 0; //!< cumulative P2P transfer time
    sim::Tick sampling = 0;    //!< FPGA gather time
    sim::Tick fpga_to_cpu = 0; //!< subgraph return transfer
    std::uint64_t p2p_bytes = 0;
    std::uint64_t out_bytes = 0;
};

/** Timing engine for the FPGA-based CSD design point. */
class FpgaCsdEngine
{
  public:
    FpgaCsdEngine(const FpgaCsdConfig &config, ssd::SsdDevice &ssd,
                  const graph::EdgeLayout &layout);

    /** Simulate one batch's sampling on the FPGA-based CSD. */
    FpgaBatchResult runBatch(const IspTraceVisitor &trace,
                             sim::Tick arrival);

    /** Fresh P2P-wire and gather-unit timelines. */
    void reset();

  private:
    FpgaCsdConfig config_;
    ssd::SsdDevice &ssd_;
    graph::EdgeLayout layout_;
    sim::Server p2p_;  //!< on-card switch wire (command + data occupancy)
    sim::Server fpga_; //!< gather unit
};

} // namespace smartsage::isp

#endif // SMARTSAGE_ISP_FPGA_CSD_HH
