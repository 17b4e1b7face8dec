/**
 * @file
 * Host-side configuration: CPU cache hierarchy, DRAM, OS I/O path
 * costs, and PMEM. Defaults approximate the paper's testbed (Xeon Gold
 * 6242, 192 GB DDR4 at 125 GB/s peak, Linux NVMe stack).
 */

#ifndef SMARTSAGE_HOST_CONFIG_HH
#define SMARTSAGE_HOST_CONFIG_HH

#include <cstdint>
#include <string_view>

#include "sim/fault.hh"
#include "sim/io.hh"
#include "sim/types.hh"

namespace smartsage::host
{

/** Static host-system parameters. */
struct HostConfig
{
    // --- CPU cache / memory ---
    std::uint64_t llc_bytes = sim::MiB(16); //!< shared last-level cache
    unsigned llc_ways = 16;
    std::uint64_t llc_line = 64;
    sim::Tick llc_hit = sim::ns(12);
    sim::Tick dram_latency = sim::ns(90);   //!< LLC-miss random access
    double dram_peak_gbps = 125.0;          //!< Fig 5 right axis
    /**
     * Outstanding-miss factor of one sampling worker: an OoO core keeps
     * a few misses in flight, so achieved bandwidth is
     * mlp * line / dram_latency per worker.
     */
    double memory_level_parallelism = 3.0;

    // --- OS page-cache (mmap) path, Section III-C ---
    std::uint64_t os_page_bytes = sim::KiB(4);
    std::uint64_t page_cache_bytes = sim::MiB(128);
    unsigned page_cache_ways = 16;
    /** Fault + kernel traversal + page install ("tens of us"). */
    sim::Tick page_fault_cost = sim::us(28);
    /** Minor cost of touching an already-resident mmap page. */
    sim::Tick page_cache_hit = sim::ns(250);

    // --- Host I/O request path (async submit/complete) ---
    /**
     * Bound on concurrently serviced edge-store requests: the NVMe
     * submission-queue slots (and matching scratchpad staging buffers)
     * the runtime exposes to the application. Requests beyond this
     * depth wait in the host I/O channel; the serving-load scenario
     * family sweeps it. Blocking callers never have more than one
     * request outstanding, so this does not affect the classic sweep
     * results.
     */
    unsigned io_queue_depth = 64;

    // --- Direct I/O path, Section IV-C ---
    /** Syscall + NVMe submit without page-cache maintenance. */
    sim::Tick direct_io_submit = sim::us(8);
    /** User-space scratchpad buffer the runtime manages itself. */
    std::uint64_t scratchpad_bytes = sim::MiB(64);
    unsigned scratchpad_ways = 16;
    sim::Tick scratchpad_hit = sim::ns(180);

    // --- Optane PMEM (NVDIMM) alternative, Section VI-C ---
    sim::Tick pmem_latency = sim::ns(320);  //!< random load
    std::uint64_t pmem_access_bytes = 256;  //!< XPLine granularity

    // --- CPU-side sampling compute ---
    /** Per-sampled-edge host CPU work (RNG + bookkeeping). */
    sim::Tick cpu_per_edge = sim::ns(350);

    // --- Feature-table lookup (host DRAM resident in every design) ---
    double feature_stream_gbps = 25.0; //!< streaming row-copy bandwidth
    sim::Tick feature_node_overhead = sim::ns(25);

    // --- GPU link ---
    double host_gpu_gbps = 12.0; //!< effective PCIe gen3 x16 to the GPU
    sim::Tick host_gpu_latency = sim::us(10);

    // --- Fault injection / recovery (defaults inert) ---
    /** Host-I/O fault schedule; every rate defaults to zero. */
    sim::FaultPlan fault;
    /** Retry/timeout policy for the host I/O channel. */
    sim::RetryPolicy retry;

    // --- Request scheduling / admission (defaults inert) ---
    /** Dispatch policy of the host I/O channel (`sched.*` knobs);
     *  Fifo reproduces the historical arrival-order channel. */
    sim::SchedConfig sched;
    /** Admission control at the channel submit edge (`admit.*`);
     *  all-off by default so nothing is ever shed. */
    sim::AdmissionControl admit;
};

/**
 * Set the named host knob (scenario override support).
 * @return false for an unknown key
 */
inline bool
applyKnob(HostConfig &config, std::string_view key, double value)
{
    if (key == "llc_mib")
        config.llc_bytes = sim::MiB(static_cast<std::uint64_t>(value));
    else if (key == "dram_peak_gbps")
        config.dram_peak_gbps = value;
    else if (key == "memory_level_parallelism")
        config.memory_level_parallelism = value;
    else if (key == "page_fault_cost_us")
        config.page_fault_cost = sim::us(value);
    else if (key == "direct_io_submit_us")
        config.direct_io_submit = sim::us(value);
    else if (key == "io_queue_depth")
        config.io_queue_depth = static_cast<unsigned>(value);
    else if (key == "pmem_latency_ns")
        config.pmem_latency = sim::ns(value);
    else if (key == "cpu_per_edge_ns")
        config.cpu_per_edge = sim::ns(value);
    else if (key == "feature_stream_gbps")
        config.feature_stream_gbps = value;
    else if (key == "host_gpu_gbps")
        config.host_gpu_gbps = value;
    else
        return false;
    return true;
}

} // namespace smartsage::host

#endif // SMARTSAGE_HOST_CONFIG_HH
