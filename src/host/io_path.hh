/**
 * @file
 * Host-side access paths to the neighbor edge list array.
 *
 * Every design point reduces to "where do edge-list bytes live and what
 * does one read cost": host DRAM (oracle), mmap through the OS page
 * cache (baseline SSD), direct I/O with a user scratchpad
 * (SmartSAGE(SW)), or Optane PMEM. The CPU-side sampler drivers are
 * written against this interface; the ISP path (src/isp) deliberately
 * is not — offloading whole-subgraph generation is the paper's point.
 *
 * The access model is asynchronous submit/complete, and a request has
 * one shape: the gather of one node's sampled entries (a byte range is
 * the one-entry gather). Requests enter a bounded host-I/O
 * StorageChannel (sim/io.hh) and dispatch when a queue slot frees, so
 * N requests can be in flight and queue-depth contention emerges under
 * open-loop load (the serving harness, core/serving.hh). EdgeStore is
 * the port; every store with service timing of its own derives from
 * TimedEdgeStore, which owns the channel and the fault injector and
 * leaves the store only its service timing (serviceGather). The
 * blocking readGather serves one request in place on the idle channel
 * (StorageChannel::serveNow) over the same service timing and fault
 * injection, so it reproduces a submit-and-drain of the async port
 * exactly without an event queue. A decorator whose async port
 * reshapes traffic (the feature cache) implements the port directly
 * over its inner store and owns no channel.
 */

#ifndef SMARTSAGE_HOST_IO_PATH_HH
#define SMARTSAGE_HOST_IO_PATH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config.hh"
#include "llc.hh"
#include "sim/io.hh"
#include "sim/set_assoc.hh"
#include "sim/types.hh"
#include "ssd/ssd_device.hh"

namespace smartsage::host
{

/** One way of reading bytes out of the edge-list file: the port. */
class EdgeStore
{
  public:
    virtual ~EdgeStore() = default;

    /**
     * Submit a gather of one node's sampled entries (@p addrs byte
     * addresses, @p entry_bytes each) at eq.now(). @p done fires at
     * the tick the data is usable by the CPU. @p addrs must stay alive
     * until completion. An empty gather completes immediately without
     * occupying a queue slot (and is never shed). @p tag carries the
     * request's scheduling metadata (priority, deadline); the default
     * tag reproduces the untagged channel exactly.
     *
     * Decorators may reshape the traffic that reaches the inner store:
     * the feature cache's MSHR path issues the unique missing lines of
     * a gather as one line-granular inner gather and fans that single
     * completion back out to every coalesced requester. Callers
     * therefore must not assume a 1:1 mapping between their submits
     * and inner-channel commands — only that @p done fires exactly
     * once with the request's final status.
     */
    virtual void submitGather(sim::EventQueue &eq,
                              const std::vector<std::uint64_t> &addrs,
                              unsigned entry_bytes, sim::IoCompletion done,
                              const sim::DispatchTag &tag = {}) = 0;

    /**
     * Blocking gather issued at @p arrival: the ticks, counters and
     * fault draws of a submit-and-drain over submitGather.
     * @return tick the data is usable
     */
    virtual sim::Tick readGather(sim::Tick arrival,
                                 const std::vector<std::uint64_t> &addrs,
                                 unsigned entry_bytes) = 0;

    /** Display name for reports. */
    virtual const std::string &name() const = 0;

    /** Fresh timelines, caches, and queue counters. */
    virtual void reset() = 0;

    /** The bounded host-I/O service queue (depth, wait stats).
     *  Decorators forward to the channel actually carrying requests. */
    virtual sim::StorageChannel &ioChannel() = 0;
    virtual const sim::StorageChannel &ioChannel() const = 0;
};

/**
 * A store with service timing of its own. It owns the host-I/O
 * channel and the fault injector; the blocking readGather serves one
 * request in place on the idle channel (StorageChannel::serveNow).
 */
class TimedEdgeStore : public EdgeStore
{
  public:
    /**
     * @param config host parameters; the channel takes its queue bound
     *        (io_queue_depth), fault schedule (an all-zero plan builds
     *        no injector), retry policy, dispatch policy (sched) and
     *        admission control (admit) from it
     */
    explicit TimedEdgeStore(const HostConfig &config);

    void submitGather(sim::EventQueue &eq,
                      const std::vector<std::uint64_t> &addrs,
                      unsigned entry_bytes, sim::IoCompletion done,
                      const sim::DispatchTag &tag = {}) override;
    sim::Tick readGather(sim::Tick arrival,
                         const std::vector<std::uint64_t> &addrs,
                         unsigned entry_bytes) override;
    void reset() override;

    sim::StorageChannel &ioChannel() override { return channel_; }
    const sim::StorageChannel &ioChannel() const override
    {
        return channel_;
    }

  protected:
    /**
     * Service timing of one non-empty gather beginning at @p start
     * (after any queueing delay). Byte-addressable stores and mmap,
     * whose kernel faults are inherently per-page-blocking, walk the
     * entries one after another; the scratchpad block stores
     * (BlockDeviceStore) send a gather's missing blocks as one
     * submission, which is precisely their latency edge (Section
     * IV-C). @return completion tick >= start
     */
    virtual sim::Tick serviceGather(sim::Tick start,
                                    const std::vector<std::uint64_t> &addrs,
                                    unsigned entry_bytes) = 0;

    /** Subclass caches/counters back to a fresh state. */
    virtual void resetStore() = 0;

  private:
    /**
     * Apply the fault schedule to one service attempt: possibly
     * stretch [start, finish], possibly fail it transiently. With no
     * injector this is the identity outcome.
     */
    sim::IoOutcome injectFaults(sim::Tick start, sim::Tick finish);

    sim::StorageChannel channel_;
    std::unique_ptr<sim::FaultInjector> injector_; //!< null when inert
};

/** Oracle: the whole edge list resides in host DRAM behind the LLC. */
class DramEdgeStore : public TimedEdgeStore
{
  public:
    explicit DramEdgeStore(const HostConfig &config);

    const std::string &name() const override { return name_; }

    LlcModel &llc() { return llc_; }

  protected:
    /** Each entry's LLC access in turn. */
    sim::Tick serviceGather(sim::Tick start,
                            const std::vector<std::uint64_t> &addrs,
                            unsigned entry_bytes) override;
    void resetStore() override;

  private:
    std::string name_ = "DRAM";
    LlcModel llc_;
};

/**
 * Baseline SSD: memory-mapped file I/O through the OS page cache
 * (Section III-C). Page-cache hits cost a minor-touch latency; misses
 * pay the page-fault + kernel-stack traversal cost and a block read
 * from the SSD.
 */
class MmapEdgeStore : public TimedEdgeStore
{
  public:
    MmapEdgeStore(const HostConfig &config, ssd::SsdDevice &ssd);

    const std::string &name() const override { return name_; }

    double pageCacheHitRate() const { return cache_.hitRate(); }
    std::uint64_t pageFaults() const { return faults_; }
    /** The OS page-cache directory (hit and miss counts). */
    const sim::SetAssocLru &pageCache() const { return cache_; }

  protected:
    /** Each entry's page touches in turn, in one non-virtual loop. */
    sim::Tick serviceGather(sim::Tick start,
                            const std::vector<std::uint64_t> &addrs,
                            unsigned entry_bytes) override;
    void resetStore() override;

  private:
    /** Touch every page of [addr, addr + bytes), @p bytes > 0,
     *  from @p start. @return tick the last page is usable */
    sim::Tick touchPages(sim::Tick start, std::uint64_t addr,
                         std::uint64_t bytes);

    std::string name_ = "SSD (mmap)";
    HostConfig config_;
    ssd::SsdDevice &ssd_;
    sim::SetAssocLru cache_; //!< OS page cache, 4 KiB pages
    std::uint64_t faults_ = 0;
};

/**
 * SmartSAGE(SW)'s host policy (Section IV-C) over one or more block
 * devices: Linux direct I/O (O_DIRECT) into a user-space scratchpad,
 * bypassing the page cache. A request's blocks are classified through
 * the scratchpad; any hit costs one scratchpad access, and the missing
 * blocks ride one submission, deduplicated and cut into contiguous
 * per-device runs. Subclasses differ only in placement: which device
 * holds a block at which device-local number (placeBlocks), and how
 * the runs of one submission are served (serveRuns).
 */
class BlockDeviceStore : public TimedEdgeStore
{
  public:
    double scratchpadHitRate() const { return cache_.hitRate(); }
    std::uint64_t submits() const { return submits_; }

    unsigned numDevices() const
    {
        return static_cast<unsigned>(devices_.size());
    }
    ssd::SsdDevice &device(unsigned i) { return *devices_[i]; }
    const ssd::SsdDevice &device(unsigned i) const { return *devices_[i]; }

    /** Page-buffer hit rate aggregated over every device. */
    double bufferHitRate() const;
    /** NAND pages sensed, summed over every device. */
    std::uint64_t flashPagesRead() const;
    /** Host block reads served, summed over every device. */
    std::uint64_t hostReads() const;
    /** Bytes shipped over every device's PCIe link. */
    std::uint64_t bytesToHost() const;
    /** Injected ECC re-reads, summed over every device. */
    std::uint64_t eccRetries() const;

  protected:
    /** Contiguous missing blocks of one submission on one device. */
    struct BlockRun
    {
        unsigned device;
        std::uint64_t first;  //!< device-local block number
        std::uint64_t blocks; //!< run length
    };

    explicit BlockDeviceStore(const HostConfig &config);

    /** Serve through @p device, which the caller keeps alive. */
    void addDevice(ssd::SsdDevice &device);
    /** Serve through @p device, owned by the store. */
    void addDevice(std::unique_ptr<ssd::SsdDevice> device);

    /**
     * Placement key of block @p local on device @p device: the device
     * in the top byte above the local block number, so keys sort by
     * device, then by local block, and two blocks form one run exactly
     * when their keys differ by 1.
     */
    static std::uint64_t
    blockKey(unsigned device, std::uint64_t local)
    {
        return std::uint64_t{device} << kDeviceShift | local;
    }

    /**
     * Rewrite each global block number in @p blocks into its
     * blockKey; called once per submission, duplicates included. The
     * default places every block on device 0 under its own number.
     */
    virtual void placeBlocks(std::vector<std::uint64_t> &) const {}

    /**
     * Serve one submission's @p runs, ordered by device and then by
     * local block, whose commands reach the host at @p submitted.
     * The default issues each run as one command on its device.
     * @return tick the last run's data is usable, >= submitted
     */
    virtual sim::Tick serveRuns(sim::Tick submitted,
                                const std::vector<BlockRun> &runs);

    sim::Tick serviceGather(sim::Tick start,
                            const std::vector<std::uint64_t> &addrs,
                            unsigned entry_bytes) final;

    /** Scratchpad, submission count and every device; a subclass
     *  that keeps counters of its own extends this. */
    void resetStore() override;

    HostConfig config_; //!< block size, I/O charges, fault plan

  private:
    static constexpr unsigned kDeviceShift = 56;

    /** Touch the blocks of [addr, addr + bytes) in the scratchpad,
     *  appending the missing ones. @return true on any hit */
    bool classify(std::uint64_t addr, std::uint64_t bytes);
    /** Charge the scratchpad access (@p any_hit) and submit the
     *  missing blocks of a request that began service at @p start. */
    sim::Tick submitMissing(sim::Tick start, bool any_hit);

    sim::SetAssocLru cache_; //!< user scratchpad, block-granular
    std::vector<ssd::SsdDevice *> devices_;
    std::vector<std::unique_ptr<ssd::SsdDevice>> owned_;
    std::uint64_t submits_ = 0;
    std::vector<std::uint64_t> missing_; //!< blocks, then keys
    std::vector<BlockRun> runs_;
};

/** SmartSAGE(SW) on one SSD. */
class DirectIoEdgeStore : public BlockDeviceStore
{
  public:
    DirectIoEdgeStore(const HostConfig &config, ssd::SsdDevice &ssd);

    const std::string &name() const override { return name_; }

  private:
    std::string name_ = "SmartSAGE (SW)";
};

/** Optane DC PMEM on the memory bus: byte-granular, ~300 ns loads. */
class PmemEdgeStore : public TimedEdgeStore
{
  public:
    explicit PmemEdgeStore(const HostConfig &config);

    const std::string &name() const override { return name_; }

  protected:
    /** Each entry's XPLine accesses in turn. */
    sim::Tick serviceGather(sim::Tick start,
                            const std::vector<std::uint64_t> &addrs,
                            unsigned entry_bytes) override;
    void resetStore() override {}

  private:
    std::string name_ = "PMEM";
    HostConfig config_;
};

} // namespace smartsage::host

#endif // SMARTSAGE_HOST_IO_PATH_HH
