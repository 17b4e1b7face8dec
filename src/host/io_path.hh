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
 * The access model is asynchronous submit/complete: requests enter a
 * bounded host-I/O StorageChannel (sim/io.hh) and dispatch when a queue
 * slot frees, so N requests can be in flight and queue-depth contention
 * emerges under open-loop load (the serving harness, core/serving.hh).
 * Each store implements the *service* timing (serviceRead /
 * serviceGather); the classic blocking calls (read / readGather) serve
 * one request in place on the idle channel (StorageChannel::serveNow)
 * over the same service timing and fault injection, so they reproduce
 * a submit-and-drain of the async port exactly without an event queue.
 * A decorator whose async port reshapes traffic (the feature cache)
 * overrides them to drain its port instead.
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

/** One way of reading bytes out of the edge-list file. */
class EdgeStore
{
  public:
    /**
     * @param queue_depth host I/O path queue bound (NVMe SQ slots the
     *        runtime exposes to the application;
     *        HostConfig::io_queue_depth)
     * @param fault host-I/O fault schedule; an all-zero plan builds no
     *        injector, leaving the request path untouched
     * @param retry retry/timeout policy installed on the channel
     * @param sched dispatch-policy knob block; the Fifo default keeps
     *        the historical arrival-order channel
     * @param admit admission control; the all-off default never
     *        evaluates the admission check
     */
    explicit EdgeStore(unsigned queue_depth,
                       const sim::FaultPlan &fault = {},
                       const sim::RetryPolicy &retry = {},
                       const sim::SchedConfig &sched = {},
                       const sim::AdmissionControl &admit = {});
    virtual ~EdgeStore() = default;

    // ------------------------- async port -------------------------

    /**
     * Submit a read of @p bytes at file offset @p addr at eq.now().
     * @p done fires at the tick the data is usable by the CPU.
     * Virtual so decorators (host/feature_cache.hh) can intercept the
     * port; such a decorator also overrides the blocking calls below
     * to drain its port, so it covers both access styles. @p tag
     * carries the request's scheduling metadata (priority, deadline);
     * the default tag reproduces the untagged channel exactly.
     */
    virtual void submitRead(sim::EventQueue &eq, std::uint64_t addr,
                            std::uint64_t bytes, sim::IoCompletion done,
                            const sim::DispatchTag &tag = {});

    /**
     * Submit a gather of one node's sampled entries (@p addrs byte
     * addresses, @p entry_bytes each) at eq.now(). @p addrs must stay
     * alive until completion. An empty gather completes immediately
     * without occupying a queue slot (and is never shed).
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
                              const sim::DispatchTag &tag = {});

    // ----------------------- blocking calls -----------------------

    /**
     * Read @p bytes at file offset @p addr, issued at @p arrival,
     * served in place on the idle channel: the ticks, counters and
     * fault draws of a submit-and-drain over submitRead, without the
     * event queue. Virtual so a decorator that reshapes its async
     * port can drain that instead. @return tick the data is usable
     */
    virtual sim::Tick read(sim::Tick arrival, std::uint64_t addr,
                           std::uint64_t bytes);

    /** Blocking gather, served in place; see submitGather and read. */
    virtual sim::Tick readGather(sim::Tick arrival,
                                 const std::vector<std::uint64_t> &addrs,
                                 unsigned entry_bytes);

    /** Display name for reports. */
    virtual const std::string &name() const = 0;

    /** Fresh timelines, caches, and queue counters. */
    void reset();

    /** The bounded host-I/O service queue (depth, wait stats).
     *  Decorators forward to the channel actually carrying requests. */
    virtual sim::StorageChannel &ioChannel() { return channel_; }
    virtual const sim::StorageChannel &ioChannel() const
    {
        return channel_;
    }

  protected:
    /**
     * Service timing of one read beginning at @p start (after any
     * queueing delay). @return completion tick >= start
     */
    virtual sim::Tick serviceRead(sim::Tick start, std::uint64_t addr,
                                  std::uint64_t bytes) = 0;

    /**
     * Service timing of one gather beginning at @p start.
     *
     * The default walks the entries one serviceRead at a time —
     * correct for byte-addressable stores and for mmap, whose kernel
     * faults are inherently per-page-blocking. The direct-I/O store
     * overrides this to coalesce one command per node, which is
     * precisely its latency edge (Section IV-C).
     */
    virtual sim::Tick serviceGather(sim::Tick start,
                                    const std::vector<std::uint64_t> &addrs,
                                    unsigned entry_bytes);

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
class DramEdgeStore : public EdgeStore
{
  public:
    explicit DramEdgeStore(const HostConfig &config);

    const std::string &name() const override { return name_; }

    LlcModel &llc() { return llc_; }

  protected:
    sim::Tick serviceRead(sim::Tick start, std::uint64_t addr,
                          std::uint64_t bytes) override;
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
class MmapEdgeStore : public EdgeStore
{
  public:
    MmapEdgeStore(const HostConfig &config, ssd::SsdDevice &ssd);

    const std::string &name() const override { return name_; }

    double pageCacheHitRate() const { return cache_.hitRate(); }
    std::uint64_t pageFaults() const { return faults_; }

  protected:
    sim::Tick serviceRead(sim::Tick start, std::uint64_t addr,
                          std::uint64_t bytes) override;
    void resetStore() override;

  private:
    std::string name_ = "SSD (mmap)";
    HostConfig config_;
    ssd::SsdDevice &ssd_;
    sim::SetAssocLru cache_; //!< OS page cache, 4 KiB pages
    std::uint64_t faults_ = 0;
};

/**
 * SmartSAGE(SW): Linux direct I/O (O_DIRECT) into a user-space
 * scratchpad buffer, bypassing the page cache (Section IV-C).
 */
class DirectIoEdgeStore : public EdgeStore
{
  public:
    DirectIoEdgeStore(const HostConfig &config, ssd::SsdDevice &ssd);

    const std::string &name() const override { return name_; }

    double scratchpadHitRate() const { return cache_.hitRate(); }
    std::uint64_t submits() const { return submits_; }

  protected:
    sim::Tick serviceRead(sim::Tick start, std::uint64_t addr,
                          std::uint64_t bytes) override;

    /** Coalesce one O_DIRECT command covering all missing blocks. */
    sim::Tick serviceGather(sim::Tick start,
                            const std::vector<std::uint64_t> &addrs,
                            unsigned entry_bytes) override;

    void resetStore() override;

  private:
    std::string name_ = "SmartSAGE (SW)";
    HostConfig config_;
    ssd::SsdDevice &ssd_;
    sim::SetAssocLru cache_; //!< user scratchpad, block-granular
    std::uint64_t submits_ = 0;
};

/** Optane DC PMEM on the memory bus: byte-granular, ~300 ns loads. */
class PmemEdgeStore : public EdgeStore
{
  public:
    explicit PmemEdgeStore(const HostConfig &config);

    const std::string &name() const override { return name_; }

  protected:
    sim::Tick serviceRead(sim::Tick start, std::uint64_t addr,
                          std::uint64_t bytes) override;
    void resetStore() override;

  private:
    std::string name_ = "PMEM";
    HostConfig config_;
    std::uint64_t reads_ = 0;
};

} // namespace smartsage::host

#endif // SMARTSAGE_HOST_IO_PATH_HH
