#include "io_path.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace smartsage::host
{

TimedEdgeStore::TimedEdgeStore(const HostConfig &config)
    : channel_("host-io", config.io_queue_depth)
{
    channel_.setRetryPolicy(config.retry);
    channel_.setDispatchPolicy(config.sched.policy);
    channel_.setAdmission(config.admit);
    if (config.fault.injectsHostFaults())
        injector_ =
            std::make_unique<sim::FaultInjector>(config.fault, "host-io");
}

sim::IoOutcome
TimedEdgeStore::injectFaults(sim::Tick start, sim::Tick finish)
{
    if (!injector_)
        return {finish, sim::IoStatus::Ok};
    finish = injector_->slowed(start, finish);
    if (injector_->drawReadError())
        return {finish, sim::IoStatus::TransientError};
    return {finish, sim::IoStatus::Ok};
}

void
TimedEdgeStore::submitGather(sim::EventQueue &eq,
                             const std::vector<std::uint64_t> &addrs,
                             unsigned entry_bytes, sim::IoCompletion done,
                             const sim::DispatchTag &tag)
{
    if (addrs.empty()) {
        if (done)
            done(eq.now(), sim::IoStatus::Ok);
        return;
    }
    // A retried attempt re-runs the full service: cache state mutated
    // by the failed attempt stays mutated, exactly as a real runtime
    // re-issuing a command would find it.
    channel_.submit(
        eq,
        [this, &addrs, entry_bytes](sim::Tick start, unsigned) {
            return injectFaults(start,
                                serviceGather(start, addrs, entry_bytes));
        },
        std::move(done), tag);
}

sim::Tick
TimedEdgeStore::readGather(sim::Tick arrival,
                           const std::vector<std::uint64_t> &addrs,
                           unsigned entry_bytes)
{
    // An empty gather never takes a slot, as on the async port.
    if (addrs.empty())
        return arrival;
    return channel_.serveNow(
        arrival,
        [this, &addrs, entry_bytes](sim::Tick start, unsigned) {
            return injectFaults(start,
                                serviceGather(start, addrs, entry_bytes));
        },
        name());
}

void
TimedEdgeStore::reset()
{
    channel_.reset();
    if (injector_)
        injector_->reset();
    resetStore();
}

DramEdgeStore::DramEdgeStore(const HostConfig &config)
    : TimedEdgeStore(config),
      llc_(config)
{
}

sim::Tick
DramEdgeStore::serviceGather(sim::Tick start,
                             const std::vector<std::uint64_t> &addrs,
                             unsigned entry_bytes)
{
    sim::Tick t = start;
    for (std::uint64_t a : addrs)
        t += llc_.access(a, entry_bytes);
    return t;
}

void
DramEdgeStore::resetStore()
{
    llc_.reset();
}

MmapEdgeStore::MmapEdgeStore(const HostConfig &config,
                             ssd::SsdDevice &ssd)
    : TimedEdgeStore(config),
      config_(config), ssd_(ssd),
      cache_(config.page_cache_bytes, config.os_page_bytes,
             config.page_cache_ways)
{
}

inline sim::Tick
MmapEdgeStore::touchPages(sim::Tick start, std::uint64_t addr,
                          std::uint64_t bytes)
{
    // Each missing page is a separate fault: the kernel traverses the
    // driver stack and brings in exactly one page-sized block.
    std::uint64_t first = cache_.lineOf(addr);
    std::uint64_t last = cache_.lineOf(addr + bytes - 1);
    sim::Tick done = start;
    for (std::uint64_t page = first; page <= last; ++page) {
        if (cache_.access(page)) {
            done = std::max(done, start + config_.page_cache_hit);
        } else {
            ++faults_;
            sim::Tick submitted = start + config_.page_fault_cost;
            sim::Tick landed = ssd_.readBlocks(
                submitted, page * config_.os_page_bytes,
                config_.os_page_bytes);
            done = std::max(done, landed);
        }
    }
    return done;
}

sim::Tick
MmapEdgeStore::serviceGather(sim::Tick start,
                             const std::vector<std::uint64_t> &addrs,
                             unsigned entry_bytes)
{
    SS_ASSERT(entry_bytes > 0, "zero-length mmap gather entry");
    // Faults block one at a time, so each entry starts when the one
    // before it is usable.
    sim::Tick t = start;
    for (std::uint64_t a : addrs)
        t = touchPages(t, a, entry_bytes);
    return t;
}

void
MmapEdgeStore::resetStore()
{
    ssd_.reset();
    cache_.reset();
    faults_ = 0;
}

BlockDeviceStore::BlockDeviceStore(const HostConfig &config)
    : TimedEdgeStore(config), config_(config),
      cache_(config.scratchpad_bytes, config.os_page_bytes,
             config.scratchpad_ways)
{
}

void
BlockDeviceStore::addDevice(ssd::SsdDevice &device)
{
    SS_ASSERT(devices_.size() < (1u << (64 - kDeviceShift)),
              "too many devices behind one block store");
    devices_.push_back(&device);
}

void
BlockDeviceStore::addDevice(std::unique_ptr<ssd::SsdDevice> device)
{
    addDevice(*device);
    owned_.push_back(std::move(device));
}

sim::Tick
BlockDeviceStore::serveRuns(sim::Tick submitted,
                            const std::vector<BlockRun> &runs)
{
    const std::uint64_t bs = config_.os_page_bytes;
    sim::Tick done = submitted;
    for (const BlockRun &run : runs) {
        sim::Tick landed = devices_[run.device]->readBlocks(
            submitted, run.first * bs, run.blocks * bs);
        done = std::max(done, landed);
    }
    return done;
}

inline bool
BlockDeviceStore::classify(std::uint64_t addr, std::uint64_t bytes)
{
    bool any_hit = false;
    std::uint64_t first = cache_.lineOf(addr);
    std::uint64_t last = cache_.lineOf(addr + bytes - 1);
    for (std::uint64_t b = first; b <= last; ++b) {
        if (cache_.access(b))
            any_hit = true;
        else
            missing_.push_back(b);
    }
    return any_hit;
}

sim::Tick
BlockDeviceStore::submitMissing(sim::Tick start, bool any_hit)
{
    sim::Tick done = start;
    if (any_hit)
        done = start + config_.scratchpad_hit;
    if (missing_.empty())
        return done;

    // The runtime knows every offset up front, so the whole request
    // rides one submission: contiguous runs of missing blocks become
    // commands the devices service in parallel, for a single
    // syscall's worth of latency instead of one fault per page.
    // Placement is one-to-one, so deduplicating keys deduplicates
    // blocks.
    ++submits_;
    placeBlocks(missing_);
    std::sort(missing_.begin(), missing_.end());
    missing_.erase(std::unique(missing_.begin(), missing_.end()),
                   missing_.end());
    constexpr std::uint64_t local_mask =
        (std::uint64_t{1} << kDeviceShift) - 1;
    runs_.clear();
    std::size_t i = 0;
    while (i < missing_.size()) {
        std::size_t j = i + 1;
        while (j < missing_.size() && missing_[j] == missing_[j - 1] + 1)
            ++j;
        const std::uint64_t key = missing_[i];
        runs_.push_back({static_cast<unsigned>(key >> kDeviceShift),
                         key & local_mask, j - i});
        i = j;
    }
    return std::max(done,
                    serveRuns(start + config_.direct_io_submit, runs_));
}

sim::Tick
BlockDeviceStore::serviceGather(sim::Tick start,
                                const std::vector<std::uint64_t> &addrs,
                                unsigned entry_bytes)
{
    SS_ASSERT(entry_bytes > 0, "zero-length ", name(), " gather entry");
    missing_.clear();
    bool any_hit = false;
    for (std::uint64_t a : addrs)
        any_hit = classify(a, entry_bytes) || any_hit;
    return submitMissing(start, any_hit);
}

void
BlockDeviceStore::resetStore()
{
    cache_.reset();
    submits_ = 0;
    for (ssd::SsdDevice *device : devices_)
        device->reset();
}

double
BlockDeviceStore::bufferHitRate() const
{
    std::uint64_t hits = 0, total = 0;
    for (ssd::SsdDevice *device : devices_) {
        const auto &buffer = device->pageBuffer();
        hits += buffer.hits();
        total += buffer.hits() + buffer.misses();
    }
    return total ? static_cast<double>(hits) /
                       static_cast<double>(total)
                 : 0.0;
}

std::uint64_t
BlockDeviceStore::flashPagesRead() const
{
    std::uint64_t pages = 0;
    for (ssd::SsdDevice *device : devices_)
        pages += device->flashArray().pagesRead();
    return pages;
}

std::uint64_t
BlockDeviceStore::hostReads() const
{
    std::uint64_t reads = 0;
    for (ssd::SsdDevice *device : devices_)
        reads += device->hostReads();
    return reads;
}

std::uint64_t
BlockDeviceStore::bytesToHost() const
{
    std::uint64_t bytes = 0;
    for (ssd::SsdDevice *device : devices_)
        bytes += device->bytesToHost();
    return bytes;
}

std::uint64_t
BlockDeviceStore::eccRetries() const
{
    std::uint64_t retries = 0;
    for (ssd::SsdDevice *device : devices_)
        retries += device->eccRetries();
    return retries;
}

DirectIoEdgeStore::DirectIoEdgeStore(const HostConfig &config,
                                     ssd::SsdDevice &ssd)
    : BlockDeviceStore(config)
{
    addDevice(ssd);
}

PmemEdgeStore::PmemEdgeStore(const HostConfig &config)
    : TimedEdgeStore(config),
      config_(config)
{
}

sim::Tick
PmemEdgeStore::serviceGather(sim::Tick start,
                             const std::vector<std::uint64_t> &addrs,
                             unsigned entry_bytes)
{
    // Byte-addressable: one XPLine access per touched chunk.
    const std::uint64_t chunk = config_.pmem_access_bytes;
    const std::uint64_t tail = entry_bytes ? entry_bytes - 1 : 0;
    sim::Tick t = start;
    for (std::uint64_t a : addrs)
        t += config_.pmem_latency * ((a + tail) / chunk - a / chunk + 1);
    return t;
}

} // namespace smartsage::host
