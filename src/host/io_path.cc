#include "io_path.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace smartsage::host
{

EdgeStore::EdgeStore(unsigned queue_depth, const sim::FaultPlan &fault,
                     const sim::RetryPolicy &retry,
                     const sim::SchedConfig &sched,
                     const sim::AdmissionControl &admit)
    : channel_("host-io", queue_depth)
{
    channel_.setRetryPolicy(retry);
    channel_.setDispatchPolicy(sched.policy);
    channel_.setAdmission(admit);
    if (fault.injectsHostFaults())
        injector_ = std::make_unique<sim::FaultInjector>(fault, "host-io");
}

sim::IoOutcome
EdgeStore::injectFaults(sim::Tick start, sim::Tick finish)
{
    if (!injector_)
        return {finish, sim::IoStatus::Ok};
    finish = injector_->slowed(start, finish);
    if (injector_->drawReadError())
        return {finish, sim::IoStatus::TransientError};
    return {finish, sim::IoStatus::Ok};
}

void
EdgeStore::submitRead(sim::EventQueue &eq, std::uint64_t addr,
                      std::uint64_t bytes, sim::IoCompletion done,
                      const sim::DispatchTag &tag)
{
    // A retried attempt re-runs the full service: cache state mutated
    // by the failed attempt stays mutated, exactly as a real runtime
    // re-issuing a command would find it.
    channel_.submit(
        eq,
        [this, addr, bytes](sim::Tick start, unsigned) {
            return injectFaults(start, serviceRead(start, addr, bytes));
        },
        std::move(done), tag);
}

void
EdgeStore::submitGather(sim::EventQueue &eq,
                        const std::vector<std::uint64_t> &addrs,
                        unsigned entry_bytes, sim::IoCompletion done,
                        const sim::DispatchTag &tag)
{
    if (addrs.empty()) {
        if (done)
            done(eq.now(), sim::IoStatus::Ok);
        return;
    }
    channel_.submit(
        eq,
        [this, &addrs, entry_bytes](sim::Tick start, unsigned) {
            return injectFaults(start,
                                serviceGather(start, addrs, entry_bytes));
        },
        std::move(done), tag);
}

sim::Tick
EdgeStore::read(sim::Tick arrival, std::uint64_t addr,
                std::uint64_t bytes)
{
    return channel_.serveNow(
        arrival,
        [this, addr, bytes](sim::Tick start, unsigned) {
            return injectFaults(start, serviceRead(start, addr, bytes));
        },
        name());
}

sim::Tick
EdgeStore::readGather(sim::Tick arrival,
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

sim::Tick
EdgeStore::serviceGather(sim::Tick start,
                         const std::vector<std::uint64_t> &addrs,
                         unsigned entry_bytes)
{
    sim::Tick t = start;
    for (std::uint64_t a : addrs)
        t = serviceRead(t, a, entry_bytes);
    return t;
}

void
EdgeStore::reset()
{
    channel_.reset();
    if (injector_)
        injector_->reset();
    resetStore();
}

DramEdgeStore::DramEdgeStore(const HostConfig &config)
    : EdgeStore(config.io_queue_depth, config.fault, config.retry,
                config.sched, config.admit),
      llc_(config)
{
}

sim::Tick
DramEdgeStore::serviceRead(sim::Tick start, std::uint64_t addr,
                           std::uint64_t bytes)
{
    return start + llc_.access(addr, bytes);
}

void
DramEdgeStore::resetStore()
{
    llc_.reset();
}

MmapEdgeStore::MmapEdgeStore(const HostConfig &config,
                             ssd::SsdDevice &ssd)
    : EdgeStore(config.io_queue_depth, config.fault, config.retry,
                config.sched, config.admit),
      config_(config), ssd_(ssd),
      cache_(config.page_cache_bytes, config.os_page_bytes,
             config.page_cache_ways)
{
}

sim::Tick
MmapEdgeStore::serviceRead(sim::Tick start, std::uint64_t addr,
                           std::uint64_t bytes)
{
    SS_ASSERT(bytes > 0, "zero-length mmap read");
    // Touch every OS page the range spans. Each missing page is a
    // separate fault: the kernel traverses the driver stack and brings
    // in exactly one page-sized block.
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

void
MmapEdgeStore::resetStore()
{
    ssd_.reset();
    cache_.reset();
    faults_ = 0;
}

DirectIoEdgeStore::DirectIoEdgeStore(const HostConfig &config,
                                     ssd::SsdDevice &ssd)
    : EdgeStore(config.io_queue_depth, config.fault, config.retry,
                config.sched, config.admit),
      config_(config), ssd_(ssd),
      cache_(config.scratchpad_bytes, config.os_page_bytes,
             config.scratchpad_ways)
{
}

sim::Tick
DirectIoEdgeStore::serviceRead(sim::Tick start, std::uint64_t addr,
                               std::uint64_t bytes)
{
    SS_ASSERT(bytes > 0, "zero-length direct read");
    std::uint64_t first = cache_.lineOf(addr);
    std::uint64_t last = cache_.lineOf(addr + bytes - 1);
    sim::Tick done = start;
    for (std::uint64_t block = first; block <= last; ++block) {
        if (cache_.access(block)) {
            done = std::max(done, start + config_.scratchpad_hit);
        } else {
            ++submits_;
            sim::Tick submitted = start + config_.direct_io_submit;
            sim::Tick landed = ssd_.readBlocks(
                submitted, block * config_.os_page_bytes,
                config_.os_page_bytes);
            done = std::max(done, landed);
        }
    }
    return done;
}

sim::Tick
DirectIoEdgeStore::serviceGather(sim::Tick start,
                                 const std::vector<std::uint64_t> &addrs,
                                 unsigned entry_bytes)
{
    if (addrs.empty())
        return start;

    // Classify the touched blocks through the scratchpad.
    std::vector<std::uint64_t> missing;
    bool any_hit = false;
    for (std::uint64_t a : addrs) {
        std::uint64_t first = cache_.lineOf(a);
        std::uint64_t last = cache_.lineOf(a + entry_bytes - 1);
        for (std::uint64_t b = first; b <= last; ++b) {
            if (cache_.access(b))
                any_hit = true;
            else
                missing.push_back(b);
        }
    }

    sim::Tick done = start;
    if (any_hit)
        done = std::max(done, start + config_.scratchpad_hit);
    if (!missing.empty()) {
        // The runtime knows every offset up front, so the whole gather
        // rides one submission: contiguous runs of missing blocks
        // become commands the SSD services in parallel, for a single
        // syscall's worth of latency instead of one fault per page.
        ++submits_;
        std::sort(missing.begin(), missing.end());
        missing.erase(std::unique(missing.begin(), missing.end()),
                      missing.end());
        std::uint64_t bs = config_.os_page_bytes;
        sim::Tick submitted = start + config_.direct_io_submit;
        std::size_t i = 0;
        while (i < missing.size()) {
            std::size_t j = i + 1;
            while (j < missing.size() &&
                   missing[j] == missing[j - 1] + 1) {
                ++j;
            }
            sim::Tick landed = ssd_.readBlocks(
                submitted, missing[i] * bs, (j - i) * bs);
            done = std::max(done, landed);
            i = j;
        }
    }
    return done;
}

void
DirectIoEdgeStore::resetStore()
{
    ssd_.reset();
    cache_.reset();
    submits_ = 0;
}

PmemEdgeStore::PmemEdgeStore(const HostConfig &config)
    : EdgeStore(config.io_queue_depth, config.fault, config.retry,
                config.sched, config.admit),
      config_(config)
{
}

sim::Tick
PmemEdgeStore::serviceRead(sim::Tick start, std::uint64_t addr,
                           std::uint64_t bytes)
{
    // Byte-addressable: one XPLine access per touched chunk.
    std::uint64_t chunk = config_.pmem_access_bytes;
    std::uint64_t first = addr / chunk;
    std::uint64_t last = (addr + (bytes ? bytes - 1 : 0)) / chunk;
    std::uint64_t chunks = last - first + 1;
    reads_ += chunks;
    return start + config_.pmem_latency * chunks;
}

void
PmemEdgeStore::resetStore()
{
    reads_ = 0;
}

} // namespace smartsage::host
