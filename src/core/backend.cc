#include "backend.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/logging.hh"
#include "ssd/ssd_device.hh"

namespace smartsage::core
{

const std::string &
edgeStoreKindName(EdgeStoreKind kind)
{
    static const std::array<std::string, 8> names = {
        "none", "host-dram", "os-page-cache", "direct-io",
        "pmem", "sharded",   "tiered",        "partitioned",
    };
    auto idx = static_cast<std::size_t>(kind);
    SS_ASSERT(idx < names.size(), "bad edge-store kind ", idx);
    return names[idx];
}

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

void
BackendRegistry::add(std::unique_ptr<StorageBackend> backend)
{
    SS_ASSERT(backend, "null backend registration");
    const std::string &id = backend->id();
    if (backends_.count(id))
        SS_FATAL("duplicate storage backend registration for id '", id,
                 "'");
    backends_.emplace(id, std::move(backend));
}

const StorageBackend *
BackendRegistry::find(const std::string &id) const
{
    auto it = backends_.find(id);
    return it == backends_.end() ? nullptr : it->second.get();
}

const StorageBackend &
BackendRegistry::get(const std::string &id) const
{
    const StorageBackend *backend = find(id);
    if (!backend)
        SS_FATAL("unknown storage backend '", id,
                 "'; registered backends: ", idList());
    return *backend;
}

std::vector<const StorageBackend *>
BackendRegistry::all() const
{
    std::vector<const StorageBackend *> out;
    out.reserve(backends_.size());
    for (const auto &[id, backend] : backends_)
        out.push_back(backend.get());
    return out; // std::map iteration: already sorted by id
}

std::vector<std::string>
BackendRegistry::ids() const
{
    std::vector<std::string> out;
    out.reserve(backends_.size());
    for (const auto &[id, backend] : backends_)
        out.push_back(id);
    return out;
}

std::string
BackendRegistry::idList() const
{
    std::string out;
    for (const auto &[id, backend] : backends_) {
        if (!out.empty())
            out += ", ";
        out += id;
    }
    return out;
}

const std::string &
backendDisplayName(const std::string &id)
{
    return BackendRegistry::instance().get(id).displayName();
}

const std::vector<std::string> &
paperBackendIds()
{
    static const std::vector<std::string> ids = {
        "dram", "ssd-mmap", "direct-io", "isp-hwsw",
        "isp-oracle", "pmem", "fpga-csd",
    };
    return ids;
}

void
addSsdMetrics(const ssd::SsdDevice *ssd, const MetricSink &add)
{
    if (!ssd)
        return;
    auto *dev = const_cast<ssd::SsdDevice *>(ssd);
    add("ssd_buffer_hit_frac", dev->pageBuffer().hitRate());
    add("flash_pages_read",
        static_cast<double>(dev->flashArray().pagesRead()));
}

void
validateBackendKnobs(const SystemConfig &config, std::string_view ns,
                     std::initializer_list<std::string_view> known)
{
    for (const auto &[key, value] : config.backend_knobs) {
        if (key.rfind(ns, 0) != 0)
            continue;
        if (std::find(known.begin(), known.end(), key) == known.end())
            SS_FATAL("unknown '", ns, "' knob '", key,
                     "' (the backend owning this namespace does not "
                     "read it)");
    }
}

std::uint64_t
requireIntegerKnob(const std::string &key, double value)
{
    if (value != std::floor(value))
        SS_FATAL(key, " must be a whole number, got ", value);
    return static_cast<std::uint64_t>(value);
}

void
addSsdStats(ssd::SsdDevice *ssd, const StatSink &add)
{
    if (!ssd)
        return;
    add("ssd.host_reads", static_cast<double>(ssd->hostReads()),
        "block read commands served");
    add("ssd.bytes_to_host", static_cast<double>(ssd->bytesToHost()),
        "bytes shipped over PCIe");
    add("ssd.page_buffer.hit_rate", ssd->pageBuffer().hitRate(),
        "controller DRAM buffer hit rate");
    add("ssd.flash.pages_read",
        static_cast<double>(ssd->flashArray().pagesRead()),
        "NAND pages sensed");
    // Gated so fault-free stats documents keep their pre-fault rows.
    if (ssd->config().flash.fault.injectsEcc())
        add("ssd.flash.ecc_retries",
            static_cast<double>(ssd->eccRetries()),
            "pages re-sensed after an ECC failure");
    add("ssd.cores.busy_us", sim::toMicros(ssd->cores().busyTime()),
        "embedded core busy time");
}

} // namespace smartsage::core
