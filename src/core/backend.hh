/**
 * @file
 * The pluggable storage-backend API.
 *
 * A `StorageBackend` is a self-describing factory for one storage
 * substrate (the paper's seven design points, plus anything new): it
 * carries an id, a display name, and capability flags, and builds the
 * substrate pieces — SSD device(s), edge store, ISP/FPGA engines, and
 * the producer flavor — as one `BackendInstance` that `GnnSystem`
 * merely composes. Backends live in a string-keyed `BackendRegistry`;
 * scenarios, the experiment runner, and the CLI enumerate it
 * dynamically, so adding a design point is one self-registering
 * translation unit and zero core edits (see DESIGN.md "Backend plugin
 * API").
 */

#ifndef SMARTSAGE_CORE_BACKEND_HH
#define SMARTSAGE_CORE_BACKEND_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/producer.hh"
#include "system.hh"

namespace smartsage::core
{

/** How a backend exposes the edge list to the host-side sampler. */
enum class EdgeStoreKind
{
    None,     //!< no host-side store: sampling happens in-device
    Dram,     //!< whole edge list in host DRAM behind the LLC
    Mmap,     //!< mmap'd file through the OS page cache
    DirectIo, //!< O_DIRECT into a user scratchpad
    Pmem,     //!< byte-addressable PMEM on the memory bus
    Sharded,  //!< striped across multiple devices
    Tiered,   //!< DRAM hot-cache in front of a device path
    Partitioned, //!< edge-cut across simulated host+SSD nodes
};

/** Display name of an EdgeStoreKind ("direct-io", ...). */
const std::string &edgeStoreKindName(EdgeStoreKind kind);

/** Self-description of one backend's substrate shape. */
struct BackendCaps
{
    bool has_ssd = false; //!< flash-backed (any number of devices)
    bool has_isp = false; //!< sampling offloaded into the device
    EdgeStoreKind edge_store = EdgeStoreKind::None;
    /**
     * Config-knob namespaces this backend responds to. The builtin
     * namespaces ("ssd.", "isp.", "fpga.", "host.") are interpreted by
     * their subsystems; any other listed namespace is an *extension*:
     * core::applyKnob routes such keys into
     * SystemConfig::backend_knobs for the backend to read at build
     * time — which is how an out-of-core backend gets sweepable knobs
     * without touching core.
     */
    std::vector<std::string> knob_namespaces;
    /**
     * Whether registry-driven default grids include this backend:
     * servableBackendIds(), the backend-space family, and the
     * --stats-json document. Backends that exist for a dedicated sweep
     * family (the partitioned scale-out backend and its "scaling"
     * family) opt out so registering them leaves every pre-existing
     * default artifact byte-identical.
     */
    bool in_default_grids = true;
};

/** Sink for one named metric ("ssd_buffer_hit_frac", 0.93). */
using MetricSink = std::function<void(const std::string &, double)>;

/** Sink for one stats row: name, value, description. */
using StatSink =
    std::function<void(const std::string &, double, const std::string &)>;

/**
 * The live substrate of one GnnSystem: everything a backend built,
 * behind a uniform surface. GnnSystem and the experiment runner only
 * ever call these methods — no substrate-specific casts.
 */
class BackendInstance
{
  public:
    virtual ~BackendInstance() = default;

    /** The subgraph-generation path (design-point producer flavor). */
    virtual pipeline::SubgraphProducer &producer() = 0;

    /** Primary SSD device; null when the backend has none or several. */
    virtual ssd::SsdDevice *ssd() { return nullptr; }

    /** Host-side edge store; null for in-storage backends. */
    virtual host::EdgeStore *edgeStore() { return nullptr; }

    /** Append experiment metrics (runner table/JSON columns). */
    virtual void addMetrics(const MetricSink &add) const { (void)add; }

    /** One-line counter summary for the runner's notes column. */
    virtual std::string notes() const { return {}; }

    /** Append component counters to a stats dump. */
    virtual void addStats(const StatSink &add) const { (void)add; }
};

/** Everything a backend may consume while building its substrate. */
struct BackendBuildContext
{
    /**
     * The resolved, cache-scaled system config. Mutable on purpose:
     * backends may adjust substrate parameters (e.g. the dedicated-ISP
     * oracle adds embedded cores).
     */
    SystemConfig &config;
    const Workload &workload;
    const gnn::AnySampler &sampler;
};

/** A self-describing factory for one storage substrate. */
class StorageBackend
{
  public:
    virtual ~StorageBackend() = default;

    /** Registry key ("dram", "multi-ssd", ...). */
    virtual const std::string &id() const = 0;

    /** Display name (paper figure label for the seven paper points). */
    virtual const std::string &displayName() const = 0;

    /** One-line description for tables and docs. */
    virtual const std::string &summary() const = 0;

    /** Substrate shape and knob namespaces. */
    virtual const BackendCaps &caps() const = 0;

    /** Build the substrate for one system instantiation. */
    virtual std::unique_ptr<BackendInstance>
    build(const BackendBuildContext &ctx) const = 0;
};

/**
 * Backend described by static fields plus a build function — enough
 * for every backend so far; subclass StorageBackend directly only when
 * the description itself must be dynamic.
 */
class SimpleBackend : public StorageBackend
{
  public:
    using BuildFn =
        std::unique_ptr<BackendInstance> (*)(const BackendBuildContext &);

    SimpleBackend(std::string id, std::string display_name,
                  std::string summary, BackendCaps caps, BuildFn build)
        : id_(std::move(id)), display_name_(std::move(display_name)),
          summary_(std::move(summary)), caps_(std::move(caps)),
          build_(build)
    {
    }

    const std::string &id() const override { return id_; }
    const std::string &displayName() const override
    {
        return display_name_;
    }
    const std::string &summary() const override { return summary_; }
    const BackendCaps &caps() const override { return caps_; }
    std::unique_ptr<BackendInstance>
    build(const BackendBuildContext &ctx) const override
    {
        return build_(ctx);
    }

  private:
    std::string id_;
    std::string display_name_;
    std::string summary_;
    BackendCaps caps_;
    BuildFn build_;
};

/** The process-wide string-keyed backend registry. */
class BackendRegistry
{
  public:
    /** The singleton (function-local static; safe at static init). */
    static BackendRegistry &instance();

    /** Register a backend. Duplicate ids are fatal at startup. */
    void add(std::unique_ptr<StorageBackend> backend);

    /** Lookup by id. @return nullptr when absent */
    const StorageBackend *find(const std::string &id) const;

    /** Lookup by id; unknown ids are fatal, listing registered ids. */
    const StorageBackend &get(const std::string &id) const;

    /** Every registered backend, sorted by id. */
    std::vector<const StorageBackend *> all() const;

    /** Every registered id, sorted. */
    std::vector<std::string> ids() const;

    /** "a, b, c" rendering of ids() for error messages. */
    std::string idList() const;

  private:
    BackendRegistry() = default;
    std::map<std::string, std::unique_ptr<StorageBackend>> backends_;
};

/**
 * Registers a backend from a translation unit's static initializer:
 *
 *   namespace { core::BackendRegistrar reg{std::make_unique<...>()}; }
 *
 * The build links the whole object set (CMake OBJECT library), so
 * registrars are never dead-stripped out of the archive.
 */
struct BackendRegistrar
{
    explicit BackendRegistrar(std::unique_ptr<StorageBackend> backend)
    {
        BackendRegistry::instance().add(std::move(backend));
    }
};

/** Display name of backend @p id; unknown ids are fatal. */
const std::string &backendDisplayName(const std::string &id);

/** Ids of the paper's seven design points, in presentation order. */
const std::vector<std::string> &paperBackendIds();

// ---- shared helpers for backend implementations ----

/** Standard experiment metrics of one SSD device. */
void addSsdMetrics(const ssd::SsdDevice *ssd, const MetricSink &add);

/** Standard stats block of one SSD device (dumpStats "ssd.*" rows). */
void addSsdStats(ssd::SsdDevice *ssd, const StatSink &add);

/**
 * Fatal on any backend_knobs key under namespace @p ns (e.g.
 * "multi-ssd.") not listed in @p known (full key names). Backends call
 * this while reading their knobs so a misspelled knob fails loudly
 * instead of silently sweeping at the default value.
 */
void validateBackendKnobs(const SystemConfig &config,
                          std::string_view ns,
                          std::initializer_list<std::string_view> known);

/** SS_FATAL unless @p value is a whole number; returns it truncated. */
std::uint64_t requireIntegerKnob(const std::string &key, double value);

} // namespace smartsage::core

#endif // SMARTSAGE_CORE_BACKEND_HH
