/**
 * @file
 * The paper's seven design points as registered storage backends,
 * each under its registry id and paper figure label.
 */

#include "backend.hh"

#include "core/report.hh"
#include "host/feature_cache.hh"
#include "host/io_path.hh"
#include "isp/fpga_csd.hh"
#include "isp/isp_engine.hh"
#include "ssd/ssd_device.hh"

namespace smartsage::core
{

namespace
{

/**
 * Host-CPU sampling over an EdgeStore, with an optional SSD below.
 * The store is decorated with the feature cache when the `cache.*`
 * knobs enable one; `inner_` keeps the undecorated store for the
 * subclasses' typed counter access.
 */
class CpuStoreInstance : public BackendInstance
{
  public:
    CpuStoreInstance(const BackendBuildContext &ctx,
                     std::unique_ptr<ssd::SsdDevice> ssd,
                     std::unique_ptr<host::EdgeStore> store)
        : ssd_(std::move(ssd)), inner_(store.get()),
          store_(host::wrapWithFeatureCache(std::move(store), ctx)),
          producer_(ctx.workload.graph, ctx.sampler, *store_,
                    ctx.config.host, ctx.config.layout)
    {
    }

    pipeline::SubgraphProducer &producer() override { return producer_; }
    ssd::SsdDevice *ssd() override { return ssd_.get(); }
    host::EdgeStore *edgeStore() override { return store_.get(); }

    void
    addMetrics(const MetricSink &add) const override
    {
        addSsdMetrics(ssd_.get(), add);
    }

    void
    addStats(const StatSink &add) const override
    {
        addSsdStats(ssd_.get(), add);
    }

  protected:
    std::unique_ptr<ssd::SsdDevice> ssd_;
    host::EdgeStore *inner_; //!< undecorated store (typed stats)
    std::unique_ptr<host::EdgeStore> store_;
    pipeline::CpuProducer producer_;
};

// ---------------------------------------------------------------- DRAM

class DramInstance : public CpuStoreInstance
{
  public:
    using CpuStoreInstance::CpuStoreInstance;

    void
    addStats(const StatSink &add) const override
    {
        auto *dram = static_cast<host::DramEdgeStore *>(inner_);
        add("host.llc.miss_rate", dram->llc().missRate(),
            "LLC miss rate over edge reads");
    }
};

std::unique_ptr<BackendInstance>
buildDram(const BackendBuildContext &ctx)
{
    return std::make_unique<DramInstance>(
        ctx, nullptr,
        std::make_unique<host::DramEdgeStore>(ctx.config.host));
}

// ---------------------------------------------------------------- PMEM

std::unique_ptr<BackendInstance>
buildPmem(const BackendBuildContext &ctx)
{
    return std::make_unique<CpuStoreInstance>(
        ctx, nullptr,
        std::make_unique<host::PmemEdgeStore>(ctx.config.host));
}

// ---------------------------------------------------------- SSD (mmap)

class MmapInstance : public CpuStoreInstance
{
  public:
    using CpuStoreInstance::CpuStoreInstance;

    std::string
    notes() const override
    {
        auto *mm = static_cast<host::MmapEdgeStore *>(inner_);
        return "page cache " + fmtPct(mm->pageCacheHitRate()) +
               ", faults " + std::to_string(mm->pageFaults());
    }

    void
    addStats(const StatSink &add) const override
    {
        CpuStoreInstance::addStats(add);
        auto *mm = static_cast<host::MmapEdgeStore *>(inner_);
        add("host.page_cache.hit_rate", mm->pageCacheHitRate(),
            "OS page cache hit rate");
        add("host.page_faults", static_cast<double>(mm->pageFaults()),
            "major faults taken");
    }
};

std::unique_ptr<BackendInstance>
buildMmap(const BackendBuildContext &ctx)
{
    auto ssd = std::make_unique<ssd::SsdDevice>(ctx.config.ssd);
    auto store =
        std::make_unique<host::MmapEdgeStore>(ctx.config.host, *ssd);
    return std::make_unique<MmapInstance>(ctx, std::move(ssd),
                                          std::move(store));
}

// ----------------------------------------------------------- direct I/O

class DirectIoInstance : public CpuStoreInstance
{
  public:
    using CpuStoreInstance::CpuStoreInstance;

    std::string
    notes() const override
    {
        auto *dio = static_cast<host::DirectIoEdgeStore *>(inner_);
        return "scratchpad " + fmtPct(dio->scratchpadHitRate()) +
               ", submits " + std::to_string(dio->submits());
    }

    void
    addStats(const StatSink &add) const override
    {
        CpuStoreInstance::addStats(add);
        auto *dio = static_cast<host::DirectIoEdgeStore *>(inner_);
        add("host.scratchpad.hit_rate", dio->scratchpadHitRate(),
            "user scratchpad hit rate");
        add("host.direct_io.submits",
            static_cast<double>(dio->submits()), "O_DIRECT submissions");
    }
};

std::unique_ptr<BackendInstance>
buildDirectIo(const BackendBuildContext &ctx)
{
    auto ssd = std::make_unique<ssd::SsdDevice>(ctx.config.ssd);
    auto store =
        std::make_unique<host::DirectIoEdgeStore>(ctx.config.host, *ssd);
    return std::make_unique<DirectIoInstance>(ctx, std::move(ssd),
                                              std::move(store));
}

// ----------------------------------------------------- ISP / FPGA CSD

/**
 * In-storage subgraph generation: an SSD plus an offload engine and
 * its producer flavor. The ISP and FPGA design points only differ in
 * the (engine, producer, engine-config) triple.
 */
template <typename Engine, typename Producer, typename EngineConfig>
class InStorageInstance : public BackendInstance
{
  public:
    InStorageInstance(const BackendBuildContext &ctx,
                      const EngineConfig &engine_config, bool dedicated)
        : ssd_(std::make_unique<ssd::SsdDevice>(ctx.config.ssd,
                                                dedicated)),
          engine_(engine_config, *ssd_, ctx.config.layout),
          producer_(ctx.workload.graph, ctx.sampler, engine_, *ssd_)
    {
    }

    pipeline::SubgraphProducer &producer() override { return producer_; }
    ssd::SsdDevice *ssd() override { return ssd_.get(); }

    void
    addMetrics(const MetricSink &add) const override
    {
        addSsdMetrics(ssd_.get(), add);
    }

    void
    addStats(const StatSink &add) const override
    {
        addSsdStats(ssd_.get(), add);
    }

  private:
    std::unique_ptr<ssd::SsdDevice> ssd_;
    Engine engine_;
    Producer producer_;
};

using IspInstance = InStorageInstance<isp::IspEngine,
                                      pipeline::IspProducer,
                                      isp::IspConfig>;
using FpgaInstance = InStorageInstance<isp::FpgaCsdEngine,
                                       pipeline::FpgaProducer,
                                       isp::FpgaCsdConfig>;

std::unique_ptr<BackendInstance>
buildIspHwSw(const BackendBuildContext &ctx)
{
    return std::make_unique<IspInstance>(ctx, ctx.config.isp, false);
}

std::unique_ptr<BackendInstance>
buildIspOracle(const BackendBuildContext &ctx)
{
    // Newport-style CSD: a quad-core complex dedicated to ISP on top
    // of the firmware cores (Section VI-C).
    ctx.config.ssd.embedded_cores += 4;
    return std::make_unique<IspInstance>(ctx, ctx.config.isp, true);
}

std::unique_ptr<BackendInstance>
buildFpga(const BackendBuildContext &ctx)
{
    return std::make_unique<FpgaInstance>(ctx, ctx.config.fpga, false);
}

// -------------------------------------------------------- registration

BackendCaps
caps(bool has_ssd, bool has_isp, EdgeStoreKind store,
     std::vector<std::string> namespaces)
{
    return BackendCaps{has_ssd, has_isp, store, std::move(namespaces)};
}

const BackendRegistrar reg_dram{std::make_unique<SimpleBackend>(
    "dram", "DRAM",
    "infinite-DRAM in-memory oracle: edge list behind the host LLC",
    caps(false, false, EdgeStoreKind::Dram, {"host.", "cache."}),
    buildDram)};

const BackendRegistrar reg_mmap{std::make_unique<SimpleBackend>(
    "ssd-mmap", "SSD (mmap)",
    "baseline SSD: mmap'd edge file through the OS page cache",
    caps(true, false, EdgeStoreKind::Mmap,
         {"host.", "ssd.", "cache."}),
    buildMmap)};

const BackendRegistrar reg_dio{std::make_unique<SimpleBackend>(
    "direct-io", "SmartSAGE (SW)",
    "SmartSAGE(SW): O_DIRECT runtime with a user scratchpad, no ISP",
    caps(true, false, EdgeStoreKind::DirectIo,
         {"host.", "ssd.", "cache."}),
    buildDirectIo)};

const BackendRegistrar reg_hwsw{std::make_unique<SimpleBackend>(
    "isp-hwsw", "SmartSAGE (HW/SW)",
    "SmartSAGE(HW/SW): firmware in-storage subgraph generation",
    caps(true, true, EdgeStoreKind::None, {"ssd.", "isp."}),
    buildIspHwSw)};

const BackendRegistrar reg_oracle{std::make_unique<SimpleBackend>(
    "isp-oracle", "SmartSAGE (oracle)",
    "ISP oracle: Newport-style dedicated in-storage cores",
    caps(true, true, EdgeStoreKind::None, {"ssd.", "isp."}),
    buildIspOracle)};

const BackendRegistrar reg_pmem{std::make_unique<SimpleBackend>(
    "pmem", "PMEM",
    "Optane DC PMEM on the memory bus, byte-granular loads",
    caps(false, false, EdgeStoreKind::Pmem, {"host.", "cache."}),
    buildPmem)};

const BackendRegistrar reg_fpga{std::make_unique<SimpleBackend>(
    "fpga-csd", "FPGA-CSD",
    "SmartSSD-style FPGA CSD: P2P transfer + hardwired gather unit",
    caps(true, true, EdgeStoreKind::None, {"ssd.", "fpga."}),
    buildFpga)};

} // namespace

} // namespace smartsage::core
