/** @file Tests for the paper backends, the system builder, and
 *  reporting. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/backend.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/system.hh"
#include "gnn/tensor.hh"
#include "host/io_path.hh"

using namespace smartsage;
using namespace smartsage::core;

namespace
{

/** Shared small workload: building graphs is the expensive part. */
const Workload &
smallWorkload()
{
    static Workload wl = [] {
        Workload w = Workload::make(graph::DatasetId::Amazon, false);
        return w;
    }();
    return wl;
}

SystemConfig
smallConfig(const std::string &backend)
{
    SystemConfig sc;
    sc.backend = backend;
    sc.fanouts = {6, 3};
    sc.pipeline.batch_size = 64;
    sc.pipeline.num_batches = 4;
    sc.pipeline.workers = 2;
    return sc;
}

} // namespace

TEST(Backend, PaperIdsLabelsAndDefaultsArePinned)
{
    const std::vector<std::pair<std::string, std::string>> expected = {
        {"dram", "DRAM"},
        {"ssd-mmap", "SSD (mmap)"},
        {"direct-io", "SmartSAGE (SW)"},
        {"isp-hwsw", "SmartSAGE (HW/SW)"},
        {"isp-oracle", "SmartSAGE (oracle)"},
        {"pmem", "PMEM"},
        {"fpga-csd", "FPGA-CSD"},
    };
    const auto &ids = paperBackendIds();
    ASSERT_EQ(ids.size(), expected.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(ids[i], expected[i].first);
        EXPECT_EQ(backendDisplayName(ids[i]), expected[i].second);
    }
    // Unconfigured systems and scenarios run the proposed design.
    EXPECT_EQ(SystemConfig{}.backend, "isp-hwsw");
    EXPECT_EQ(Scenario{}.backends, std::vector<std::string>{"isp-hwsw"});
}

TEST(System, EveryPaperBackendConstructsAndSamples)
{
    for (const auto &backend : paperBackendIds()) {
        GnnSystem system(smallConfig(backend), smallWorkload());
        auto r = system.runSamplingOnly(2, 3);
        EXPECT_EQ(r.batches, 3u) << backend;
        EXPECT_GT(r.makespan, 0u) << backend;
        EXPECT_GT(r.avg_batch_us, 0.0) << backend;
    }
}

TEST(System, EdgeStoreTypesMatchDesign)
{
    GnnSystem dram(smallConfig("dram"), smallWorkload());
    EXPECT_NE(dynamic_cast<host::DramEdgeStore *>(dram.edgeStore()),
              nullptr);
    EXPECT_EQ(dram.ssd(), nullptr);

    GnnSystem mm(smallConfig("ssd-mmap"), smallWorkload());
    EXPECT_NE(dynamic_cast<host::MmapEdgeStore *>(mm.edgeStore()),
              nullptr);
    EXPECT_NE(mm.ssd(), nullptr);

    GnnSystem hwsw(smallConfig("isp-hwsw"), smallWorkload());
    EXPECT_EQ(hwsw.edgeStore(), nullptr);
    EXPECT_NE(hwsw.ssd(), nullptr);
}

TEST(System, CacheBudgetsScaleWithDataset)
{
    SystemConfig sc = smallConfig("ssd-mmap");
    GnnSystem system(sc, smallWorkload());
    std::uint64_t edge_bytes =
        smallWorkload().edgeListBytes(sc.layout);
    auto cache = system.config().host.page_cache_bytes;
    EXPECT_NEAR(static_cast<double>(cache),
                sc.page_cache_fraction * edge_bytes,
                0.05 * edge_bytes + (1 << 20));
}

TEST(System, SaintSamplerSelectable)
{
    SystemConfig sc = smallConfig("dram");
    sc.use_saint = true;
    sc.saint_walk_length = 3;
    EXPECT_EQ(sc.depth(), 3u);
    GnnSystem system(sc, smallWorkload());
    auto r = system.runSamplingOnly(1, 2);
    EXPECT_EQ(r.batches, 2u);
}

TEST(System, PipelineRunsForIspDesign)
{
    GnnSystem system(smallConfig("isp-hwsw"), smallWorkload());
    auto r = system.runPipeline();
    EXPECT_EQ(r.batches, 4u);
    EXPECT_GT(r.throughput(), 0.0);
}

TEST(System, OracleFasterOrEqualToHwSw)
{
    auto run = [&](const std::string &backend) {
        GnnSystem system(smallConfig(backend), smallWorkload());
        return system.runSamplingOnly(4, 8).makespan;
    };
    EXPECT_LE(run("isp-oracle"), run("isp-hwsw"));
}

TEST(System, ConstructionLeavesKernelDispatchAlone)
{
    // No configuration writes the process-wide kernel flavor, so a
    // test or bench pin survives every GnnSystem built under it.
    gnn::ScopedKernelDispatch scalar(gnn::KernelDispatch::Scalar);
    GnnSystem system(smallConfig("dram"), smallWorkload());
    EXPECT_EQ(gnn::kernelDispatch(), gnn::KernelDispatch::Scalar);
}

TEST(Report, TableRendersAllCells)
{
    TableReporter t("Fig X", {"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("Fig X"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmtX(2.5, 1), "2.5x");
    EXPECT_EQ(fmtPct(0.123, 1), "12.3%");
}

TEST(Report, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 3.0}), 2.0);
}

TEST(ReportDeath, RowWidthMismatchPanics)
{
    TableReporter t("t", {"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(ReportDeath, GeomeanRejectsNonPositive)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
}
