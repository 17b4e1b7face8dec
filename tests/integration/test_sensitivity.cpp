/** @file Sensitivity-study integration tests mirroring Section VI-F of
 *  the paper, plus stats-report coverage. The batch-size sweep runs as
 *  a declarative scenario through core::ExperimentRunner; the rest
 *  drive GnnSystem directly. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/experiment.hh"
#include "core/scenario.hh"
#include "core/system.hh"

using namespace smartsage;
using namespace smartsage::core;

namespace
{

const Workload &
workload()
{
    static Workload wl =
        Workload::make(graph::DatasetId::Reddit, false);
    return wl;
}

SystemConfig
config(const std::string &backend)
{
    SystemConfig sc;
    sc.backend = backend;
    sc.fanouts = {10, 5};
    sc.pipeline.batch_size = 128;
    return sc;
}

double
speedupOverMmap(const SystemConfig &hwsw_cfg,
                const SystemConfig &mmap_cfg, unsigned workers,
                std::size_t batches)
{
    GnnSystem hwsw(hwsw_cfg, workload());
    GnnSystem mmap(mmap_cfg, workload());
    return hwsw.runSamplingOnly(workers, batches).batchesPerSecond() /
           mmap.runSamplingOnly(workers, batches).batchesPerSecond();
}

} // namespace

TEST(Sensitivity, BatchSizeHasLittleEffectOnSpeedup)
{
    // Section VI-F: "the chosen mini-batch size [has] little effect on
    // SmartSAGE's achieved speedup." Runs the built-in "batch-size"
    // scenario family at test scale through the runner.
    const Scenario *builtin = findScenario("batch-size");
    ASSERT_NE(builtin, nullptr);
    Scenario scenario = smokeVariant(*builtin);
    scenario.num_batches = 8;

    ExperimentRunner runner;
    ScenarioRun run = runner.run(scenario);
    ASSERT_EQ(run.cells.size(), scenario.gridSize());

    auto tput = [&run](const std::string &backend, std::size_t batch) {
        for (const auto &cell : run.cells)
            if (cell.cell.backend == backend &&
                cell.cell.batch_size == batch)
                return cell.metric("batches_per_s");
        return 0.0;
    };
    std::vector<double> speedups;
    for (std::size_t bs : scenario.batch_sizes) {
        double mmap = tput("ssd-mmap", bs);
        ASSERT_GT(mmap, 0.0);
        speedups.push_back(tput("isp-hwsw", bs) / mmap);
    }
    double lo = *std::min_element(speedups.begin(), speedups.end());
    double hi = *std::max_element(speedups.begin(), speedups.end());
    EXPECT_GT(lo, 1.0);           // HW/SW always wins
    EXPECT_LT(hi / lo, 2.0);      // and the win is batch-size stable
}

TEST(Sensitivity, LargerSamplingRateShrinksIspAdvantage)
{
    // Fig 21's trend between the default and 2x sampling rates.
    auto ratio_at = [&](std::vector<unsigned> fanouts) {
        SystemConfig hw = config("isp-hwsw");
        SystemConfig mm = config("ssd-mmap");
        hw.fanouts = fanouts;
        mm.fanouts = fanouts;
        return speedupOverMmap(hw, mm, 4, 8);
    };
    double at_default = ratio_at({10, 5});
    double at_double = ratio_at({20, 10});
    EXPECT_GT(at_default, at_double * 0.95);
}

TEST(Sensitivity, SaintSamplerAlsoBenefitsFromIsp)
{
    // Fig 20's robustness claim under the random-walk sampler.
    SystemConfig hw = config("isp-hwsw");
    SystemConfig mm = config("ssd-mmap");
    hw.use_saint = true;
    hw.saint_walk_length = 3;
    mm.use_saint = true;
    mm.saint_walk_length = 3;
    EXPECT_GT(speedupOverMmap(hw, mm, 4, 8), 1.0);
}

TEST(Sensitivity, CoalescingGranularityMonotonicity)
{
    // Fig 15 trend at the system level: 1024 >= 64 >= 1.
    auto tput_at = [&](std::size_t coalesce) {
        SystemConfig sc = config("isp-hwsw");
        sc.isp.coalesce_targets = coalesce;
        GnnSystem system(sc, workload());
        return system.runSamplingOnly(1, 6).batchesPerSecond();
    };
    double full = tput_at(1024);
    double mid = tput_at(64);
    double fine = tput_at(1);
    EXPECT_GE(full, mid * 0.99);
    EXPECT_GT(mid, fine);
}

TEST(Stats, DumpReportsSsdCountersAfterRun)
{
    GnnSystem system(config("isp-hwsw"), workload());
    system.runSamplingOnly(2, 4);
    std::ostringstream os;
    system.dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("ssd.flash.pages_read"), std::string::npos);
    EXPECT_NE(out.find("ssd.page_buffer.hit_rate"), std::string::npos);
    EXPECT_NE(out.find("graph.edges"), std::string::npos);
}

TEST(Stats, DumpReportsHostCountersForMmap)
{
    GnnSystem system(config("ssd-mmap"), workload());
    system.runSamplingOnly(2, 4);
    std::ostringstream os;
    system.dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("host.page_cache.hit_rate"), std::string::npos);
    EXPECT_NE(out.find("host.page_faults"), std::string::npos);
}

TEST(Stats, DumpReportsScratchpadForDirectIo)
{
    GnnSystem system(config("direct-io"), workload());
    system.runSamplingOnly(2, 4);
    std::ostringstream os;
    system.dumpStats(os);
    EXPECT_NE(os.str().find("host.direct_io.submits"),
              std::string::npos);
}
