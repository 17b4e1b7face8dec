/** @file Tests for the scenario grid, config knobs, and the
 *  ExperimentRunner: expansion, worker-count determinism, golden
 *  equivalence against direct GnnSystem runs, JSON schema, and the
 *  family-to-document routing of writeBenchArtifacts. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/experiment.hh"
#include "core/scenario.hh"
#include "core/system.hh"

namespace fs = std::filesystem;
using namespace smartsage;
using namespace smartsage::core;

namespace
{

/** A fresh, missing scratch directory private to this process. */
fs::path
scratchDir(const std::string &tag)
{
    fs::path dir = fs::temp_directory_path() /
                   ("bench-artifacts-" + std::to_string(::getpid()) + "-" +
                    tag);
    fs::remove_all(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::set<std::string>
filesIn(const fs::path &dir)
{
    std::set<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir))
        names.insert(entry.path().filename().string());
    return names;
}

/** A small serving-load run: one backend, one rate, few requests. */
ScenarioRun
tinyServingRun(ExperimentRunner &runner)
{
    Scenario s = smokeVariant(*findScenario("serving-load"));
    s.backends = {"dram"};
    s.arrival_rates = {10000};
    s.queue_depths = {8};
    s.serve_requests = 64;
    return runner.run(s);
}

/** A tiny two-axis scenario over the in-memory Amazon workload. */
Scenario
tinyScenario(ExperimentKind kind)
{
    Scenario s;
    s.family = "tiny";
    s.title = "tiny test scenario";
    s.kind = kind;
    s.datasets = {graph::DatasetId::Amazon};
    s.large_scale = false;
    s.backends = {"dram", "isp-hwsw"};
    s.fanout_grid = {{6, 3}};
    s.batch_sizes = {32, 64};
    s.worker_grid = {2};
    s.num_batches = 3;
    return s;
}

std::string
render(const ScenarioRun &run)
{
    std::ostringstream os;
    ExperimentRunner::table(run).print(os);
    return os.str();
}

} // namespace

TEST(Knobs, SubsystemDispatchMutatesTheRightField)
{
    SystemConfig sc;
    EXPECT_TRUE(applyKnob(sc, {"ssd.flash.channels", 16}));
    EXPECT_EQ(sc.ssd.flash.channels, 16u);
    EXPECT_TRUE(applyKnob(sc, {"ssd.page_buffer_ways", 8}));
    EXPECT_EQ(sc.ssd.page_buffer_ways, 8u);
    EXPECT_TRUE(applyKnob(sc, {"isp.coalesce_targets", 64}));
    EXPECT_EQ(sc.isp.coalesce_targets, 64u);
    EXPECT_TRUE(applyKnob(sc, {"fpga.queue_depth", 32}));
    EXPECT_EQ(sc.fpga.queue_depth, 32u);
    EXPECT_TRUE(applyKnob(sc, {"host.page_fault_cost_us", 14}));
    EXPECT_EQ(sc.host.page_fault_cost, sim::us(14));
    EXPECT_TRUE(applyKnob(sc, {"ssd_buffer_fraction", 0.5}));
    EXPECT_DOUBLE_EQ(sc.ssd_buffer_fraction, 0.5);
    EXPECT_TRUE(applyKnob(sc, {"use_saint", 1}));
    EXPECT_TRUE(sc.use_saint);
}

TEST(Knobs, UnknownKeysAreRejected)
{
    SystemConfig sc;
    EXPECT_FALSE(applyKnob(sc, {"ssd.flash.bogus", 1}));
    EXPECT_FALSE(applyKnob(sc, {"isp.bogus", 1}));
    EXPECT_FALSE(applyKnob(sc, {"host.bogus", 1}));
    EXPECT_FALSE(applyKnob(sc, {"bogus", 1}));
}

TEST(Knobs, LabelRendersCompactly)
{
    EXPECT_EQ(KnobSetting({"ssd.flash.channels", 16}).label(),
              "ssd.flash.channels=16");
    EXPECT_EQ(KnobSetting({"ssd_buffer_fraction", 0.4}).label(),
              "ssd_buffer_fraction=0.4");
}

TEST(Scenario, GridExpansionCoversEveryAxisCombination)
{
    Scenario s = tinyScenario(ExperimentKind::SamplingOnly);
    s.overrides = {{}, {{"ssd.flash.channels", 4}}};
    s.worker_grid = {1, 2};
    EXPECT_EQ(s.gridSize(), 2u * 2u * 2u * 2u);

    auto cells = expandScenario(s);
    ASSERT_EQ(cells.size(), s.gridSize());
    std::set<std::string> labels;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].index, i);
        EXPECT_EQ(cells[i].family, "tiny");
        labels.insert(cells[i].label());
    }
    // Every cell is a distinct grid point.
    EXPECT_EQ(labels.size(), cells.size());
}

TEST(Scenario, CellConfigsResolveKnobsAndSeeds)
{
    Scenario s = tinyScenario(ExperimentKind::SamplingOnly);
    s.backends = {"isp-hwsw"};
    s.batch_sizes = {64};
    s.overrides = {{}, {{"ssd.flash.channels", 4}}};
    auto cells = expandScenario(s);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].config.ssd.flash.channels, 8u); // default
    EXPECT_EQ(cells[1].config.ssd.flash.channels, 4u); // overridden
    // Per-cell RNG forks: independent, deterministic streams.
    EXPECT_NE(cells[0].config.pipeline.seed,
              cells[1].config.pipeline.seed);
    auto again = expandScenario(s);
    EXPECT_EQ(cells[0].config.pipeline.seed,
              again[0].config.pipeline.seed);
}

TEST(Scenario, BatchMixPropagatesToPipelineConfig)
{
    Scenario s = tinyScenario(ExperimentKind::Pipeline);
    s.backends = {"dram"};
    s.batch_sizes = {64};
    s.batch_mixes = {{16, 48}};
    auto cells = expandScenario(s);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].config.pipeline.batch_mix,
              (std::vector<std::size_t>{16, 48}));
}

TEST(Scenario, BuiltinFamiliesExpandAndAreFindable)
{
    ASSERT_FALSE(builtinScenarios().empty());
    std::set<std::string> families;
    for (const auto &s : builtinScenarios()) {
        families.insert(s.family);
        EXPECT_GT(s.gridSize(), 0u) << s.family;
        EXPECT_EQ(expandScenario(s).size(), s.gridSize()) << s.family;
        EXPECT_EQ(findScenario(s.family), &s);
    }
    EXPECT_EQ(families.size(), builtinScenarios().size());
    // The families the roadmap calls out by name.
    EXPECT_NE(findScenario("design-space"), nullptr);
    EXPECT_NE(findScenario("fanout-sweep"), nullptr);
    EXPECT_NE(findScenario("ssd-geometry"), nullptr);
    EXPECT_NE(findScenario("tenant-mix"), nullptr);
    EXPECT_EQ(findScenario("no-such-family"), nullptr);
}

TEST(Scenario, SmokeVariantPreservesGridShape)
{
    const Scenario *full = findScenario("design-space");
    ASSERT_NE(full, nullptr);
    Scenario smoke = smokeVariant(*full);
    EXPECT_EQ(smoke.gridSize(), full->gridSize());
    EXPECT_FALSE(smoke.large_scale);
    EXPECT_LE(smoke.num_batches, 4u);
}

TEST(Runner, SamplingResultsIdenticalAtAnyWorkerCount)
{
    Scenario s = tinyScenario(ExperimentKind::SamplingOnly);
    ExperimentRunner serial(RunnerOptions{1, false, false});
    ExperimentRunner parallel(RunnerOptions{4, false, false});
    ScenarioRun a = serial.run(s);
    ScenarioRun b = parallel.run(s);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        ASSERT_EQ(a.cells[i].metrics.size(), b.cells[i].metrics.size());
        for (std::size_t m = 0; m < a.cells[i].metrics.size(); ++m) {
            EXPECT_EQ(a.cells[i].metrics[m].name,
                      b.cells[i].metrics[m].name);
            // Simulated time: bit-exact, not approximately equal.
            EXPECT_EQ(a.cells[i].metrics[m].value,
                      b.cells[i].metrics[m].value);
        }
        EXPECT_EQ(a.cells[i].notes, b.cells[i].notes);
    }
    EXPECT_EQ(render(a), render(b));
}

TEST(Runner, PipelineResultsIdenticalAtAnyWorkerCount)
{
    Scenario s = tinyScenario(ExperimentKind::Pipeline);
    s.batch_mixes = {{}, {16, 64}};
    ExperimentRunner serial(RunnerOptions{1, false, false});
    ExperimentRunner parallel(RunnerOptions{3, false, false});
    ScenarioRun a = serial.run(s);
    ScenarioRun b = parallel.run(s);
    EXPECT_EQ(render(a), render(b));
    // The JSON artifact carries the same contract, byte for byte.
    std::ostringstream ja, jb;
    writeDesignSpaceJson(ja, {a});
    writeDesignSpaceJson(jb, {b});
    EXPECT_EQ(ja.str(), jb.str());
}

TEST(Runner, GoldenCellMatchesDirectSystemRun)
{
    // The runner must report exactly what a hand-wired GnnSystem
    // produces for the same resolved config — the design_space example
    // output is this equivalence, table-wide.
    Scenario s = tinyScenario(ExperimentKind::Pipeline);
    ExperimentRunner runner;
    ScenarioRun run = runner.run(s);
    ASSERT_EQ(run.cells.size(), s.gridSize());

    for (const auto &cell : run.cells) {
        GnnSystem system(cell.cell.config,
                         runner.workload(cell.cell.dataset, false));
        auto direct = system.runPipeline();
        EXPECT_EQ(cell.metric("batches_per_s"), direct.throughput())
            << cell.cell.label();
        EXPECT_EQ(cell.metric("gpu_idle_frac"), direct.gpu_idle_frac)
            << cell.cell.label();
    }
}

TEST(Runner, GoldenSamplingCellMatchesDirectSystemRun)
{
    Scenario s = tinyScenario(ExperimentKind::SamplingOnly);
    s.batch_sizes = {32};
    ExperimentRunner runner;
    ScenarioRun run = runner.run(s);
    for (const auto &cell : run.cells) {
        GnnSystem system(cell.cell.config,
                         runner.workload(cell.cell.dataset, false));
        auto direct = system.runSamplingOnly(cell.cell.sim_workers,
                                             cell.cell.num_batches);
        EXPECT_EQ(cell.metric("batches_per_s"),
                  direct.batchesPerSecond())
            << cell.cell.label();
    }
}

TEST(Runner, TableShowsVaryingAxesAndMetrics)
{
    Scenario s = tinyScenario(ExperimentKind::SamplingOnly);
    ExperimentRunner runner;
    std::string out = render(runner.run(s));
    EXPECT_NE(out.find("design"), std::string::npos);
    EXPECT_NE(out.find("batch"), std::string::npos);
    EXPECT_NE(out.find("batches_per_s"), std::string::npos);
    EXPECT_NE(out.find("SmartSAGE (HW/SW)"), std::string::npos);
    // Non-varying axes stay out of the table.
    EXPECT_EQ(out.find("fanouts"), std::string::npos);
    EXPECT_EQ(out.find("mix"), std::string::npos);
}

TEST(Runner, CollectStatsCapturesComponentCounters)
{
    Scenario s = tinyScenario(ExperimentKind::SamplingOnly);
    s.backends = {"isp-hwsw"};
    s.batch_sizes = {32};
    ExperimentRunner runner(RunnerOptions{1, false, true});
    ScenarioRun run = runner.run(s);
    ASSERT_EQ(run.cells.size(), 1u);
    EXPECT_NE(run.cells[0].stats.find("ssd.flash.pages_read"),
              std::string::npos);
}

TEST(Json, DesignSpaceArtifactHasRequiredSchema)
{
    Scenario s = tinyScenario(ExperimentKind::SamplingOnly);
    s.overrides = {{{"ssd.flash.channels", 4}}};
    ExperimentRunner runner;
    auto runs = runner.runAll({s});
    std::ostringstream os;
    writeDesignSpaceJson(os, runs);
    std::string json = os.str();
    for (const char *key :
         {"\"bench\": \"design_space\"", "\"schema_version\": 1",
          "\"config\"", "\"results\"", "\"tiny\"", "\"cells\"",
          "\"batches_per_s\"", "\"ssd.flash.channels\": 4"})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // Balanced braces: cheap structural sanity without a parser.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(BenchArtifacts, EveryFamilyRoutesToOneTableRow)
{
    const std::vector<BenchArtifact> &rows = benchArtifacts();
    std::vector<Scenario> all = builtinScenarios();
    all.insert(all.end(), extraScenarios().begin(), extraScenarios().end());
    std::set<std::string> reached;
    for (const Scenario &s : all) {
        const BenchArtifact &row = benchArtifactFor(s);
        EXPECT_EQ(std::count_if(rows.begin(), rows.end(),
                                [&](const BenchArtifact &r) {
                                    return &r == &row;
                                }),
                  1)
            << s.family;
        reached.insert(row.file);
    }
    // No row is dead: some family lands in every document.
    EXPECT_EQ(reached.size(), rows.size());
    EXPECT_STREQ(benchArtifactFor(*findScenario("design-space")).file,
                 "BENCH_designspace.json");
    EXPECT_STREQ(benchArtifactFor(*findScenario("backend-space")).file,
                 "BENCH_designspace.json");
    EXPECT_STREQ(benchArtifactFor(*findScenario("serving-load")).file,
                 "BENCH_serving.json");
    EXPECT_EQ(&benchArtifactFor(*findScenario("cache-policy")),
              &benchArtifactFor(*findScenario("cache-policy-throughput")));
    EXPECT_STREQ(benchArtifactFor(*findScenario("scaling")).bench,
                 "scaling_space");
}

TEST(BenchArtifacts, TagsFilesAndBenchIdsAreUnique)
{
    const std::vector<BenchArtifact> &rows = benchArtifacts();
    std::set<std::string> tags, files, benches;
    for (const BenchArtifact &a : rows) {
        tags.insert(a.tag);
        files.insert(a.file);
        benches.insert(a.bench);
    }
    EXPECT_EQ(rows.size(), 7u);
    EXPECT_EQ(tags.size(), rows.size());
    EXPECT_EQ(files.size(), rows.size());
    EXPECT_EQ(benches.size(), rows.size());
}

TEST(BenchArtifacts, WritesOneFilePerReachedDocumentWithWriterBytes)
{
    ExperimentRunner runner;
    ScenarioRun sweep = runner.run(tinyScenario(ExperimentKind::SamplingOnly));
    ScenarioRun serving = tinyServingRun(runner);

    // A missing nested directory is created on demand.
    fs::path root = scratchDir("two-rows");
    fs::path dir = root / "nested";
    std::vector<std::string> written =
        writeBenchArtifacts(dir.string(), {sweep, serving});
    EXPECT_EQ(written.size(), 2u);
    EXPECT_EQ(filesIn(dir),
              (std::set<std::string>{"BENCH_designspace.json",
                                     "BENCH_serving.json"}));

    std::ostringstream design, serve;
    writeDesignSpaceJson(design, {sweep});
    writeServingJson(serve, {serving});
    EXPECT_EQ(slurp(dir / "BENCH_designspace.json"), design.str());
    EXPECT_EQ(slurp(dir / "BENCH_serving.json"), serve.str());
    fs::remove_all(root);
}

TEST(BenchArtifacts, ServingOnlyRunWritesNoDesignSpaceDocument)
{
    ExperimentRunner runner;
    fs::path dir = scratchDir("serving-only");
    writeBenchArtifacts(dir.string(), {tinyServingRun(runner)});
    EXPECT_EQ(filesIn(dir), (std::set<std::string>{"BENCH_serving.json"}));
    fs::remove_all(dir);
}

TEST(BenchArtifacts, ScalingDocumentCarriesScalingEfficiency)
{
    // Two hand-built cells differing only in part.nodes: the two-node
    // cell samples twice as fast, so its speedup is 2 and its
    // efficiency exactly 1.
    ScenarioRun run;
    run.scenario = *findScenario("scaling");
    for (double nodes : {1.0, 2.0}) {
        CellResult cell;
        cell.cell.backend = "partitioned";
        cell.cell.knobs = {{"part.nodes", nodes}};
        cell.metrics = {{"avg_sample_ms", 4.0 / nodes}};
        run.cells.push_back(cell);
    }
    fs::path dir = scratchDir("scaling");
    writeBenchArtifacts(dir.string(), {run});
    EXPECT_EQ(filesIn(dir), (std::set<std::string>{"BENCH_scaling.json"}));
    std::string json = slurp(dir / "BENCH_scaling.json");
    EXPECT_NE(json.find("\"bench\": \"scaling_space\""), std::string::npos);
    EXPECT_NE(json.find("\"avg_sample_ms\": 2, \"scaling_speedup\": 2, "
                        "\"scaling_efficiency\": 1"),
              std::string::npos)
        << json;
    fs::remove_all(dir);
}

TEST(JsonDeath, ExpansionRejectsUnknownKnob)
{
    Scenario s = tinyScenario(ExperimentKind::SamplingOnly);
    s.overrides = {{{"ssd.flash.bogus_knob", 1}}};
    EXPECT_DEATH(expandScenario(s), "unknown config knob");
}

TEST(JsonDeath, ExpansionRejectsDuplicateBackend)
{
    Scenario s = tinyScenario(ExperimentKind::SamplingOnly);
    s.backends = {"dram", "isp-hwsw", "dram"};
    EXPECT_DEATH(expandScenario(s), "backend 'dram' listed twice");
}

TEST(JsonDeath, BenchArtifactsRejectRepeatedFamily)
{
    ScenarioRun run;
    run.scenario = tinyScenario(ExperimentKind::SamplingOnly);
    fs::path dir = scratchDir("repeat");
    EXPECT_DEATH(writeBenchArtifacts(dir.string(), {run, run}),
                 "family 'tiny' ran twice");
    EXPECT_FALSE(fs::exists(dir));
}
