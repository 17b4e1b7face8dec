/**
 * @file
 * smartsage_bench: the measuring half of the end-to-end benchmark.
 * run.py builds it, runs one process per workload, checks what it
 * reports and turns the raw samples into metrics.
 *
 * Usage:
 *   smartsage_bench --workload W --out raw.json [--seed N]
 *                   (--seconds S | --reps R)
 *                   [--trace-out trace.json] [--smoke]
 *
 * One run: a set-up, one untimed warm-up rep, timed reps with tracing
 * off for the whole window (or R of them), more set-ups (the median of
 * all is reported), then one traced rep through the probes of
 * probes.hh. Every rep does the same fixed work, so reps are comparable
 * across runs and commits; the window only sets how many. The traced
 * rep comes after every end-to-end sample, so it cannot change them.
 *
 * Workloads (see README.md for why each exists):
 *   train-amazon, train-reddit  functional GraphSAGE training
 *   sim-train-isp, sim-train-mmap  simulated training pipeline
 *   serve-cached                 open-loop serving, LRU feature cache
 */

#include <malloc.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hh"
#include "core/serving.hh"
#include "core/system.hh"
#include "pipeline/trainer.hh"
#include "probes.hh"
#include "sim/serialize.hh"
#include "sim/thread_pool.hh"

using namespace e2e;

namespace
{

// ------------------------------------------------------------------ JSON

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** A JSON object whose values are rendered as they are added. */
struct Obj
{
    std::vector<std::pair<std::string, std::string>> fields;

    Obj &
    num(const std::string &key, double v)
    {
        fields.emplace_back(key, ::num(v));
        return *this;
    }

    Obj &
    str(const std::string &key, const std::string &v)
    {
        fields.emplace_back(key, quote(v));
        return *this;
    }

    Obj &
    raw(const std::string &key, std::string json)
    {
        fields.emplace_back(key, std::move(json));
        return *this;
    }

    std::string
    render() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < fields.size(); ++i)
            out += (i ? ", " : "") + quote(fields[i].first) + ": " +
                   fields[i].second;
        return out + "}";
    }
};

std::string
arr(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? ",\n  " : "") + items[i];
    return out + "]";
}

std::string
arr(const std::vector<double> &values)
{
    std::vector<std::string> items;
    for (double v : values)
        items.push_back(num(v));
    return arr(items);
}

// --------------------------------------------------------------- options

struct Options
{
    std::string workload;
    std::uint64_t seed = 0xba7c;
    double seconds = 0; //!< untraced measurement window
    int reps = 0;       //!< > 0: fixed rep count instead of the window
    bool smoke = false;
    std::string out;
    std::string trace_out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "smartsage_bench: " << why
              << "\nusage: smartsage_bench --workload W --out FILE "
                 "[--seed N] (--seconds S | --reps R) "
                 "[--trace-out FILE] [--smoke]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--reps")
                o.reps = std::stoi(value());
            else if (a == "--out")
                o.out = value();
            else if (a == "--trace-out")
                o.trace_out = value();
            else if (a == "--smoke")
                o.smoke = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty() || o.out.empty())
        usage("--workload and --out are required");
    if (o.reps < 0 || !(o.reps > 0 || o.seconds > 0))
        usage("give a positive --seconds or --reps");
    return o;
}

double
secondsSince(Clock::time_point t0)
{
    return nsBetween(t0, Clock::now()) / 1e9;
}

// ---------------------------------------------------------------- report

/** Everything one workload run reports; run.py derives the metrics. */
struct Report
{
    std::string item; //!< what one unit of `items` is
    std::vector<double> setup_s, graph_ms, system_ms;
    std::vector<std::string> reps; //!< untraced, rendered objects
    std::string traced = "{}";     //!< the traced rep, rendered
    /** Per-layer metrics that repeat exactly for a seed: simulated
     *  outputs and functional counts (from the traced rep). */
    Obj exact;
    std::string stats = "{}";        //!< component counters (stats map)
    double peak_rss_mib = 0;
};

/** One rep's common fields. */
Obj
repObj(double wall_s, double items, double failed)
{
    Obj o;
    o.num("wall_s", wall_s).num("items", items).num("failed", failed);
    return o;
}

/** Set-ups per run. One is short (milliseconds); the median of
 *  several is steady where one alone is not. */
constexpr std::size_t kSetups = 15;

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Warm-up, then untraced reps for the whole window (at least three),
 * then the remaining set-up samples (@p setUp), then one traced rep.
 * Each rep closure runs one rep and returns its rendered object. Peak
 * RSS is read before the extra set-ups: building and dropping workloads
 * leaves a run-dependent amount of freed heap behind.
 */
void
measure(const Options &o, Report &report,
        const std::function<std::string()> &untraced,
        const std::function<std::string()> &traced,
        const std::function<void()> &setUp)
{
    untraced(); // warm-up: caches, page faults, lazy pools

    const std::size_t fixed = static_cast<std::size_t>(o.reps);
    auto t0 = Clock::now();
    do
        report.reps.push_back(untraced());
    while (fixed ? report.reps.size() < fixed
                 : (report.reps.size() < 3 || secondsSince(t0) < o.seconds));
    report.peak_rss_mib = peakRssMib();
    while (report.setup_s.size() < kSetups)
        setUp();
    report.traced = traced();
}

/** Write @p log as the run's Chrome trace, when one was asked for. */
void
writeTrace(const Options &o, const SpanLog &log)
{
    if (o.trace_out.empty())
        return;
    std::ofstream f(o.trace_out);
    log.writeChromeTrace(f, o.workload);
}

std::string
statsMap(const core::GnnSystem &system)
{
    std::ostringstream os;
    system.dumpStatsJsonMap(os, "");
    return os.str();
}

/** FNV-1a over a canonical rendering of simulated outputs. */
std::string
digest(const std::string &canonical)
{
    return hex(sim::fnv1a64(canonical.data(), canonical.size()));
}

/** Time @p fn into @p ms_out; returns its result. */
template <typename F>
auto
timedMs(std::vector<double> &ms_out, F &&fn)
{
    auto t0 = Clock::now();
    auto result = fn();
    ms_out.push_back(nsBetween(t0, Clock::now()) / 1e6);
    return result;
}

/** Samplers feeding the one trainer thread: nproc in total, at most 4. */
unsigned
samplerThreads()
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::clamp(hw - 1, 1u, 3u);
}

/** The model GnnSystem sizes its GPU timing model for. */
gnn::ModelConfig
modelConfig(const core::SystemConfig &sc, const core::Workload &wl,
            std::uint64_t seed)
{
    gnn::ModelConfig mc;
    mc.in_dim = wl.features.dim();
    mc.hidden_dim = sc.hidden_dim;
    mc.num_classes = wl.features.numClasses();
    mc.depth = sc.depth();
    mc.seed = seed;
    return mc;
}

/** What one set-up builds. */
struct Built
{
    std::unique_ptr<core::Workload> wl;
    std::unique_ptr<core::GnnSystem> system;
};

/**
 * One timed set-up: the workload, a system over it, and @p extra (the
 * model, for training). Each call adds one sample to the report. The
 * heap's free pages go back to the OS first, so every sample
 * page-faults its memory in as a fresh process would; otherwise a
 * sample took 6 or 16 ms depending on what earlier reps left behind.
 */
struct SetUp
{
    Report &report;
    graph::DatasetId id;
    const core::SystemConfig &sc;
    bool smoke;
    std::function<void(const core::Workload &)> extra;

    Built
    operator()() const
    {
        Built s;
        malloc_trim(0);
        auto t0 = Clock::now();
        s.wl = timedMs(report.graph_ms, [&] {
            return std::make_unique<core::Workload>(
                core::Workload::make(id, !smoke));
        });
        s.system = timedMs(report.system_ms, [&] {
            return std::make_unique<core::GnnSystem>(sc, *s.wl);
        });
        if (extra)
            extra(*s.wl);
        report.setup_s.push_back(secondsSince(t0));
        return s;
    }
};

// -------------------------------------------------------------- training

Report
runTrain(const Options &o, graph::DatasetId id, std::size_t batches)
{
    Report report;
    report.item = "batch";

    core::SystemConfig sc;
    sc.backend = "dram"; // functional training never touches storage
    sc.pipeline.seed = o.seed;
    sc.pipeline.batch_size = o.smoke ? 256 : 1024;
    sc.fanouts = {25, 10};
    sc.hidden_dim = 64;
    const unsigned samplers = samplerThreads();

    std::unique_ptr<gnn::SageModel> built;
    const SetUp setUp{report, id, sc, o.smoke, [&](const core::Workload &w) {
                          built = std::make_unique<gnn::SageModel>(
                              modelConfig(sc, w, o.seed));
                      }};
    Built setup = setUp();
    const gnn::SageModel pristine = *built;
    const core::Workload *wl = setup.wl.get();
    core::GnnSystem *system = setup.system.get();

    // Every rep trains from the initial weights. The models persist and
    // are restored in place, so their workspaces stay allocated across
    // reps like a long training run's do.
    sim::ByteWriter initial;
    pristine.saveState(initial);
    auto restore = [&](gnn::SageModel &model) {
        sim::ByteReader reader(initial.buffer());
        model.loadState(reader);
    };
    gnn::SageModel model = pristine;
    gnn::SageModel traced_model = pristine;
    StepProbe probe(traced_model, wl->features);

    auto finish = [&](Obj obj, const gnn::SageModel &trained, double loss) {
        return obj.str("state_hash", hex(trained.stateHash()))
            .str("loss_bits", hex(bitsOf(loss)))
            .num("loss", loss)
            .render();
    };

    auto untraced = [&] {
        restore(model);
        auto t0 = Clock::now();
        auto r = system->runFunctionalTraining(model, samplers, batches);
        double wall = secondsSince(t0);
        double failed = std::isfinite(r.mean_loss) ? 0.0 : batches;
        return finish(repObj(wall, batches, failed), model, r.mean_loss);
    };

    auto traced = [&] {
        restore(traced_model);
        SpanLog log;
        TimedSampler sampler(system->sampler(), log);
        probe.begin(log);
        pipeline::ParallelSampleConfig psc;
        psc.workers = samplers;
        psc.num_batches = batches;
        psc.batch_size = sc.pipeline.batch_size;
        psc.seed = sc.pipeline.seed;

        double wait_ns = 0, loss_sum = 0, failed = 0;
        auto t0 = Clock::now();
        auto last = t0;
        {
            // Built inside the timed region, as runFunctionalTraining
            // does, so both sides pay for thread start-up.
            sim::ThreadPool pool(samplers);
            pipeline::runSamplingPipeline(
                wl->graph, sampler, psc, &pool,
                [&](std::size_t, pipeline::FunctionalBatch &&batch) {
                    auto start = Clock::now();
                    wait_ns += nsBetween(last, start);
                    log.add("pipeline.trainer_wait", last, start);
                    double loss = probe.step(batch.subgraph);
                    loss_sum += loss;
                    failed += std::isfinite(loss) ? 0 : 1;
                    last = Clock::now();
                });
        }
        const double wall_ns = nsBetween(t0, Clock::now());
        writeTrace(o, log);

        const double n = static_cast<double>(batches);
        double step_ns = 0;
        for (double s : probe.stage_ns)
            step_ns += s;
        report.exact = Obj{};
        report.exact
            .num("gnn.sampler.edges_per_batch", sampler.edges() / n)
            .num("gnn.sampler.unique_frac", sampler.inputs() / sampler.edges())
            .num("gnn.feature.bytes_per_batch", probe.gather_bytes / n)
            .num("gnn.step_gflop", probe.flop / n / 1e9);

        Obj layers;
        layers.num("gnn.sampler.sample_ms", sampler.ns() / n / 1e6)
            .num("gnn.sampler.busy_frac", sampler.ns() / (samplers * wall_ns))
            .num("pipeline.trainer_wait_ms", wait_ns / n / 1e6)
            .num("pipeline.trainer_wait_frac", wait_ns / wall_ns);
        for (int s = 0; s < kNumStages; ++s)
            layers.num(std::string(kStageNames[s]) + "_ms",
                       probe.stage_ns[s] / n / 1e6)
                .num(std::string(kStageNames[s]) + "_frac",
                     probe.stage_ns[s] / step_ns);
        layers.num("gnn.step_ms", step_ns / n / 1e6)
            .num("gnn.step_gflops", probe.flop / step_ns)
            .num("trace.coverage_frac", (step_ns + wait_ns) / wall_ns);

        double mean_loss = loss_sum / n;
        return finish(repObj(wall_ns / 1e9, n, failed)
                          .raw("layers", layers.render()),
                      traced_model, mean_loss);
    };

    measure(o, report, untraced, traced, [&] { setUp(); });
    return report;
}

// ------------------------------------------------------ simulated training

/** Canonical rendering of everything a pipeline run simulated. */
std::string
pipelineDigest(const pipeline::PipelineResult &r,
               const core::GnnSystem &system)
{
    std::ostringstream os;
    os << r.makespan << ' ' << r.batches << ' '
       << hex(bitsOf(r.stages.sampling)) << hex(bitsOf(r.stages.feature))
       << hex(bitsOf(r.stages.transfer)) << hex(bitsOf(r.stages.gpu))
       << hex(bitsOf(r.stages.other)) << hex(bitsOf(r.gpu_idle_frac))
       << hex(bitsOf(r.avg_sampling_us)) << ' ' << statsMap(system);
    return digest(os.str());
}

Report
runSimTrain(const Options &o, const std::string &backend,
            std::size_t batches)
{
    Report report;
    report.item = "simulated batch";

    core::SystemConfig sc;
    sc.backend = backend;
    sc.pipeline.seed = o.seed;
    sc.pipeline.workers = o.smoke ? 4 : 12;
    sc.pipeline.num_batches = batches;
    sc.pipeline.batch_size = o.smoke ? 256 : 1024;

    const SetUp setUp{report, graph::DatasetId::Reddit, sc, o.smoke, {}};
    Built setup = setUp();
    const core::Workload *wl = setup.wl.get();
    setup.system.reset();

    // A fresh system every rep: a second runPipeline() on one system
    // starts from the device timelines the first left busy on backends
    // whose reset() does not rewind the SSD (ssd-mmap among them), and
    // its makespan roughly doubles.
    auto untraced = [&] {
        core::GnnSystem system(sc, *wl);
        auto t0 = Clock::now();
        pipeline::PipelineResult r = system.runPipeline();
        double wall = secondsSince(t0);
        return repObj(wall, batches, 0)
            .num("makespan", static_cast<double>(r.makespan))
            .str("digest", pipelineDigest(r, system))
            .render();
    };

    auto traced = [&] {
        core::GnnSystem system(sc, *wl);
        SpanLog log;
        TimedProducer producer(system.producer(), log);
        // The same timing model GnnSystem::runPipeline builds.
        gnn::GpuTimingModel gpu(system.config().gpu,
                                modelConfig(sc, *wl, o.seed));

        auto t0 = Clock::now();
        pipeline::TrainingPipeline pipe(system.config().pipeline,
                                        system.config().host, gpu,
                                        wl->features);
        pipeline::PipelineResult r = pipe.run(producer, wl->graph);
        producer.closeReplay();
        auto t1 = Clock::now();
        log.add("pipeline.run", t0, t1, batches);
        writeTrace(o, log);

        const double n = static_cast<double>(batches);
        const double wall_ns = nsBetween(t0, t1);
        const double steps = static_cast<double>(producer.steps);
        Obj layers;
        layers.num("pipeline.host.start_ms", producer.start_ns / n / 1e6)
            .num("pipeline.host.replay_ms", producer.replay_ns / n / 1e6)
            .num("pipeline.host.other_ms",
                 (wall_ns - producer.start_ns - producer.replay_ns) / n / 1e6)
            .num("pipeline.host.replay_ns_per_step", producer.replay_ns / steps)
            .num("trace.coverage_frac",
                 (producer.start_ns + producer.replay_ns) / wall_ns);

        pipeline::StageBreakdown frac = r.stages.normalized();
        report.exact = Obj{};
        report.exact.num("pipeline.host.replay_steps", steps / n)
            .num("pipeline.sim.batches_per_s", r.throughput())
            .num("pipeline.sim.sampling_frac", frac.sampling)
            .num("pipeline.sim.feature_frac", frac.feature)
            .num("pipeline.sim.transfer_frac", frac.transfer)
            .num("pipeline.sim.gpu_frac", frac.gpu)
            .num("pipeline.sim.other_frac", frac.other)
            .num("pipeline.sim.gpu_idle_frac", r.gpu_idle_frac)
            .num("pipeline.sim.avg_sampling_us", r.avg_sampling_us);
        if (auto *isp = dynamic_cast<pipeline::IspProducer *>(
                &system.producer())) {
            const isp::IspBatchResult &acc = isp->accumulated();
            report.exact.num("isp.commands", acc.commands)
                .num("isp.flash_pages", acc.flash_pages)
                .num("isp.bytes_to_host", acc.bytes_to_host)
                .num("isp.bytes_from_host", acc.bytes_from_host);
        }
        report.stats = statsMap(system);

        return repObj(wall_ns / 1e9, n, 0)
            .num("makespan", static_cast<double>(r.makespan))
            .str("digest", pipelineDigest(r, system))
            .raw("layers", layers.render())
            .render();
    };

    measure(o, report, untraced, traced, [&] { setUp(); });
    return report;
}

// ---------------------------------------------------------------- serving

/** The SLO the maximum-rate search holds (p99, microseconds). */
constexpr double kSloP99Us = 500;

Report
runServe(const Options &o)
{
    Report report;
    report.item = "simulated request";

    core::SystemConfig sc;
    sc.backend = "direct-io";
    if (!core::applyKnob(sc, {"cache.capacity_fraction", 0.4}))
        SS_FATAL("cache.capacity_fraction is not a knob");

    core::ServingConfig base;
    base.seed = o.seed;
    base.fanout = 10;
    base.poisson = true;
    base.num_requests = o.smoke ? 5000 : 200000;
    const std::vector<double> rates = {100e3, 200e3, 300e3};
    const std::vector<std::string> rate_names = {"100k", "200k", "300k"};

    const SetUp setUp{report, graph::DatasetId::Reddit, sc, o.smoke, {}};
    Built setup = setUp();
    const core::Workload *wl = setup.wl.get();
    setup.system.reset();

    // A fresh system per rate, for the same reason as the pipeline
    // workloads: EdgeStore::reset() leaves the SSD timeline busy.
    auto serve = [&](double qps, std::size_t requests, SpanLog *log,
                     std::string *stats) {
        core::GnnSystem system(sc, *wl);
        core::ServingConfig cfg = base;
        cfg.arrival_qps = qps;
        cfg.num_requests = requests;
        auto t0 = Clock::now();
        core::ServingResult r = core::runServingLoad(system, cfg);
        auto t1 = Clock::now();
        if (log)
            log->add("core.runServingLoad", t0, t1,
                     static_cast<std::uint64_t>(qps));
        if (stats)
            *stats = statsMap(system);
        return std::make_pair(r, nsBetween(t0, t1));
    };

    auto shedOf = [](const core::ServingResult &r) {
        return static_cast<double>(r.shed_error + r.shed_timeout +
                                   r.shed_admission);
    };

    // One rep: every rate once. The traced rep also fills report.exact.
    auto rep = [&](SpanLog *log) {
        double wall_ns = 0, shed = 0, items = 0;
        std::string canonical;
        std::vector<std::string> per_rate;
        Obj exact;
        for (std::size_t i = 0; i < rates.size(); ++i) {
            std::string stats;
            auto [r, ns] = serve(rates[i], base.num_requests, log, &stats);
            wall_ns += ns;
            shed += shedOf(r);
            items += static_cast<double>(r.requests);
            const double p9999 = r.latency_us.percentile(99.99);
            Obj obj;
            obj.str("rate", rate_names[i])
                .num("requests", static_cast<double>(r.requests))
                .num("completed_ok", static_cast<double>(r.completed_ok))
                .num("shed", shedOf(r))
                .num("p50_us", r.p50_us())
                .num("p99_us", r.p99_us())
                .num("p9999_us", p9999)
                .num("achieved_qps", r.achieved_qps)
                .num("queue_wait_us", r.mean_queue_wait_us)
                .num("peak_outstanding",
                     static_cast<double>(r.peak_outstanding));
            canonical += obj.render() + stats;
            per_rate.push_back(obj.render());
            exact.num("core.serving.p99_us." + rate_names[i], r.p99_us());
            if (rates[i] == 200e3) {
                exact.num("core.serving.p50_us.200k", r.p50_us())
                    .num("core.serving.p9999_us.200k", p9999)
                    .num("sim.io.queue_wait_us", r.mean_queue_wait_us)
                    .num("sim.io.peak_outstanding",
                         static_cast<double>(r.peak_outstanding));
                if (log)
                    report.stats = stats;
            }
        }
        if (log)
            report.exact = exact;
        return repObj(wall_ns / 1e9, items, shed)
            .raw("rates", arr(per_rate))
            .str("digest", digest(canonical));
    };

    // Highest offered rate whose p99 meets the SLO with no backlog
    // (achieved >= 98% of offered) and nothing shed, to within 1%.
    auto maxRate = [&] {
        auto feasible = [&](double qps) {
            core::ServingResult r =
                serve(qps, base.num_requests, nullptr, nullptr).first;
            return r.p99_us() <= kSloP99Us &&
                   r.achieved_qps >= 0.98 * qps && shedOf(r) == 0;
        };
        double lo = rates.front();
        while (lo > 1e3 && !feasible(lo))
            lo /= 2;
        double hi = 2 * lo;
        while (feasible(hi)) {
            lo = hi;
            hi *= 2;
        }
        while (hi / lo > 1.01) {
            double mid = std::sqrt(lo * hi);
            (feasible(mid) ? lo : hi) = mid;
        }
        return lo;
    };

    auto untraced = [&] { return rep(nullptr).render(); };

    auto traced = [&] {
        SpanLog log;
        Obj obj = rep(&log);
        writeTrace(o, log);
        return obj.render();
    };

    measure(o, report, untraced, traced, [&] { setUp(); });
    // Untimed, and deterministic: once per run is enough.
    report.exact.num("core.serving.max_qps", maxRate());
    return report;
}

} // namespace

// ------------------------------------------------------------------ main

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    const bool s = o.smoke;

    Report report;
    if (o.workload == "train-amazon")
        report = runTrain(o, graph::DatasetId::Amazon, s ? 4 : 24);
    else if (o.workload == "train-reddit")
        report = runTrain(o, graph::DatasetId::Reddit, s ? 2 : 4);
    else if (o.workload == "sim-train-isp")
        report = runSimTrain(o, "isp-hwsw", s ? 8 : 96);
    else if (o.workload == "sim-train-mmap")
        report = runSimTrain(o, "ssd-mmap", s ? 8 : 96);
    else if (o.workload == "serve-cached")
        report = runServe(o);
    else
        usage("unknown workload " + o.workload);

#ifdef __clang__
    const char *compiler = __VERSION__;
#else
    const char *compiler = "GCC " __VERSION__;
#endif
    Obj meta;
    meta.str("compiler", compiler)
        .str("kernel_dispatch",
             gnn::kernelDispatchName(gnn::resolvedKernelDispatch()))
        .num("hardware_threads", std::thread::hardware_concurrency())
        .num("sampler_threads", samplerThreads());

    Obj doc;
    doc.str("workload", o.workload)
        .raw("seed", std::to_string(o.seed))
        .str("item", report.item)
        .raw("meta", meta.render())
        .raw("setup_s", arr(report.setup_s))
        .raw("graph_ms", arr(report.graph_ms))
        .raw("system_ms", arr(report.system_ms))
        .raw("reps", arr(report.reps))
        .raw("traced", report.traced)
        .raw("exact", report.exact.render())
        .raw("stats", report.stats)
        .num("peak_rss_mib", report.peak_rss_mib);

    std::ofstream out(o.out);
    out << doc.render() << "\n";
    if (!out) {
        std::cerr << "smartsage_bench: cannot write " << o.out << "\n";
        return 1;
    }
    return 0;
}
