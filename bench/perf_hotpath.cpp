/**
 * @file
 * Hot-path microbenchmark: times the two compute hot paths, frontier
 * sampling and the GEMM kernels, in both their naive (seed) and
 * optimized forms. It also times the storage blocking-adapter overhead
 * (direct service call vs submit-and-drain through the async request
 * layer), the feature-cache decorator's replay-path cost/benefit (raw
 * store vs an LRU-cached store on a skewed gather stream) and the
 * MSHR/coalescing miss path under concurrent duplicate-heavy gathers
 * (legacy forward-everything vs coalesced line fills with piggybacked
 * secondary misses). Results go to a machine-readable
 * BENCH_hotpath.json.
 *
 * Naive forms come from the test/bench-only reference target
 * (tests/reference): ref::sampleBaseline (per-batch hash dedup, virtual
 * visitor dispatch) and the ref:: naive GEMM loops. Fast forms are the
 * library's: sampleInto through a reusable SampleScratch (flat
 * epoch-stamped dedup, statically dispatched no-op visitor) and the
 * tiled GEMMs. The end-to-end training step is bench/e2e's to measure.
 *
 * Usage: perf_hotpath [--quick] [--out <path>] [--workers <n>]
 *   --quick    CI smoke sizes (seconds, looser statistics)
 *   --out      JSON output path (default: BENCH_hotpath.json)
 *   --workers  threads of the threaded GEMM leg, capped at 8
 *              (default: hardware concurrency)
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "gnn/sampler.hh"
#include "gnn/tensor.hh"
#include "graph/powerlaw.hh"
#include "host/feature_cache.hh"
#include "host/io_path.hh"
#include "reference/reference.hh"
#include "sim/random.hh"
#include "ssd/ssd_device.hh"

using namespace smartsage;

namespace
{

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One naive-vs-fast measurement. */
struct Pair
{
    double naive = 0; //!< metric for the naive path (per second)
    double fast = 0;  //!< metric for the optimized path (per second)

    double speedup() const { return naive > 0 ? fast / naive : 0.0; }
};

struct BenchConfig
{
    std::uint64_t num_nodes = 1ULL << 19;
    double avg_degree = 16.0;
    std::vector<unsigned> fanouts = {25, 10};
    std::size_t batch_size = 1024;
    std::size_t sampler_batches = 8;
    std::size_t gemm_rows = 16384;
    std::size_t kernel_reps = 4;
    std::size_t storage_gathers = 20000;
    unsigned workers = std::max(1u, std::thread::hardware_concurrency());
};

/** Blocking-adapter overhead on the storage replay path. */
struct AdapterCost
{
    double direct_ops_per_s = 0;  //!< serviceGather called directly
    double adapter_ops_per_s = 0; //!< submit-and-drain blocking call

    /** Fraction of direct-call throughput lost to the adapter. */
    double
    overheadFrac() const
    {
        return direct_ops_per_s > 0
                   ? 1.0 - adapter_ops_per_s / direct_ops_per_s
                   : 0.0;
    }
};

/** Feature-cache decorator cost/benefit on the replay path. */
struct CacheCost
{
    double raw_ops_per_s = 0;    //!< undecorated blocking gathers
    double cached_ops_per_s = 0; //!< through the LRU feature cache
    double hit_frac = 0;         //!< line hit rate the stream reached
};

/** Tiled-GEMM GFLOP/s under each runtime-dispatched microkernel. */
struct DispatchCost
{
    double naive_gflops = 0;    //!< ref::matmulNaive reference loops
    double scalar_gflops = 0;   //!< tiled, scalar-portable microkernel
    double avx2_gflops = 0;     //!< tiled, AVX2+FMA (0 if unsupported)
    double threaded_gflops = 0; //!< tiled, auto flavor, pool workers
    unsigned gemm_threads = 1;  //!< thread count of the threaded run
    bool avx2_supported = false;

    double
    avx2Speedup() const
    {
        return naive_gflops > 0 ? avx2_gflops / naive_gflops : 0.0;
    }
};

/** MSHR + gather-coalescing benefit on concurrent duplicate misses. */
struct MshrCost
{
    double nomshr_ops_per_s = 0; //!< wall throughput, legacy miss path
    double mshr_ops_per_s = 0;   //!< wall throughput, MSHRs on
    double inner_cmds_nomshr = 0; //!< storage commands, legacy path
    double inner_cmds_mshr = 0;   //!< storage commands, MSHRs on
    double piggyback_frac = 0; //!< misses served by an in-flight fill
    double sim_speedup = 0;    //!< simulated makespan ratio (old/new)
};

/**
 * Exposes the protected service entry point so the bench can time the
 * pre-refactor equivalent (direct service-math call, no event-queue
 * machinery) against the blocking submit-and-drain adapter the sweep
 * path now rides.
 */
class RawDirectIoStore : public host::DirectIoEdgeStore
{
  public:
    using host::DirectIoEdgeStore::DirectIoEdgeStore;

    sim::Tick
    rawGather(sim::Tick start, const std::vector<std::uint64_t> &addrs,
              unsigned entry_bytes)
    {
        return serviceGather(start, addrs, entry_bytes);
    }
};

/**
 * Gathers per second through the direct-I/O store: the raw service
 * call vs the blocking adapter, on identical request streams against
 * identical (separate) stores. Tracks what the async refactor costs
 * the classic sweep replay path.
 */
AdapterCost
benchStorageAdapter(const BenchConfig &cfg)
{
    host::HostConfig host;
    host.scratchpad_bytes = sim::MiB(4); // small: a real hit/miss mix
    ssd::SsdConfig ssd_cfg;
    ssd_cfg.page_buffer_bytes = sim::MiB(8);

    // One identical pre-generated gather stream for both paths.
    const std::uint64_t span = sim::MiB(512);
    std::vector<std::vector<std::uint64_t>> gathers(cfg.storage_gathers);
    sim::Rng rng(0x10ad);
    for (auto &addrs : gathers) {
        addrs.resize(12);
        std::uint64_t node_base = rng.nextBounded(span);
        for (auto &a : addrs)
            a = node_base + rng.nextBounded(sim::KiB(64));
    }

    AdapterCost cost;
    {
        ssd::SsdDevice ssd(ssd_cfg);
        RawDirectIoStore store(host, ssd);
        sim::Tick t = 0;
        double t0 = now_s();
        for (const auto &addrs : gathers)
            t = store.rawGather(t, addrs, 8);
        cost.direct_ops_per_s =
            static_cast<double>(gathers.size()) / (now_s() - t0);
    }
    {
        ssd::SsdDevice ssd(ssd_cfg);
        host::DirectIoEdgeStore store(host, ssd);
        sim::Tick t = 0;
        double t0 = now_s();
        for (const auto &addrs : gathers)
            t = store.readGather(t, addrs, 8);
        cost.adapter_ops_per_s =
            static_cast<double>(gathers.size()) / (now_s() - t0);
    }
    return cost;
}

/**
 * Wall-clock gathers per second with and without the feature-cache
 * decorator, on a skewed (70% hot-set) stream where the cache has
 * real reuse: what the decorator costs per request when cold and what
 * the hit bypass buys once warm.
 */
CacheCost
benchFeatureCache(const BenchConfig &cfg)
{
    host::HostConfig host;
    host.scratchpad_bytes = sim::MiB(4);
    ssd::SsdConfig ssd_cfg;
    ssd_cfg.page_buffer_bytes = sim::MiB(8);

    const std::uint64_t span = sim::MiB(512);
    const std::uint64_t hot_span = sim::MiB(16);
    std::vector<std::vector<std::uint64_t>> gathers(cfg.storage_gathers);
    sim::Rng rng(0xfeca);
    for (auto &addrs : gathers) {
        addrs.resize(12);
        bool hot = rng.nextBounded(100) < 70;
        std::uint64_t node_base =
            rng.nextBounded(hot ? hot_span : span);
        for (auto &a : addrs)
            a = node_base + rng.nextBounded(sim::KiB(64));
    }

    CacheCost cost;
    {
        ssd::SsdDevice ssd(ssd_cfg);
        host::DirectIoEdgeStore store(host, ssd);
        sim::Tick t = 0;
        double t0 = now_s();
        for (const auto &addrs : gathers)
            t = store.readGather(t, addrs, 8);
        cost.raw_ops_per_s =
            static_cast<double>(gathers.size()) / (now_s() - t0);
    }
    {
        ssd::SsdDevice ssd(ssd_cfg);
        host::FeatureCacheParams params;
        params.policy = host::FeatureCachePolicy::Lru;
        params.line_bytes = sim::KiB(4);
        params.capacity_bytes = sim::MiB(32);
        host::FeatureCacheStore store(
            std::make_unique<host::DirectIoEdgeStore>(host, ssd),
            params);
        sim::Tick t = 0;
        double t0 = now_s();
        for (const auto &addrs : gathers)
            t = store.readGather(t, addrs, 8);
        cost.cached_ops_per_s =
            static_cast<double>(gathers.size()) / (now_s() - t0);
        cost.hit_frac = store.hitRate();
    }
    return cost;
}

/**
 * The MSHR/coalescing leg: a duplicate-heavy gather stream (entries of
 * one gather straddle the same hot lines, and concurrent gathers miss
 * on the same lines) submitted open-loop through the async port, so
 * misses genuinely overlap. Identical streams with the MSHR path on
 * and off; wall throughput, inner storage commands, and the simulated
 * makespan measure what coalescing and piggybacking buy.
 */
MshrCost
benchMshr(const BenchConfig &cfg)
{
    host::HostConfig host;
    host.scratchpad_bytes = sim::MiB(4);
    ssd::SsdConfig ssd_cfg;
    ssd_cfg.page_buffer_bytes = sim::MiB(8);

    // 80% of gathers land in a hot set barely larger than the cache
    // line count, so concurrent misses collide on the same lines.
    const std::uint64_t span = sim::MiB(512);
    const std::uint64_t hot_span = sim::MiB(4);
    std::vector<std::vector<std::uint64_t>> gathers(cfg.storage_gathers);
    sim::Rng rng(0x3577);
    for (auto &addrs : gathers) {
        addrs.resize(16);
        bool hot = rng.nextBounded(100) < 80;
        std::uint64_t node_base =
            rng.nextBounded(hot ? hot_span : span);
        // Entries cluster within a couple of lines of the base: heavy
        // intra-gather duplication once rounded to 4 KiB lines.
        for (auto &a : addrs)
            a = node_base + rng.nextBounded(sim::KiB(8));
    }

    auto run = [&](bool mshr, double &ops_per_s, double &inner_cmds,
                   double &piggyback_frac) {
        ssd::SsdDevice ssd(ssd_cfg);
        host::FeatureCacheParams params;
        params.policy = host::FeatureCachePolicy::Lru;
        params.line_bytes = sim::KiB(4);
        params.capacity_bytes = sim::MiB(8);
        params.mshr_enabled = mshr;
        host::FeatureCacheStore store(
            std::make_unique<host::DirectIoEdgeStore>(host, ssd),
            params);

        // Open-loop arrivals 500 ns apart: tens of requests overlap in
        // flight, the regime MSHRs exist for.
        sim::EventQueue eq;
        std::size_t completed = 0;
        double t0 = now_s();
        for (std::size_t i = 0; i < gathers.size(); ++i) {
            eq.schedule(sim::ns(500) * i, [&, i] {
                store.submitGather(eq, gathers[i], 8,
                                   [&completed](sim::Tick,
                                                sim::IoStatus) {
                                       ++completed;
                                   });
            });
        }
        sim::Tick makespan = eq.run();
        ops_per_s = static_cast<double>(completed) / (now_s() - t0);
        inner_cmds =
            static_cast<double>(store.ioChannel().submitted());
        const host::FeatureCacheStats &cs = store.stats();
        piggyback_frac =
            cs.misses ? static_cast<double>(cs.mshr_piggybacks) /
                            static_cast<double>(cs.misses)
                      : 0.0;
        return makespan;
    };

    MshrCost cost;
    double unused = 0;
    sim::Tick makespan_nomshr =
        run(false, cost.nomshr_ops_per_s, cost.inner_cmds_nomshr,
            unused);
    sim::Tick makespan_mshr = run(true, cost.mshr_ops_per_s,
                                  cost.inner_cmds_mshr,
                                  cost.piggyback_frac);
    cost.sim_speedup =
        makespan_mshr ? static_cast<double>(makespan_nomshr) /
                            static_cast<double>(makespan_mshr)
                      : 0.0;
    return cost;
}

/** Sampler throughput in sampled edges per second. */
Pair
benchSampler(const graph::CsrGraph &g, const BenchConfig &cfg)
{
    gnn::SageSampler sampler(cfg.fanouts);
    const std::uint64_t seed = 0xbe7c;

    // Identical batches on both paths: per-index RNG forks.
    auto targetsFor = [&](std::size_t i, sim::Rng &rng,
                          gnn::SampleScratch &scratch,
                          std::vector<graph::LocalNodeId> &targets) {
        rng = sim::Rng(seed).fork(i);
        gnn::selectTargetsInto(g, cfg.batch_size, rng, scratch, targets);
    };

    Pair p;
    {
        std::uint64_t edges = 0;
        gnn::SampleScratch scratch;
        std::vector<graph::LocalNodeId> targets;
        sim::Rng rng(0);
        targetsFor(0, rng, scratch, targets); // warmup batch
        edges += ref::sampleBaseline(sampler, g, targets, rng)
                     .totalSampledEdges();
        edges = 0;
        double t0 = now_s();
        for (std::size_t i = 0; i < cfg.sampler_batches; ++i) {
            targetsFor(i, rng, scratch, targets);
            edges += ref::sampleBaseline(sampler, g, targets, rng)
                         .totalSampledEdges();
        }
        p.naive = static_cast<double>(edges) / (now_s() - t0);
    }
    {
        std::uint64_t edges = 0;
        gnn::SampleScratch scratch;
        std::vector<graph::LocalNodeId> targets;
        gnn::Subgraph sg;
        sim::Rng rng(0);
        targetsFor(0, rng, scratch, targets); // warmup batch
        sampler.sampleInto(g, targets, rng, scratch, sg);
        double t0 = now_s();
        for (std::size_t i = 0; i < cfg.sampler_batches; ++i) {
            targetsFor(i, rng, scratch, targets);
            sampler.sampleInto(g, targets, rng, scratch, sg);
            edges += sg.totalSampledEdges();
        }
        p.fast = static_cast<double>(edges) / (now_s() - t0);
    }
    return p;
}

/** GFLOP/s of one GEMM call. */
template <typename F>
double
gemmGflops(F &&call, double flops, std::size_t reps)
{
    call(); // warmup
    double t0 = now_s();
    for (std::size_t r = 0; r < reps; ++r)
        call();
    double dt = now_s() - t0;
    return flops * static_cast<double>(reps) / dt / 1e9;
}

/**
 * The dispatch leg: one GEMM shape through every microkernel flavor
 * the runtime can select — the naive reference, the scalar-portable
 * tile, the AVX2+FMA tile (when the host supports it), and the
 * thread-parallel row-block decomposition on top of the best flavor.
 */
DispatchCost
benchKernelDispatch(const BenchConfig &cfg, const gnn::Tensor2D &a,
                    const gnn::Tensor2D &w, double flops)
{
    DispatchCost cost;
    cost.avx2_supported = gnn::cpuSupportsAvx2();
    auto call = [&] { gnn::matmul(a, w); };
    cost.naive_gflops = gemmGflops([&] { ref::matmulNaive(a, w); }, flops,
                                   cfg.kernel_reps);
    {
        // The flavor legs run on one thread; the threaded leg below
        // measures the row-block decomposition on top of them.
        gnn::ScopedGemmThreads one(1);
        gnn::ScopedKernelDispatch guard(gnn::KernelDispatch::Scalar);
        cost.scalar_gflops = gemmGflops(call, flops, cfg.kernel_reps);
    }
    if (cost.avx2_supported) {
        gnn::ScopedGemmThreads one(1);
        gnn::ScopedKernelDispatch guard(gnn::KernelDispatch::Avx2);
        cost.avx2_gflops = gemmGflops(call, flops, cfg.kernel_reps);
    }
    {
        cost.gemm_threads = std::min(cfg.workers, 8u);
        gnn::ScopedKernelDispatch guard(gnn::KernelDispatch::Auto);
        gnn::ScopedGemmThreads threads(cost.gemm_threads);
        cost.threaded_gflops = gemmGflops(call, flops, cfg.kernel_reps);
    }
    return cost;
}

/** The bench's pass/fail line; the AVX2 bar applies only where the
 *  host can run the AVX2 microkernel at all. */
bool
acceptancePass(const Pair &sampler, const DispatchCost &dispatch)
{
    return sampler.speedup() >= 3.0 &&
           (!dispatch.avx2_supported || dispatch.avx2Speedup() >= 2.0);
}

void
writeJson(std::ostream &os, const BenchConfig &cfg, const Pair &sampler,
          const Pair &mm, const Pair &mm_tn, const Pair &mm_nt,
          const Pair &mm_wide, const Pair &mm_tn_wide,
          const DispatchCost &dispatch,
          const AdapterCost &adapter, const CacheCost &cache,
          const MshrCost &mshr)
{
    auto obj = [&os](const char *name, const Pair &p, const char *unit,
                     bool last = false) {
        os << "    \"" << name << "\": {\"naive\": " << p.naive
           << ", \"fast\": " << p.fast << ", \"speedup\": "
           << p.speedup() << ", \"unit\": \"" << unit << "\"}"
           << (last ? "\n" : ",\n");
    };
    os.precision(6);
    os << "{\n"
       << "  \"bench\": \"perf_hotpath\",\n"
       << "  \"schema_version\": 2,\n"
       << "  \"config\": {\n"
       << "    \"num_nodes\": " << cfg.num_nodes << ",\n"
       << "    \"avg_degree\": " << cfg.avg_degree << ",\n"
       << "    \"batch_size\": " << cfg.batch_size << ",\n"
       << "    \"fanouts\": [" << cfg.fanouts[0];
    for (std::size_t i = 1; i < cfg.fanouts.size(); ++i)
        os << ", " << cfg.fanouts[i];
    os << "],\n"
       << "    \"workers\": " << cfg.workers << "\n"
       << "  },\n"
       << "  \"results\": {\n";
    obj("sampler_edges_per_s", sampler, "edges/s");
    obj("matmul_gflops", mm, "GFLOP/s");
    obj("matmul_tn_gflops", mm_tn, "GFLOP/s");
    obj("matmul_nt_gflops", mm_nt, "GFLOP/s");
    obj("matmul_wide_gflops", mm_wide, "GFLOP/s");
    obj("matmul_tn_wide_gflops", mm_tn_wide, "GFLOP/s");
    os << "    \"kernel_dispatch\": {\"naive_gflops\": "
       << dispatch.naive_gflops << ", \"scalar_gflops\": "
       << dispatch.scalar_gflops << ", \"avx2_gflops\": "
       << dispatch.avx2_gflops << ", \"threaded_gflops\": "
       << dispatch.threaded_gflops << ", \"gemm_threads\": "
       << dispatch.gemm_threads << ", \"avx2_supported\": "
       << (dispatch.avx2_supported ? "true" : "false")
       << ", \"avx2_speedup\": " << dispatch.avx2Speedup()
       << ", \"unit\": \"GFLOP/s\"},\n";
    os << "    \"storage_adapter\": {\"direct_ops_per_s\": "
       << adapter.direct_ops_per_s << ", \"adapter_ops_per_s\": "
       << adapter.adapter_ops_per_s << ", \"overhead_frac\": "
       << adapter.overheadFrac() << ", \"unit\": \"gathers/s\"},\n";
    os << "    \"feature_cache\": {\"raw_ops_per_s\": "
       << cache.raw_ops_per_s << ", \"cached_ops_per_s\": "
       << cache.cached_ops_per_s << ", \"hit_frac\": "
       << cache.hit_frac << ", \"unit\": \"gathers/s\"},\n";
    os << "    \"feature_cache_mshr\": {\"nomshr_ops_per_s\": "
       << mshr.nomshr_ops_per_s << ", \"mshr_ops_per_s\": "
       << mshr.mshr_ops_per_s << ", \"inner_cmds_nomshr\": "
       << mshr.inner_cmds_nomshr << ", \"inner_cmds_mshr\": "
       << mshr.inner_cmds_mshr << ", \"piggyback_frac\": "
       << mshr.piggyback_frac << ", \"sim_speedup\": "
       << mshr.sim_speedup << ", \"unit\": \"gathers/s\"}\n";
    os << "  },\n"
       << "  \"acceptance\": {\n"
       << "    \"sampler_speedup_target\": 3.0,\n"
       << "    \"sampler_speedup\": " << sampler.speedup() << ",\n"
       << "    \"avx2_speedup_target\": 2.0,\n"
       << "    \"avx2_speedup\": " << dispatch.avx2Speedup() << ",\n"
       << "    \"pass\": "
       << (acceptancePass(sampler, dispatch) ? "true" : "false")
       << "\n  }\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    BenchConfig cfg;
    std::string out_path = "BENCH_hotpath.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            cfg.num_nodes = 1ULL << 16;
            cfg.sampler_batches = 4;
            cfg.gemm_rows = 4096;
            cfg.kernel_reps = 2;
            cfg.storage_gathers = 4000;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--workers" && i + 1 < argc) {
            int n = std::atoi(argv[++i]);
            if (n < 1) {
                std::cerr << "perf_hotpath: --workers needs a count "
                             ">= 1\n";
                return 2;
            }
            cfg.workers = static_cast<unsigned>(n);
        } else {
            std::cerr << "usage: perf_hotpath [--quick] [--out <path>] "
                         "[--workers <n>]\n";
            return 2;
        }
    }

    std::cout << "perf_hotpath: building power-law graph ("
              << cfg.num_nodes << " nodes, avg degree "
              << cfg.avg_degree << ")...\n";
    graph::PowerLawParams params;
    params.num_nodes = cfg.num_nodes;
    params.avg_degree = cfg.avg_degree;
    params.seed = 42;
    graph::CsrGraph g = graph::generatePowerLaw(params);

    std::cout << "perf_hotpath: sampler (" << cfg.sampler_batches
              << " batches x " << cfg.batch_size << " targets)...\n";
    Pair sampler = benchSampler(g, cfg);

    std::cout << "perf_hotpath: GEMM kernels (" << cfg.gemm_rows
              << " rows)...\n";
    const std::size_t m = cfg.gemm_rows, d = 64;
    sim::Rng krng(7);
    gnn::Tensor2D a =
        gnn::Tensor2D::uniform(m, d, 1.0f, krng);
    gnn::Tensor2D w = gnn::Tensor2D::uniform(d, d, 1.0f, krng);
    gnn::Tensor2D dz = gnn::Tensor2D::uniform(m, d, 1.0f, krng);
    const double flops = 2.0 * static_cast<double>(m) * d * d;

    Pair mm, mm_tn, mm_nt;
    mm.naive = gemmGflops([&] { ref::matmulNaive(a, w); }, flops,
                          cfg.kernel_reps);
    mm.fast = gemmGflops([&] { gnn::matmul(a, w); }, flops, cfg.kernel_reps);
    mm_tn.naive = gemmGflops([&] { ref::matmulTNNaive(a, dz); }, flops,
                             cfg.kernel_reps);
    mm_tn.fast = gemmGflops([&] { gnn::matmulTN(a, dz); }, flops,
                            cfg.kernel_reps);
    mm_nt.naive = gemmGflops([&] { ref::matmulNTNaive(dz, w); }, flops,
                             cfg.kernel_reps);
    mm_nt.fast = gemmGflops([&] { gnn::matmulNT(dz, w); }, flops,
                            cfg.kernel_reps);

    // The shape that dominates train-reddit: 602-wide Reddit features
    // through 64-wide weights, as layer 0's forward (NN) and its weight
    // gradient (TN) run it.
    const std::size_t wide = 602;
    std::cout << "perf_hotpath: wide GEMM kernels (" << m << "x" << wide
              << "x" << d << ")...\n";
    gnn::Tensor2D x = gnn::Tensor2D::uniform(m, wide, 1.0f, krng);
    gnn::Tensor2D w_wide = gnn::Tensor2D::uniform(wide, d, 1.0f, krng);
    const double wide_flops = 2.0 * static_cast<double>(m) * wide * d;
    Pair mm_wide, mm_tn_wide;
    mm_wide.naive = gemmGflops([&] { ref::matmulNaive(x, w_wide); },
                               wide_flops, cfg.kernel_reps);
    mm_wide.fast = gemmGflops([&] { gnn::matmul(x, w_wide); }, wide_flops,
                              cfg.kernel_reps);
    mm_tn_wide.naive = gemmGflops([&] { ref::matmulTNNaive(x, dz); },
                                  wide_flops, cfg.kernel_reps);
    mm_tn_wide.fast = gemmGflops([&] { gnn::matmulTN(x, dz); }, wide_flops,
                                 cfg.kernel_reps);

    std::cout << "perf_hotpath: kernel dispatch flavors ("
              << gnn::kernelDispatchName(gnn::resolvedKernelDispatch())
              << " resolved)...\n";
    DispatchCost dispatch = benchKernelDispatch(cfg, a, w, flops);

    std::cout << "perf_hotpath: storage blocking adapter ("
              << cfg.storage_gathers << " gathers)...\n";
    AdapterCost adapter = benchStorageAdapter(cfg);

    std::cout << "perf_hotpath: feature-cache decorator ("
              << cfg.storage_gathers << " gathers)...\n";
    CacheCost cache = benchFeatureCache(cfg);

    std::cout << "perf_hotpath: MSHR/coalescing miss path ("
              << cfg.storage_gathers << " concurrent gathers)...\n";
    MshrCost mshr = benchMshr(cfg);

    auto report = [](const char *name, const Pair &p, const char *unit) {
        std::cout << "  " << name << ": naive " << p.naive << " " << unit
                  << ", fast " << p.fast << " " << unit << "  ("
                  << p.speedup() << "x)\n";
    };
    std::cout.precision(4);
    report("sampler   ", sampler, "edges/s");
    report("matmul    ", mm, "GFLOP/s");
    report("matmulTN  ", mm_tn, "GFLOP/s");
    report("matmulNT  ", mm_nt, "GFLOP/s");
    report("matmul 602", mm_wide, "GFLOP/s");
    report("matmulTN 602", mm_tn_wide, "GFLOP/s");
    std::cout << "  dispatch  : naive " << dispatch.naive_gflops
              << ", scalar " << dispatch.scalar_gflops << ", avx2 "
              << dispatch.avx2_gflops << ", threaded(x"
              << dispatch.gemm_threads << ") "
              << dispatch.threaded_gflops << " GFLOP/s  (avx2 "
              << dispatch.avx2Speedup() << "x vs naive)\n";
    std::cout << "  storage   : direct " << adapter.direct_ops_per_s
              << " gathers/s, adapter " << adapter.adapter_ops_per_s
              << " gathers/s  (overhead "
              << adapter.overheadFrac() * 100.0 << "%)\n";
    std::cout << "  cache     : raw " << cache.raw_ops_per_s
              << " gathers/s, cached " << cache.cached_ops_per_s
              << " gathers/s  (hit rate " << cache.hit_frac * 100.0
              << "%)\n";
    std::cout << "  mshr      : " << mshr.inner_cmds_nomshr
              << " -> " << mshr.inner_cmds_mshr
              << " storage cmds, piggyback "
              << mshr.piggyback_frac * 100.0 << "%, sim makespan "
              << mshr.sim_speedup << "x\n";

    std::ofstream json(out_path);
    if (!json) {
        std::cerr << "perf_hotpath: cannot open " << out_path << "\n";
        return 1;
    }
    writeJson(json, cfg, sampler, mm, mm_tn, mm_nt, mm_wide, mm_tn_wide,
              dispatch, adapter, cache, mshr);
    std::cout << "perf_hotpath: wrote " << out_path << "\n";

    const bool pass = acceptancePass(sampler, dispatch);
    std::cout << "perf_hotpath: acceptance "
              << (pass ? "PASS" : "FAIL") << " (sampler "
              << sampler.speedup() << "x >= 3x, avx2 "
              << dispatch.avx2Speedup() << "x >= 2x where supported)\n";
    return pass ? 0 : 1;
}
