/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses.
 *
 * Every binary in bench/ regenerates one table or figure of the paper:
 * it runs the same workloads through the same design points and prints
 * the rows/series the paper reports. Absolute numbers come from the
 * simulator's calibrated timing model (DESIGN.md Section 4, "Timing
 * model"); the shapes are the reproduction target.
 */

#ifndef SMARTSAGE_BENCH_COMMON_HH
#define SMARTSAGE_BENCH_COMMON_HH

#include <map>
#include <memory>
#include <mutex>

#include "core/backend.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "graph/datasets.hh"

namespace ssbench
{

using namespace smartsage;

/**
 * Workload cache: each dataset's graph is built once per process.
 * Returned references stay valid for the process lifetime; the lookup
 * is mutex-guarded so harnesses may warm workloads from pool threads.
 */
inline core::Workload &
workload(graph::DatasetId id, bool large_scale = true)
{
    static std::mutex mutex;
    static std::map<std::pair<int, bool>,
                    std::unique_ptr<core::Workload>>
        cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto key = std::make_pair(static_cast<int>(id), large_scale);
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache
                 .emplace(key, std::make_unique<core::Workload>(
                                   core::Workload::make(id, large_scale)))
                 .first;
    }
    return *it->second;
}

/** Baseline experiment configuration shared by the harnesses. */
inline core::SystemConfig
baseConfig(const std::string &backend)
{
    core::SystemConfig sc;
    sc.backend = backend;
    return sc;
}

/** Paper defaults for sampling-only experiments (Figs 14-17). */
constexpr std::size_t sampling_batches = 16;

/** Paper defaults for end-to-end pipeline experiments (Figs 6/7/18). */
constexpr std::size_t pipeline_batches = 16;

} // namespace ssbench

#endif // SMARTSAGE_BENCH_COMMON_HH
