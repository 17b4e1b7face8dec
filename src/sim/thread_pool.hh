/**
 * @file
 * Fixed-size worker thread pool for the functional hot paths.
 *
 * The *simulated* multi-worker contention models (pipeline/scheduler)
 * stay single-threaded and deterministic; this pool parallelizes the
 * *functional* work — sampling real subgraphs, training real batches —
 * across host cores. Determinism is preserved by construction at the
 * call sites: work items are keyed by index and draw from per-index RNG
 * streams, so results never depend on which thread ran what.
 */

#ifndef SMARTSAGE_SIM_THREAD_POOL_HH
#define SMARTSAGE_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace smartsage::sim
{

/** Simple task-queue thread pool. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means hardware_concurrency. */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains pending tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Enqueue @p task for asynchronous execution. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. If any task threw,
     * the first captured exception is rethrown here (matching the
     * behavior of running the same work inline on the caller).
     */
    void wait();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable task_ready_;
    std::condition_variable all_idle_;
    std::size_t in_flight_ = 0; //!< queued + currently running tasks
    std::exception_ptr first_error_; //!< first uncaught task exception
    bool stop_ = false;
};

/**
 * Run @p fn(i) for every i in [0, count) and block until all calls
 * finish. The caller claims indices alongside up to pool->size()
 * helper tasks on @p pool, so a call runs on as many as
 * pool->size() + 1 threads and makes progress even while every worker
 * is busy elsewhere; a null @p pool (or count <= 1) runs inline on the
 * caller. Work is keyed by index, so as long as @p fn(i) depends only
 * on i (the determinism convention of this codebase), results are
 * identical for any pool size. The first exception thrown by any call
 * is rethrown here.
 *
 * Completion and errors are tracked per call, not per pool: several
 * threads may run parallelFor on one shared pool at once, and each
 * waits only for its own indices and sees only its own exception.
 * Unlike ThreadPool::wait(), which covers every task in flight.
 */
void parallelFor(ThreadPool *pool, std::size_t count,
                 const std::function<void(std::size_t)> &fn);

} // namespace smartsage::sim

#endif // SMARTSAGE_SIM_THREAD_POOL_HH
