/**
 * @file
 * Fixed-size worker thread pool for the functional hot paths.
 *
 * The *simulated* multi-worker contention models (pipeline/scheduler)
 * replay timing on one thread, in global simulated-time order; this
 * pool parallelizes the *functional* work — sampling real subgraphs
 * (the simulated workers' samples too, which run ahead of their replay
 * on the kernel pool, gnn::kernelPool()), training real batches —
 * across host cores. Determinism is preserved by construction at the
 * call sites: work items are keyed by index or carry their own RNG
 * stream, so results never depend on which thread ran what.
 *
 * Two ways to put work on a pool: parallelFor() runs an indexed loop
 * and returns when every index is done; ClaimableTask queues one item
 * ahead of need (a mini-batch sample), and whoever gets to it first —
 * a pool worker or the thread that needs the result — runs it.
 */

#ifndef SMARTSAGE_SIM_THREAD_POOL_HH
#define SMARTSAGE_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
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

    /**
     * Enqueue @p task for asynchronous execution. The pool tracks no
     * completion and catches nothing: a task reports its own end and
     * errors (parallelFor and ClaimableTask do), and one that throws
     * terminates the process.
     */
    void submit(std::function<void()> task);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable task_ready_;
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
 */
void parallelFor(ThreadPool *pool, std::size_t count,
                 const std::function<void(std::size_t)> &fn);

/**
 * One unit of work that runs exactly once, on whichever thread claims
 * it first: a worker of the pool it was queued on, or the thread that
 * calls resolve(). The owner never waits on a queue it does not need
 * (resolve() runs an unclaimed task itself) and never leaves work
 * touching freed memory (the destructor cancels a task still queued
 * and waits out one that is running), so @p work may reference
 * anything that outlives the task.
 */
class ClaimableTask
{
  public:
    /** Queue @p work on @p pool; a null @p pool queues nothing, and
     *  the work runs inside resolve() on the caller. */
    ClaimableTask(ThreadPool *pool, std::function<void()> work);

    /** Cancels the work if no thread has claimed it, else waits for
     *  it to finish. */
    ~ClaimableTask();

    ClaimableTask(const ClaimableTask &) = delete;
    ClaimableTask &operator=(const ClaimableTask &) = delete;

    /**
     * Run the work on this thread unless a worker has claimed it, in
     * which case wait for that worker; then rethrow the exception the
     * work threw, if any.
     */
    void resolve();

  private:
    struct State;
    std::shared_ptr<State> state_; //!< shared with the queued pool task
};

} // namespace smartsage::sim

#endif // SMARTSAGE_SIM_THREAD_POOL_HH
