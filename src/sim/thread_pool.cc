#include "thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "logging.hh"

namespace smartsage::sim
{

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stop_ = true;
    }
    task_ready_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    SS_ASSERT(task, "null task submitted");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        SS_ASSERT(!stop_, "submit on a stopping pool");
        tasks_.push_back(std::move(task));
        ++in_flight_;
    }
    task_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_idle_.wait(lock, [this] { return in_flight_ == 0; });
    if (first_error_) {
        std::exception_ptr err = std::exchange(first_error_, nullptr);
        lock.unlock();
        std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            task_ready_.wait(lock,
                             [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty()) {
                if (stop_)
                    return;
                continue;
            }
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        std::exception_ptr err;
        try {
            task();
        } catch (...) {
            err = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (err && !first_error_)
                first_error_ = err;
            if (--in_flight_ == 0)
                all_idle_.notify_all();
        }
    }
}

void
parallelFor(ThreadPool *pool, std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    SS_ASSERT(fn, "null body passed to parallelFor");
    if (!pool || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    // Completion and the first error belong to this call, not to the
    // pool: callers sharing a pool never wait on each other's tasks or
    // receive each other's exceptions. Helpers that start after every
    // index is claimed touch only this shared state, never @p fn, so
    // the caller may return before they run.
    struct Call
    {
        Call(const std::function<void(std::size_t)> &body, std::size_t n)
            : fn(body), count(n)
        {
        }

        const std::function<void(std::size_t)> &fn;
        const std::size_t count;
        std::atomic<std::size_t> next{0};
        std::mutex mutex;
        std::condition_variable all_done;
        std::size_t done = 0; //!< finished indices, guarded by mutex
        std::exception_ptr first_error; //!< guarded by mutex

        void
        run()
        {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= count)
                    return;
                std::exception_ptr err;
                try {
                    fn(i);
                } catch (...) {
                    err = std::current_exception();
                }
                std::lock_guard<std::mutex> lock(mutex);
                if (err && !first_error)
                    first_error = err;
                if (++done == count)
                    all_done.notify_all();
            }
        }
    };
    auto call = std::make_shared<Call>(fn, count);
    const std::size_t helpers =
        std::min<std::size_t>(count - 1, pool->size());
    for (std::size_t h = 0; h < helpers; ++h)
        pool->submit([call] { call->run(); });
    call->run();
    std::unique_lock<std::mutex> lock(call->mutex);
    call->all_done.wait(lock, [&call] { return call->done == call->count; });
    if (call->first_error)
        std::rethrow_exception(call->first_error);
}

} // namespace smartsage::sim
