#include "harness/thread_pool.hh"

#include <string>

#ifdef __linux__
#include <pthread.h>
#endif

#include "common/hostnuma.hh"

namespace carve {
namespace harness {

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    state_ = std::make_unique<WorkerState[]>(threads);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back(
            [this, i](std::stop_token st) { workerLoop(st, i); });
#ifdef __linux__
        // Name the workers so traces, gdb and `top -H` attribute
        // simulation work to the pool (comm limit is 15 chars).
        std::string name = "carve-wkr-" + std::to_string(i);
        if (name.size() > 15)
            name.resize(15);
        pthread_setname_np(workers_.back().native_handle(),
                           name.c_str());
#endif
    }
}

ThreadPool::~ThreadPool()
{
    for (auto &w : workers_)
        w.request_stop();
    work_cv_.notify_all();
    // jthread joins in its destructor.
}

void
ThreadPool::submit(Job job)
{
    {
        std::lock_guard lock(mutex_);
        queue_.push_back(std::move(job));
    }
    work_cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock lock(mutex_);
    idle_cv_.wait(lock, [this] {
        return queue_.empty() && in_flight_ == 0;
    });
}

void
ThreadPool::workerLoop(std::stop_token st, unsigned index)
{
    WorkerState &me = state_[index];
    // Spread workers round-robin over host NUMA nodes so each one's
    // simulation allocates from (and runs near) its own node. A
    // CARVE_NUMA=OFF build or a non-NUMA host leaves numa_node at -1.
    if (hostnuma::available()) {
        const int node =
            static_cast<int>(index) % hostnuma::nodeCount();
        if (hostnuma::bindThreadToNode(node))
            me.numa_node = node;
    }

    while (true) {
        Job job;
        {
            std::unique_lock lock(mutex_);
            work_cv_.wait(lock, st,
                          [this] { return !queue_.empty(); });
            if (queue_.empty())
                return;  // stop requested and nothing left to do
            job = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        job();
        ++me.jobs_run;  // own padded line: no cross-worker sharing
        {
            std::lock_guard lock(mutex_);
            --in_flight_;
        }
        idle_cv_.notify_all();
    }
}

} // namespace harness
} // namespace carve
