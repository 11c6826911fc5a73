/**
 * @file
 * Fixed-size worker pool for the experiment harness. Simulations are
 * embarrassingly parallel CPU-bound jobs, so the pool is deliberately
 * simple: a locked queue of std::function jobs drained by N
 * std::jthread workers. The sweep executor submits one job per run.
 */

#ifndef CARVE_HARNESS_THREAD_POOL_HH
#define CARVE_HARNESS_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

namespace carve {
namespace harness {

// GCC warns that hardware_destructive_interference_size is an ABI
// hazard in public headers; here it only pads an internal array, so
// any value consistent within one build is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif

/**
 * Mutable per-worker state, one cache line per worker. Workers update
 * their own slot on every job; without the padding those writes would
 * false-share one line across the pool and turn the job accounting
 * into a cross-core ping-pong.
 */
struct alignas(std::hardware_destructive_interference_size) WorkerState
{
    std::uint64_t jobs_run = 0;    ///< jobs completed by this worker
    int numa_node = -1;            ///< host node bound to, or -1
};

static_assert(sizeof(WorkerState) ==
                  std::hardware_destructive_interference_size,
              "WorkerState must own exactly one destructive-"
              "interference span");
static_assert(alignof(WorkerState) >=
                  std::hardware_destructive_interference_size,
              "WorkerState slots must not straddle interference spans");

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/**
 * N worker threads draining a FIFO job queue. Destruction requests
 * stop, drains any still-queued jobs, and joins. Jobs must not
 * throw — wrap fallible work in its own try/catch. Workers are named
 * "carve-wkr-N" (Linux) so traces, gdb and `top -H` attribute
 * simulation work to the pool.
 */
class ThreadPool
{
  public:
    using Job = std::function<void()>;

    /** @param threads worker count; 0 means hardwareThreads(). */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. */
    void submit(Job job);

    /** Block until the queue is empty and every worker is idle. */
    void wait();

    /** Number of worker threads. */
    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned hardwareThreads();

    /** Jobs completed by worker @p i (tests / reporting). */
    std::uint64_t
    jobsRun(unsigned i) const
    {
        return state_[i].jobs_run;
    }

    /** Host NUMA node worker @p i bound itself to, or -1. */
    int
    workerNode(unsigned i) const
    {
        return state_[i].numa_node;
    }

  private:
    void workerLoop(std::stop_token st, unsigned index);

    std::mutex mutex_;
    std::condition_variable_any work_cv_;  ///< queue became non-empty
    std::condition_variable idle_cv_;      ///< a job finished
    std::deque<Job> queue_;
    std::size_t in_flight_ = 0;
    /** One padded slot per worker; sized before the jthreads start and
     * never resized, so workers index it lock-free. */
    std::unique_ptr<WorkerState[]> state_;
    std::vector<std::jthread> workers_;
};

} // namespace harness
} // namespace carve

#endif // CARVE_HARNESS_THREAD_POOL_HH
