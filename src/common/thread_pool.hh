/**
 * @file
 * A small reusable worker-thread pool for fanning independent jobs
 * (whole-System bench runs, DESIGN.md §9) across hardware
 * threads. Deliberately minimal: submit closures, wait for all of
 * them; no futures-per-job, no work stealing.
 *
 * Thread count resolution order: explicit constructor argument, the
 * EMC_BENCH_THREADS environment variable, then the hardware
 * concurrency. A pool of one thread runs jobs inline on the calling
 * thread (no worker is spawned), so single-threaded runs behave
 * exactly like a plain loop.
 */

#ifndef EMC_COMMON_THREAD_POOL_HH
#define EMC_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace emc
{

class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 resolves via defaultThreads()
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Waits for all submitted jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Queue a job. With one thread the job runs immediately on the
     * calling thread; otherwise a worker picks it up.
     */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void waitAll();

    unsigned threads() const { return threads_; }

    /**
     * EMC_BENCH_THREADS if set and positive, else the hardware
     * concurrency (at least 1).
     */
    static unsigned defaultThreads();

  private:
    void workerLoop();

    unsigned threads_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_work_;   ///< signals queued work
    std::condition_variable cv_idle_;   ///< signals all-done
    std::size_t in_flight_ = 0;         ///< queued + running jobs
    bool stopping_ = false;
};

} // namespace emc

#endif // EMC_COMMON_THREAD_POOL_HH
