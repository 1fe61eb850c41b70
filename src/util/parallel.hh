/**
 * @file
 * A persistent worker pool over index ranges with exception
 * propagation — the workers behind Experiment::runAll (through the
 * one-shot parallelFor) and the fleet shard barrier
 * (fleet/fleet_sim.hh, which keeps one pool for a whole run).
 *
 * The calling thread is worker 0; the other threads() - 1 helpers are
 * started once and park on a condition variable between calls, so a
 * caller that needs a parallel section every few milliseconds pays
 * for one wake-up instead of a thread spawn and join. Each call may
 * take a caller-first hook: work that runs on the calling thread
 * before it starts claiming items alongside the helpers.
 *
 * Work items are claimed from an atomic counter, so any number of
 * items runs on a bounded pool. Every worker's first exception is
 * captured in a per-worker slot and the remaining items are abandoned
 * (workers stop claiming). Once every worker of the call is back,
 * every captured failure is reported on stderr (worker index, item
 * index, what()) and the first-captured exception is rethrown on the
 * calling thread — a failed cell surfaces as an ordinary exception
 * instead of a lost process, and a second concurrent failure is
 * reported instead of silently swallowed. The pool stays usable after
 * a failed call.
 */

#ifndef DENSIM_UTIL_PARALLEL_HH
#define DENSIM_UTIL_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace densim {

namespace detail {

/** what() of a captured exception, or a placeholder for non-std. */
inline std::string
describeException(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "(non-standard exception)";
    }
}

} // namespace detail

/** A fixed team of workers whose caller is worker 0. */
class WorkerPool
{
  public:
    /**
     * A pool of min(@p threads, @p items) workers (at least one;
     * @p threads 0 = hardware concurrency), sized for calls of
     * @p items work items: the threads beyond that would never find
     * an item to claim.
     */
    WorkerPool(unsigned threads, std::size_t items)
    {
        if (threads == 0)
            threads = std::max(1u, std::thread::hardware_concurrency());
        const auto workers = static_cast<unsigned>(
            std::max<std::size_t>(1, std::min<std::size_t>(threads, items)));
        failures_.resize(workers);
        helpers_.reserve(workers - 1);
        try {
            for (unsigned w = 1; w < workers; ++w)
                helpers_.emplace_back([this, w] { helperLoop(w); });
        } catch (...) {
            stopHelpers();
            throw;
        }
    }

    ~WorkerPool() { stopHelpers(); }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Workers, the calling thread included. */
    unsigned threads() const
    {
        return static_cast<unsigned>(failures_.size());
    }

    /**
     * Invoke fn(i, worker) for every i in [0, @p count) — worker is
     * the index in [0, threads()) of the thread running the item, 0
     * being the caller — after hook() has run on the calling thread.
     * Completion order is unspecified; fn must handle its own
     * synchronization for shared state (writing to distinct per-index
     * or per-worker slots is safe). When the hook or a work item
     * throws, every captured exception is reported via warn() and the
     * first-captured one is rethrown here once every worker is back.
     * One call at a time: neither fn nor hook may call run() on this
     * pool.
     */
    template <typename Fn, typename Hook>
    void run(std::size_t count, Fn &&fn, Hook &&hook)
    {
        using F = std::remove_reference_t<Fn>;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            count_ = count;
            fn_ = const_cast<void *>(static_cast<const void *>(&fn));
            invoke_ = [](void *f, std::size_t i, unsigned w) {
                (*static_cast<F *>(f))(i, w);
            };
            next_.store(0, std::memory_order_relaxed);
            failed_.store(false, std::memory_order_relaxed);
            first_ = nullptr;
            for (WorkerFailure &failure : failures_)
                failure = WorkerFailure{};
            callHelpers_ = static_cast<unsigned>(std::min<std::size_t>(
                helpers_.size(), count > 0 ? count - 1 : 0));
            active_ = callHelpers_;
            ++generation_;
        }
        if (callHelpers_ > 0)
            wake_.notify_all();

        try {
            hook();
        } catch (...) {
            capture(0, kHookItem, std::current_exception());
        }
        claim(0);
        {
            std::unique_lock<std::mutex> lock(mutex_);
            done_.wait(lock, [this] { return active_ == 0; });
        }
        if (!first_)
            return;
        // Report every captured failure — not just the one about to
        // be rethrown — so a second worker dying in the same call
        // leaves a diagnostic instead of vanishing.
        for (unsigned w = 0; w < threads(); ++w) {
            const WorkerFailure &failure = failures_[w];
            if (!failure.error)
                continue;
            const std::string what =
                detail::describeException(failure.error);
            if (failure.item == kHookItem)
                warn("parallelFor: worker ", w, ": caller hook failed: ",
                     what);
            else
                warn("parallelFor: worker ", w, ": item ", failure.item,
                     " failed: ", what);
        }
        std::rethrow_exception(first_);
    }

    /** run() with no caller-first hook. */
    template <typename Fn>
    void run(std::size_t count, Fn &&fn)
    {
        run(count, std::forward<Fn>(fn), [] {});
    }

  private:
    /** Item index recorded for a failed caller-first hook. */
    static constexpr std::size_t kHookItem = ~std::size_t{0};

    struct WorkerFailure
    {
        std::exception_ptr error; //!< First exception of this worker.
        std::size_t item = 0;     //!< Work item (or kHookItem) that threw.
    };

    /** Claim and run items until none is left or one has failed. */
    void claim(unsigned w)
    {
        for (;;) {
            if (failed_.load(std::memory_order_acquire))
                return;
            const std::size_t i =
                next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= count_)
                return;
            try {
                invoke_(fn_, i, w);
            } catch (...) {
                capture(w, i, std::current_exception());
                return;
            }
        }
    }

    void capture(unsigned w, std::size_t item, std::exception_ptr error)
    {
        failures_[w].error = error;
        failures_[w].item = item;
        // Written once by the exchange winner, read by the caller
        // after every worker of the call is back.
        if (!failed_.exchange(true, std::memory_order_acq_rel))
            first_ = std::move(error);
    }

    void helperLoop(unsigned w)
    {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [&] {
                    return stop_ || generation_ != seen;
                });
                if (stop_)
                    return;
                seen = generation_;
                if (w > callHelpers_)
                    continue; // Too few items for this helper.
            }
            claim(w);
            std::lock_guard<std::mutex> lock(mutex_);
            if (--active_ == 0)
                done_.notify_one();
        }
    }

    void stopHelpers()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &helper : helpers_)
            helper.join();
        helpers_.clear();
    }

    // Call state: written by the caller under mutex_ before the
    // generation bump, read by the helpers after they observe it.
    std::mutex mutex_;
    std::condition_variable wake_; //!< Helpers: a call or stop_.
    std::condition_variable done_; //!< Caller: active_ reached 0.
    std::uint64_t generation_ = 0; //!< Calls started so far.
    unsigned callHelpers_ = 0;     //!< Helpers taking part in the call.
    unsigned active_ = 0;          //!< Of those, still claiming.
    bool stop_ = false;
    std::size_t count_ = 0;
    void *fn_ = nullptr;
    void (*invoke_)(void *, std::size_t, unsigned) = nullptr;

    std::atomic<std::size_t> next_{0};
    std::atomic<bool> failed_{false};
    std::exception_ptr first_;
    std::vector<WorkerFailure> failures_; //!< One slot per worker.

    std::vector<std::thread> helpers_; //!< Last: they use the above.
};

/**
 * Invoke fn(i) for every i in [0, count) on up to @p threads workers
 * (0 = hardware concurrency), the calling thread among them: a
 * one-shot WorkerPool, with its failure reporting and rethrow.
 */
template <typename Fn>
void
parallelFor(std::size_t count, unsigned threads, Fn &&fn)
{
    if (count == 0)
        return;
    WorkerPool pool(threads, count);
    pool.run(count, [&fn](std::size_t i, unsigned) { fn(i); });
}

} // namespace densim

#endif // DENSIM_UTIL_PARALLEL_HH
