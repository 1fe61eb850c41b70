/**
 * @file
 * Tests for the experiment harness and its worker pool: empty-grid
 * handling, the persistent pool's reuse, caller-first hook and
 * thread cap, worker-exception propagation (util/parallel.hh), and the
 * ordering-independence regression — the same grid run on 1 and on 4
 * threads must produce bit-identical metrics, since every cell is
 * independently seeded and deterministic.
 */

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "util/parallel.hh"

namespace densim {
namespace {

/** Small grid config: 24 sockets, short horizon. */
SimConfig
gridConfig()
{
    SimConfig config;
    config.topo.rows = 2;
    config.simTimeS = 1.0;
    config.warmupS = 0.25;
    config.socketTauS = 0.5;
    config.seed = 7;
    return config;
}

// ---------------------------------------------------- parallel pool

TEST(Parallel, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(64);
    for (auto &h : hits)
        h = 0;
    parallelFor(hits.size(), 4,
                [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ZeroItemsIsANoOp)
{
    parallelFor(0, 4, [](std::size_t) { FAIL() << "ran a work item"; });
}

TEST(Parallel, RethrowsFirstWorkerException)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(100, 4, [&](std::size_t i) {
            ++ran;
            if (i == 3)
                throw std::runtime_error("cell 3 exploded");
        });
        FAIL() << "worker exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 3 exploded");
    }
    // Abandonment of the remaining items is best-effort (in-flight
    // workers notice the failure at their next claim), so only the
    // upper bound is deterministic.
    EXPECT_LE(ran.load(), 100);
}

TEST(Parallel, ReportsEveryConcurrentWorkerFailure)
{
    // Two workers, two items, both throwing — a latch makes sure
    // both are mid-flight before either throws, so both exceptions
    // are captured (neither worker can abandon early). The first
    // captured one is rethrown; the other must still be reported on
    // stderr instead of vanishing.
    std::atomic<int> armed{0};
    testing::internal::CaptureStderr();
    try {
        parallelFor(2, 2, [&](std::size_t i) {
            ++armed;
            while (armed.load() < 2) {
            }
            throw std::runtime_error(
                "item " + std::to_string(i) + " exploded");
        });
        FAIL() << "worker exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("exploded"),
                  std::string::npos);
    }
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("item 0 exploded"), std::string::npos) << log;
    EXPECT_NE(log.find("item 1 exploded"), std::string::npos) << log;
    EXPECT_NE(log.find("parallelFor: worker"), std::string::npos)
        << log;
}

TEST(Parallel, ReportsNonStandardExceptionsToo)
{
    testing::internal::CaptureStderr();
    EXPECT_THROW(
        parallelFor(1, 1, [](std::size_t) { throw 42; }), int);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("(non-standard exception)"), std::string::npos)
        << log;
}

TEST(Parallel, ExceptionOnSingleThreadPropagates)
{
    EXPECT_THROW(parallelFor(4, 1,
                             [](std::size_t) {
                                 throw std::domain_error("boom");
                             }),
                 std::domain_error);
}

// ------------------------------------------------- persistent pool

TEST(ParallelPool, TwoHundredCallsRunEveryItemOnce)
{
    WorkerPool pool(4, 16);
    ASSERT_EQ(pool.threads(), 4u);
    std::vector<std::atomic<int>> hits(16);
    for (int call = 0; call < 200; ++call) {
        for (auto &h : hits)
            h = 0;
        std::atomic<bool> badWorker{false};
        pool.run(hits.size(), [&](std::size_t i, unsigned worker) {
            ++hits[i];
            if (worker >= pool.threads())
                badWorker = true;
        });
        EXPECT_FALSE(badWorker.load()) << "call " << call;
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "call " << call << " index " << i;
    }
}

TEST(ParallelPool, HookRunsOncePerCallOnTheCallingThread)
{
    WorkerPool pool(3, 8);
    const std::thread::id caller = std::this_thread::get_id();
    for (int call = 0; call < 50; ++call) {
        int hooks = 0;
        bool hookOnCaller = false;
        std::atomic<int> items{0};
        std::atomic<bool> workerZeroElsewhere{false};
        pool.run(
            8,
            [&](std::size_t, unsigned worker) {
                ++items;
                if (worker == 0 && std::this_thread::get_id() != caller)
                    workerZeroElsewhere = true;
            },
            [&] {
                ++hooks;
                hookOnCaller = std::this_thread::get_id() == caller;
            });
        EXPECT_EQ(hooks, 1);
        EXPECT_TRUE(hookOnCaller);
        EXPECT_EQ(items.load(), 8);
        EXPECT_FALSE(workerZeroElsewhere.load());
    }
}

TEST(ParallelPool, FailedCallReportsEveryFailureAndPoolStaysUsable)
{
    // Both workers throw while the other is mid-flight (the latch),
    // so both failures are captured; the next call on the same pool
    // must run every item again.
    WorkerPool pool(2, 2);
    std::atomic<int> armed{0};
    testing::internal::CaptureStderr();
    try {
        pool.run(2, [&](std::size_t i, unsigned) {
            ++armed;
            while (armed.load() < 2) {
            }
            throw std::runtime_error("item " + std::to_string(i) +
                                     " exploded");
        });
        FAIL() << "worker exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("exploded"),
                  std::string::npos);
    }
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("item 0 exploded"), std::string::npos) << log;
    EXPECT_NE(log.find("item 1 exploded"), std::string::npos) << log;
    EXPECT_NE(log.find("parallelFor: worker"), std::string::npos)
        << log;

    std::vector<std::atomic<int>> hits(50);
    for (auto &h : hits)
        h = 0;
    pool.run(hits.size(), [&](std::size_t i, unsigned) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelPool, FailedHookIsReportedAndRethrown)
{
    WorkerPool pool(2, 4);
    testing::internal::CaptureStderr();
    EXPECT_THROW(pool.run(
                     4, [](std::size_t, unsigned) {},
                     [] { throw std::domain_error("hook exploded"); }),
                 std::domain_error);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("worker 0: caller hook failed: hook exploded"),
              std::string::npos)
        << log;
    std::atomic<int> ran{0};
    pool.run(4, [&](std::size_t, unsigned) { ++ran; });
    EXPECT_EQ(ran.load(), 4);
}

TEST(ParallelPool, ZeroItemsRunsOnlyTheHook)
{
    WorkerPool pool(4, 4);
    int hooks = 0;
    pool.run(
        0, [](std::size_t, unsigned) { FAIL() << "ran a work item"; },
        [&] { ++hooks; });
    EXPECT_EQ(hooks, 1);
}

TEST(ParallelPool, OneThreadRunsEverythingOnTheCaller)
{
    WorkerPool pool(1, 10);
    ASSERT_EQ(pool.threads(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    int ran = 0;
    bool elsewhere = false;
    pool.run(10, [&](std::size_t, unsigned worker) {
        ++ran;
        elsewhere = elsewhere || worker != 0 ||
                    std::this_thread::get_id() != caller;
    });
    EXPECT_EQ(ran, 10);
    EXPECT_FALSE(elsewhere);
}

TEST(ParallelPool, MoreThreadsThanItemsAreCapped)
{
    // The pool never starts more workers than its calls have items,
    // and a call with fewer items than workers uses only as many.
    EXPECT_EQ(WorkerPool(8, 3).threads(), 3u);
    WorkerPool pool(4, 16);
    for (int call = 0; call < 20; ++call) {
        std::vector<std::atomic<int>> hits(2);
        for (auto &h : hits)
            h = 0;
        std::atomic<unsigned> maxWorker{0};
        pool.run(hits.size(), [&](std::size_t i, unsigned worker) {
            ++hits[i];
            unsigned seen = maxWorker.load();
            while (worker > seen &&
                   !maxWorker.compare_exchange_weak(seen, worker)) {
            }
        });
        EXPECT_EQ(hits[0].load(), 1);
        EXPECT_EQ(hits[1].load(), 1);
        EXPECT_LT(maxWorker.load(), 2u);
    }
    int ran = 0;
    parallelFor(3, 8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 3);
}

// ------------------------------------------------------- experiment

TEST(Experiment, EmptySpecsYieldEmptyResults)
{
    const std::vector<RunResult> results = runAll({}, 4);
    EXPECT_TRUE(results.empty());
}

TEST(Experiment, GridCoversSchedulersTimesLoads)
{
    const std::vector<RunSpec> specs = makeGrid(
        {"CF", "Random"}, WorkloadSet::Computation, {0.3, 0.6},
        gridConfig());
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].scheduler, "CF");
    EXPECT_DOUBLE_EQ(specs[1].config.load, 0.6);
}

void
expectIdentical(const SimMetrics &a, const SimMetrics &b)
{
    EXPECT_EQ(a.jobsArrived, b.jobsArrived);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_EQ(a.jobsUnfinished, b.jobsUnfinished);
    EXPECT_EQ(a.runtimeExpansion.count(), b.runtimeExpansion.count());
    // Bitwise equality: each cell's computation is identical no
    // matter which worker thread executed it.
    EXPECT_EQ(a.runtimeExpansion.mean(), b.runtimeExpansion.mean());
    EXPECT_EQ(a.serviceExpansion.mean(), b.serviceExpansion.mean());
    EXPECT_EQ(a.queueDelayS.mean(), b.queueDelayS.mean());
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.makespanS, b.makespanS);
    EXPECT_EQ(a.totalWork, b.totalWork);
    EXPECT_EQ(a.maxChipTempC, b.maxChipTempC);
}

TEST(Experiment, DeterministicAcrossThreadCounts)
{
    const std::vector<RunSpec> specs = makeGrid(
        {"CF", "CP"}, WorkloadSet::Computation, {0.4, 0.8},
        gridConfig());

    const std::vector<RunResult> serial = runAll(specs, 1);
    const std::vector<RunResult> parallel = runAll(specs, 4);
    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].scheduler + " @ " +
                     std::to_string(specs[i].config.load));
        EXPECT_EQ(serial[i].spec.scheduler, parallel[i].spec.scheduler);
        expectIdentical(serial[i].metrics, parallel[i].metrics);
    }
}

TEST(Experiment, IndexResultsKeysBySchedulerAndLoad)
{
    const std::vector<RunSpec> specs = makeGrid(
        {"CF"}, WorkloadSet::Computation, {0.5}, gridConfig());
    const auto index = indexResults(runAll(specs, 1));
    ASSERT_EQ(index.count("CF"), 1u);
    ASSERT_EQ(index.at("CF").count(0.5), 1u);
    EXPECT_GT(index.at("CF").at(0.5).jobsArrived, 0u);
}

} // namespace
} // namespace densim
