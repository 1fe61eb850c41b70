/**
 * @file
 * Helpers shared by the engine-level test suites: reading one engine
 * counter by name, bit-exact comparison of two SimMetrics, and the
 * uncached scheduler wrapper that runs a policy on the reference
 * prediction path.
 */

#ifndef DENSIM_TESTS_TEST_UTIL_HH
#define DENSIM_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/dense_server_sim.hh"
#include "sched/factory.hh"
#include "sched/scheduler.hh"

namespace densim {
namespace test {

/** Value of the engine counter @p name; a test failure if absent. */
inline std::uint64_t
counterValue(const DenseServerSim &sim, const std::string &name)
{
    for (const auto &c : sim.observability().counters()) {
        if (c.name == name)
            return c.value;
    }
    ADD_FAILURE() << "counter '" << name << "' not registered";
    return 0;
}

/** Value of the engine gauge @p name; a test failure if absent. */
inline double
gaugeValue(const DenseServerSim &sim, const std::string &name)
{
    for (const auto &g : sim.observability().gauges()) {
        if (g.name == name)
            return g.value;
    }
    ADD_FAILURE() << "gauge '" << name << "' not registered";
    return 0.0;
}

inline void
expectStatsIdentical(const RunningStats &a, const RunningStats &b,
                     const char *what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.mean(), b.mean()) << what;
    EXPECT_EQ(a.variance(), b.variance()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
}

inline void
expectRegionIdentical(const RegionMetrics &a, const RegionMetrics &b,
                      const char *what)
{
    EXPECT_EQ(a.busyTimeS, b.busyTimeS) << what;
    EXPECT_EQ(a.freqTime, b.freqTime) << what;
    EXPECT_EQ(a.workDone, b.workDone) << what;
}

/** Bit-exact equality of every metrics field (no tolerances). */
inline void
expectMetricsIdentical(const SimMetrics &a, const SimMetrics &b)
{
    EXPECT_EQ(a.jobsArrived, b.jobsArrived);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_EQ(a.jobsUnfinished, b.jobsUnfinished);
    EXPECT_EQ(a.migrations, b.migrations);
    expectStatsIdentical(a.runtimeExpansion, b.runtimeExpansion,
                         "runtime expansion");
    expectStatsIdentical(a.serviceExpansion, b.serviceExpansion,
                         "service expansion");
    expectStatsIdentical(a.queueDelayS, b.queueDelayS, "queue delay");
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.measuredS, b.measuredS);
    EXPECT_EQ(a.makespanS, b.makespanS);
    expectRegionIdentical(a.front, b.front, "front");
    expectRegionIdentical(a.back, b.back, "back");
    expectRegionIdentical(a.even, b.even, "even");
    EXPECT_EQ(a.totalWork, b.totalWork);
    EXPECT_EQ(a.totalBusyTime, b.totalBusyTime);
    EXPECT_EQ(a.totalFreqTime, b.totalFreqTime);
    EXPECT_EQ(a.timelineS, b.timelineS);
    EXPECT_EQ(a.zoneAmbientC, b.zoneAmbientC);
    expectStatsIdentical(a.chipTempC, b.chipTempC, "chip temp");
    EXPECT_EQ(a.maxChipTempC, b.maxChipTempC);
    EXPECT_EQ(a.boostTimeS, b.boostTimeS);
}

/**
 * Runs the inner policy with SchedContext::cache cleared, so every
 * placement prediction and downstream penalty is recomputed from
 * scratch — the reference the engine's cached path must match bit
 * for bit. The engine itself always hands out its cache.
 */
class UncachedScheduler : public Scheduler
{
  public:
    explicit UncachedScheduler(std::unique_ptr<Scheduler> inner)
        : inner_(std::move(inner))
    {
    }

    const char *name() const override { return inner_->name(); }

    std::size_t
    pick(const Job &job, const SchedContext &ctx) override
    {
        SchedContext reference = ctx;
        reference.cache = nullptr;
        return inner_->pick(job, reference);
    }

    void reset() override { inner_->reset(); }

    void
    attachObs(obs::Registry &registry) override
    {
        // The engine counts picks through this wrapper's pickCounted;
        // the inner policy registers under the same name.
        Scheduler::attachObs(registry);
        inner_->attachObs(registry);
    }

  private:
    std::unique_ptr<Scheduler> inner_;
};

/** makeScheduler(@p name) on the uncached reference path. */
inline std::unique_ptr<Scheduler>
makeUncachedScheduler(const std::string &name)
{
    return std::make_unique<UncachedScheduler>(makeScheduler(name));
}

} // namespace test
} // namespace densim

#endif // DENSIM_TESTS_TEST_UTIL_HH
