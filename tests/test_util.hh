/**
 * @file
 * Helpers shared by the engine-level test suites: reading one engine
 * counter by name, and bit-exact comparison of two SimMetrics.
 */

#ifndef DENSIM_TESTS_TEST_UTIL_HH
#define DENSIM_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/dense_server_sim.hh"

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

} // namespace test
} // namespace densim

#endif // DENSIM_TESTS_TEST_UTIL_HH
