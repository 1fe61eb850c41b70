/**
 * @file
 * Tests of the benchmark's own drive layer: the windowed drive must
 * be the engine's one-shot run, and neither the timing decorator nor
 * a checkpoint round trip may change any output or counter.
 */

#include <gtest/gtest.h>

#include <map>

#include "drive.hh"
#include "sched/factory.hh"

namespace perfbench {
namespace {

/** Workload @p name shrunk to test size, fault times kept inside. */
Workload
shortWorkload(const std::string &name)
{
    Workload w = makeWorkload(name, 7);
    w.config.simTimeS = w.fleet() ? 0.4 : 1.2;
    w.config.warmupS = 0.2;
    if (w.config.fault.enabled()) {
        w.derateFromS = 0.4;
        w.derateToS = 0.8;
        w.config.fault.fanFailS = w.derateFromS;
        w.config.fault.fanRecoverS = w.derateToS;
        w.config.fault.socketFailS = 0.3;
        w.config.fault.socketRecoverS = 0.9;
    }
    if (w.fleet())
        w.config.fleet.chassis = 3;
    w.config.validate();
    return w;
}

std::map<std::string, std::uint64_t>
asMap(const Counters &counters)
{
    std::map<std::string, std::uint64_t> out;
    for (const densim::obs::CounterSample &c : counters)
        out[c.name] = c.value;
    return out;
}

class ChassisDrive : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ChassisDrive, WindowedDriveReproducesOneShotRun)
{
    const Workload w = shortWorkload(GetParam());
    densim::DenseServerSim oneShot(w.config,
                                   densim::makeScheduler(w.scheduler));
    const std::string expected = digest(oneShot.run());

    const ChassisRun run = runChassis(w, {});
    EXPECT_EQ(expected, digest(run.metrics));
    EXPECT_EQ("", checkChassis(run));
    EXPECT_GT(run.jobs, ArrivalFeed::kWindowS * 1000.0);
}

TEST_P(ChassisDrive, TimedSchedulerChangesNoOutputOrCounter)
{
    const Workload w = shortWorkload(GetParam());
    const ChassisRun plain = runChassis(w, {});
    const ChassisRun traced = runChassis(w, {true, -1.0});
    EXPECT_EQ(digest(plain.metrics), digest(traced.metrics));
    EXPECT_EQ(asMap(plain.counters), asMap(traced.counters));
    EXPECT_GT(counterValue(traced.counters,
                           "sched." + w.scheduler + ".picks"),
              0u);
    EXPECT_EQ(traced.pickNs.size(),
              counterValue(traced.counters,
                           "sched." + w.scheduler + ".picks"));
    EXPECT_FALSE(traced.choices.empty());
    EXPECT_EQ(traced.powers.size(), traced.sim->topology().numSockets());
}

TEST_P(ChassisDrive, CheckpointRoundTripIsBitIdentical)
{
    const Workload w = shortWorkload(GetParam());
    const ChassisRun plain = runChassis(w, {});
    const ChassisRun resumed = runChassis(w, {false, 0.6});
    EXPECT_GT(resumed.imageBytes, 0u);
    EXPECT_EQ(digest(plain.metrics), digest(resumed.metrics));
    EXPECT_EQ("", checkChassis(resumed));
}

INSTANTIATE_TEST_SUITE_P(Workloads, ChassisDrive,
                         ::testing::Values("chassis_cp",
                                           "chassis_cp_derated"));

TEST(FleetDrive, WorkersAndCheckpointLeaveOutputsUnchanged)
{
    const Workload w = shortWorkload("fleet16_cf");
    const FleetRun serial = runFleet(w, 1);
    const FleetRun parallel = runFleet(w, 2);
    const FleetRun resumed = runFleet(w, 2, 0.2);
    EXPECT_EQ("", checkFleet(serial));
    EXPECT_EQ(digest(serial.metrics), digest(parallel.metrics));
    EXPECT_EQ(digest(serial.metrics), digest(resumed.metrics));
    EXPECT_GT(resumed.imageBytes, 0u);
    EXPECT_EQ(serial.windowUs.size(), parallel.windowUs.size());
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_DEATH(makeWorkload("chassis", 1), "unknown workload");
}

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(0.0, percentile({}, 0.5));
    EXPECT_EQ(2.0, percentile({3.0, 1.0, 2.0, 4.0}, 0.5));
    EXPECT_EQ(4.0, percentile({3.0, 1.0, 2.0, 4.0}, 0.95));
    EXPECT_EQ(1.0, percentile({3.0, 1.0, 2.0, 4.0}, 0.0));
}

} // namespace
} // namespace perfbench
