/**
 * @file
 * Tests for the DVFS decision memo (core/dvfs_memo.hh): exact-key
 * semantics, invalidation on boost-cap and P-state-table changes, and
 * the engine-level check that the memo is invisible in the results.
 */

#include <gtest/gtest.h>

#include "core/dense_server_sim.hh"
#include "core/dvfs_memo.hh"
#include "sched/factory.hh"

namespace densim {
namespace {

DvfsDecision
decision(std::size_t pstate, double power_w)
{
    DvfsDecision d{};
    d.pstate = pstate;
    d.power = Watts(power_w);
    d.feasible = true;
    return d;
}

TEST(DvfsMemo, ExactModeRequiresBitwiseEqualAmbient)
{
    DvfsMemoTable memo;
    memo.reset(4, &memo);
    memo.store(1, WorkloadSet::Computation, 5, Celsius(40.0),
               decision(5, 20.0));

    const DvfsDecision *hit =
        memo.lookup(1, WorkloadSet::Computation, 5, Celsius(40.0));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->pstate, 5u);

    // The tiniest ambient change misses.
    EXPECT_EQ(memo.lookup(1, WorkloadSet::Computation, 5,
                          Celsius(40.0 + 1e-12)),
              nullptr);
    // Other sockets are independent slots.
    EXPECT_EQ(memo.lookup(0, WorkloadSet::Computation, 5, Celsius(40.0)),
              nullptr);
}

TEST(DvfsMemo, CapAndSetChangesMiss)
{
    DvfsMemoTable memo;
    memo.reset(1, &memo);
    memo.store(0, WorkloadSet::Computation, 7, Celsius(40.0),
               decision(7, 25.0));

    // The boost-dwell governor lowers the cap when credit runs out:
    // the memoized boost decision must not be replayed.
    EXPECT_EQ(memo.lookup(0, WorkloadSet::Computation, 5, Celsius(40.0)),
              nullptr);
    EXPECT_EQ(memo.lookup(0, WorkloadSet::Storage, 7, Celsius(40.0)),
              nullptr);
    EXPECT_NE(memo.lookup(0, WorkloadSet::Computation, 7, Celsius(40.0)),
              nullptr);
}

TEST(DvfsMemo, PStateTableChangeInvalidatesEverything)
{
    DvfsMemoTable memo;
    const int table_a = 0;
    const int table_b = 0;
    memo.reset(2, &table_a);
    memo.store(0, WorkloadSet::Computation, 5, Celsius(40.0),
               decision(5, 20.0));
    memo.store(1, WorkloadSet::Storage, 5, Celsius(35.0), decision(4, 16.0));

    // Same table: entries survive.
    memo.noteTable(&table_a);
    EXPECT_NE(memo.lookup(0, WorkloadSet::Computation, 5, Celsius(40.0)),
              nullptr);

    // A different P-state table drops every memoized decision — a
    // decision made against one table must never be replayed against
    // another.
    memo.noteTable(&table_b);
    EXPECT_EQ(memo.lookup(0, WorkloadSet::Computation, 5, Celsius(40.0)),
              nullptr);
    EXPECT_EQ(memo.lookup(1, WorkloadSet::Storage, 5, Celsius(35.0)),
              nullptr);

    // Entries stored after the swap hit again.
    memo.store(0, WorkloadSet::Computation, 5, Celsius(40.0),
               decision(5, 20.0));
    EXPECT_NE(memo.lookup(0, WorkloadSet::Computation, 5, Celsius(40.0)),
              nullptr);
}

TEST(DvfsMemo, InvalidateAllDropsEntries)
{
    DvfsMemoTable memo;
    memo.reset(1, &memo);
    memo.store(0, WorkloadSet::Computation, 5, Celsius(40.0),
               decision(5, 20.0));
    memo.invalidateAll();
    EXPECT_EQ(memo.lookup(0, WorkloadSet::Computation, 5, Celsius(40.0)),
              nullptr);
}

// ------------------------------------------------ engine level

SimConfig
memoConfig()
{
    SimConfig config;
    config.topo.rows = 3;
    config.simTimeS = 2.0;
    config.warmupS = 0.5;
    config.socketTauS = 0.5;
    config.load = 0.7;
    config.seed = 42;
    return config;
}

TEST(DvfsMemo, ZeroQuantizationIsExactlyTheUnmemoizedPath)
{
    // The memo only ever replays bit-identical inputs, so identical
    // configurations must produce bit-identical results —
    // the memo is invisible. (perf_equivalence_test covers the
    // incremental-vs-reference engine comparison.)
    DenseServerSim a(memoConfig(), makeScheduler("CP"));
    DenseServerSim b(memoConfig(), makeScheduler("CP"));
    const SimMetrics ma = a.run();
    const SimMetrics mb = b.run();
    EXPECT_EQ(ma.energyJ, mb.energyJ);
    EXPECT_EQ(ma.jobsCompleted, mb.jobsCompleted);
    EXPECT_EQ(ma.runtimeExpansion.mean(), mb.runtimeExpansion.mean());
}

} // namespace
} // namespace densim
