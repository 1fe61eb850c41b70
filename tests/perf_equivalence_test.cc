/**
 * @file
 * Differential tests for the incremental engine hot paths: the
 * event-heap completion queue, the delta-maintained ambient-target
 * field, and the DVFS memo must leave simulation results equivalent
 * to the recompute-from-scratch reference paths.
 */

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/dense_server_sim.hh"
#include "core/event_heap.hh"
#include "sched/factory.hh"

namespace densim {
namespace {

/** A small, fast configuration exercising all engine paths. */
SimConfig
diffConfig()
{
    SimConfig config;
    config.topo.rows = 3; // 36 sockets
    config.simTimeS = 2.0;
    config.warmupS = 0.5;
    config.socketTauS = 0.5;
    config.load = 0.7;
    config.seed = 42;
    return config;
}

void
expectNearRel(double a, double b, const char *what)
{
    const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
    EXPECT_NEAR(a, b, 1e-9 * scale) << what;
}

void
expectEquivalent(const SimMetrics &a, const SimMetrics &b)
{
    EXPECT_EQ(a.jobsArrived, b.jobsArrived);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_EQ(a.jobsUnfinished, b.jobsUnfinished);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.runtimeExpansion.count(), b.runtimeExpansion.count());
    expectNearRel(a.runtimeExpansion.mean(), b.runtimeExpansion.mean(),
                  "runtime expansion");
    expectNearRel(a.serviceExpansion.mean(), b.serviceExpansion.mean(),
                  "service expansion");
    expectNearRel(a.queueDelayS.mean(), b.queueDelayS.mean(),
                  "queue delay");
    expectNearRel(a.energyJ, b.energyJ, "energy");
    expectNearRel(a.makespanS, b.makespanS, "makespan");
    expectNearRel(a.totalWork, b.totalWork, "total work");
    expectNearRel(a.totalBusyTime, b.totalBusyTime, "busy time");
    expectNearRel(a.totalFreqTime, b.totalFreqTime, "freq time");
    expectNearRel(a.boostTimeS, b.boostTimeS, "boost time");
    expectNearRel(a.maxChipTempC, b.maxChipTempC, "max chip temp");
    expectNearRel(a.front.workDone, b.front.workDone, "front work");
    expectNearRel(a.back.workDone, b.back.workDone, "back work");
    expectNearRel(a.even.workDone, b.even.workDone, "even work");
}

TEST(PerfEquivalence, IncrementalThermalMatchesReference)
{
    for (const char *name : {"CF", "CP", "Predictive"}) {
        SimConfig fast = diffConfig();
        fast.incrementalThermal = true;
        SimConfig ref = diffConfig();
        ref.incrementalThermal = false;

        DenseServerSim a(fast, makeScheduler(name));
        DenseServerSim b(ref, makeScheduler(name));
        const SimMetrics ma = a.run();
        const SimMetrics mb = b.run();
        SCOPED_TRACE(name);
        expectEquivalent(ma, mb);
    }
}

TEST(PerfEquivalence, IncrementalThermalMatchesWithMigration)
{
    SimConfig fast = diffConfig();
    fast.migrationEnabled = true;
    SimConfig ref = fast;
    ref.incrementalThermal = false;

    DenseServerSim a(fast, makeScheduler("CP"));
    DenseServerSim b(ref, makeScheduler("CP"));
    expectEquivalent(a.run(), b.run());
}

TEST(PerfEquivalence, ObservabilityIsBitIdentical)
{
    // The disabled-overhead contract (DESIGN.md Sec. 10) is stronger
    // than "equivalent": turning on every runtime observability
    // feature — timeline sampling, trace and JSONL sinks — must leave
    // SimMetrics *bit-identical*, because counters and sinks only
    // read model state, never feed back into it. EXPECT_EQ on
    // doubles, not NEAR.
    SimConfig plain = diffConfig();
    SimConfig observed = diffConfig();
    observed.timelineSampleS = 0.25;
    observed.obsTracePath =
        testing::TempDir() + "perf_equiv_trace.json";
    observed.obsTimelinePath =
        testing::TempDir() + "perf_equiv_timeline.jsonl";

    DenseServerSim a(plain, makeScheduler("CP"));
    DenseServerSim b(observed, makeScheduler("CP"));
    const SimMetrics ma = a.run();
    const SimMetrics mb = b.run();

    EXPECT_EQ(ma.jobsArrived, mb.jobsArrived);
    EXPECT_EQ(ma.jobsCompleted, mb.jobsCompleted);
    EXPECT_EQ(ma.jobsUnfinished, mb.jobsUnfinished);
    EXPECT_EQ(ma.energyJ, mb.energyJ);
    EXPECT_EQ(ma.makespanS, mb.makespanS);
    EXPECT_EQ(ma.totalWork, mb.totalWork);
    EXPECT_EQ(ma.totalBusyTime, mb.totalBusyTime);
    EXPECT_EQ(ma.totalFreqTime, mb.totalFreqTime);
    EXPECT_EQ(ma.boostTimeS, mb.boostTimeS);
    EXPECT_EQ(ma.maxChipTempC, mb.maxChipTempC);
    EXPECT_EQ(ma.runtimeExpansion.mean(), mb.runtimeExpansion.mean());
    EXPECT_EQ(ma.serviceExpansion.mean(), mb.serviceExpansion.mean());
    EXPECT_EQ(ma.queueDelayS.mean(), mb.queueDelayS.mean());
    EXPECT_EQ(ma.chipTempC.mean(), mb.chipTempC.mean());
    EXPECT_EQ(ma.front.workDone, mb.front.workDone);
    EXPECT_EQ(ma.back.workDone, mb.back.workDone);
    EXPECT_EQ(ma.even.workDone, mb.even.workDone);
}

// ----------------------------------------------------- golden seeds

/**
 * Pre-SoA-refactor SimMetrics captured from the seed engine (hex
 * float literals, so the expected values round-trip exactly). The
 * SoA hot paths — flat state arrays, the feasibility ladder, the
 * fused scoring context, the epoch arena — are all claimed to be
 * *exact* rewrites, so the refactored engine must reproduce these
 * numbers for every scheduler, with faults armed, and with
 * migration on.
 */
struct GoldenRow
{
    const char *name;
    std::size_t jobsArrived, jobsCompleted, jobsUnfinished, migrations;
    double energyJ, makespanS, totalWork, totalBusyTime, totalFreqTime,
        boostTimeS, maxChipTempC, runtimeExpansion, serviceExpansion,
        queueDelayS, chipTempC;
};

constexpr GoldenRow kGoldens[] = {
    {"CF", 9647, 7241, 0, 0,
     0x1.5542ba6fa8c35p+9, 0x1.11e9161e38482p+1,
     0x1.7064ff552a54dp+5, 0x1.51945ef131924p+5,
     0x1.2917ec1050151p+5, 0x1.dc24800af28e5p+4,
     0x1.80365f643ae5dp+6, 0x1.01e3e9624cfb8p+0,
     0x1.d2131ef92788ep-1, 0x1.8dbc5a193e07ap-14,
     0x1.50b2678f70475p+6},
    {"HF", 9647, 7241, 0, 0,
     0x1.4f8e6a7f8c2bep+9, 0x1.0dfeb3f563588p+1,
     0x1.71093a010d1c7p+5, 0x1.5d68d26bd1759p+5,
     0x1.27541e3fd8ddp+5, 0x1.a1207ed6e2b52p+4,
     0x1.8a3b47fa03eb9p+6, 0x1.05eceee97d77p+0,
     0x1.de49f48d9d6e9p-1, 0x1.2a20246a56abcp-14,
     0x1.5205e2c98bb88p+6},
    {"Random", 9647, 7241, 0, 0,
     0x1.517ad3414c87ep+9, 0x1.0df6634acec3bp+1,
     0x1.707e015d19d21p+5, 0x1.56603a02ab7d1p+5,
     0x1.28377a638ee4p+5, 0x1.b99e1cfa3e665p+4,
     0x1.8627510d61c4fp+6, 0x1.023c08ef6505cp+0,
     0x1.d8859499a6314p-1, 0x1.41d8628865a42p-14,
     0x1.4c873e1b2dda6p+6},
    {"MinHR", 9647, 7241, 0, 0,
     0x1.4f460606b2fbep+9, 0x1.0dfb92749bdeep+1,
     0x1.7106b95c5cd72p+5, 0x1.5d75b216f93c5p+5,
     0x1.274f0560a0e35p+5, 0x1.a07a082d12131p+4,
     0x1.8854998e8f1c8p+6, 0x1.09e3030b96a59p+0,
     0x1.dcfe95e88faefp-1, 0x1.59ff1ab31092ap-14,
     0x1.506690d2212e4p+6},
    {"CN", 9647, 7241, 0, 0,
     0x1.546a02966547fp+9, 0x1.0eb46cbf9ea2p+1,
     0x1.703897815cc25p+5, 0x1.508c33f5cf649p+5,
     0x1.29217a7e9bd1fp+5, 0x1.de89eac573f1ap+4,
     0x1.83d362e9bddccp+6, 0x1.039dc72cb539ep+0,
     0x1.d3524d8497251p-1, 0x1.65c8e359bcbc9p-14,
     0x1.5118b1ced9f51p+6},
    {"Balanced", 9647, 7241, 0, 0,
     0x1.546a5c8499da9p+9, 0x1.110817335dcdfp+1,
     0x1.707a2714c4284p+5, 0x1.526785e2f61b8p+5,
     0x1.29020d88382ebp+5, 0x1.dae853bb09f6cp+4,
     0x1.815c8f75993c7p+6, 0x1.007739256d118p+0,
     0x1.d63ed66f9b6a2p-1, 0x1.233bf7960c76bp-14,
     0x1.50ee5ac29db56p+6},
    {"Balanced-L", 9647, 7241, 0, 0,
     0x1.53dfdfce483b1p+9, 0x1.0dfeb3f563588p+1,
     0x1.70c5d725c6c98p+5, 0x1.524540fdc78ffp+5,
     0x1.295420e0a6669p+5, 0x1.d7a564aa6c784p+4,
     0x1.833b125ba29cep+6, 0x1.09a6eba0b6e71p+0,
     0x1.d507f8fa156f6p-1, 0x1.c2f859774ab9fp-14,
     0x1.53014b714f283p+6},
    {"A-Random", 9647, 7241, 0, 0,
     0x1.543d7c825ef51p+9, 0x1.0dfe9dcdd6b36p+1,
     0x1.705f82776859p+5, 0x1.511e3642a0ad1p+5,
     0x1.292a767861e77p+5, 0x1.deb4a2d12d0f2p+4,
     0x1.7e626d96f2a07p+6, 0x1.021d75735289cp+0,
     0x1.d27969a3bd036p-1, 0x1.6aebf88a9383p-14,
     0x1.50c2cd314692ep+6},
    {"Predictive", 9647, 7241, 0, 0,
     0x1.54a6c66734595p+9, 0x1.0ed68a6e131c4p+1,
     0x1.707fd78d3b77ap+5, 0x1.5013a55b51c2p+5,
     0x1.2980aabd00183p+5, 0x1.e5bf5915c9324p+4,
     0x1.7c0ec74fa52f3p+6, 0x1.04207565ffc2bp+0,
     0x1.d09e520d7914bp-1, 0x1.9d7600aaac7c7p-14,
     0x1.528311c1e03cp+6},
    {"CP", 9647, 7241, 0, 0,
     0x1.5150671913124p+9, 0x1.0df6634acec3bp+1,
     0x1.707a1869b6192p+5, 0x1.5841e57c54868p+5,
     0x1.27d1d09e98075p+5, 0x1.a9b800e2e93bp+4,
     0x1.88443b2ec411cp+6, 0x1.03bc2f278daap+0,
     0x1.df78eff921406p-1, 0x1.14d237b07ee33p-14,
     0x1.4f60b54c466f5p+6},
    {"CP+faults", 9647, 7241, 0, 0,
     0x1.6d83f20f75ab6p+9, 0x1.4fd04652ef671p+1,
     0x1.70dc663ca7c5ap+5, 0x1.522961dbb0d73p+5,
     0x1.29702d07e6b31p+5, 0x1.b2ba505cb5e5p+4,
     0x1.c7a3b17d13dafp+6, 0x1.1a46712a096ddp+8,
     0x1.d6425ff66ea98p-1, 0x1.dccb69f262778p-3,
     0x1.61a70ec568e16p+6},
    {"CP+migration", 9647, 7241, 0, 7,
     0x1.50ff3d8c0a83p+9, 0x1.0dfe9dcdd6b36p+1,
     0x1.7096c471e73fdp+5, 0x1.5895daf80bbbcp+5,
     0x1.27dd3a1fe50fep+5, 0x1.a8a524282d1d7p+4,
     0x1.88610aa666b29p+6, 0x1.0957820ea96abp+0,
     0x1.df215b77feab5p-1, 0x1.75716686c338dp-14,
     0x1.4eb75639a664bp+6},
};

/** Build the scenario config for a golden row from its name. */
SimConfig
goldenConfig(const char *name)
{
    SimConfig config = diffConfig();
    if (std::string(name) == "CP+faults") {
        config.fault.fanFailS = 0.8;
        config.fault.fanSpeedFrac = 0.3;
        config.fault.fanRecoverS = 1.5;
        config.fault.sensorStuckAtS = 0.9;
        config.fault.socketFailS = 1.0;
        config.fault.socketRecoverS = 1.6;
    } else if (std::string(name) == "CP+migration") {
        config.migrationEnabled = true;
    }
    return config;
}

const char *
goldenScheduler(const char *name)
{
    return std::string(name).rfind("CP", 0) == 0 ? "CP" : name;
}

TEST(PerfEquivalence, GoldenMetricsMatchPreRefactorSeed)
{
    for (const GoldenRow &g : kGoldens) {
        SCOPED_TRACE(g.name);
        DenseServerSim sim(goldenConfig(g.name),
                           makeScheduler(goldenScheduler(g.name)));
        const SimMetrics m = sim.run();
        EXPECT_EQ(m.jobsArrived, g.jobsArrived);
        EXPECT_EQ(m.jobsCompleted, g.jobsCompleted);
        EXPECT_EQ(m.jobsUnfinished, g.jobsUnfinished);
        EXPECT_EQ(m.migrations, g.migrations);
        expectNearRel(m.energyJ, g.energyJ, "energy");
        expectNearRel(m.makespanS, g.makespanS, "makespan");
        expectNearRel(m.totalWork, g.totalWork, "total work");
        expectNearRel(m.totalBusyTime, g.totalBusyTime, "busy time");
        expectNearRel(m.totalFreqTime, g.totalFreqTime, "freq time");
        expectNearRel(m.boostTimeS, g.boostTimeS, "boost time");
        expectNearRel(m.maxChipTempC, g.maxChipTempC, "max chip temp");
        expectNearRel(m.runtimeExpansion.mean(), g.runtimeExpansion,
                      "runtime expansion");
        expectNearRel(m.serviceExpansion.mean(), g.serviceExpansion,
                      "service expansion");
        expectNearRel(m.queueDelayS.mean(), g.queueDelayS,
                      "queue delay");
        expectNearRel(m.chipTempC.mean(), g.chipTempC, "chip temp");
    }
}

TEST(PerfEquivalence, SparsePowerDeltaPrunesNothingOnSutCalibration)
{
    // The sparse applyPowerDelta fan-out drops rows whose coupling
    // coefficient is below kDeltaCoeffTolerance. On the SUT
    // calibration every coefficient is orders of magnitude above
    // that floor, so the filtered CSR must equal the full one row
    // for row — which is exactly why the goldens above (and every
    // default-topology run) stay bit-identical to the dense
    // implementation.
    DenseServerSim sim(SimConfig{}, makeScheduler("CP"));
    const CouplingMap &map = sim.coupling();
    const std::size_t n = sim.topology().numSockets();
    ASSERT_EQ(n, 180u);
    for (std::size_t s = 0; s < n; ++s)
        EXPECT_EQ(map.deltaFanoutCount(s), map.downstreamCount(s))
            << "socket " << s;
}

TEST(PerfEquivalence, PredictionCacheIsBitIdentical)
{
    // The prediction cache (placement/penalty memos, the feasibility
    // ladder, and the fast-path snapshot) returns cached values
    // verbatim, so disabling it must change nothing at all —
    // EXPECT_EQ on doubles, including with faults armed (where the
    // exact-DVFS prune turns itself off) and with migration on.
    for (const GoldenRow &g : kGoldens) {
        if (std::string(g.name).rfind("CP", 0) != 0)
            continue; // Only CP exercises the penalty paths.
        SCOPED_TRACE(g.name);
        SimConfig cached = goldenConfig(g.name);
        SimConfig uncached = cached;
        uncached.schedPredictionCache = false;

        DenseServerSim a(cached, makeScheduler("CP"));
        DenseServerSim b(uncached, makeScheduler("CP"));
        const SimMetrics ma = a.run();
        const SimMetrics mb = b.run();
        EXPECT_EQ(ma.jobsArrived, mb.jobsArrived);
        EXPECT_EQ(ma.jobsCompleted, mb.jobsCompleted);
        EXPECT_EQ(ma.migrations, mb.migrations);
        EXPECT_EQ(ma.energyJ, mb.energyJ);
        EXPECT_EQ(ma.makespanS, mb.makespanS);
        EXPECT_EQ(ma.totalWork, mb.totalWork);
        EXPECT_EQ(ma.totalBusyTime, mb.totalBusyTime);
        EXPECT_EQ(ma.totalFreqTime, mb.totalFreqTime);
        EXPECT_EQ(ma.boostTimeS, mb.boostTimeS);
        EXPECT_EQ(ma.maxChipTempC, mb.maxChipTempC);
        EXPECT_EQ(ma.runtimeExpansion.mean(),
                  mb.runtimeExpansion.mean());
        EXPECT_EQ(ma.serviceExpansion.mean(),
                  mb.serviceExpansion.mean());
        EXPECT_EQ(ma.queueDelayS.mean(), mb.queueDelayS.mean());
        EXPECT_EQ(ma.chipTempC.mean(), mb.chipTempC.mean());
    }
}

TEST(PerfEquivalence, BusySumSkipIsBitIdentical)
{
    // setSocketRate elides the busy-sum remove/add round-trip when a
    // powerManage epoch confirms the previous DVFS decision (the
    // contributions are bitwise unchanged). The skip must be *exact*,
    // not merely close: it can only trigger on sockets already in the
    // sums — which happens only inside powerManage, whose sums are
    // rebuilt from scratch (rebuildScalars) before the next read — so
    // every metric must match EXPECT_EQ on doubles across every
    // golden scenario, faults and migration included.
    for (const GoldenRow &g : kGoldens) {
        SCOPED_TRACE(g.name);
        SimConfig skip = goldenConfig(g.name);
        SimConfig resum = goldenConfig(g.name);
        resum.busySumSkip = false;

        DenseServerSim a(skip, makeScheduler(goldenScheduler(g.name)));
        DenseServerSim b(resum, makeScheduler(goldenScheduler(g.name)));
        const SimMetrics ma = a.run();
        const SimMetrics mb = b.run();
        EXPECT_EQ(ma.jobsArrived, mb.jobsArrived);
        EXPECT_EQ(ma.jobsCompleted, mb.jobsCompleted);
        EXPECT_EQ(ma.jobsUnfinished, mb.jobsUnfinished);
        EXPECT_EQ(ma.migrations, mb.migrations);
        EXPECT_EQ(ma.energyJ, mb.energyJ);
        EXPECT_EQ(ma.makespanS, mb.makespanS);
        EXPECT_EQ(ma.totalWork, mb.totalWork);
        EXPECT_EQ(ma.totalBusyTime, mb.totalBusyTime);
        EXPECT_EQ(ma.totalFreqTime, mb.totalFreqTime);
        EXPECT_EQ(ma.boostTimeS, mb.boostTimeS);
        EXPECT_EQ(ma.maxChipTempC, mb.maxChipTempC);
        EXPECT_EQ(ma.runtimeExpansion.mean(),
                  mb.runtimeExpansion.mean());
        EXPECT_EQ(ma.serviceExpansion.mean(),
                  mb.serviceExpansion.mean());
        EXPECT_EQ(ma.queueDelayS.mean(), mb.queueDelayS.mean());
        EXPECT_EQ(ma.chipTempC.mean(), mb.chipTempC.mean());
        EXPECT_EQ(ma.front.workDone, mb.front.workDone);
        EXPECT_EQ(ma.back.workDone, mb.back.workDone);
        EXPECT_EQ(ma.even.workDone, mb.even.workDone);
    }
}

// ------------------------------------------------------- event heap

TEST(EventHeap, OrdersByKeyThenId)
{
    EventHeap heap;
    heap.reset(8);
    heap.upsert(5, 3.0);
    heap.upsert(2, 1.0);
    heap.upsert(7, 2.0);
    heap.upsert(3, 1.0); // Ties broken by lowest id.
    EXPECT_EQ(heap.top(), 2u);
    EXPECT_DOUBLE_EQ(heap.topKey(), 1.0);
    heap.erase(2);
    EXPECT_EQ(heap.top(), 3u);
    heap.erase(3);
    EXPECT_EQ(heap.top(), 7u);
}

TEST(EventHeap, UpsertReplacesKey)
{
    EventHeap heap;
    heap.reset(4);
    heap.upsert(0, 5.0);
    heap.upsert(1, 6.0);
    EXPECT_EQ(heap.top(), 0u);
    heap.upsert(0, 7.0); // Decrease priority of the current top.
    EXPECT_EQ(heap.top(), 1u);
    heap.upsert(1, 9.0);
    EXPECT_EQ(heap.top(), 0u);
    EXPECT_EQ(heap.size(), 2u);
}

TEST(EventHeap, EmptyTopKeyIsInfinite)
{
    EventHeap heap;
    heap.reset(3);
    EXPECT_TRUE(heap.empty());
    EXPECT_TRUE(std::isinf(heap.topKey()));
    heap.upsert(1, 2.0);
    heap.erase(1);
    EXPECT_TRUE(heap.empty());
    EXPECT_TRUE(std::isinf(heap.topKey()));
    heap.erase(1); // Erasing an absent id is a no-op.
    EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, RandomizedAgainstLinearScan)
{
    // The heap must always report the same minimum as a brute-force
    // scan over a mirrored key array.
    const std::size_t n = 32;
    EventHeap heap;
    heap.reset(n);
    std::vector<double> keys(n, -1.0); // -1 = absent.

    std::uint64_t lcg = 99;
    auto next_u = [&lcg]() {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    for (int step = 0; step < 2000; ++step) {
        const auto id = static_cast<std::size_t>(next_u() % n);
        if (next_u() % 3 == 0 && keys[id] >= 0.0) {
            heap.erase(id);
            keys[id] = -1.0;
        } else {
            const double key =
                static_cast<double>(next_u() % 1000) * 0.125;
            heap.upsert(id, key);
            keys[id] = key;
        }

        double best = -1.0;
        std::size_t best_id = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (keys[i] < 0.0)
                continue;
            if (best < 0.0 || keys[i] < best ||
                (keys[i] == best && i < best_id)) {
                best = keys[i];
                best_id = i;
            }
        }
        if (best_id == n) {
            EXPECT_TRUE(heap.empty());
        } else {
            ASSERT_FALSE(heap.empty());
            EXPECT_EQ(heap.top(), best_id);
            EXPECT_DOUBLE_EQ(heap.topKey(), best);
        }
    }
}

} // namespace
} // namespace densim
