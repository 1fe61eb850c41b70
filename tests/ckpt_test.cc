/**
 * @file
 * Tests for crash-safe checkpoint/restore (DESIGN.md Sec. 16).
 *
 * The load-bearing property is *bit-identical resume*: a run
 * interrupted at any epoch (or fleet-window) boundary and restored
 * from its checkpoint must produce hex-float-equal metrics and
 * byte-identical JSONL sinks versus the uninterrupted run — under
 * faults, under migration, and under every fleet dispatcher. The
 * robustness half: a truncated, bit-flipped or hostile checkpoint
 * file must yield one CkptError and an engine that is still fully
 * usable, and API misuse around restore must hit testable fatal()
 * guards.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "ckpt/run_driver.hh"
#include "core/dense_server_sim.hh"
#include "core/experiment.hh"
#include "fleet/fleet_metrics.hh"
#include "fleet/fleet_sim.hh"
#include "sched/factory.hh"
#include "util/digest.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/job_generator.hh"

#include "test_util.hh"

namespace densim {
namespace {

/** Small config exercising thermals, queueing and DVFS quickly. */
SimConfig
fastConfig()
{
    SimConfig config;
    config.topo.rows = 2; // 24 sockets
    config.simTimeS = 0.6;
    config.warmupS = 0.1;
    config.socketTauS = 0.5;
    config.load = 0.7;
    config.seed = 11;
    return config;
}

/** Hexfloat rendering: equal strings iff bit-identical doubles. */
void
hex(std::ostringstream &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a ", v);
    out << buf;
}

void
hex(std::ostringstream &out, const RunningStats &s)
{
    const RunningStats::Snapshot snap = s.snapshot();
    out << snap.count << ' ';
    hex(out, snap.mean);
    hex(out, snap.m2);
    hex(out, snap.min);
    hex(out, snap.max);
}

/** Every SimMetrics field, hexfloat — EXPECT_EQ means bit-identical. */
std::string
serializeSimMetrics(const SimMetrics &m)
{
    std::ostringstream out;
    out << m.jobsArrived << ' ' << m.jobsCompleted << ' '
        << m.jobsUnfinished << ' ' << m.migrations << ' ';
    hex(out, m.runtimeExpansion);
    hex(out, m.serviceExpansion);
    hex(out, m.queueDelayS);
    hex(out, m.energyJ);
    hex(out, m.measuredS);
    hex(out, m.makespanS);
    for (const RegionMetrics *r : {&m.front, &m.back, &m.even}) {
        hex(out, r->busyTimeS);
        hex(out, r->freqTime);
        hex(out, r->workDone);
    }
    hex(out, m.totalWork);
    hex(out, m.totalBusyTime);
    hex(out, m.totalFreqTime);
    out << m.timelineS.size() << ' ';
    for (const double t : m.timelineS)
        hex(out, t);
    for (const std::vector<double> &row : m.zoneAmbientC)
        for (const double c : row)
            hex(out, c);
    hex(out, m.chipTempC);
    hex(out, m.maxChipTempC);
    hex(out, m.boostTimeS);
    return out.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "densim_ckpt_" + name;
}

/** The uninterrupted reference run. */
SimMetrics
runStraight(const SimConfig &config, const std::string &policy)
{
    DenseServerSim sim(config, makeScheduler(policy));
    return sim.run();
}

/**
 * The same run interrupted at the epoch boundary where nowS first
 * reaches @p stop_at_s: checkpoint to memory, destroy the engine,
 * restore into a *fresh* engine and drive to completion.
 */
SimMetrics
runInterrupted(const SimConfig &config, const std::string &policy,
               double stop_at_s)
{
    std::string image;
    {
        DenseServerSim sim(config, makeScheduler(policy));
        ckpt::beginEngineRun(sim);
        while (sim.epochPending() && sim.nowS() < stop_at_s)
            sim.advanceEpoch();
        image = ckpt::saveEngine(sim);
        // The first engine dies here, mid-run, like a killed process.
    }
    DenseServerSim sim(config, makeScheduler(policy));
    ckpt::restoreEngine(sim, image);
    while (sim.epochPending())
        sim.advanceEpoch();
    return sim.finishRun();
}

// ------------------------------------------------ bit-identity

TEST(BitIdentity, PlainRunResumesExactly)
{
    SimConfig config = fastConfig();
    config.timelineSampleS = 0.01;
    const SimMetrics straight = runStraight(config, "CP");
    const SimMetrics resumed = runInterrupted(config, "CP", 0.3);
    EXPECT_EQ(serializeSimMetrics(straight),
              serializeSimMetrics(resumed));
}

TEST(BitIdentity, EveryInterruptPointResumesExactly)
{
    // The boundary chosen must not matter: interrupt early (warmup),
    // mid-arrivals, and deep in the drain tail.
    SimConfig config = fastConfig();
    const std::string expected =
        serializeSimMetrics(runStraight(config, "CP"));
    for (const double stop_at : {0.05, 0.45, 1.2}) {
        EXPECT_EQ(expected, serializeSimMetrics(runInterrupted(
                                config, "CP", stop_at)))
            << "interrupted at t=" << stop_at;
    }
}

TEST(BitIdentity, NoisySensorsAndRandomPolicyResumeExactly)
{
    // Consumes both the policy and the sensor RNG streams every
    // epoch — the streams' saved positions must be exact.
    SimConfig config = fastConfig();
    config.sensorNoiseC = 0.8;
    config.sensorQuantC = 1.0;
    const SimMetrics straight = runStraight(config, "A-Random");
    const SimMetrics resumed = runInterrupted(config, "A-Random", 0.3);
    EXPECT_EQ(serializeSimMetrics(straight),
              serializeSimMetrics(resumed));
}

TEST(BitIdentity, FaultedRunResumesExactly)
{
    // Fan derate + noisy sensor faults: the fault timeline cursor,
    // per-socket fault ladders, derated coupling and the fault RNG
    // must all restore to the exact epoch state.
    SimConfig config = fastConfig();
    config.fault.fanFailS = 0.15;
    config.fault.fanSpeedFrac = 0.55;
    config.fault.fanRecoverS = 0.45;
    config.fault.sensorNoisyAtS = 0.2;
    const SimMetrics straight = runStraight(config, "CP");
    for (const double stop_at : {0.1, 0.3, 0.6}) {
        EXPECT_EQ(serializeSimMetrics(straight),
                  serializeSimMetrics(
                      runInterrupted(config, "CP", stop_at)))
            << "interrupted at t=" << stop_at;
    }
}

TEST(BitIdentity, MigrationRunResumesExactly)
{
    SimConfig config = fastConfig();
    config.migrationEnabled = true;
    config.migrationIntervalS = 0.05;
    config.migrationMinRemainingS = 0.01;
    const SimMetrics straight = runStraight(config, "CP");
    const SimMetrics resumed = runInterrupted(config, "CP", 0.3);
    EXPECT_EQ(straight.migrations, resumed.migrations);
    EXPECT_EQ(serializeSimMetrics(straight),
              serializeSimMetrics(resumed));
}

TEST(BitIdentity, FastPathCountersResumeExactly)
{
    // The CP penalty counters are tallied per call and live in the
    // obs section: a faulted, migrating run resumed mid-flight must
    // end with the very counter table of the uninterrupted run.
    SimConfig config = fastConfig();
    config.fault.fanFailS = 0.15;
    config.fault.fanSpeedFrac = 0.3;
    config.fault.socketFailCount = 2;
    config.fault.socketFailS = 0.2;
    config.fault.sensorNoisyAtS = 0.1;
    config.migrationEnabled = true;
    config.migrationIntervalS = 0.05;
    config.migrationMinRemainingS = 0.01;

    DenseServerSim straight(config, makeScheduler("CP"));
    (void)straight.run();

    std::string image;
    {
        DenseServerSim sim(config, makeScheduler("CP"));
        ckpt::beginEngineRun(sim);
        while (sim.epochPending() && sim.nowS() < 0.3)
            sim.advanceEpoch();
        image = ckpt::saveEngine(sim);
    }
    DenseServerSim resumed(config, makeScheduler("CP"));
    ckpt::restoreEngine(resumed, image);
    while (resumed.epochPending())
        resumed.advanceEpoch();
    (void)resumed.finishRun();

    const auto expected = straight.observability().counters();
    const auto got = resumed.observability().counters();
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].name, got[i].name);
        EXPECT_EQ(expected[i].value, got[i].value) << expected[i].name;
    }
    for (const char *name :
         {"sched.penaltyMemoHits", "sched.penaltyFastHits",
          "sched.penaltyWalks", "sched.ladderProbes"})
        EXPECT_GT(test::counterValue(straight, name), 0u) << name;
}

TEST(BitIdentity, JsonlSinksAreByteIdentical)
{
    // The restored run must append exactly the rows the uninterrupted
    // run would have written — the timeline grid cursor and the trace
    // event buffer ride in the checkpoint.
    SimConfig config = fastConfig();
    config.timelineSampleS = 0.01;
    config.obsTimelinePath = tempPath("straight.jsonl");
    config.obsTracePath = tempPath("straight_trace.json");
    (void)runStraight(config, "CP");

    SimConfig resumedConfig = config;
    resumedConfig.obsTimelinePath = tempPath("resumed.jsonl");
    resumedConfig.obsTracePath = tempPath("resumed_trace.json");
    (void)runInterrupted(resumedConfig, "CP", 0.3);

    EXPECT_EQ(slurp(config.obsTimelinePath),
              slurp(resumedConfig.obsTimelinePath));
    EXPECT_EQ(slurp(config.obsTracePath),
              slurp(resumedConfig.obsTracePath));
    for (const SimConfig *c : {&config, &resumedConfig}) {
        std::remove(c->obsTimelinePath.c_str());
        std::remove(c->obsTracePath.c_str());
    }
}

TEST(BitIdentity, SaveRestoreSaveRoundTripsBytes)
{
    // restore(save(x)) then save again must reproduce the image byte
    // for byte — the serializer covers every field the applier reads.
    SimConfig config = fastConfig();
    config.fault.sensorNoisyAtS = 0.2;
    DenseServerSim a(config, makeScheduler("CP"));
    ckpt::beginEngineRun(a);
    while (a.epochPending() && a.nowS() < 0.3)
        a.advanceEpoch();
    const std::string image = ckpt::saveEngine(a);

    DenseServerSim b(config, makeScheduler("CP"));
    ckpt::restoreEngine(b, image);
    EXPECT_EQ(image, ckpt::saveEngine(b));
}

TEST(BitIdentity, FleetResumesExactlyUnderEveryDispatcher)
{
    for (const char *dispatcher :
         {"roundrobin", "headroom", "locality", "power"}) {
        SimConfig config = fastConfig();
        config.fleet.chassis = 3;
        config.fleet.dispatcher = dispatcher;

        FleetSim straight(config, "CP");
        const std::string expected =
            serializeFleetMetrics(straight.run(2));

        std::string image;
        {
            FleetSim fleet(config, "CP");
            fleet.beginRun();
            for (int w = 0; w < 5; ++w)
                ASSERT_TRUE(fleet.advanceWindow(2));
            image = ckpt::saveFleet(fleet);
        }
        FleetSim resumed(config, "CP");
        ckpt::restoreFleet(resumed, image);
        while (resumed.advanceWindow(2)) {
        }
        EXPECT_EQ(expected, serializeFleetMetrics(resumed.finishRun()))
            << "dispatcher " << dispatcher;
    }
}

TEST(FleetSim, CheckpointAtEveryWindowResumesExactly)
{
    // The fleet draws window k+1's arrivals while window k runs, so
    // most barriers hold a look-ahead batch that the image must leave
    // out. Save at every barrier — the last arrival window and the
    // first drain windows included: the restored fleet must save the
    // same bytes and, advanced one window beside the original, match
    // it again; the last image finishes at 1 worker like a straight
    // run. The saves start after the first window: before it the
    // arrival stream holds no lookahead job, and its zeroed
    // placeholder fails the loader's job-duration bound.
    SimConfig config = fastConfig();
    config.fleet.chassis = 4;
    const auto arrivalWindows = static_cast<std::size_t>(
        std::ceil(config.simTimeS / config.fleet.epochS));

    FleetSim straight(config, "CP");
    const std::string expected = serializeFleetMetrics(straight.run(1));

    FleetSim fleet(config, "CP");
    fleet.beginRun();
    ASSERT_TRUE(fleet.advanceWindow(3));
    std::string image;
    for (;;) {
        image = ckpt::saveFleet(fleet);
        FleetSim restored(config, "CP");
        ckpt::restoreFleet(restored, image);
        ASSERT_EQ(image, ckpt::saveFleet(restored))
            << "window " << fleet.windowsRun();
        const bool more = fleet.advanceWindow(3);
        ASSERT_EQ(more, restored.advanceWindow(3))
            << "window " << fleet.windowsRun();
        if (!more)
            break;
        ASSERT_EQ(ckpt::saveFleet(fleet), ckpt::saveFleet(restored))
            << "window " << fleet.windowsRun();
    }
    EXPECT_GT(fleet.windowsRun(), arrivalWindows + 1);
    EXPECT_EQ(expected, serializeFleetMetrics(fleet.finishRun()));

    FleetSim resumed(config, "CP");
    ckpt::restoreFleet(resumed, image);
    while (resumed.advanceWindow(1)) {
    }
    EXPECT_EQ(expected, serializeFleetMetrics(resumed.finishRun()));
}

TEST(FleetSim, PhaseTotalsObserveWithoutChangingResults)
{
    // Two fleets with different wall-clock totals save the same image
    // and finish with the same metrics: the totals sit outside the
    // checkpointed registry and never feed back into the run.
    SimConfig config = fastConfig();
    config.fleet.chassis = 4;

    const auto partRun = [&](FleetSim &fleet, bool read) {
        fleet.beginRun();
        for (int w = 0; w < 4; ++w)
            EXPECT_TRUE(fleet.advanceWindow(2));
        if (read) {
            EXPECT_GT(fleet.phaseTotals().parallel.ns, 0u);
        }
        return ckpt::saveFleet(fleet);
    };
    FleetSim unread(config, "CP");
    const std::string unreadImage = partRun(unread, false);
    FleetSim read(config, "CP");
    EXPECT_EQ(unreadImage, partRun(read, true));

    while (unread.advanceWindow(2)) {
    }
    while (read.advanceWindow(2)) {
    }
    const FleetPhaseTotals totals = read.phaseTotals();
    EXPECT_EQ(serializeFleetMetrics(unread.finishRun()),
              serializeFleetMetrics(read.finishRun()));

    for (const auto &[name, t] : totals.rows()) {
        EXPECT_GT(t.calls, 0u) << name;
        EXPECT_GT(t.ns, 0u) << name;
    }
    // Every window's barrier is timed, the final one that finds no
    // pending work included; every other window has one beat.
    EXPECT_EQ(totals.barrier.calls, read.windowsRun() + 1);
    EXPECT_EQ(totals.parallel.calls, read.windowsRun());
    EXPECT_EQ(totals.barrierWait.calls, read.windowsRun());
    EXPECT_LT(totals.lookahead.calls, read.windowsRun());
}

// ------------------------------------------------ wire format

/** One framed section of a checkpoint file: id and payload. */
struct Section
{
    std::uint32_t id;
    std::string payload;
};

std::uint64_t
littleEndian(const std::string &bytes, std::size_t at, int width)
{
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                 bytes[at + static_cast<std::size_t>(i)]))
             << (8 * i);
    return v;
}

/** Split a checkpoint into its sections (32-byte file header). */
std::vector<Section>
splitSections(const std::string &image)
{
    std::vector<Section> sections;
    std::size_t at = 32;
    while (at < image.size()) {
        const auto id = static_cast<std::uint32_t>(
            littleEndian(image, at, 4));
        const auto len =
            static_cast<std::size_t>(littleEndian(image, at + 4, 8));
        sections.push_back({id, image.substr(at + 20, len)});
        at += 20 + len;
    }
    return sections;
}

void
appendLittleEndian(std::string &out, std::uint64_t v, int width)
{
    for (int i = 0; i < width; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

/** Reassemble @p image's header with @p sections, CRCs recomputed. */
std::string
rebuildImage(const std::string &image,
             const std::vector<Section> &sections)
{
    std::string out = image.substr(0, 32);
    for (const Section &s : sections) {
        appendLittleEndian(out, s.id, 4);
        appendLittleEndian(out, s.payload.size(), 8);
        appendLittleEndian(out, ckpt::sectionCrc(s.payload), 8);
        out += s.payload;
    }
    return out;
}

const std::string &
sectionPayload(const std::vector<Section> &sections, std::uint32_t id)
{
    for (const Section &s : sections)
        if (s.id == id)
            return s.payload;
    ADD_FAILURE() << "no section " << id;
    static const std::string empty;
    return empty;
}

/** Fan derate, socket failures and migrations, all live at t=0.3. */
SimConfig
faultedMigratingConfig()
{
    SimConfig config = fastConfig();
    config.fault.fanFailS = 0.15;
    config.fault.fanSpeedFrac = 0.1;
    config.fault.fanRecoverS = 0.45;
    config.fault.socketFailCount = 2;
    config.fault.socketFailS = 0.1;
    config.fault.socketRecoverS = 0.5;
    config.migrationEnabled = true;
    config.migrationIntervalS = 0.05;
    config.migrationMinRemainingS = 0.01;
    return config;
}

TEST(CkptFormat, ImageDigestsArePinned)
{
    // The wire format, byte for byte. A change to any of these
    // digests is a format change and needs a kVersion bump.
    EXPECT_EQ(ckpt::kVersion, 5u);

    std::string plain;
    {
        DenseServerSim sim(fastConfig(), makeScheduler("CP"));
        ckpt::beginEngineRun(sim);
        while (sim.epochPending() && sim.nowS() < 0.3)
            sim.advanceEpoch();
        plain = ckpt::saveEngine(sim);
    }

    std::string faulted;
    {
        DenseServerSim sim(faultedMigratingConfig(), makeScheduler("CP"));
        ckpt::beginEngineRun(sim);
        while (sim.epochPending() && sim.nowS() < 0.3)
            sim.advanceEpoch();
        EXPECT_GT(test::counterValue(sim, "engine.migrations"), 0u);
        faulted = ckpt::saveEngine(sim);
    }
    // The fan derate is live at the save: flowFrac, the fault
    // section's last field, is below 1.
    const std::vector<Section> sections = splitSections(faulted);
    const std::string &fault = sectionPayload(sections, 5);
    ASSERT_GE(fault.size(), 8u);
    const std::uint64_t bits = littleEndian(fault, fault.size() - 8, 8);
    double flow_frac;
    std::memcpy(&flow_frac, &bits, sizeof flow_frac);
    EXPECT_LT(flow_frac, 1.0);

    std::string fleet_image;
    {
        SimConfig config = fastConfig();
        config.fleet.chassis = 4;
        FleetSim fleet(config, "CP");
        fleet.beginRun();
        for (int w = 0; w < 5; ++w)
            ASSERT_TRUE(fleet.advanceWindow(2));
        fleet_image = ckpt::saveFleet(fleet);
    }

    EXPECT_EQ(hex64(fnv1a64(plain)), "d67c0ffb3e450ab1")
        << plain.size() << " bytes";
    EXPECT_EQ(hex64(fnv1a64(faulted)), "fdde0245273c399a")
        << faulted.size() << " bytes";
    EXPECT_EQ(hex64(fnv1a64(fleet_image)), "368f7a7e4ee5291d")
        << fleet_image.size() << " bytes";
}

// ------------------------------------------------ fork mode

TEST(Fork, ReseedsFutureButKeepsState)
{
    SimConfig config = fastConfig();
    config.sensorNoiseC = 0.8; // make the RNG streams consequential
    std::string image;
    {
        DenseServerSim sim(config, makeScheduler("A-Random"));
        ckpt::beginEngineRun(sim);
        while (sim.epochPending() && sim.nowS() < 0.3)
            sim.advanceEpoch();
        image = ckpt::saveEngine(sim);
    }
    const auto finish = [&](ckpt::RestoreMode mode,
                            std::uint64_t fork_id) {
        DenseServerSim sim(config, makeScheduler("A-Random"));
        ckpt::restoreEngine(sim, image, mode, fork_id);
        while (sim.epochPending())
            sim.advanceEpoch();
        return serializeSimMetrics(sim.finishRun());
    };
    const std::string exact = finish(ckpt::RestoreMode::Exact, 0);
    const std::string fork1 = finish(ckpt::RestoreMode::Fork, 1);
    const std::string fork1Again = finish(ckpt::RestoreMode::Fork, 1);
    const std::string fork2 = finish(ckpt::RestoreMode::Fork, 2);
    EXPECT_EQ(fork1, fork1Again); // forks are deterministic...
    EXPECT_NE(exact, fork1);      // ...but diverge from the original
    EXPECT_NE(fork1, fork2);      // ...and from each other.
}

// ------------------------------------------------ hostile input

/** A valid mid-run engine image to corrupt. */
std::string
goldenImage(const SimConfig &config)
{
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::beginEngineRun(sim);
    while (sim.epochPending() && sim.nowS() < 0.2)
        sim.advanceEpoch();
    return ckpt::saveEngine(sim);
}

/**
 * Every corrupted image must throw CkptError with a non-empty
 * message, leave the engine closed and un-mutated, and leave it
 * fully usable: a subsequent restore of the intact image succeeds.
 */
void
expectRejected(const SimConfig &config, const std::string &good,
               const std::string &bad, const std::string &what)
{
    DenseServerSim sim(config, makeScheduler("CP"));
    try {
        ckpt::restoreEngine(sim, bad);
        FAIL() << "corrupted image accepted: " << what;
    } catch (const ckpt::CkptError &err) {
        EXPECT_FALSE(std::string(err.what()).empty()) << what;
    }
    // No partial mutation: the engine still restores cleanly.
    ckpt::restoreEngine(sim, good);
    while (sim.epochPending())
        sim.advanceEpoch();
    EXPECT_GT(sim.finishRun().jobsCompleted, 0u) << what;
}

TEST(HostileInput, TruncationsAtEveryRegionAreRejected)
{
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);
    ASSERT_GT(good.size(), 64u);
    // Truncate inside the header, each section header, and payloads.
    std::vector<std::size_t> cuts = {0,  1,  7,  8,  11, 12,
                                     15, 16, 23, 24, 31, 32};
    for (std::size_t frac = 1; frac < 16; ++frac)
        cuts.push_back(good.size() * frac / 16);
    cuts.push_back(good.size() - 1);
    for (const std::size_t cut : cuts) {
        expectRejected(config, good, good.substr(0, cut),
                       "truncated to " + std::to_string(cut));
    }
}

TEST(HostileInput, FlippedBytesAreRejected)
{
    // A flip anywhere in a section payload breaks that section's
    // CRC; a flip in the header breaks magic/version/kind/digest or
    // the section framing. Either way: CkptError, never UB. (A flip
    // confined to a stored CRC word itself also lands here — the CRC
    // no longer matches the payload.)
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);
    for (std::size_t pos = 0; pos < good.size();
         pos += 1 + good.size() / 97) {
        std::string bad = good;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
        expectRejected(config, good, bad,
                       "byte flipped at " + std::to_string(pos));
    }
}

TEST(HostileInput, OversizedSectionLengthIsRejected)
{
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);
    // First section header sits at offset 32; its u64 length at +4.
    std::string bad = good;
    for (int i = 0; i < 8; ++i)
        bad[36 + i] = static_cast<char>(0xff);
    expectRejected(config, good, bad, "section length 2^64-1");
}

TEST(HostileInput, WrongMagicVersionKindDigestAreRejected)
{
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);

    std::string bad = good;
    bad[0] = 'X';
    expectRejected(config, good, bad, "bad magic");

    bad = good;
    bad[8] = static_cast<char>(ckpt::kVersion + 1); // version skew
    expectRejected(config, good, bad, "newer version");

    bad = good;
    bad[8] = static_cast<char>(ckpt::kVersion - 1); // previous format
    expectRejected(config, good, bad, "older version");
    try {
        DenseServerSim sim(config, makeScheduler("CP"));
        ckpt::restoreEngine(sim, bad);
        ADD_FAILURE() << "previous-format image accepted";
    } catch (const ckpt::CkptError &err) {
        EXPECT_NE(std::string(err.what())
                      .find("format version " +
                            std::to_string(ckpt::kVersion - 1) +
                            ", this build reads version " +
                            std::to_string(ckpt::kVersion)),
                  std::string::npos)
            << err.what();
    }

    bad = good;
    bad[12] = 2; // engine image claiming to be a fleet snapshot
    expectRejected(config, good, bad, "kind mismatch");

    bad = good;
    bad[16] = static_cast<char>(bad[16] ^ 0xff); // digest word
    expectRejected(config, good, bad, "digest mismatch");

    // A differently-configured engine must refuse the snapshot...
    SimConfig other = fastConfig();
    other.load = 0.71;
    DenseServerSim sim(other, makeScheduler("CP"));
    EXPECT_THROW(ckpt::restoreEngine(sim, good), ckpt::CkptError);
    // ...as must the same config under a different policy.
    DenseServerSim wrongPolicy(config, makeScheduler("A-Random"));
    EXPECT_THROW(ckpt::restoreEngine(wrongPolicy, good),
                 ckpt::CkptError);
    // But moving/re-cadencing the checkpoint itself must not: the
    // ckpt.* knobs are excluded from the digest.
    SimConfig recadenced = fastConfig();
    recadenced.ckptPath = tempPath("elsewhere.ckpt");
    recadenced.ckptEveryS = 0.125;
    DenseServerSim moved(recadenced, makeScheduler("CP"));
    ckpt::restoreEngine(moved, good);
    while (moved.epochPending())
        moved.advanceEpoch();
    EXPECT_GT(moved.finishRun().jobsCompleted, 0u);
}

bool
finiteStats(const RunningStats &s)
{
    const RunningStats::Snapshot snap = s.snapshot();
    return std::isfinite(snap.mean) && std::isfinite(snap.m2) &&
           std::isfinite(snap.min) && std::isfinite(snap.max);
}

/** Every floating-point SimMetrics field is finite. */
bool
finiteMetrics(const SimMetrics &m)
{
    bool ok = finiteStats(m.runtimeExpansion) &&
              finiteStats(m.serviceExpansion) &&
              finiteStats(m.queueDelayS) && finiteStats(m.chipTempC);
    for (const double v :
         {m.energyJ, m.measuredS, m.makespanS, m.totalWork,
          m.totalBusyTime, m.totalFreqTime, m.maxChipTempC,
          m.boostTimeS})
        ok = ok && std::isfinite(v);
    for (const RegionMetrics *r : {&m.front, &m.back, &m.even})
        ok = ok && std::isfinite(r->busyTimeS) &&
             std::isfinite(r->freqTime) && std::isfinite(r->workDone);
    for (const double t : m.timelineS)
        ok = ok && std::isfinite(t);
    for (const std::vector<double> &row : m.zoneAmbientC)
        for (const double c : row)
            ok = ok && std::isfinite(c);
    return ok;
}

/**
 * Every engine section populated at the save point — backlog, queue,
 * timeline rows, fan derate, failed sockets, sensor faults and
 * migrations — and no warmup, so every arrival is counted:
 * jobsArrived == jobsCompleted + jobsUnfinished.
 */
SimConfig
hostileConfig()
{
    SimConfig config = faultedMigratingConfig();
    config.warmupS = 0.0;
    config.timelineSampleS = 0.05;
    config.fault.sensorNoisyCount = 2;
    config.fault.sensorNoisyAtS = 0.05;
    config.fault.sensorStuckCount = 1;
    config.fault.sensorStuckAtS = 0.1;
    config.fault.sensorDropoutCount = 1;
    config.fault.sensorDropoutAtS = 0.15;
    return config;
}

/** Mutations per section in the CRC-resealed corpus. */
constexpr int kMutationsPerSection = 128;

/**
 * Flip one random byte of one section's payload and reseal its CRC,
 * so the field validators — not the CRC — must catch the damage.
 */
std::string
resealedMutation(const std::string &good, std::uint32_t id, Rng &rng,
                 std::string *what)
{
    std::vector<Section> sections = splitSections(good);
    for (Section &s : sections) {
        if (s.id != id || s.payload.empty())
            continue;
        const auto pos =
            static_cast<std::size_t>(rng.nextBounded(s.payload.size()));
        const auto flip =
            static_cast<char>(1 + rng.nextBounded(255));
        s.payload[pos] = static_cast<char>(s.payload[pos] ^ flip);
        *what = "section " + std::to_string(id) + " byte " +
                std::to_string(pos) + " ^ " +
                std::to_string(int(static_cast<unsigned char>(flip)));
    }
    return rebuildImage(good, sections);
}

TEST(HostileInput, ResealedSectionMutationsAreRejectedOrRunSoundly)
{
    // Each mutated image either throws CkptError (and the engine
    // stays closed and reusable) or restores to a state that runs to
    // completion with finite metrics and loses no job.
    const SimConfig config = hostileConfig();
    std::string good;
    std::size_t straight_epochs = 0;
    {
        DenseServerSim sim(config, makeScheduler("CP"));
        ckpt::beginEngineRun(sim);
        while (sim.epochPending() && sim.nowS() < 0.3)
            sim.advanceEpoch();
        good = ckpt::saveEngine(sim);
        while (sim.epochPending()) {
            sim.advanceEpoch();
            ++straight_epochs;
        }
    }
    Rng rng(0x4057113);
    for (const Section &section : splitSections(good)) {
        for (int k = 0; k < kMutationsPerSection; ++k) {
            std::string what;
            const std::string bad =
                resealedMutation(good, section.id, rng, &what);
            DenseServerSim sim(config, makeScheduler("CP"));
            try {
                ckpt::restoreEngine(sim, bad);
            } catch (const ckpt::CkptError &err) {
                EXPECT_FALSE(std::string(err.what()).empty()) << what;
                ckpt::restoreEngine(sim, good);
            }
            std::size_t epochs = 0;
            while (sim.epochPending() && epochs <= 10 * straight_epochs) {
                sim.advanceEpoch();
                ++epochs;
            }
            ASSERT_FALSE(sim.epochPending())
                << what << ": run did not finish";
            const SimMetrics m = sim.finishRun();
            EXPECT_TRUE(finiteMetrics(m)) << what;
            EXPECT_EQ(m.jobsArrived, m.jobsCompleted + m.jobsUnfinished)
                << what;
        }
    }
}

TEST(HostileInput, ResealedFleetCoreMutationsAreRejectedOrRunSoundly)
{
    SimConfig config = fastConfig();
    config.warmupS = 0.0;
    config.fleet.chassis = 2;
    config.fleet.dispatcher = "roundrobin";
    std::string good;
    std::size_t straight_windows = 0;
    {
        FleetSim fleet(config, "CP");
        fleet.beginRun();
        for (int w = 0; w < 5; ++w)
            ASSERT_TRUE(fleet.advanceWindow(1));
        good = ckpt::saveFleet(fleet);
        while (fleet.advanceWindow(1))
            ++straight_windows;
    }
    Rng rng(0xf1ee7c0e);
    for (int k = 0; k < kMutationsPerSection; ++k) {
        std::string what;
        const std::string bad = resealedMutation(good, 10, rng, &what);
        FleetSim fleet(config, "CP");
        try {
            ckpt::restoreFleet(fleet, bad);
        } catch (const ckpt::CkptError &err) {
            EXPECT_FALSE(std::string(err.what()).empty()) << what;
            ckpt::restoreFleet(fleet, good);
        }
        std::size_t windows = 0;
        while (windows <= 10 * straight_windows &&
               fleet.advanceWindow(1))
            ++windows;
        ASSERT_LE(windows, 10 * straight_windows)
            << what << ": run did not finish";
        const FleetMetrics m = fleet.finishRun();
        for (const SimMetrics &shard : m.perShard)
            EXPECT_TRUE(finiteMetrics(shard)) << what;
        EXPECT_EQ(m.jobsArrived, m.jobsDispatched) << what;
        EXPECT_EQ(m.jobsArrived, m.jobsCompleted + m.jobsUnfinished)
            << what;
    }
}

TEST(HostileInput, EmptyAndGarbageFilesAreRejected)
{
    const SimConfig config = fastConfig();
    const std::string good = goldenImage(config);
    expectRejected(config, good, "", "empty file");
    expectRejected(config, good, std::string(4096, '\0'),
                   "zero-filled file");
    expectRejected(config, good, "DSIMCKPT", "header-only file");
}

// ------------------------------------------------ API misuse

TEST(Misuse, RestoreIntoOpenRunIsFatal)
{
    const SimConfig config = fastConfig();
    const std::string image = goldenImage(config);
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::beginEngineRun(sim);
    const ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::restoreEngine(sim, image), FatalError);
}

TEST(Misuse, DoubleRestoreIsFatal)
{
    const SimConfig config = fastConfig();
    const std::string image = goldenImage(config);
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::restoreEngine(sim, image);
    const ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::restoreEngine(sim, image), FatalError);
}

TEST(Misuse, SaveOfClosedRunIsFatal)
{
    const SimConfig config = fastConfig();
    DenseServerSim sim(config, makeScheduler("CP"));
    const ScopedFatalThrows guard;
    EXPECT_THROW((void)ckpt::saveEngine(sim), FatalError);
}

TEST(Misuse, AdvanceAfterFailedRestoreIsFatal)
{
    // A failed restore leaves the engine *closed*: stepping it
    // without beginRun() is the same misuse as never opening it.
    const SimConfig config = fastConfig();
    const std::string image = goldenImage(config);
    DenseServerSim sim(config, makeScheduler("CP"));
    EXPECT_THROW(ckpt::restoreEngine(sim, image.substr(0, 40)),
                 ckpt::CkptError);
    const ScopedFatalThrows guard;
    EXPECT_THROW(sim.advanceEpoch(), FatalError);
    EXPECT_THROW((void)sim.finishRun(), FatalError);
}

TEST(Misuse, FleetGuardsMatchEngineGuards)
{
    SimConfig config = fastConfig();
    config.fleet.chassis = 2;
    std::string image;
    {
        FleetSim fleet(config, "CP");
        fleet.beginRun();
        ASSERT_TRUE(fleet.advanceWindow(1));
        image = ckpt::saveFleet(fleet);
    }
    FleetSim fleet(config, "CP");
    ckpt::restoreFleet(fleet, image);
    const ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::restoreFleet(fleet, image), FatalError);

    FleetSim closed(config, "CP");
    EXPECT_THROW((void)ckpt::saveFleet(closed), FatalError);
}

// ------------------------------------------------ drivers & files

TEST(Driver, CadenceCheckpointIsReadOnlyAndResumable)
{
    // A run with cadence checkpointing enabled must be bit-identical
    // to the same run without, and the last cadence file must itself
    // resume to the same result.
    SimConfig plain = fastConfig();
    const std::string expected =
        serializeSimMetrics(runStraight(plain, "CP"));

    SimConfig config = plain;
    config.ckptPath = tempPath("cadence.ckpt");
    config.ckptEveryS = 0.25;
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::beginEngineRun(sim);
    ckpt::clearStopRequest();
    const ckpt::DriveOutcome out = ckpt::driveEngine(sim);
    ASSERT_TRUE(out.completed);
    EXPECT_EQ(expected, serializeSimMetrics(sim.finishRun()));

    // The cadence left a loadable snapshot behind.
    DenseServerSim resumed(config, makeScheduler("CP"));
    ckpt::restoreEngine(resumed,
                        ckpt::readCheckpointFile(config.ckptPath));
    while (resumed.epochPending())
        resumed.advanceEpoch();
    EXPECT_EQ(expected, serializeSimMetrics(resumed.finishRun()));
    std::remove(config.ckptPath.c_str());
}

TEST(Driver, StopRequestCheckpointsAndReturns)
{
    SimConfig config = fastConfig();
    config.ckptPath = tempPath("stop.ckpt");
    DenseServerSim sim(config, makeScheduler("CP"));
    ckpt::beginEngineRun(sim);
    ckpt::requestStop();
    const ckpt::DriveOutcome out = ckpt::driveEngine(sim);
    ckpt::clearStopRequest();
    EXPECT_FALSE(out.completed);
    EXPECT_TRUE(out.checkpointed);

    // The stop-path snapshot resumes to the uninterrupted result.
    DenseServerSim resumed(config, makeScheduler("CP"));
    ckpt::restoreEngine(resumed,
                        ckpt::readCheckpointFile(config.ckptPath));
    const ckpt::DriveOutcome rest = ckpt::driveEngine(resumed);
    ASSERT_TRUE(rest.completed);
    EXPECT_EQ(serializeSimMetrics(runStraight(fastConfig(), "CP")),
              serializeSimMetrics(resumed.finishRun()));
    std::remove(config.ckptPath.c_str());
}

TEST(Driver, CheckpointFileRoundTripsAtomically)
{
    const SimConfig config = fastConfig();
    const std::string image = goldenImage(config);
    const std::string path = tempPath("roundtrip.ckpt");
    ckpt::writeCheckpointFile(path, image);
    EXPECT_EQ(image, ckpt::readCheckpointFile(path));
    // Overwrite is atomic-replace, not append.
    ckpt::writeCheckpointFile(path, image);
    EXPECT_EQ(image, ckpt::readCheckpointFile(path));
    std::remove(path.c_str());
    EXPECT_THROW((void)ckpt::readCheckpointFile(path),
                 ckpt::CkptError);
}

TEST(Driver, SweepCellResumesFromItsCheckpoint)
{
    RunSpec spec;
    spec.scheduler = "CP";
    spec.config = fastConfig();
    const std::string dir =
        testing::TempDir() + "densim_ckpt_cells";
    (void)::mkdir(dir.c_str(), 0755); // ok if it already exists
    const std::string cell_path =
        dir + "/" + runDigest(spec) + ".ckpt";

    // An interrupted invocation: stop pending before the first
    // epoch, so the cell checkpoints immediately and reports itself
    // unfinished (the keep-going harness then keeps its digest out
    // of the resume manifest).
    ckpt::requestStop();
    EXPECT_THROW((void)ckpt::runCellCheckpointed(spec, dir),
                 ckpt::CkptError);
    ckpt::clearStopRequest();
    EXPECT_TRUE(std::ifstream(cell_path, std::ios::binary).good());

    // The re-invocation resumes from the file, matches the straight
    // run bit for bit, and cleans up after itself.
    const SimMetrics resumed = ckpt::runCellCheckpointed(spec, dir);
    EXPECT_EQ(serializeSimMetrics(runStraight(spec.config, "CP")),
              serializeSimMetrics(resumed));
    EXPECT_FALSE(std::ifstream(cell_path, std::ios::binary).good());

    // Wired through SweepOptions::cellRunner, the whole keep-going
    // sweep takes the checkpointed path.
    SweepOptions options;
    options.threads = 1;
    options.keepGoing = true;
    options.cellRunner = [&](const RunSpec &s) {
        return ckpt::runCellCheckpointed(s, dir);
    };
    const std::vector<RunOutcome> outcomes =
        runAllOutcomes({spec}, options);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(serializeSimMetrics(resumed),
              serializeSimMetrics(outcomes[0].metrics));
    (void)::rmdir(dir.c_str());
}

} // namespace
} // namespace densim
