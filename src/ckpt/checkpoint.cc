#include "ckpt/checkpoint.hh"

#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "ckpt/archive.hh"
#include "core/config_io.hh"
#include "core/dense_server_sim.hh"
#include "core/invariant.hh"
#include "fleet/fleet_sim.hh"
#include "util/fs.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/benchmark.hh"
#include "workload/job_generator.hh"

namespace densim {
namespace {

using ckpt::badField;
using ckpt::CkptError;
using ckpt::LoadArchive;
using ckpt::Reader;
using ckpt::RestoreMode;
using ckpt::SaveArchive;
using ckpt::SnapshotKind;
using ckpt::Writer;

// Engine sections in file order; the section at position i has id
// kSecEngine + i. A fleet file holds kSecFleet plus one
// kSecShardBase + s section per shard, each carrying that shard's
// engine sections as length-prefixed strings in the same order.
constexpr std::array<const char *, 6> kEngineSections = {
    "core", "rng", "metrics", "obs", "fault", "sched"};
constexpr std::uint32_t kSecEngine = 1;
constexpr std::uint32_t kSecFleet = 10;
constexpr std::uint32_t kSecShardBase = 100;

// Field bounds the load archive enforces beyond the wire types.
constexpr double kMaxF64 = std::numeric_limits<double>::max();
constexpr double kMinTempC = invariant::kAbsoluteZeroC;
/**
 * Shortest plausible job, seconds: far below any catalog duration,
 * far above the range where a runtime-expansion ratio overflows.
 */
constexpr double kMinJobS = 1e-9;
/**
 * Bound on a banked normal() value: the polar method never yields a
 * magnitude above sqrt(-2 ln 2^-104), about 12.
 */
constexpr double kMaxNormal = 16.0;
/**
 * Tolerance of a cached sum or field against its recomputation from
 * the per-socket state, relative to the summed magnitudes: far above
 * the drift of incremental updates, far below any corruption that
 * matters.
 */
constexpr double kCacheTol = 1e-3;

// --- paired field helpers: one visit serves save and load ----------

template <class Ar, class R>
void
visitGenerator(Ar &ar, R &rng, const char *what)
{
    ar.snapshot(rng, [&](Rng::Snapshot &snap) {
        std::uint64_t any = 0;
        for (std::uint64_t &word : snap.state) {
            ar.u64(word);
            any |= word;
        }
        ar.boolean(snap.hasSpare);
        ar.range(snap.spare, -kMaxNormal, kMaxNormal, what);
        // The all-zero state is xoshiro's single degenerate orbit — no
        // legitimate save can contain it.
        ar.require(any != 0, what, "all-zero generator state");
    });
}

template <class Ar, class Stats>
void
visitStats(Ar &ar, Stats &stats)
{
    ar.snapshot(stats, [&](RunningStats::Snapshot &snap) {
        ar.size(snap.count);
        ar.f64(snap.mean);
        ar.f64(snap.m2);
        ar.f64(snap.min);
        ar.f64(snap.max);
    });
}

template <class Ar, class J>
void
visitJob(Ar &ar, J &job, const char *what)
{
    ar.u64(job.id);
    ar.index(job.benchmark, pcmarkCatalog().size(), what);
    ar.enumeration(job.set, WorkloadSet::GeneralPurpose, what,
                   "workload set");
    ar.range(job.arrivalS, 0.0, kMaxF64, what);
    ar.range(job.nominalS, kMinJobS, kMaxF64, what);
}

template <class Ar, class D>
void
visitDecision(Ar &ar, D &d, std::size_t npstates, const char *what)
{
    ar.index(d.pstate, npstates, what);
    ar.range(d.freqMhz, 0.0, kMaxF64, what);
    ar.quantity(d.power, 0.0, kMaxF64, what);
    ar.quantity(d.predictedPeak, kMinTempC, kMaxF64, what);
    ar.boolean(d.feasible);
}

// --- file framing -----------------------------------------------------

std::string
buildFile(SnapshotKind kind, std::uint64_t digest,
          const std::vector<std::pair<std::uint32_t, std::string>>
              &sections)
{
    Writer w;
    w.bytes(ckpt::kMagic, sizeof ckpt::kMagic);
    w.u32(ckpt::kVersion);
    w.u32(static_cast<std::uint32_t>(kind));
    w.u64(digest);
    w.u64(sections.size());
    for (const auto &[id, payload] : sections) {
        w.u32(id);
        w.u64(payload.size());
        w.u64(ckpt::sectionCrc(payload));
        w.bytes(payload.data(), payload.size());
    }
    return w.take();
}

/**
 * Validate the header and every section CRC, returning the section
 * map. Runs to completion before any engine state is touched — the
 * no-partial-mutation half of the hostile-input contract.
 */
std::map<std::uint32_t, std::string>
parseFile(std::string_view image, SnapshotKind expect_kind,
          std::uint64_t expect_digest)
{
    Reader r(image);
    if (r.remaining() < sizeof ckpt::kMagic ||
        std::memcmp(r.raw(sizeof ckpt::kMagic).data(), ckpt::kMagic,
                    sizeof ckpt::kMagic) != 0)
        throw CkptError(
            "checkpoint: not a densim checkpoint (bad magic)");
    const std::uint32_t version = r.u32();
    if (version != ckpt::kVersion)
        throw CkptError(
            "checkpoint: format version " + std::to_string(version) +
            ", this build reads version " +
            std::to_string(ckpt::kVersion) +
            " — re-create the checkpoint with this binary");
    const std::uint32_t kind = r.u32();
    if (kind != static_cast<std::uint32_t>(SnapshotKind::Engine) &&
        kind != static_cast<std::uint32_t>(SnapshotKind::Fleet))
        throw CkptError("checkpoint: unknown snapshot kind " +
                        std::to_string(kind));
    if (kind != static_cast<std::uint32_t>(expect_kind))
        throw CkptError(
            kind == static_cast<std::uint32_t>(SnapshotKind::Fleet)
                ? "checkpoint: file holds a fleet snapshot but an "
                  "engine restore was requested (fleet.chassis unset?)"
                : "checkpoint: file holds an engine snapshot but a "
                  "fleet restore was requested (fleet.chassis set?)");
    const std::uint64_t digest = r.u64();
    if (digest != expect_digest)
        throw CkptError(
            "checkpoint: config/policy digest mismatch (file " +
            hex64(digest) + ", this run " + hex64(expect_digest) +
            ") — the snapshot was written under a different "
            "configuration or scheduler");
    const std::uint64_t count = r.u64();
    // Every section costs at least its 20-byte header.
    if (count > r.remaining() / 20)
        throw CkptError("checkpoint: section count " +
                        std::to_string(count) + " overruns the file");
    std::map<std::uint32_t, std::string> sections;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint32_t id = r.u32();
        const std::uint64_t len = r.u64();
        const std::uint64_t crc = r.u64();
        if (len > r.remaining())
            throw CkptError("checkpoint: section " +
                            std::to_string(id) + " length " +
                            std::to_string(len) +
                            " overruns the file (" +
                            std::to_string(r.remaining()) +
                            " bytes left)");
        const std::string_view payload =
            r.raw(static_cast<std::size_t>(len));
        if (ckpt::sectionCrc(payload) != crc)
            throw CkptError("checkpoint: CRC mismatch in section " +
                            std::to_string(id) +
                            " — the file is corrupted");
        if (!sections.emplace(id, std::string(payload)).second)
            throw CkptError("checkpoint: duplicate section " +
                            std::to_string(id));
    }
    r.expectEnd("checkpoint file");
    return sections;
}

const std::string &
section(const std::map<std::uint32_t, std::string> &sections,
        std::uint32_t id)
{
    const auto it = sections.find(id);
    if (it == sections.end())
        throw CkptError("checkpoint: missing section " +
                        std::to_string(id));
    return it->second;
}

} // namespace

/**
 * The one class befriended by every checkpointed component. All
 * serialization logic lives here, so the engine's streaming interface
 * stays its only behavioral surface.
 */
class CkptAccess
{
  public:
    /** Payloads of the engine sections, in kEngineSections order. */
    using EngineImage = std::array<std::string, kEngineSections.size()>;

    static bool engineOpen(const DenseServerSim &sim)
    {
        return sim.streamOpen_;
    }

    static bool fleetOpen(const FleetSim &fleet)
    {
        return fleet.fleetOpen_;
    }

    static const char *policyName(const DenseServerSim &sim)
    {
        return sim.policy_->name();
    }

    static const char *fleetPolicyName(const FleetSim &fleet)
    {
        return fleet.shards_.front()->policy_->name();
    }

    static void flush(DenseServerSim &sim) { sim.writeObsOutputs(); }

    static void flushFleet(FleetSim &fleet)
    {
        for (const auto &shard : fleet.shards_)
            shard->writeObsOutputs();
    }

    static EngineImage captureEngine(const DenseServerSim &sim);
    static void applyEngine(DenseServerSim &sim,
                            const EngineImage &image, RestoreMode mode,
                            std::uint64_t fork_id);

    static std::string saveFleetImage(const FleetSim &fleet);
    static void restoreFleetImage(FleetSim &fleet,
                                  std::string_view image,
                                  RestoreMode mode,
                                  std::uint64_t fork_id);

  private:
    // One visit per state section, shared by SaveArchive (Sim is
    // const) and LoadArchive. The load archive proves each field's own
    // bound as it reads it; checks that relate fields to each other
    // run after the visits, in checkRestored and finalizeRestore.
    template <class Ar, class Sim>
    static void visitEngine(std::size_t section, Ar &ar, Sim &sim);
    template <class Ar, class Sim>
    static void visitCore(Ar &ar, Sim &sim);
    template <class Ar, class Sim>
    static void visitRng(Ar &ar, Sim &sim);
    template <class Ar, class Sim>
    static void visitMetrics(Ar &ar, Sim &sim);
    template <class Ar, class Sim>
    static void visitObs(Ar &ar, Sim &sim);
    template <class Ar, class Sim>
    static void visitFault(Ar &ar, Sim &sim);
    template <class Ar, class Sim>
    static void visitSched(Ar &ar, Sim &sim);
    template <class Ar, class Fleet>
    static void visitFleet(Ar &ar, Fleet &fleet);
    template <class Ar, class Reg>
    static void visitRegistry(Ar &ar, Reg &registry);

    // Load-only steps with no save-side mirror.
    static void applyRegistry(
        obs::Registry &registry,
        const std::vector<obs::CounterSample> &counters,
        const std::vector<obs::GaugeSample> &gauges);
    static void forkStreams(DenseServerSim &sim, std::uint64_t fork_id);
    static void checkRestored(const DenseServerSim &sim);
    static void checkFleetRestored(const FleetSim &fleet);
    static void finalizeRestore(DenseServerSim &sim);
};

namespace obs {

/** Friend hook into TraceSink's private event buffer. */
class TraceCkptAccess
{
  public:
    template <class Ar, class Trace>
    static void
    visit(Ar &ar, Trace &trace)
    {
        ar.size(trace.dropped_);
        // Smallest event on the wire: kind + tid + 3 doubles + two
        // empty strings = 49 bytes.
        ar.records(trace.events_, 0, 49, "trace events", [&](auto &e) {
            ar.enumeration(e.kind, TraceSink::Kind::CounterSample,
                           "trace event", "kind");
            ar.int64(e.tid);
            ar.f64(e.tsUs);
            ar.f64(e.durUs);
            ar.f64(e.value);
            ar.str(e.name);
            ar.str(e.cat);
        });
    }
};

} // namespace obs

template <class Ar, class Sim>
void
CkptAccess::visitEngine(std::size_t section, Ar &ar, Sim &sim)
{
    switch (section) {
    case 0:
        return visitCore(ar, sim);
    case 1:
        return visitRng(ar, sim);
    case 2:
        return visitMetrics(ar, sim);
    case 3:
        return visitObs(ar, sim);
    case 4:
        return visitFault(ar, sim);
    default:
        return visitSched(ar, sim);
    }
}

// --- CORE: stream position, backlog, queue, SoA socket banks ----------

template <class Ar, class Sim>
void
CkptAccess::visitCore(Ar &ar, Sim &sim)
{
    const std::size_t n = sim.topo_.numSockets();
    const std::size_t np = sim.pm_.pstates().size();
    ar.same(n, "socket count");
    ar.finite(sim.streamNowS_, "stream position");
    ar.finite(sim.streamHardStopS_, "stream hard stop");
    ar.boolean(sim.arrivalsClosed_);

    // Only the unconsumed backlog tail: the consumed prefix can never
    // be read again, and submitJobs' periodic compaction proves the
    // representation is behavior-free. Smallest job on the wire: 33
    // bytes.
    ar.records(sim.streamJobs_, sim.streamNext_, 33, "arrival backlog",
               [&](auto &job) { visitJob(ar, job, "backlog job"); });
    ar.records(sim.queue_, 0, 33, "job queue",
               [&](auto &job) { visitJob(ar, job, "queued job"); });

    ar.f64Array(sim.powerW_, n, 0.0, kMaxF64, "powerW");
    ar.f64Array(sim.freqMhz_, n, "freqMhz");
    ar.f64Array(sim.chipTempC_, n, kMinTempC, kMaxF64, "chipTempC");
    ar.f64Array(sim.sensedTempC_, n, "sensedTempC");
    ar.f64Array(sim.histTempC_, n, "histTempC");
    ar.u8Array(sim.runningSet_, n, WorkloadSet::GeneralPurpose,
               "runningSet");
    ar.u8Array(sim.busyFlag_, n, 1, "busyFlag");
    ar.f64Array(sim.ambientC_, n, kMinTempC, kMaxF64, "ambientC");
    ar.f64Array(sim.chipRiseC_, n, "chipRiseC");
    ar.f64Array(sim.boostCreditS_, n, "boostCreditS");

    ar.sizeArray(sim.jobBenchmark_, n, pcmarkCatalog().size(),
                 "jobBenchmark");
    ar.f64Array(sim.jobArrivalS_, n, "jobArrivalS");
    ar.f64Array(sim.jobStartS_, n, "jobStartS");
    ar.f64Array(sim.jobNominalS_, n, "jobNominalS");
    ar.f64Array(sim.jobRemainingS_, n, "jobRemainingS");
    ar.f64Array(sim.lastSyncS_, n, "lastSyncS");
    ar.f64Array(sim.completionS_, n, "completionS");
    ar.sizeArray(sim.pstate_, n, np, "pstate");
    ar.u8Array(sim.boostFlag_, n, 1, "boostFlag");

    ar.sizeVec(sim.idleList_);
    ar.f64Array(sim.ambTargets_, n, kMinTempC, kMaxF64, "ambTargets");
    ar.f64Array(sim.targetPowerW_, n, 0.0, kMaxF64, "targetPowerW");
    ar.u8Array(sim.powerDirty_, n, 1, "powerDirty");
    ar.sizeVec(sim.dirtySockets_);
    ar.size(sim.epochsSinceAmbientRefresh_);

    ar.f64Array(sim.rateCache_, n, 0.0, kMaxF64, "rateCache");
    ar.f64Array(sim.relFreqCache_, n, 0.0, kMaxF64, "relFreqCache");
    ar.u8Array(sim.inBusySums_, n, 1, "inBusySums");
    ar.f64Array(sim.contribRate_, n, 0.0, kMaxF64, "contribRate");
    ar.f64Array(sim.contribRel_, n, 0.0, kMaxF64, "contribRel");
    ar.u8Array(sim.contribBoost_, n, 1, "contribBoost");

    ar.finite(sim.tCursor_, "tCursor");
    ar.f64(sim.totalPowerW_);
    ar.f64(sim.workRateTotal_);
    ar.f64(sim.workRateFront_);
    ar.f64(sim.workRateBack_);
    ar.f64(sim.workRateEven_);
    ar.f64(sim.relFreqSumTotal_);
    ar.f64(sim.relFreqSumFront_);
    ar.f64(sim.relFreqSumBack_);
    ar.f64(sim.relFreqSumEven_);
    ar.count(sim.busyTotal_, n, "busyTotal");
    ar.count(sim.busyFront_, n, "busyFront");
    ar.count(sim.busyBack_, n, "busyBack");
    ar.count(sim.busyEven_, n, "busyEven");
    ar.count(sim.busyBoost_, n, "busyBoost");
    ar.size(sim.decisions_);
}

// --- RNG: every stochastic stream position ----------------------------

template <class Ar, class Sim>
void
CkptAccess::visitRng(Ar &ar, Sim &sim)
{
    visitGenerator(ar, sim.policyRng_, "policy rng");
    visitGenerator(ar, sim.sensorRng_, "sensor rng");
    visitGenerator(ar, sim.faultRng_, "fault rng");
}

// --- METRICS: every SimMetrics accumulator, raw FP words --------------

template <class Ar, class Sim>
void
CkptAccess::visitMetrics(Ar &ar, Sim &sim)
{
    auto &m = sim.metrics_;
    ar.size(m.jobsArrived);
    ar.size(m.jobsCompleted);
    ar.size(m.jobsUnfinished);
    ar.size(m.migrations);
    visitStats(ar, m.runtimeExpansion);
    visitStats(ar, m.serviceExpansion);
    visitStats(ar, m.queueDelayS);
    ar.f64(m.energyJ);
    ar.f64(m.measuredS);
    ar.f64(m.makespanS);
    for (auto *region : {&m.front, &m.back, &m.even}) {
        ar.f64(region->busyTimeS);
        ar.f64(region->freqTime);
        ar.f64(region->workDone);
    }
    ar.f64(m.totalWork);
    ar.f64(m.totalBusyTime);
    ar.f64(m.totalFreqTime);
    ar.f64Vec(m.timelineS);
    ar.records(m.zoneAmbientC, 0, 8, "timeline rows", [&](auto &row) {
        ar.f64Array(row, sim.zoneSockets_.size(), "timeline zone row");
    });
    visitStats(ar, m.chipTempC);
    ar.f64(m.maxChipTempC);
    ar.f64(m.boostTimeS);
}

// --- OBS: registry values, timeline cursor, trace buffer --------------

template <class Ar, class Reg>
void
CkptAccess::visitRegistry(Ar &ar, Reg &registry)
{
    // The tables are staged: saving snapshots the registry, loading
    // applies the read tables through the known-name whitelist.
    std::vector<obs::CounterSample> counters = registry.counters();
    std::vector<obs::GaugeSample> gauges = registry.gauges();
    ar.records(counters, 0, 16, "counter table", [&](auto &c) {
        ar.str(c.name);
        ar.u64(c.value);
    });
    ar.records(gauges, 0, 24, "gauge table", [&](auto &g) {
        ar.str(g.name);
        ar.str(g.unit);
        ar.f64(g.value);
    });
    if constexpr (Ar::kLoading)
        applyRegistry(registry, counters, gauges);
}

void
CkptAccess::applyRegistry(obs::Registry &registry,
                          const std::vector<obs::CounterSample> &counters,
                          const std::vector<obs::GaugeSample> &gauges)
{
    // Registry::counter()/gauge() create on first use; a hostile file
    // must not be able to inject instruments, so every name is
    // validated against the already-registered set (identical across
    // save/restore because construction registers them and the digest
    // pins config + policy).
    std::set<std::string> knownCounters;
    for (const obs::CounterSample &c : registry.counters())
        knownCounters.insert(c.name);
    std::map<std::string, std::string> knownGauges;
    for (const obs::GaugeSample &g : registry.gauges())
        knownGauges.emplace(g.name, g.unit);

    for (const obs::CounterSample &c : counters) {
        if (knownCounters.find(c.name) == knownCounters.end())
            badField("counter table",
                     "unknown counter '" + c.name + "'");
        obs::Counter &counter = registry.counter(c.name);
        counter.reset();
        counter.inc(c.value);
    }
    for (const obs::GaugeSample &g : gauges) {
        const auto it = knownGauges.find(g.name);
        if (it == knownGauges.end())
            badField("gauge table", "unknown gauge '" + g.name + "'");
        if (it->second != g.unit)
            badField("gauge table", "gauge '" + g.name + "' unit '" +
                                        g.unit + "' != registered '" +
                                        it->second + "'");
        registry.gauge(g.name).set(g.value);
    }
}

template <class Ar, class Sim>
void
CkptAccess::visitObs(Ar &ar, Sim &sim)
{
    visitRegistry(ar, sim.obsRegistry_);
    std::uint64_t grid = sim.sampler_.nextGridIndex();
    ar.u64(grid);
    if constexpr (Ar::kLoading)
        sim.sampler_.resumeAt(grid);
    obs::TraceCkptAccess::visit(ar, sim.trace_);
}

// --- FAULT: timeline cursor, log, sensor/offline/ladder state ---------

template <class Ar, class Sim>
void
CkptAccess::visitFault(Ar &ar, Sim &sim)
{
    const std::size_t n = sim.topo_.numSockets();
    ar.same(sim.faultsEnabled_, "fault arming");
    ar.count(sim.nextFaultEvent_, sim.faultTimeline_.events().size(),
             "fault timeline cursor");
    // Smallest log entry on the wire: 21 bytes.
    ar.records(sim.faultLog_, 0, 21, "fault log", [&](auto &e) {
        ar.f64(e.timeS);
        ar.enumeration(e.kind, FaultKind::JobRequeue, "fault log",
                       "fault kind");
        ar.u32(e.socket);
        ar.f64(e.value);
    });
    ar.finite(sim.fanPowerW_, "fan power");
    ar.boolean(sim.couplingDerated_);
    ar.u64(sim.couplingEpoch_);

    auto &fs = sim.faultState_;
    ar.u8Array(fs.sensorMode_, n, SensorMode::Dropout, "sensorMode");
    ar.f64Array(fs.stuckAmbientC_, n, "stuckAmbientC");
    ar.f64Array(fs.stuckChipC_, n, "stuckChipC");
    ar.f64Array(fs.noiseSigmaC_, n, "noiseSigmaC");
    ar.f64Array(fs.lastGoodAmbientC_, n, "lastGoodAmbientC");
    ar.u8Array(fs.offline_, n, 2, "offline");
    ar.size(fs.offlineCount_);
    ar.u8Array(fs.escStage_, n, 1, "escStage");
    ar.f64Array(fs.overTripSinceS_, n, "overTripSinceS");
    ar.range(fs.flowFrac_, std::numeric_limits<double>::min(), 1.0,
             "fan flow fraction");
}

// --- SCHED: prediction cache and feasibility ladder -------------------

template <class Ar, class Sim>
void
CkptAccess::visitSched(Ar &ar, Sim &sim)
{
    const std::size_t n = sim.topo_.numSockets();
    const std::size_t np = sim.pm_.pstates().size();

    auto &pc = sim.predCache_;
    ar.u64(pc.epoch);
    ar.same(pc.place.size(), "prediction cache place entry count");
    for (auto &e : pc.place) {
        ar.u64(e.stamp);
        ar.enumeration(e.set, WorkloadSet::GeneralPurpose,
                       "prediction cache", "workload set");
        visitDecision(ar, e.decision, np, "placement decision");
    }
    ar.same(pc.penalty.size(), "prediction cache penalty entry count");
    for (auto &e : pc.penalty) {
        ar.u64(e.stamp);
        ar.f64(e.extra);
        ar.f64(e.mhz);
    }
    ar.same(pc.npstates, "prediction cache P-state count");
    ar.u8Array(pc.feasSet, n, WorkloadSet::GeneralPurpose, "feasSet");
    ar.u8Array(pc.feasSetValid, n, 1, "feasSetValid");
    ar.f64Array(pc.feasLoC, n * np, "feasLoC");
    ar.f64Array(pc.feasHiC, n * np, "feasHiC");
    ar.f64Array(pc.feasMhzPerC, n, "feasMhzPerC");
    ar.f64Array(pc.fastFeasC, n, "fastFeasC");
    ar.f64Array(pc.fastSlope, n, "fastSlope");
}

// --- capture / apply --------------------------------------------------

CkptAccess::EngineImage
CkptAccess::captureEngine(const DenseServerSim &sim)
{
    if (!sim.streamOpen_)
        fatal("ckpt: cannot checkpoint a closed run (beginRun?)");
    EngineImage image;
    for (std::size_t i = 0; i < image.size(); ++i) {
        Writer w;
        SaveArchive ar(w);
        visitEngine(i, ar, sim);
        image[i] = w.take();
    }
    return image;
}

void
CkptAccess::forkStreams(DenseServerSim &sim, std::uint64_t fork_id)
{
    // Identical state, divergent future — every stream reseeded
    // through the avalanched domain-separation chain.
    sim.policyRng_ = Rng(domainSeed(sim.config_.seed, fork_id,
                                    ckpt::ckpt_stream::kForkPolicy));
    sim.sensorRng_ = Rng(domainSeed(sim.config_.seed, fork_id,
                                    ckpt::ckpt_stream::kForkSensor));
    sim.faultRng_ = Rng(domainSeed(
        sim.config_.fault.effectiveSeed(sim.config_.seed), fork_id,
        ckpt::ckpt_stream::kForkFault));
}

void
CkptAccess::checkRestored(const DenseServerSim &sim)
{
    const std::size_t n = sim.topo_.numSockets();
    const std::vector<std::size_t> &idle = sim.idleList_;
    if (idle.size() > n)
        badField("idleList", "more idle sockets than sockets");
    for (std::size_t i = 0; i < idle.size(); ++i) {
        if (idle[i] >= n)
            badField("idleList", "socket " + std::to_string(idle[i]) +
                                     " out of range");
        if (i > 0 && idle[i] <= idle[i - 1])
            badField("idleList", "not strictly ascending");
    }
    if (sim.dirtySockets_.size() > n)
        badField("dirtySockets", "more entries than sockets");
    for (const std::size_t s : sim.dirtySockets_)
        if (s >= n)
            badField("dirtySockets",
                     "socket " + std::to_string(s) + " out of range");

    for (std::size_t i = sim.streamNext_ + 1; i < sim.streamJobs_.size();
         ++i)
        if (sim.streamJobs_[i].arrivalS < sim.streamJobs_[i - 1].arrivalS)
            badField("arrival backlog", "arrivals not ascending");
    for (std::size_t s = 0; s < n; ++s) {
        if (!sim.busyFlag_[s])
            continue;
        if (!(sim.jobArrivalS_[s] >= 0.0 &&
              sim.jobNominalS_[s] >= kMinJobS &&
              sim.jobRemainingS_[s] >= 0.0 &&
              std::isfinite(sim.completionS_[s]) &&
              sim.completionS_[s] >= sim.tCursor_))
            badField("running job", "socket " + std::to_string(s) +
                                        " holds an impossible job");
    }

    // The cached scalars must agree with the per-socket state they
    // summarize: the chip sits on its ambient, and the busy sums
    // match their members (within the incremental updates' rounding).
    double power = 0.0;
    double scale = 1.0;
    std::array<double, 8> sums{};
    std::array<int, 5> counts{};
    for (std::size_t s = 0; s < n; ++s) {
        if (sim.chipTempC_[s] != sim.ambientC_[s] + sim.chipRiseC_[s])
            badField("chipTempC", "socket " + std::to_string(s) +
                                      " is off its ambient + rise");
        power += sim.powerW_[s];
        if (!sim.inBusySums_[s])
            continue;
        const double rate = sim.contribRate_[s];
        const double rel = sim.contribRel_[s];
        scale += rate + rel;
        const bool front = sim.isFront_[s];
        const bool even = sim.isEven_[s];
        sums[0] += rate;
        sums[4] += rel;
        sums[front ? 1 : 2] += rate;
        sums[front ? 5 : 6] += rel;
        sums[3] += even ? rate : 0.0;
        sums[7] += even ? rel : 0.0;
        ++counts[0];
        ++counts[front ? 1 : 2];
        counts[3] += even ? 1 : 0;
        counts[4] += sim.contribBoost_[s] ? 1 : 0;
    }
    const std::array<double, 8> cached = {
        sim.workRateTotal_,   sim.workRateFront_,   sim.workRateBack_,
        sim.workRateEven_,    sim.relFreqSumTotal_, sim.relFreqSumFront_,
        sim.relFreqSumBack_,  sim.relFreqSumEven_};
    const std::array<int, 5> cachedCounts = {
        sim.busyTotal_, sim.busyFront_, sim.busyBack_, sim.busyEven_,
        sim.busyBoost_};
    bool close = std::fabs(power - sim.totalPowerW_) <=
                     kCacheTol * std::max(1.0, power) &&
                 counts == cachedCounts;
    for (std::size_t i = 0; i < sums.size(); ++i)
        close = close &&
                std::fabs(sums[i] - cached[i]) <= kCacheTol * scale;
    if (!close)
        badField("busy sums", "cached totals disagree with the sockets");

    // Every processed arrival is queued, running or completed. The
    // completions of warmup arrivals go uncounted, so with no warmup
    // the tally is exact.
    const SimMetrics &m = sim.metrics_;
    const std::size_t held =
        m.jobsCompleted + sim.queue_.size() +
        static_cast<std::size_t>(sim.busyTotal_);
    if (m.jobsArrived < held ||
        (sim.config_.warmupS <= 0.0 && m.jobsArrived != held))
        badField("job tally",
                 std::to_string(m.jobsArrived) + " arrived, " +
                     std::to_string(held) +
                     " completed, queued or running");
    if (m.zoneAmbientC.size() != m.timelineS.size())
        badField("timeline", std::to_string(m.zoneAmbientC.size()) +
                                 " ambient rows for " +
                                 std::to_string(m.timelineS.size()) +
                                 " sample times");

    const FaultState &fs = sim.faultState_;
    std::size_t offline = 0;
    for (const std::uint8_t o : fs.offline_)
        offline += o != 0 ? 1 : 0;
    if (fs.offlineCount_ != offline)
        badField("offline count",
                 std::to_string(fs.offlineCount_) + " recorded, " +
                     std::to_string(offline) + " sockets marked");
    if (sim.couplingDerated_ != (fs.flowFrac_ != 1.0))
        badField("fan flow fraction",
                 "disagrees with the coupling-derated flag");
}

void
CkptAccess::finalizeRestore(DenseServerSim &sim)
{
    const std::size_t n = sim.topo_.numSockets();

    // The saved run was under a fan derate: rebuild the derated
    // coupling operator exactly as applyFanFlowFraction does, but
    // without retargeting — ambTargets_, couplingEpoch_ and the
    // prediction cache were restored verbatim.
    if (sim.couplingDerated_) {
        const double frac = sim.faultState_.flowFrac();
        std::vector<SocketSite> sites = sim.topo_.sites();
        for (SocketSite &site : sites)
            site.ductCfm = Cfm(site.ductCfm.value() * frac);
        CouplingParams params = sim.config_.coupling;
        params.kappaLocal /= frac;
        sim.coupling_ = CouplingMap(std::move(sites), params);
    }

    // The delta-maintained ambient-target field must be the coupling
    // map's field of the powers it claims to represent.
    const std::vector<double> field =
        sim.coupling_.ambientTemps(sim.targetPowerW_,
                                   sim.config_.topo.inlet());
    for (std::size_t s = 0; s < n; ++s)
        if (!(std::fabs(field[s] - sim.ambTargets_[s]) <=
              kCacheTol * std::max(1.0, std::fabs(field[s]))))
            badField("ambTargets",
                     "socket " + std::to_string(s) +
                         " disagrees with the coupling field of "
                         "targetPowerW");

    // Rebuild the completion heap from the busy flags in ascending-id
    // order. Observably exact: the heap's (key, id) order is total,
    // so top()/topKey()/contains() — all the engine ever reads — are
    // pure functions of the entry set, not of insertion order.
    sim.completionHeap_.reset(n);
    std::size_t busy = 0;
    for (std::size_t s = 0; s < n; ++s) {
        if (sim.busyFlag_[s]) {
            sim.completionHeap_.upsert(s, sim.completionS_[s]);
            ++busy;
        }
    }

    // Post-restore audit (always on, CkptError not assertion — these
    // double as the last line of hostile-input validation).
    if (busy != static_cast<std::size_t>(sim.busyTotal_))
        badField("restored state",
                 std::to_string(busy) + " busy flags vs busyTotal " +
                     std::to_string(sim.busyTotal_));
    const std::size_t offline = sim.faultState_.offlineCount();
    if (sim.idleList_.size() + busy + offline != n)
        badField("restored state",
                 "idle + busy + offline = " +
                     std::to_string(sim.idleList_.size() + busy +
                                    offline) +
                     " != " + std::to_string(n) + " sockets");
    for (const std::size_t s : sim.idleList_)
        if (sim.busyFlag_[s] || sim.faultState_.offline(s))
            badField("restored state",
                     "socket " + std::to_string(s) +
                         " is idle-listed but busy or offline");

    // Pointer rebinds: the restored pstate_ vector reallocated.
    sim.predCache_.pstate = sim.pstate_.data();

    // Re-wire the trace sink exactly as beginRun does.
    if (!sim.config_.obsTracePath.empty()) {
        sim.trace_.enable(true);
        sim.trace_.setProcessName(std::string("densim:") +
                                  sim.policy_->name());
        sim.profiler_.setSink(&sim.trace_, &sim.streamNowS_);
    }

    sim.streamOpen_ = true;
    // Debug-build invariants on top of the audits above.
    sim.checkEpochInvariants();
    sim.completionHeap_.checkInvariants();
}

void
CkptAccess::applyEngine(DenseServerSim &sim, const EngineImage &image,
                        RestoreMode mode, std::uint64_t fork_id)
{
    // A failed earlier fleet restore can leave a shard open; reset
    // handles either state (restoreEngine/restoreFleet hold the
    // user-facing open-run guards). The stream cursor starts where
    // beginRun leaves it, so the backlog visit fills from 0.
    sim.streamOpen_ = false;
    sim.resetState();
    sim.streamJobs_.clear();
    sim.streamNext_ = 0;
    for (std::size_t i = 0; i < image.size(); ++i) {
        Reader r(image[i]);
        LoadArchive ar(r);
        visitEngine(i, ar, sim);
        r.expectEnd(kEngineSections[i]);
    }
    if (mode == RestoreMode::Fork)
        forkStreams(sim, fork_id);
    checkRestored(sim);
    finalizeRestore(sim);
}

// --- fleet ------------------------------------------------------------

template <class Ar, class Fleet>
void
CkptAccess::visitFleet(Ar &ar, Fleet &fleet)
{
    ar.same(fleet.shards_.size(), "fleet chassis count");
    ar.size(fleet.window_);
    ar.boolean(fleet.arrivalsOpen_);
    std::uint64_t cursor = fleet.dispatcher_->cursor();
    ar.u64(cursor);
    if constexpr (Ar::kLoading)
        fleet.dispatcher_->setCursor(cursor);
    JobGenerator &arrivals = *fleet.arrivals_;
    visitGenerator(ar, arrivals.rng_, "arrival rng");
    ar.finite(arrivals.clockS_, "arrival clock");
    ar.u64(arrivals.nextId_);
    ar.boolean(arrivals.hasPending_);
    visitJob(ar, arrivals.pending_, "arrival lookahead");
    ar.u64(fleet.metrics_.jobsArrived);
    ar.u64(fleet.metrics_.jobsDispatched);
    ar.same(fleet.metrics_.dispatchedPerShard.size(), "dispatch counts");
    for (auto &dispatched : fleet.metrics_.dispatchedPerShard)
        ar.u64(dispatched);
    visitRegistry(ar, fleet.registry_);
}

std::string
CkptAccess::saveFleetImage(const FleetSim &fleet)
{
    if (!fleet.fleetOpen_)
        fatal("ckpt: cannot checkpoint a closed fleet run "
              "(beginRun?)");
    std::vector<std::pair<std::uint32_t, std::string>> sections;
    Writer w;
    SaveArchive ar(w);
    visitFleet(ar, fleet);
    sections.emplace_back(kSecFleet, w.take());
    for (std::size_t s = 0; s < fleet.shards_.size(); ++s) {
        for (const std::string &payload :
             captureEngine(*fleet.shards_[s]))
            w.str(payload);
        sections.emplace_back(
            kSecShardBase + static_cast<std::uint32_t>(s), w.take());
    }
    return buildFile(SnapshotKind::Fleet,
                     ckpt::stateDigest(fleetPolicyName(fleet),
                                       fleet.base_),
                     sections);
}

void
CkptAccess::restoreFleetImage(FleetSim &fleet, std::string_view image,
                              RestoreMode mode, std::uint64_t fork_id)
{
    const std::size_t n = fleet.shards_.size();
    const auto sections = parseFile(
        image, SnapshotKind::Fleet,
        ckpt::stateDigest(fleetPolicyName(fleet), fleet.base_));
    if (sections.size() != n + 1)
        throw CkptError("checkpoint: fleet file has " +
                        std::to_string(sections.size()) +
                        " sections, expected " +
                        std::to_string(n + 1));
    const std::string &core = section(sections, kSecFleet);
    for (std::size_t s = 0; s < n; ++s)
        section(sections,
                kSecShardBase + static_cast<std::uint32_t>(s));

    // Baseline mirroring beginRun() — every field overwritten below
    // is first put in the exact state beginRun would leave it in, so
    // a restore that throws leaves a closed, fully reusable fleet.
    fleet.arrivals_ = std::make_unique<JobGenerator>(
        fleet.base_.workload, fleet.base_.load,
        static_cast<int>(fleet.totalSockets()),
        domainSeed(fleet.fleetSeed_, 0, fleet_stream::kArrivals));
    fleet.dropLookahead(); // The image holds the cursor, never a look-ahead.
    fleet.registry_.resetValues();
    fleet.windowsCtr_ = &fleet.registry_.counter("fleet/windows");
    fleet.dispatchedCtr_ =
        &fleet.registry_.counter("fleet/jobsDispatched");
    fleet.metrics_ = FleetMetrics{};
    fleet.metrics_.chassis = n;
    fleet.metrics_.dispatchedPerShard.assign(n, 0);
    fleet.batches_.assign(n, {});

    Reader r(core);
    LoadArchive ar(r);
    visitFleet(ar, fleet);
    r.expectEnd("fleet");
    if (mode == RestoreMode::Fork)
        fleet.arrivals_->rng_ =
            Rng(domainSeed(fleet.fleetSeed_, fork_id,
                           ckpt::ckpt_stream::kForkArrivals));

    for (std::size_t s = 0; s < n; ++s) {
        Reader shard(section(
            sections, kSecShardBase + static_cast<std::uint32_t>(s)));
        EngineImage shard_image;
        for (std::string &payload : shard_image)
            payload = shard.str();
        shard.expectEnd("shard");
        applyEngine(*fleet.shards_[s], shard_image, mode, fork_id);
    }
    checkFleetRestored(fleet);
    fleet.fleetOpen_ = true;
}

void
CkptAccess::checkFleetRestored(const FleetSim &fleet)
{
    // Every arrival is dispatched within its window, and a shard's
    // dispatched jobs are either arrived there or still in its
    // backlog, so the fleet and shard tallies must agree.
    const FleetMetrics &m = fleet.metrics_;
    std::uint64_t dispatched = 0;
    for (std::size_t s = 0; s < fleet.shards_.size(); ++s) {
        const DenseServerSim &shard = *fleet.shards_[s];
        const std::size_t held = shard.metrics_.jobsArrived +
                                 shard.streamJobs_.size() -
                                 shard.streamNext_;
        if (m.dispatchedPerShard[s] != held)
            badField("dispatch counts",
                     "shard " + std::to_string(s) + " was sent " +
                         std::to_string(m.dispatchedPerShard[s]) +
                         " jobs but holds " + std::to_string(held));
        if (shard.arrivalsClosed_ == fleet.arrivalsOpen_)
            badField("arrival stream",
                     "shard " + std::to_string(s) +
                         " disagrees on whether arrivals are open");
        dispatched += m.dispatchedPerShard[s];
    }
    if (m.jobsDispatched != dispatched || m.jobsArrived != dispatched)
        badField("dispatch counts",
                 std::to_string(m.jobsArrived) + " arrived, " +
                     std::to_string(m.jobsDispatched) +
                     " dispatched, " + std::to_string(dispatched) +
                     " sent to shards");
    const JobGenerator &arrivals = *fleet.arrivals_;
    if (arrivals.hasPending_ &&
        arrivals.pending_.arrivalS != arrivals.clockS_)
        badField("arrival lookahead",
                 "arrival time disagrees with the arrival clock");
}

} // namespace densim

// --- public API --------------------------------------------------------

namespace densim::ckpt {

std::uint64_t
stateDigest(const std::string &policy, const SimConfig &config)
{
    SimConfig identity = config;
    identity.ckptPath.clear();
    identity.ckptEveryS = 0.0;
    return fnv1a64(policy + "\n" + saveConfig(identity));
}

std::string
saveEngine(const DenseServerSim &sim)
{
    const CkptAccess::EngineImage image =
        CkptAccess::captureEngine(sim);
    std::vector<std::pair<std::uint32_t, std::string>> sections;
    for (std::size_t i = 0; i < image.size(); ++i)
        sections.emplace_back(kSecEngine + static_cast<std::uint32_t>(i),
                              image[i]);
    return buildFile(
        SnapshotKind::Engine,
        stateDigest(CkptAccess::policyName(sim), sim.config()),
        sections);
}

void
restoreEngine(DenseServerSim &sim, std::string_view image,
              RestoreMode mode, std::uint64_t fork_id)
{
    if (CkptAccess::engineOpen(sim))
        fatal("ckpt: restore into an open run — finishRun() first "
              "(double restore?)");
    const auto sections = parseFile(
        image, SnapshotKind::Engine,
        stateDigest(CkptAccess::policyName(sim), sim.config()));
    CkptAccess::EngineImage img;
    if (sections.size() != img.size())
        throw CkptError("checkpoint: engine file has " +
                        std::to_string(sections.size()) +
                        " sections, expected " +
                        std::to_string(img.size()));
    for (std::size_t i = 0; i < img.size(); ++i)
        img[i] = section(sections,
                         kSecEngine + static_cast<std::uint32_t>(i));
    CkptAccess::applyEngine(sim, img, mode, fork_id);
}

std::string
saveFleet(const FleetSim &fleet)
{
    return CkptAccess::saveFleetImage(fleet);
}

void
restoreFleet(FleetSim &fleet, std::string_view image,
             RestoreMode mode, std::uint64_t fork_id)
{
    if (CkptAccess::fleetOpen(fleet))
        fatal("ckpt: restore into an open fleet run — finishRun() "
              "first (double restore?)");
    CkptAccess::restoreFleetImage(fleet, image, mode, fork_id);
}

void
writeCheckpointFile(const std::string &path, const std::string &image)
{
    if (!atomicWriteFile(path, image))
        fatal("ckpt: cannot write checkpoint '", path, "': ",
              std::strerror(errno));
}

std::string
readCheckpointFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CkptError("checkpoint: cannot open '" + path + "': " +
                        std::strerror(errno));
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        throw CkptError("checkpoint: read error on '" + path + "'");
    return std::move(buffer).str();
}

void
flushSinks(DenseServerSim &sim)
{
    CkptAccess::flush(sim);
}

void
flushSinks(FleetSim &fleet)
{
    CkptAccess::flushFleet(fleet);
}

} // namespace densim::ckpt
