/**
 * @file
 * densim_perfbench: one run of one benchmark workload.
 *
 *   densim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 measures the end-to-end metrics for S seconds; --trace 1
 * is the separate traced run that gives the per-layer metrics
 * (README.md). Prints one JSON record on stdout: the build
 * fingerprint, the run's checks and its metrics. perfbench/run.py
 * builds this program and turns the record into the benchmark's
 * result line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "drive.hh"
#include "fleet/fleet_sim.hh"
#include "sched/factory.hh"
#include "power/leakage.hh"
#include "power/power_manager.hh"
#include "power/pstate.hh"
#include "thermal/simple_peak_model.hh"
#include "workload/curves.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__has_feature)
#define PERFBENCH_HAS_FEATURE(x) __has_feature(x)
#else
#define PERFBENCH_HAS_FEATURE(x) 0
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

#if DENSIM_ENABLE_CHECKS
constexpr bool kChecksBuild = true;
#else
constexpr bool kChecksBuild = false;
#endif
#if DENSIM_ENABLE_OBS
constexpr bool kObsBuild = true;
#else
constexpr bool kObsBuild = false;
#endif

/** Sanitizers compiled in, as the compiler reports them: GCC defines
 *  __SANITIZE_ADDRESS__ / __SANITIZE_THREAD__, Clang answers
 *  __has_feature. Empty for a plain build. */
std::string
sanitizers()
{
    std::string out;
    [[maybe_unused]] const auto add = [&out](const char *name) {
        out += (out.empty() ? "" : ",") + std::string(name);
    };
#if defined(__SANITIZE_ADDRESS__) || PERFBENCH_HAS_FEATURE(address_sanitizer)
    add("address");
#endif
#if defined(__SANITIZE_THREAD__) || PERFBENCH_HAS_FEATURE(thread_sanitizer)
    add("thread");
#endif
#if PERFBENCH_HAS_FEATURE(memory_sanitizer)
    add("memory");
#endif
#if PERFBENCH_HAS_FEATURE(undefined_behavior_sanitizer)
    add("undefined");
#endif
    return out;
}

/** Setup-only samples (ctor + beginRun) taken after each repeat. */
constexpr std::size_t kSetupPerRepeat = 5;

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/**
 * Host-speed probe: a fixed mix of gathers over 768 KB, branches and
 * libm work, sized to take kProbeNominalS on a quiet host. Neighbours
 * on a shared host slow densim through the memory system for seconds
 * to minutes at a time; the probe, run beside every repeat, slows
 * with them (README.md, "Statistics"), and host-time figures are
 * scaled by probe time / kProbeNominalS: host time as on a host where
 * the probe takes kProbeNominalS. A probe is the fastest of
 * kProbeTries timings, so a preemption inside one does not count as a
 * slow host.
 */
constexpr double kProbeNominalS = 0.010;
constexpr int kProbePasses = 6;
constexpr int kProbeTries = 3;

/** Where probes store a result, so the timed calls stay observable. */
volatile double probeSink = 0.0;

double
probeS()
{
    constexpr std::size_t n = std::size_t{1} << 16;
    static std::vector<double> data(n);
    static std::vector<std::uint32_t> index = [] {
        std::vector<std::uint32_t> out(n);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = static_cast<std::uint32_t>((i * 40503u) % n);
        return out;
    }();
    double fastest = 0.0;
    for (int t = 0; t < kProbeTries; ++t) {
        std::fill(data.begin(), data.end(), 0.5);
        const Clock::time_point t0 = Clock::now();
        double acc = 0.0;
        for (int pass = 0; pass < kProbePasses; ++pass) {
            for (std::size_t i = 0; i < n; ++i) {
                const double v = data[index[i]];
                acc += v * 1.0000001 + (v > 0.5 ? v * v : -0.5 * v);
                data[i] = std::fabs(std::sin(acc));
            }
        }
        probeSink = acc;
        const double took = secondsSince(t0);
        fastest = t == 0 ? took : std::min(fastest, took);
    }
    return fastest;
}

double
ms(double seconds)
{
    return seconds * 1e3;
}

/** Host seconds per call of @p body, repeated for >= @p budget_s. */
template <typename Body>
double
perCallS(double budget_s, std::size_t calls_per_body, Body &&body)
{
    std::size_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        body();
        calls += calls_per_body;
    } while (secondsSince(t0) < budget_s);
    return secondsSince(t0) / static_cast<double>(calls);
}

/** Result of one run: checks plus named metrics, in emit order. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Per-repeat values behind the host-time metrics (record only). */
    std::vector<std::pair<std::string, std::vector<double>>> repeats;

    /** Count one simulation run; @p error empty means it passed. */
    void check(const std::string &what, const std::string &error)
    {
        ++attempted;
        if (!error.empty()) {
            ++failed;
            failures.push_back(what + ": " + error);
        }
    }
    void add(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, {value, unit}});
    }
};

/** Keeps the first digest seen; any later different one is an error. */
struct DigestMatch
{
    std::string reference;

    std::string check(const std::string &digest, const char *what)
    {
        if (reference.empty())
            reference = digest;
        else if (digest != reference)
            return std::string("digest differs: ") + what;
        return {};
    }
};

/** Peak RSS of this process image, MB. VmHWM rather than getrusage:
 *  ru_maxrss survives execve, so it would report a larger parent. */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    char line[256];
    double kb = 0.0;
    while (status != nullptr && std::fgets(line, sizeof line, status)) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    }
    if (status != nullptr)
        std::fclose(status);
    if (kb <= 0.0) {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        kb = static_cast<double>(usage.ru_maxrss);
    }
    return kb / 1024.0;
}

/** Setup-only samples of @p config (a fleet when it has chassis):
 *  construct + beginRun, then drop the open run. */
void
sampleSetups(const densim::SimConfig &config, const std::string &policy,
             std::size_t count, std::vector<double> &construct,
             std::vector<double> &begin_run)
{
    for (std::size_t i = 0; i < count; ++i) {
        Clock::time_point t0 = Clock::now();
        if (config.fleet.enabled()) {
            densim::FleetSim fleet(config, policy);
            construct.push_back(secondsSince(t0));
            t0 = Clock::now();
            fleet.beginRun();
        } else {
            densim::DenseServerSim sim(config,
                                       densim::makeScheduler(policy));
            construct.push_back(secondsSince(t0));
            t0 = Clock::now();
            sim.beginRun();
        }
        begin_run.push_back(secondsSince(t0));
    }
}

/**
 * What a series of repeats measured, one entry per repeat. Step
 * percentiles are taken per repeat, so the series holds no sample
 * list that grows with the run (it would show in peak_rss_mb).
 * Setup samples are spread over the whole series: each repeat adds
 * its own ctor/beginRun plus kSetupPerRepeat setup-only samples.
 */
struct Series
{
    /** Probe times around the repeats: repeat i ran between probes i
     *  and i + 1. */
    std::vector<double> probeS;
    std::vector<double> rates; //!< sim_s_per_host_s, raw.
    std::vector<double> stepP50Us;
    std::vector<double> stepP95Us;
    std::vector<double> engineS;
    std::vector<double> constructS;
    std::vector<double> beginRunS;
    /** Peak RSS once the first repeat and its setup samples are done:
     *  the workload's own peak. Later repeats of the same run only add
     *  the allocator's fragmentation from the repeat loop, which grows
     *  with the number of repeats, i.e. with host speed. */
    double firstPeakRssMb = 0.0;

    /** Last chassis repeat; a traced series keeps its engine alive
     *  for the live probes, an untraced one frees it. */
    ChassisRun chassis;
    FleetRun fleet;     //!< Last fleet repeat.

    // Traced chassis repeats only.
    double pickNsTotal = 0.0;
    double epochUsTotal = 0.0;
    std::vector<double> epochSelfUs;
    std::vector<double> epochUsDerated;
    std::vector<double> epochUsNominal;

    std::vector<double> setupS() const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < constructS.size(); ++i)
            out.push_back(constructS[i] + beginRunS[i]);
        return out;
    }

    /** Host slowdown during repeat i: its probes / kProbeNominalS. */
    double slowdown(std::size_t i) const
    {
        return (probeS[i] + probeS[i + 1]) / (2.0 * kProbeNominalS);
    }

    /** Per-repeat rates as on the nominal host. */
    std::vector<double> normalRates() const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < rates.size(); ++i)
            out.push_back(rates[i] * slowdown(i));
        return out;
    }

    /** Per-repeat host times as on the nominal host. */
    std::vector<double> normalTimes(const std::vector<double> &times) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < times.size(); ++i)
            out.push_back(times[i] / slowdown(i));
        return out;
    }

    /** Median setup time as on the nominal host. */
    double normalSetupS() const
    {
        std::vector<double> slow;
        for (std::size_t i = 0; i < rates.size(); ++i)
            slow.push_back(slowdown(i));
        return median(setupS()) / median(slow);
    }
};

void
append(std::vector<double> &to, const std::vector<double> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

/**
 * One repeat of @p w into @p series (on w.workers threads for a
 * fleet; through the timing decorator when @p traced), its outputs
 * and digest checked.
 */
void
repeatOnce(const Workload &w, bool traced, Series &series,
           DigestMatch &digests, Report &report)
{
    const char *what = traced ? "traced run" : "repeat";
    if (series.probeS.empty())
        series.probeS.push_back(probeS());
    {
        const std::vector<double> *steps = nullptr;
        std::string error;
        if (w.fleet()) {
            series.fleet = FleetRun{}; // Free the previous fleet first.
            series.fleet = runFleet(w, w.workers);
            const FleetRun &run = series.fleet;
            error = checkFleet(run);
            if (error.empty())
                error = digests.check(digest(run.metrics), what);
            series.rates.push_back(run.simPerHostS(w.config.pmEpochS));
            series.engineS.push_back(run.engineS);
            series.constructS.push_back(run.constructS);
            series.beginRunS.push_back(run.beginRunS);
            steps = &run.windowUs;
        } else {
            series.chassis = ChassisRun{};
            series.chassis = runChassis(w, {traced, -1.0});
            if (!traced)
                series.chassis.sim.reset(); // Only the live probes use it.
            const ChassisRun &run = series.chassis;
            error = checkChassis(run);
            if (error.empty())
                error = digests.check(digest(run.metrics), what);
            series.rates.push_back(run.simPerHostS(w.config.pmEpochS));
            series.engineS.push_back(run.engineS);
            series.constructS.push_back(run.constructS);
            series.beginRunS.push_back(run.beginRunS);
            steps = &run.epochUs;
            for (const double us : run.epochUs)
                series.epochUsTotal += us;
            series.pickNsTotal += static_cast<double>(run.pickNsTotal);
            append(series.epochSelfUs, run.epochSelfUs);
            append(series.epochUsDerated, run.epochUsDerated);
            append(series.epochUsNominal, run.epochUsNominal);
        }
        report.check(what, error);
        series.stepP50Us.push_back(percentile(*steps, 0.5));
        series.stepP95Us.push_back(percentile(*steps, 0.95));
        sampleSetups(w.config, w.scheduler, kSetupPerRepeat,
                     series.constructS, series.beginRunS);
        if (series.rates.size() == 1)
            series.firstPeakRssMb = peakRssMb();
    }
    series.probeS.push_back(probeS());
}

/**
 * Repeat @p w until @p seconds have passed, at least twice. With
 * @p traced set, untraced and traced repeats alternate, so slow
 * drifts in host speed fall on both series alike.
 */
void
repeat(const Workload &w, double seconds, DigestMatch &digests,
       Report &report, Series &plain, Series *traced = nullptr)
{
    const Clock::time_point start = Clock::now();
    do {
        repeatOnce(w, false, plain, digests, report);
        if (traced != nullptr)
            repeatOnce(w, true, *traced, digests, report);
    } while (secondsSince(start) < seconds || plain.rates.size() < 2);
}

// ------------------------------------------------- untraced (e2e)

void
untraced(const Workload &w, double seconds, Report &report)
{
    DigestMatch digests;
    Series s;
    repeat(w, seconds, digests, report, s);
    report.add("sim_s_per_host_s", median(s.normalRates()), "s/s");
    report.add("step_us_p50", median(s.normalTimes(s.stepP50Us)), "us");
    report.repeats = {{"sim_s_per_host_s.raw", s.rates},
                      {"step_us_p50.raw", s.stepP50Us},
                      {"probe_s", s.probeS}};
    report.add("setup_s", s.normalSetupS(), "s");
    report.add("peak_rss_mb", s.firstPeakRssMb, "MB");
    report.add("ok_frac",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "frac");
    const densim::RunningStats &expansion =
        w.fleet() ? s.fleet.metrics.runtimeExpansion
                  : s.chassis.metrics.runtimeExpansion;
    report.add("sim_runtime_expansion", expansion.mean(), "ratio");
    report.add("sim_energy_kj",
               (w.fleet() ? s.fleet.metrics.energyJ
                          : s.chassis.metrics.energyJ) *
                   1e-3,
               "kJ");
}

// ------------------------------------------------ traced (layers)

/** Per-layer counters shared by the chassis and fleet traced runs;
 *  @p value reads one counter summed over the run's engines. */
template <typename Value>
void
addCounterLayers(Report &report, const std::string &policy,
                 Value &&value)
{
    const double picks =
        static_cast<double>(value("sched." + policy + ".picks"));
    const double hits = static_cast<double>(value("dvfs.memoHits"));
    const double misses = static_cast<double>(value("dvfs.memoMisses"));
    const double placed = static_cast<double>(value("engine.jobsPlaced"));
    report.add("sched.picks", picks, "count");
    report.add("power.dvfs_searches_per_pick",
               picks > 0 ? static_cast<double>(
                               value("power.dvfsSearches")) /
                               picks
                         : 0.0,
               "ratio");
    report.add("dvfs.memo_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac");
    report.add("dvfs.redecisionsPruned",
               static_cast<double>(value("dvfs.redecisionsPruned")),
               "count");
    report.add("thermal.delta_updates_per_job",
               placed > 0 ? static_cast<double>(
                                value("thermal.ambientDeltaUpdates")) /
                                placed
                          : 0.0,
               "ratio");
    report.add("thermal.ambientRefreshes",
               static_cast<double>(value("thermal.ambientRefreshes")),
               "count");
    report.add("core.epochs", static_cast<double>(value("engine.epochs")),
               "count");
    report.add("core.migrations",
               static_cast<double>(value("engine.migrations")), "count");
    for (const char *name :
         {"fault.fanEvents", "fault.sensorFaults", "fault.dropoutFallbacks",
          "fault.socketFailures", "fault.socketRecoveries",
          "fault.jobsRequeued", "fault.emergencyThrottles",
          "fault.throttleReleases", "fault.quarantines",
          "fault.quarantineExits"})
        report.add(name, static_cast<double>(value(name)), "count");
}

/** Construction probes: topology and coupling-map build times. */
void
addBuildProbes(Report &report, const densim::SimConfig &config)
{
    std::vector<double> topo_s, map_s;
    for (int i = 0; i < 5; ++i) {
        Clock::time_point t0 = Clock::now();
        const densim::ServerTopology topo(config.topo);
        topo_s.push_back(secondsSince(t0));
        const std::vector<densim::SocketSite> sites = topo.sites();
        t0 = Clock::now();
        const densim::CouplingMap map(sites, config.coupling);
        map_s.push_back(secondsSince(t0));
        probeSink = static_cast<double>(map.size());
    }
    report.add("thermal.coupling_build_ms", ms(median(map_s)), "ms");
    report.add("server.topology_build_ms", ms(median(topo_s)), "ms");
}

/**
 * Layer probes replayed against live state of a finished traced run:
 * chooseAtAmbient on a benchmark-owned PowerManager over the sampled
 * placement ambients, and the engine's own const CouplingMap on the
 * sampled live power field.
 */
void
addLiveProbes(Report &report, const Workload &w, const ChassisRun &run)
{
    const densim::SimConfig &config = w.config;
    const densim::PowerManager pm(densim::PStateTable::x2150(),
                                  densim::SimplePeakModel(config.rInt()),
                                  config.tLimit(), config.gatedFracTdp);
    const densim::LeakageModel &leak = densim::LeakageModel::x2150();
    const densim::ServerTopology &topo = run.sim->topology();
    std::size_t states = 0;
    const double choose_s =
        perCallS(0.2, run.choices.size(), [&] {
            for (const ChoiceSample &c : run.choices)
                states += pm.chooseAtAmbient(densim::freqCurveFor(c.set),
                                             leak,
                                             densim::Celsius(c.ambientC),
                                             topo.sinkOf(c.socket))
                              .pstate;
        });
    probeSink = static_cast<double>(states);

    const densim::CouplingMap &map = run.sim->coupling();
    const std::vector<double> &powers = run.powers;
    const std::size_t n = powers.size();
    const densim::Celsius inlet(run.inletC);
    std::vector<double> field = map.ambientTemps(powers, inlet);
    const double delta_s = perCallS(0.1, 2 * n, [&] {
        for (std::size_t s = 0; s < n; ++s)
            map.applyPowerDelta(field, s, powers[s], powers[s] + 1.0);
        for (std::size_t s = 0; s < n; ++s)
            map.applyPowerDelta(field, s, powers[s] + 1.0, powers[s]);
    });
    const double field_s = perCallS(0.1, 1, [&] {
        map.ambientTempsInto(field.data(), n, powers.data(), inlet);
    });
    probeSink = field[0];
    report.add("power.choose_ns", choose_s * 1e9, "ns");
    report.add("thermal.apply_delta_ns", delta_s * 1e9, "ns");
    report.add("thermal.ambient_field_us", field_s * 1e6, "us");
}

/**
 * Policy and live-state layers of chassis workload @p w from its
 * untraced series @p plain and its decorated series @p traced: pick
 * times, the live-state probes, the setup and epoch splits, and the
 * tracing overhead.
 */
void
addChassisLayers(Report &report, const Workload &w, const Series &plain,
                 const Series &traced)
{
    const ChassisRun &run = traced.chassis;
    report.add("sched.pick_ns_p50", percentile(run.pickNs, 0.5), "ns");
    report.add("sched.pick_ns_p99", percentile(run.pickNs, 0.99), "ns");
    report.add("sched.pick_share",
               traced.pickNsTotal * 1e-3 / traced.epochUsTotal, "frac");
    addLiveProbes(report, w, run);
    report.add("core.construct_ms", ms(median(plain.constructS)), "ms");
    report.add("core.begin_run_ms", ms(median(plain.beginRunS)), "ms");
    report.add("core.epoch_self_us_p50", percentile(traced.epochSelfUs, 0.5),
               "us");
    report.add("core.epoch_us_p50.derated",
               percentile(traced.epochUsDerated, 0.5), "us");
    report.add("core.epoch_us_p50.nominal",
               percentile(traced.epochUsNominal, 0.5), "us");
    report.add("obs.trace_overhead_frac",
               1.0 - median(traced.normalRates()) /
                         median(plain.normalRates()),
               "frac");
}

/**
 * Fleet layer of fleet workload @p w from its untraced series
 * @p plain, plus a one-worker run: the parallel-efficiency base and
 * the 1-vs-N-worker determinism check.
 */
void
addFleetLayers(Report &report, const Workload &w, const Series &plain,
               DigestMatch &digests)
{
    const FleetRun serial = runFleet(w, 1);
    std::string error = checkFleet(serial);
    if (error.empty())
        error = digests.check(digest(serial.metrics), "1 worker");
    report.check("fleet 1 worker", error);

    const densim::FleetMetrics &m = plain.fleet.metrics;
    report.add("fleet.windows",
               static_cast<double>(plain.fleet.windowUs.size()), "count");
    report.add("fleet.window_ms_p50",
               median(plain.normalTimes(plain.stepP50Us)) * 1e-3, "ms");
    report.add("fleet.construct_ms", ms(median(plain.constructS)), "ms");
    double most = 0.0, total = 0.0;
    for (const std::uint64_t d : m.dispatchedPerShard) {
        most = std::max(most, static_cast<double>(d));
        total += static_cast<double>(d);
    }
    report.add("fleet.shard_imbalance",
               most * static_cast<double>(m.dispatchedPerShard.size()) /
                   total,
               "ratio");
    report.add("fleet.parallel_efficiency_4w",
               serial.engineS /
                   (static_cast<double>(w.workers) * median(plain.engineS)),
               "frac");
}

/** Layers every traced run reports the same way. */
template <typename Run>
void
addCommonLayers(Report &report, const Series &plain, const Run &resumed,
                double generate_ms, double jobs, double queue_delay_ms)
{
    report.add("ckpt.save_ms", ms(resumed.saveS), "ms");
    report.add("ckpt.restore_ms", ms(resumed.restoreS), "ms");
    report.add("ckpt.image_kb",
               static_cast<double>(resumed.imageBytes) / 1024.0, "kB");
    report.add("workload.generate_ms", generate_ms, "ms");
    report.add("workload.jobs", jobs, "count");
    report.add("step_us_p95", median(plain.normalTimes(plain.stepP95Us)),
               "us");
    report.add("host.probe_ms", ms(median(plain.probeS)), "ms");
    report.add("sim_queue_delay_ms", queue_delay_ms, "ms");
}

/** Share of a traced run's --seconds spent on its repeat series; the
 *  rest goes to the checkpoint round trip and the probes. */
constexpr double kChassisRepeatShare = 0.85;
constexpr double kFleetRepeatShare = 0.5;
constexpr double kShardRepeatShare = 0.3;

void
tracedChassis(const Workload &w, double seconds, Report &report)
{
    DigestMatch digests;
    Series plain, traced;
    repeat(w, kChassisRepeatShare * seconds, digests, report, plain,
           &traced);
    const ChassisRun &run = traced.chassis;

    // Checkpoint round trip at mid-run, checked against the same digest.
    const ChassisRun resumed =
        runChassis(w, {false, w.config.simTimeS / 2.0});
    std::string error = checkChassis(resumed);
    if (error.empty())
        error = digests.check(digest(resumed.metrics), "checkpoint");
    report.check("checkpoint", error);

    addCounterLayers(report, w.scheduler, [&](const std::string &name) {
        return counterValue(run.counters, name);
    });
    addChassisLayers(report, w, plain, traced);
    addBuildProbes(report, w.config);

    // The fleet layer, on the same chassis run as a fleet of one.
    const Workload one = fleetOfOne(w);
    DigestMatch one_digests;
    Series one_plain;
    repeatOnce(one, false, one_plain, one_digests, report);
    addFleetLayers(report, one, one_plain, one_digests);

    addCommonLayers(report, plain, resumed, ms(run.generateS),
                    static_cast<double>(run.jobs),
                    run.metrics.queueDelayS.mean() * 1e3);
}

void
tracedFleet(const Workload &w, double seconds, Report &report)
{
    DigestMatch digests;
    Series plain;
    repeat(w, kFleetRepeatShare * seconds, digests, report, plain);
    const FleetRun &run = plain.fleet;
    addFleetLayers(report, w, plain, digests);

    const FleetRun resumed = runFleet(w, w.workers, w.config.simTimeS / 2.0);
    std::string error = checkFleet(resumed);
    if (error.empty())
        error = digests.check(digest(resumed.metrics), "checkpoint");
    report.check("checkpoint", error);

    // FleetSim builds its policies and engines inside itself, out of
    // reach of the decorator and the live probes: those layers are
    // taken on one shard run alone, untraced and traced in turn.
    const Workload shard = shardOf(w);
    DigestMatch shard_digests;
    Series shard_plain, shard_traced;
    repeat(shard, kShardRepeatShare * seconds, shard_digests, report,
           shard_plain, &shard_traced);
    addChassisLayers(report, shard, shard_plain, shard_traced);

    // FleetSim draws the cluster arrival stream inside its windows;
    // an equal-rate stream generated here prices the input alone.
    const std::size_t sockets =
        run.metrics.chassis *
        densim::ServerTopology(w.config.topo).numSockets();
    densim::JobGenerator gen(w.config.workload, w.config.load,
                             static_cast<int>(sockets), w.config.seed);
    const Clock::time_point t0 = Clock::now();
    std::size_t generated = 0;
    for (double h = 0.0; h < w.config.simTimeS;) {
        h = std::min(h + w.config.fleet.epochS, w.config.simTimeS);
        generated += gen.nextWindow(h).size();
    }
    const double generate_s = secondsSince(t0);
    if (generated == 0)
        report.check("arrival stream", "no arrivals generated");

    addCounterLayers(report, w.scheduler, [&](const std::string &name) {
        return shardCounterSum(run.counters, name);
    });
    addBuildProbes(report, w.config);
    addCommonLayers(report, plain, resumed, ms(generate_s),
                    static_cast<double>(run.metrics.jobsArrived),
                    run.metrics.queueDelayS.mean() * 1e3);
}

// ---------------------------------------------------------- output

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (const char c : s) {
        if (c == '"' || c == '\\')
            std::printf("\\%c", c);
        else if (static_cast<unsigned char>(c) < 0x20)
            std::printf("\\u%04x", c);
        else
            std::putchar(c);
    }
    std::putchar('"');
}

void
printRecord(const Workload &w, std::uint64_t seed, double seconds,
            bool trace, const Report &report)
{
    std::printf("{\"workload\":");
    printJsonString(w.name);
    std::printf(",\"seed\":%llu,\"seconds\":%.17g,\"trace\":%d",
                static_cast<unsigned long long>(seed), seconds,
                trace ? 1 : 0);
    std::printf(",\"build\":{\"compiler\":");
    printJsonString(PERFBENCH_COMPILER);
    std::printf(",\"build_type\":");
    printJsonString(PERFBENCH_BUILD_TYPE);
    std::printf(",\"checks\":%s,\"sanitize\":",
                kChecksBuild ? "true" : "false");
    printJsonString(sanitizers());
    std::printf(",\"obs\":%s}", kObsBuild ? "true" : "false");
    std::printf(",\"attempted\":%llu,\"failed\":%llu,\"failures\":[",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
        if (i > 0)
            std::putchar(',');
        printJsonString(report.failures[i]);
    }
    std::printf("],\"repeats\":{");
    for (std::size_t i = 0; i < report.repeats.size(); ++i) {
        std::printf("%s", i > 0 ? "," : "");
        printJsonString(report.repeats[i].first);
        std::putchar(':');
        const std::vector<double> &values = report.repeats[i].second;
        for (std::size_t j = 0; j < values.size(); ++j)
            std::printf("%c%.6g", j > 0 ? ',' : '[', values[j]);
        std::printf("%s", values.empty() ? "[]" : "]");
    }
    std::printf("},\"metrics\":{");
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto &[name, metric] = report.metrics[i];
        std::printf("%s", i > 0 ? "," : "");
        printJsonString(name);
        if (std::isfinite(metric.first))
            std::printf(":{\"value\":%.17g,\"unit\":", metric.first);
        else
            std::printf(":{\"value\":null,\"unit\":");
        printJsonString(metric.second);
        std::putchar('}');
    }
    std::printf("}}\n");
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "densim_perfbench: %s\nusage: densim_perfbench "
                 "--workload NAME --seed N --seconds S --trace 0|1\n",
                 why);
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            trace = static_cast<int>(std::strtol(value, &end, 10));
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && (end == value || *end != '\0'))
            return usage(("bad value for " + flag).c_str());
    }
    if (workload.empty() || !(seconds > 0.0) || (trace != 0 && trace != 1))
        return usage("--workload, --seconds > 0 and --trace 0|1 required");
    if (kChecksBuild || !sanitizers().empty()) {
        std::fprintf(stderr,
                     "densim_perfbench: refusing to report timings from "
                     "a checks (DENSIM_ENABLE_CHECKS) or sanitizer build\n");
        return 3;
    }

    const Workload w = makeWorkload(workload, seed);
    Report report;
    if (trace == 0)
        untraced(w, seconds, report);
    else if (w.fleet())
        tracedFleet(w, seconds, report);
    else
        tracedChassis(w, seconds, report);
    report.add("failed_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
               "frac");
    printRecord(w, seed, seconds, trace == 1, report);
    return 0;
}
