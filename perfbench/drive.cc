#include "drive.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ckpt/checkpoint.hh"
#include "fleet/fleet_sim.hh"
#include "sched/factory.hh"
#include "util/logging.hh"

namespace perfbench {

using densim::DenseServerSim;
using densim::FleetMetrics;
using densim::FleetSim;
using densim::SimConfig;
using densim::SimMetrics;

namespace {

/** Arrival window of the chassis workloads, simulated seconds. */
constexpr double kChassisSimS = 10.0;
/** Arrival window of the fleet workload, simulated seconds. */
constexpr double kFleetSimS = 4.0;

SimConfig
baseConfig(densim::WorkloadSet set, double load, double sim_s,
           std::uint64_t seed)
{
    SimConfig config;
    config.workload = set;
    config.load = load;
    config.simTimeS = sim_s;
    config.warmupS = 1.0;
    config.warmStart = true;
    config.seed = seed;
    return config;
}

void
hex(std::ostringstream &out, double v)
{
    out << std::hexfloat << v << ' ';
}

void
hex(std::ostringstream &out, const densim::RunningStats &stats)
{
    out << stats.count() << ' ';
    hex(out, stats.mean());
    hex(out, stats.variance());
    hex(out, stats.min());
    hex(out, stats.max());
}

bool
finite(const densim::RunningStats &stats)
{
    return std::isfinite(stats.mean()) && std::isfinite(stats.variance());
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "chassis_cp", "chassis_cp_derated", "fleet16_cf"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    const double sim_s = name == "fleet16_cf" ? kFleetSimS : kChassisSimS;
    w.derateFromS = sim_s / 3.0;
    w.derateToS = 2.0 * sim_s / 3.0;
    if (name == "chassis_cp") {
        // The paper's headline configuration, cool regime.
        w.config = baseConfig(densim::WorkloadSet::Computation, 0.7,
                              kChassisSimS, seed);
        w.config.socketTauS = 3.0;
        w.scheduler = "CP";
    } else if (name == "chassis_cp_derated") {
        // Same policy, hot regime: fan bank capped at 0.7 over the
        // middle third, eight sockets failing and recovering, and
        // migrations on.
        w.config = baseConfig(densim::WorkloadSet::GeneralPurpose, 0.6,
                              kChassisSimS, seed);
        w.config.socketTauS = 3.0;
        w.config.migrationEnabled = true;
        w.config.fault.fanFailS = w.derateFromS;
        w.config.fault.fanRecoverS = w.derateToS;
        w.config.fault.fanSpeedFrac = 0.7;
        w.config.fault.socketFailCount = 8;
        w.config.fault.socketFailS = 0.2 * kChassisSimS;
        w.config.fault.socketRecoverS = 0.7 * kChassisSimS;
        w.scheduler = "CP";
    } else if (name == "fleet16_cf") {
        w.config = baseConfig(densim::WorkloadSet::Computation, 0.7,
                              kFleetSimS, seed);
        w.config.fleet.chassis = 16;
        w.scheduler = "CF";
        w.workers = 4;
    } else {
        densim::fatal("perfbench: unknown workload '", name,
                      "' (chassis_cp | chassis_cp_derated | fleet16_cf)");
    }
    w.config.validate();
    return w;
}

Workload
fleetOfOne(const Workload &w)
{
    Workload f = w;
    f.config.fleet.chassis = 1;
    f.workers = 4;
    f.config.validate();
    return f;
}

Workload
shardOf(const Workload &w)
{
    Workload s = w;
    s.config.fleet = densim::FleetConfig{};
    s.workers = 1;
    s.config.validate();
    return s;
}

std::string
digest(const SimMetrics &m)
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
    for (const densim::RegionMetrics *r : {&m.front, &m.back, &m.even}) {
        hex(out, r->busyTimeS);
        hex(out, r->freqTime);
        hex(out, r->workDone);
    }
    hex(out, m.totalWork);
    hex(out, m.totalBusyTime);
    hex(out, m.totalFreqTime);
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
digest(const FleetMetrics &metrics)
{
    return densim::serializeFleetMetrics(metrics);
}

std::uint64_t
counterValue(const Counters &counters, const std::string &name)
{
    for (const densim::obs::CounterSample &c : counters)
        if (c.name == name)
            return c.value;
    return 0;
}

std::uint64_t
shardCounterSum(const Counters &counters, const std::string &name)
{
    std::uint64_t sum = 0;
    const std::string suffix = "/" + name;
    for (const densim::obs::CounterSample &c : counters) {
        if (c.name.rfind("shard", 0) == 0 &&
            c.name.size() > suffix.size() &&
            c.name.compare(c.name.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            sum += c.value;
    }
    return sum;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::size_t k = rank == 0 ? 0 : rank - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(k),
                     values.end());
    return values[k];
}

// ------------------------------------------------------ ArrivalFeed

ArrivalFeed::ArrivalFeed(const SimConfig &config, std::size_t sockets)
    : gen_(config.workload, config.load, static_cast<int>(sockets),
           config.seed),
      endS_(config.simTimeS), epochS_(config.pmEpochS)
{
}

void
ArrivalFeed::feed(DenseServerSim &sim)
{
    // The next epoch consumes arrivals before nowS + pmEpochS (the
    // engine's own t0 + epoch), so the horizon must lie beyond it.
    if (closed_ || horizonS_ > sim.nowS() + epochS_)
        return;
    horizonS_ = std::min(horizonS_ + kWindowS, endS_);
    const Clock::time_point t0 = Clock::now();
    const std::vector<densim::Job> jobs = gen_.nextWindow(horizonS_);
    const Clock::time_point t1 = Clock::now();
    sim.submitJobs(jobs);
    if (horizonS_ >= endS_) {
        sim.closeArrivals();
        closed_ = true;
    }
    generateS_ += std::chrono::duration<double>(t1 - t0).count();
    submitS_ += secondsSince(t1);
    jobs_ += jobs.size();
}

// --------------------------------------------------- TimedScheduler

TimedScheduler::TimedScheduler(std::unique_ptr<densim::Scheduler> inner)
    : inner_(std::move(inner))
{
}

std::size_t
TimedScheduler::pick(const densim::Job &job,
                     const densim::SchedContext &ctx)
{
    const Clock::time_point t0 = Clock::now();
    const std::size_t socket = inner_->pickCounted(job, ctx);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
    pickNsTotal_ += ns;
    pickNs_.push_back(static_cast<double>(ns));
    if (pickNs_.size() % kSampleEvery == 1) {
        choices_.push_back({job.set, socket, ctx.ambientC[socket]});
        powers_.assign(ctx.powerW, ctx.powerW + ctx.nSockets);
        inletC_ = ctx.inletC;
    }
    return socket;
}

// ------------------------------------------------------ runChassis

namespace {

/** Engine plus the decorator it was handed (null when untraced). */
struct Engine
{
    std::unique_ptr<DenseServerSim> sim;
    TimedScheduler *timed = nullptr;
};

Engine
makeEngine(const Workload &w, bool traced)
{
    Engine e;
    std::unique_ptr<densim::Scheduler> policy =
        densim::makeScheduler(w.scheduler);
    if (traced) {
        auto timed = std::make_unique<TimedScheduler>(std::move(policy));
        e.timed = timed.get();
        policy = std::move(timed);
    }
    e.sim = std::make_unique<DenseServerSim>(w.config, std::move(policy));
    return e;
}

} // namespace

ChassisRun
runChassis(const Workload &w, const ChassisOptions &options)
{
    ChassisRun run;
    Clock::time_point t0 = Clock::now();
    Engine e = makeEngine(w, options.traced);
    run.constructS = secondsSince(t0);

    t0 = Clock::now();
    e.sim->beginRun();
    run.beginRunS = secondsSince(t0);
    run.engineS = run.beginRunS;

    ArrivalFeed arrivals(w.config, e.sim->topology().numSockets());
    bool checkpointed = options.checkpointAtS < 0.0;
    for (;;) {
        arrivals.feed(*e.sim);
        if (!e.sim->epochPending())
            break;
        if (!checkpointed && e.sim->nowS() >= options.checkpointAtS) {
            // Save mid-run, drop the engine like a killed process and
            // finish in a fresh one restored from the image.
            t0 = Clock::now();
            const std::string image = densim::ckpt::saveEngine(*e.sim);
            run.saveS = secondsSince(t0);
            run.imageBytes = image.size();
            e = makeEngine(w, options.traced);
            t0 = Clock::now();
            densim::ckpt::restoreEngine(*e.sim, image);
            run.restoreS = secondsSince(t0);
            checkpointed = true;
            continue;
        }
        const double now_s = e.sim->nowS();
        const std::uint64_t picks_before =
            e.timed ? e.timed->pickNsTotal() : 0;
        t0 = Clock::now();
        e.sim->advanceEpoch();
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        run.epochUs.push_back(us);
        if (e.timed != nullptr) {
            const double pick_us =
                static_cast<double>(e.timed->pickNsTotal() -
                                    picks_before) *
                1e-3;
            run.epochSelfUs.push_back(us - pick_us);
            (w.inDerateWindow(now_s) ? run.epochUsDerated : run.epochUsNominal)
                .push_back(us);
        }
        run.engineS += us * 1e-6;
    }
    t0 = Clock::now();
    run.metrics = e.sim->finishRun();
    run.engineS += secondsSince(t0) + arrivals.submitS();
    run.generateS = arrivals.generateS();
    run.jobs = arrivals.jobs();
    run.counters = e.sim->observability().counters();
    run.epochs = counterValue(run.counters, "engine.epochs");
    if (e.timed != nullptr) {
        run.pickNs = e.timed->pickNs();
        run.pickNsTotal = e.timed->pickNsTotal();
        run.choices = e.timed->choices();
        run.powers = e.timed->powerSnapshot();
        run.inletC = e.timed->inletC();
    }
    run.sim = std::move(e.sim);
    return run;
}

// -------------------------------------------------------- runFleet

FleetRun
runFleet(const Workload &w, unsigned workers, double checkpoint_at_s)
{
    FleetRun run;
    Clock::time_point t0 = Clock::now();
    auto fleet = std::make_unique<FleetSim>(w.config, w.scheduler);
    run.constructS = secondsSince(t0);

    t0 = Clock::now();
    fleet->beginRun();
    run.beginRunS = secondsSince(t0);
    run.engineS = run.beginRunS;

    bool checkpointed = checkpoint_at_s < 0.0;
    const double window_s = w.config.fleet.epochS;
    for (;;) {
        if (!checkpointed &&
            static_cast<double>(fleet->windowsRun()) * window_s >=
                checkpoint_at_s) {
            t0 = Clock::now();
            const std::string image = densim::ckpt::saveFleet(*fleet);
            run.saveS = secondsSince(t0);
            run.imageBytes = image.size();
            fleet = std::make_unique<FleetSim>(w.config, w.scheduler);
            t0 = Clock::now();
            densim::ckpt::restoreFleet(*fleet, image);
            run.restoreS = secondsSince(t0);
            checkpointed = true;
        }
        t0 = Clock::now();
        const bool advanced = fleet->advanceWindow(workers);
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        run.engineS += us * 1e-6;
        if (!advanced)
            break;
        run.windowUs.push_back(us);
    }
    t0 = Clock::now();
    run.metrics = fleet->finishRun();
    run.engineS += secondsSince(t0);
    run.counters = fleet->observability().counters();
    run.shardEpochs = shardCounterSum(run.counters, "engine.epochs");
    return run;
}

// ---------------------------------------------------------- checks

std::string
checkChassis(const ChassisRun &run)
{
    const SimMetrics &m = run.metrics;
    if (!finite(m.runtimeExpansion) || !finite(m.serviceExpansion) ||
        !finite(m.queueDelayS) || !finite(m.chipTempC) ||
        !std::isfinite(m.energyJ) || !std::isfinite(m.totalWork) ||
        !std::isfinite(m.maxChipTempC))
        return "non-finite metric";
    // engine.jobsCompleted counts warmup completions too.
    const std::uint64_t completed =
        counterValue(run.counters, "engine.jobsCompleted");
    if (run.jobs != completed + m.jobsUnfinished) {
        std::ostringstream out;
        out << "lost jobs: " << run.jobs << " arrived, " << completed
            << " completed + " << m.jobsUnfinished << " unfinished";
        return out.str();
    }
    if (run.epochs == 0 || m.jobsCompleted == 0)
        return "empty run";
    return {};
}

std::string
checkFleet(const FleetRun &run)
{
    const FleetMetrics &m = run.metrics;
    if (!finite(m.runtimeExpansion) || !finite(m.serviceExpansion) ||
        !finite(m.queueDelayS) || !std::isfinite(m.energyJ) ||
        !std::isfinite(m.maxChipTempC))
        return "non-finite metric";
    if (m.jobsDispatched != m.jobsArrived)
        return "dispatched != arrived";
    const std::uint64_t completed =
        shardCounterSum(run.counters, "engine.jobsCompleted");
    if (m.jobsArrived != completed + m.jobsUnfinished) {
        std::ostringstream out;
        out << "lost jobs: " << m.jobsArrived << " arrived, " << completed
            << " completed + " << m.jobsUnfinished << " unfinished";
        return out.str();
    }
    if (run.shardEpochs == 0 || m.jobsCompleted == 0)
        return "empty run";
    return {};
}

} // namespace perfbench
