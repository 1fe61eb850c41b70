#include "fleet/fleet_sim.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "core/invariant.hh"
#include "sched/factory.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "workload/job_generator.hh"

namespace densim {

FleetSim::FleetSim(const SimConfig &config,
                   const std::string &scheduler)
    : base_(config)
{
    if (!config.fleet.enabled())
        fatal("FleetSim: fleet.chassis is 0 — fleet mode is off "
              "(set fleet.chassis or run DenseServerSim directly)");
    config.fleet.validate(config.pmEpochS);
    fleetSeed_ = config.fleet.effectiveSeed(config.seed);

    shards_.reserve(config.fleet.chassis);
    for (std::size_t shard = 0; shard < config.fleet.chassis;
         ++shard) {
        SimConfig shardConfig = config;
        // Every shard stream descends from domainSeed, never from
        // xor-ing a shard index into the user seed: the engine's
        // internal streams (policy, sensor, fault) are derived from
        // this already-avalanched value, so no shard's stream can
        // alias another shard's or any fault stream.
        shardConfig.seed = domainSeed(fleetSeed_, shard,
                                      fleet_stream::kShardEngine);
        // One set of output sinks per shard, named like Experiment's
        // per-run files.
        shardConfig.usePerRunSinks(shard);
        shards_.push_back(std::make_unique<DenseServerSim>(
            shardConfig, makeScheduler(scheduler)));
    }
    dispatcher_ = makeFleetDispatcher(config.fleet);
}

FleetSim::~FleetSim() = default;

std::size_t
FleetSim::totalSockets() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_)
        total += shard->topology().numSockets();
    return total;
}

std::vector<ShardSummary>
FleetSim::gatherSummaries() const
{
    std::vector<ShardSummary> summaries;
    summaries.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const DenseServerSim &shard = *shards_[s];
        ShardSummary summary;
        summary.shard = s;
        summary.headroomC = shard.thermalHeadroomC();
        summary.powerW = shard.totalPowerW();
        summary.backlog = shard.backlog();
        summary.idleSockets = shard.idleSockets();
        summary.jobsCompleted = shard.jobsCompletedSoFar();
        summaries.push_back(summary);
    }
    return summaries;
}

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
elapsedNs(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

void
addSample(obs::PhaseProfiler::Totals &totals, std::uint64_t ns)
{
    ++totals.calls;
    totals.ns += ns;
}

} // namespace

void
FleetSim::beginRun()
{
    if (fleetOpen_)
        fatal("FleetSim::beginRun: run already open (finishRun?)");
    const std::size_t n = shards_.size();

    // The cluster arrival stream: one Poisson process sized for the
    // whole fleet's sockets, fanned out window by window.
    arrivals_ = std::make_unique<JobGenerator>(
        base_.workload, base_.load, static_cast<int>(totalSockets()),
        domainSeed(fleetSeed_, 0, fleet_stream::kArrivals));
    dropLookahead();

    registry_.resetValues();
    windowsCtr_ = &registry_.counter("fleet/windows");
    dispatchedCtr_ = &registry_.counter("fleet/jobsDispatched");
    phases_ = FleetPhaseTotals{};

    metrics_ = FleetMetrics{};
    metrics_.chassis = n;
    metrics_.dispatchedPerShard.assign(n, 0);

    for (auto &shard : shards_)
        shard->beginRun();

    batches_.assign(n, {});
    arrivalsOpen_ = true;
    window_ = 0;
    fleetOpen_ = true;
}

void
FleetSim::dispatchWindow(const std::vector<Job> &jobs,
                         const std::vector<ShardSummary> &summaries)
{
    const std::size_t n = shards_.size();
    for (const Job &job : jobs) {
        const std::size_t target = dispatcher_->pick(job, summaries);
        DENSIM_CHECK(target < n, "dispatcher picked shard ", target,
                     " of ", n);
        batches_[target].push_back(job);
    }
    // Every batch was handed over last window, so it holds exactly
    // this window's picks.
    for (std::size_t s = 0; s < n; ++s)
        metrics_.dispatchedPerShard[s] += batches_[s].size();
    metrics_.jobsArrived += jobs.size();
    metrics_.jobsDispatched += jobs.size();
    dispatchedCtr_->inc(jobs.size());
}

void
FleetSim::submitBatch(std::size_t s)
{
    if (!batches_[s].empty()) {
        shards_[s]->submitJobs(batches_[s]);
        batches_[s].clear();
    }
}

void
FleetSim::submitBatches()
{
    for (std::size_t s = 0; s < shards_.size(); ++s)
        submitBatch(s);
}

bool
FleetSim::advanceWindow(unsigned threads)
{
    if (!fleetOpen_)
        fatal("FleetSim::advanceWindow: no open run (beginRun?)");
    const std::size_t n = shards_.size();
    const double windowS = base_.fleet.epochS;
    const auto epochsPerWindow = static_cast<std::size_t>(
        std::round(windowS / base_.pmEpochS));
    if (!pool_ || poolThreads_ != threads) {
        pool_.reset(); // Join the old helpers before starting new ones.
        pool_ = std::make_unique<WorkerPool>(threads, n);
        poolThreads_ = threads;
        busyNs_.assign(pool_->threads(), 0);
    }

    // --- barrier: serial, shard-id order ------------------------------
    const Clock::time_point barrierStart = Clock::now();
    const std::vector<ShardSummary> summaries = gatherSummaries();

    bool drawAhead = false;
    if (arrivalsOpen_) {
        // Windows end at (k+1) * epochS by multiplication, not
        // accumulation, so the fan-out boundaries do not drift
        // from float addition however many windows run.
        const double w1 = static_cast<double>(window_ + 1) * windowS;
        // Scoped to the barrier: the batches hold copies, and the
        // look-ahead buffer is refilled during the beat.
        std::vector<Job> jobs;
        if (lookaheadReady_) {
            // The copy drawn last window is now the barrier cursor.
            std::swap(arrivals_, lookaheadGen_);
            jobs = std::move(lookaheadJobs_);
            lookaheadReady_ = false;
        } else {
            jobs = arrivals_->nextWindow(std::min(w1, base_.simTimeS));
        }
        dispatchWindow(jobs, summaries);
        if (w1 >= base_.simTimeS) {
            // Shards must see arrivals closed before the pending
            // check below, or the fleet would run one window more.
            submitBatches();
            arrivalsOpen_ = false;
            for (auto &shard : shards_)
                shard->closeArrivals();
        } else {
            drawAhead = true;
        }
    }

    bool anyPending = false;
    for (const auto &shard : shards_)
        anyPending = anyPending || shard->epochPending();
    if (!anyPending) {
        submitBatches(); // Every dispatched job stays on its shard.
        addSample(phases_.barrier, elapsedNs(barrierStart, Clock::now()));
        return false;
    }

    // --- parallel beat: disjoint shard state only ---------------------
    // The caller first draws the next window from a copy of the
    // cursor; the stream depends only on the fleet RNG and the
    // horizon, so the batch equals a draw made at the next barrier.
    const double aheadHorizonS = std::min(
        static_cast<double>(window_ + 2) * windowS, base_.simTimeS);
    // Shards with the most work in hand (this window's batch plus the
    // backlog they reported) are claimed first: a heavy shard claimed
    // last would keep every other worker waiting at the barrier. The
    // claim order never changes a result.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto inHand = [&](std::size_t s) {
        return batches_[s].size() + summaries[s].backlog;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return inHand(a) > inHand(b);
                     });
    std::fill(busyNs_.begin(), busyNs_.end(), 0);
    const Clock::time_point beatStart = Clock::now();
    addSample(phases_.barrier, elapsedNs(barrierStart, beatStart));
    pool_->run(
        n,
        [&](std::size_t item, unsigned worker) {
            const Clock::time_point start = Clock::now();
            const std::size_t s = order[item];
            submitBatch(s);
            DenseServerSim &shard = *shards_[s];
            for (std::size_t e = 0;
                 e < epochsPerWindow && shard.epochPending(); ++e)
                shard.advanceEpoch();
            busyNs_[worker] += elapsedNs(start, Clock::now());
        },
        [&] {
            if (!drawAhead)
                return;
            const Clock::time_point start = Clock::now();
            if (lookaheadGen_)
                *lookaheadGen_ = *arrivals_;
            else
                lookaheadGen_ = std::make_unique<JobGenerator>(*arrivals_);
            lookaheadJobs_ = lookaheadGen_->nextWindow(aheadHorizonS);
            lookaheadReady_ = true;
            const std::uint64_t ns = elapsedNs(start, Clock::now());
            addSample(phases_.lookahead, ns);
            busyNs_[0] += ns;
        });
    const std::uint64_t beatNs = elapsedNs(beatStart, Clock::now());
    addSample(phases_.parallel, beatNs);
    std::uint64_t busyNs = 0;
    for (const std::uint64_t ns : busyNs_)
        busyNs += ns;
    const std::uint64_t meanBusyNs = busyNs / busyNs_.size();
    addSample(phases_.barrierWait,
              beatNs > meanBusyNs ? beatNs - meanBusyNs : 0);

    windowsCtr_->inc();
    ++window_;
    return true;
}

FleetMetrics
FleetSim::finishRun()
{
    if (!fleetOpen_)
        fatal("FleetSim::finishRun: no open run (beginRun?)");
    const std::size_t n = shards_.size();

    // --- finalization: serial, shard-id order -------------------------
    metrics_.perShard.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        metrics_.perShard.push_back(shards_[s]->finishRun());
        registry_.mergePrefixed(shards_[s]->observability(),
                                "shard" + std::to_string(s) + "/");
    }
    rollUpFleetMetrics(metrics_);
    fleetOpen_ = false;
    arrivals_.reset();
    lookaheadGen_.reset();
    dropLookahead();
    return std::move(metrics_);
}

FleetMetrics
FleetSim::run(unsigned threads)
{
    beginRun();
    while (advanceWindow(threads)) {
    }
    return finishRun();
}

} // namespace densim
