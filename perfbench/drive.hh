/**
 * @file
 * The benchmark's drive layer: its three named workloads, the
 * windowed closed-loop drive of the public engine API, the scheduler
 * timing decorator of the traced run, and the output digests every
 * run is checked against. Nothing here reaches inside src/ — every
 * number is taken around a public call.
 */

#ifndef DENSIM_PERFBENCH_DRIVE_HH
#define DENSIM_PERFBENCH_DRIVE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dense_server_sim.hh"
#include "core/sim_config.hh"
#include "fleet/fleet_metrics.hh"
#include "obs/registry.hh"
#include "sched/scheduler.hh"
#include "workload/job_generator.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One named benchmark workload (README.md, "Workloads"). */
struct Workload
{
    std::string name;
    densim::SimConfig config; //!< Seeded from --seed.
    std::string scheduler;
    unsigned workers = 1; //!< Fleet worker threads.
    /** Simulated derate window [from, to): the middle third of the
     *  arrivals on every workload. Only chassis_cp_derated derates the
     *  fan there; on the others the window is a control of the same
     *  span with the fan nominal. */
    double derateFromS = 0.0;
    double derateToS = 0.0;

    bool fleet() const { return config.fleet.enabled(); }
    bool inDerateWindow(double now_s) const
    {
        return now_s >= derateFromS && now_s < derateToS;
    }
};

/** The binding workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name with inputs drawn from @p seed; fatal()
 *  on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** Chassis workload @p w run as a fleet of one chassis on 4 workers:
 *  how the traced run prices the fleet layer on a chassis workload. */
Workload fleetOfOne(const Workload &w);

/** One shard of fleet workload @p w run alone as a chassis workload
 *  (same config and seed, fleet off, arrivals at the shard's mean
 *  load): how the traced run reaches the policy and live state that
 *  FleetSim keeps inside itself. */
Workload shardOf(const Workload &w);

/** Every SimMetrics field in hex-float: equal strings mean
 *  bit-identical results. */
std::string digest(const densim::SimMetrics &metrics);

/** FleetMetrics counterpart (serializeFleetMetrics). */
std::string digest(const densim::FleetMetrics &metrics);

using Counters = std::vector<densim::obs::CounterSample>;

/** Value of counter @p name, 0 when unregistered. */
std::uint64_t counterValue(const Counters &counters,
                           const std::string &name);

/** Sum of counter @p name over every "shard<N>/" namespace of a
 *  merged fleet registry. */
std::uint64_t shardCounterSum(const Counters &counters,
                              const std::string &name);

/** Nearest-rank percentile (@p q in [0, 1]); 0 when empty. */
double percentile(std::vector<double> values, double q);

/**
 * Streams a chassis run's arrivals one window ahead of the engine:
 * JobGenerator::nextWindow -> submitJobs, then closeArrivals once
 * the arrival horizon reaches simTimeS. Because every arrival of the
 * next epoch is submitted before that epoch runs, the drive is
 * bit-identical to DenseServerSim::run() for the same seed, while
 * holding only a window of jobs rather than the whole list.
 */
class ArrivalFeed
{
  public:
    /** Simulated seconds of arrivals generated per window. */
    static constexpr double kWindowS = 0.05;

    ArrivalFeed(const densim::SimConfig &config, std::size_t sockets);

    /** Submit arrivals so @p sim's next epoch has all of its jobs. */
    void feed(densim::DenseServerSim &sim);

    std::uint64_t jobs() const { return jobs_; }
    /** Host seconds spent in JobGenerator::nextWindow. */
    double generateS() const { return generateS_; }
    /** Host seconds spent in submitJobs/closeArrivals. */
    double submitS() const { return submitS_; }

  private:
    densim::JobGenerator gen_;
    double endS_;
    double epochS_;
    double horizonS_ = 0.0;
    bool closed_ = false;
    std::uint64_t jobs_ = 0;
    double generateS_ = 0.0;
    double submitS_ = 0.0;
};

/** One sampled placement: what power.choose_ns replays. */
struct ChoiceSample
{
    densim::WorkloadSet set;
    std::size_t socket;
    double ambientC;
};

/**
 * Timing decorator around the Scheduler handed to the engine. name,
 * reset and attachObs forward to the inner policy, and pick routes
 * through the inner pickCounted, so the engine sees the same policy
 * and sched.<name>.picks still counts: SimMetrics and every counter
 * are unchanged (perfbench_test pins this). Besides the pick times it
 * samples what the benchmark's layer probes replay: the ambient and
 * workload set of every kSampleEvery-th placement, and the live
 * socket-power field.
 */
class TimedScheduler final : public densim::Scheduler
{
  public:
    static constexpr std::size_t kSampleEvery = 512;

    explicit TimedScheduler(std::unique_ptr<densim::Scheduler> inner);

    const char *name() const override { return inner_->name(); }
    std::size_t pick(const densim::Job &job,
                     const densim::SchedContext &ctx) override;
    void reset() override { inner_->reset(); }
    void attachObs(densim::obs::Registry &registry) override
    {
        inner_->attachObs(registry);
    }

    /** Total pick host time so far, ns. */
    std::uint64_t pickNsTotal() const { return pickNsTotal_; }
    const std::vector<double> &pickNs() const { return pickNs_; }
    const std::vector<ChoiceSample> &choices() const { return choices_; }
    /** Socket powers at the latest sampled placement, W. */
    const std::vector<double> &powerSnapshot() const { return powers_; }
    double inletC() const { return inletC_; }

  private:
    std::unique_ptr<densim::Scheduler> inner_;
    std::uint64_t pickNsTotal_ = 0;
    std::vector<double> pickNs_;
    std::vector<ChoiceSample> choices_;
    std::vector<double> powers_;
    double inletC_ = 0.0;
};

/** Host-time profile and outputs of one streamed chassis run. */
struct ChassisRun
{
    /** The finished engine, kept for the layer probes of the traced
     *  run (its coupling map is the live one). */
    std::unique_ptr<densim::DenseServerSim> sim;
    densim::SimMetrics metrics;
    Counters counters;
    double constructS = 0.0; //!< DenseServerSim ctor.
    double beginRunS = 0.0;  //!< beginRun (warm start included).
    double engineS = 0.0;    //!< beginRun..finishRun engine calls.
    double generateS = 0.0;  //!< Arrival generation, excluded above.
    std::uint64_t jobs = 0;  //!< Arrivals submitted.
    std::uint64_t epochs = 0;
    std::vector<double> epochUs; //!< Host time of each advanceEpoch.

    // Traced runs only (TimedScheduler in place).
    std::vector<double> pickNs;
    std::uint64_t pickNsTotal = 0;
    std::vector<double> epochSelfUs;    //!< Epoch minus its picks.
    std::vector<double> epochUsDerated; //!< Fan derated at epoch start.
    std::vector<double> epochUsNominal;
    std::vector<ChoiceSample> choices;
    std::vector<double> powers;
    double inletC = 0.0;

    // Checkpoint round trip only.
    double saveS = 0.0;
    double restoreS = 0.0;
    std::size_t imageBytes = 0;

    /** Simulated server-seconds integrated per host second. */
    double simPerHostS(double pm_epoch_s) const
    {
        return static_cast<double>(epochs) * pm_epoch_s / engineS;
    }
};

/** How runChassis drives the engine. */
struct ChassisOptions
{
    bool traced = false; //!< Hand the engine a TimedScheduler.
    /** Save at this simulated time, restore into a fresh engine and
     *  finish there (checkpoint round trip); < 0 = never. */
    double checkpointAtS = -1.0;
};

/** One chassis run of @p w through the streaming API. */
ChassisRun runChassis(const Workload &w, const ChassisOptions &options);

/** Host-time profile and outputs of one fleet run. */
struct FleetRun
{
    densim::FleetMetrics metrics;
    Counters counters;
    double constructS = 0.0; //!< FleetSim ctor.
    double beginRunS = 0.0;
    double engineS = 0.0; //!< beginRun..finishRun.
    std::uint64_t shardEpochs = 0; //!< Summed over shards.
    std::vector<double> windowUs;  //!< Host time of each advanceWindow.
    double saveS = 0.0;
    double restoreS = 0.0;
    std::size_t imageBytes = 0;

    double simPerHostS(double pm_epoch_s) const
    {
        return static_cast<double>(shardEpochs) * pm_epoch_s / engineS;
    }
};

/** One fleet run of @p w on @p workers threads; a checkpoint round
 *  trip at @p checkpoint_at_s simulated seconds when >= 0. */
FleetRun runFleet(const Workload &w, unsigned workers,
                  double checkpoint_at_s = -1.0);

/** Output checks of one run; empty when every check passes. */
std::string checkChassis(const ChassisRun &run);
std::string checkFleet(const FleetRun &run);

} // namespace perfbench

#endif // DENSIM_PERFBENCH_DRIVE_HH
