/**
 * @file
 * Configuration of the fault-injection subsystem (DESIGN.md Sec. 11).
 *
 * Density-optimized servers concentrate many sockets behind shared
 * cooling, so one fan failure or one stuck temperature sensor touches
 * dozens of coupled sockets at once (PAPER.md Sec. III). FaultConfig
 * describes *which* faults to inject and *when*; the seeded
 * FaultTimeline expands it into a deterministic event sequence, and
 * the engine applies the events at power-management epoch boundaries.
 *
 * Every knob maps to a "fault.*" config key (core/config_io.cc). All
 * defaults leave the subsystem disarmed: with no fault key set the
 * engine takes no fault branch and SimMetrics stay bit-identical to a
 * build without the subsystem (pinned by tests/fault_test.cc).
 */

#ifndef DENSIM_FAULT_FAULT_CONFIG_HH
#define DENSIM_FAULT_FAULT_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>

#include "core/units.hh"

namespace densim {

/** Which reading a dropped-out sensor is replaced with. */
enum class DropoutPolicy : std::uint8_t
{
    LastGood,     //!< Hold the last reading seen before the dropout.
    Conservative, //!< Assume a configured pessimistic ambient.
};

/** Full description of the faults injected into one run. */
struct FaultConfig
{
    /**
     * Seed of the fault RNG stream (socket selection, sensor noise).
     * 0 (default) derives the stream from the run seed, so fault
     * placement co-varies with the workload seed; any other value
     * pins the fault pattern independently of the run seed.
     */
    std::uint64_t seed = 0;

    // --- fan bank (airflow/fan.hh affinity laws) ---------------------
    /** Time of the fan event, seconds; < 0 disables it. */
    double fanFailS = -1.0;
    /** Fan recovery time, seconds; < 0 means it never recovers. */
    double fanRecoverS = -1.0;
    /**
     * Speed-fraction cap the failed bank is stuck at, in [0, 1].
     * 0 models a dead bank (airflow falls to the natural-convection
     * floor), intermediate values model a controller/bearing derate.
     */
    double fanSpeedFrac = 0.0;
    /** Identical fans in the bank serving the server. */
    int fanCount = 5;

    // --- temperature sensors (DVFS + scheduler inputs) ---------------
    /** Sensors that freeze at their last reading. */
    int sensorStuckCount = 0;
    /** When the stuck-at fault strikes, seconds. */
    double sensorStuckAtS = 0.0;

    /** Sensors that go noisy (additive Gaussian error). */
    int sensorNoisyCount = 0;
    /** Sigma of the injected Gaussian error, C. */
    double sensorNoiseSigmaC = 2.0;
    /** When the noise fault strikes, seconds. */
    double sensorNoisyAtS = 0.0;

    /** Sensors that stop reporting entirely. */
    int sensorDropoutCount = 0;
    /** When the dropout strikes, seconds. */
    double sensorDropoutAtS = 0.0;
    /** Dropout duration, seconds; < 0 lasts for the rest of the run. */
    double sensorDropoutDurS = -1.0;
    /** Fallback reading policy during a dropout. */
    DropoutPolicy dropoutPolicy = DropoutPolicy::LastGood;
    /** Assumed ambient (C) under DropoutPolicy::Conservative. */
    double fallbackAmbientC = 55.0;

    // --- whole-socket failures ---------------------------------------
    /** Sockets that fail outright (chosen by the fault RNG). */
    int socketFailCount = 0;
    /** When the sockets fail, seconds. */
    double socketFailS = 0.0;
    /** When they come back, seconds; < 0 means never. */
    double socketRecoverS = -1.0;

    // --- emergency thermal response (escalation ladder) --------------
    /** Trip margin above tLimitC before the ladder engages, C. */
    double emergencyMarginC = 3.0;
    /** Over-trip dwell before the emergency throttle, seconds. */
    double emergencySustainS = 0.02;
    /** Throttled-but-still-over-trip dwell before quarantine, s. */
    double quarantineSustainS = 0.1;
    /** Chip temperature below which a quarantined socket readmits, C. */
    double quarantineExitC = 70.0;

    // --- harness fault -----------------------------------------------
    /**
     * Throw a std::runtime_error when the simulated clock reaches this
     * time; < 0 disables. The deliberate mid-run failure the
     * keep-going experiment harness is tested against.
     */
    double abortRunS = -1.0;

    /**
     * JSONL log of every applied fault and escalation event; ""
     * disables. Experiment::runAll rewrites it per run like the obs
     * sinks.
     */
    std::string logPath;

    /**
     * Is any fault armed? The engine gates every fault branch on this,
     * which is what keeps the zero-fault hot path untouched.
     */
    bool enabled() const;

    /** Fault RNG stream seed for a run seeded with @p run_seed. */
    std::uint64_t effectiveSeed(std::uint64_t run_seed) const;

    /**
     * Validate ranges; fatal() on nonsense. Given @p t_limit, the
     * quarantine exit must also lie below the ladder's trip point;
     * pass nullopt when the ladder cannot engage (nothing armed).
     */
    void validate(std::optional<Celsius> t_limit) const;
};

/** Parse "lastGood" / "conservative"; fatal() on anything else. */
DropoutPolicy parseDropoutPolicy(const std::string &name);

/** Inverse of parseDropoutPolicy. */
const char *dropoutPolicyName(DropoutPolicy policy);

} // namespace densim

#endif // DENSIM_FAULT_FAULT_CONFIG_HH
