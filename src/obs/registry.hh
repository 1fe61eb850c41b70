/**
 * @file
 * Counter/gauge registry — densim's always-on telemetry primitives.
 *
 * Components (the engine, the power manager, scheduling policies)
 * register named instruments once, cache the returned reference, and
 * update it from the hot loop:
 *
 *  - Counter: monotone event count within one run. Increment is a
 *    single non-atomic u64 add — the simulator is single-threaded per
 *    run (Experiment parallelism is one engine per thread, each with
 *    its own registry), so no synchronization is needed or wanted on
 *    the hot path.
 *  - Gauge: last-written double with a unit label. TypedGauge<Q>
 *    wraps a gauge so it can only be set from the matching
 *    core/units.hh quantity (e.g. Watts) — the unit discipline of
 *    DESIGN.md Sec. 9 extended to telemetry.
 *
 * Instruments live for the registry's lifetime at stable addresses
 * (node-based map), so cached pointers never dangle. resetValues()
 * zeroes every value while keeping registrations — called by the
 * engine between runs so each run reports only its own events.
 */

#ifndef DENSIM_OBS_REGISTRY_HH
#define DENSIM_OBS_REGISTRY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace densim::obs {

/** Monotone event counter; single-threaded, trivially cheap. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { v_ += n; }
    std::uint64_t value() const { return v_; }
    void reset() { v_ = 0; }

  private:
    std::uint64_t v_ = 0;
};

/** Last-value instrument with a free-form unit label. */
class Gauge
{
  public:
    void set(double v) { v_ = v; }
    double value() const { return v_; }
    void reset() { v_ = 0.0; }

  private:
    double v_ = 0.0;
};

/**
 * A gauge that only accepts one core/units.hh quantity type, so a
 * Watts gauge cannot be fed a Celsius by accident.
 */
template <class Q>
class TypedGauge
{
  public:
    TypedGauge() = default;
    explicit TypedGauge(Gauge &gauge) : gauge_(&gauge) {}

    void
    set(Q quantity)
    {
        if (gauge_ != nullptr)
            gauge_->set(quantity.value());
    }

    /** Keep the larger of the current value and @p quantity. */
    void
    raise(Q quantity)
    {
        if (gauge_ != nullptr && quantity.value() > gauge_->value())
            gauge_->set(quantity.value());
    }

  private:
    Gauge *gauge_ = nullptr;
};

/** One named snapshot row, for export and display. */
struct CounterSample
{
    std::string name;
    std::uint64_t value;
};

struct GaugeSample
{
    std::string name;
    std::string unit;
    double value;
};

/**
 * Name -> instrument registry. Registration is idempotent: asking for
 * an existing name returns the same instrument, so independent
 * components may share a counter deliberately.
 */
class Registry
{
  public:
    /** Get or create the counter named @p name. */
    Counter &counter(const std::string &name);

    /**
     * Get or create the gauge named @p name; @p unit is recorded on
     * first registration (later registrations must not contradict it).
     */
    Gauge &gauge(const std::string &name, const std::string &unit = "");

    /** gauge() wrapped so it can only be set from quantity @p Q. */
    template <class Q>
    TypedGauge<Q>
    typedGauge(const std::string &name, const std::string &unit)
    {
        return TypedGauge<Q>(gauge(name, unit));
    }

    /** Zero every value; registrations (and addresses) survive. */
    void resetValues();

    /**
     * Fold every instrument of @p other into this registry under
     * names prefixed with @p prefix: counters add their values,
     * gauges overwrite (last merge wins, keeping their unit).
     * FleetSim uses this to roll per-shard registries up into one
     * fleet registry as "shard<N>/<name>" without the shards ever
     * sharing instrument storage (each shard stays single-threaded
     * on its own worker).
     */
    void mergePrefixed(const Registry &other, const std::string &prefix);

    /** Counters in name order. */
    std::vector<CounterSample> counters() const;

    /** Gauges in name order. */
    std::vector<GaugeSample> gauges() const;

    std::size_t size() const
    {
        return counters_.size() + gauges_.size();
    }

  private:
    struct GaugeEntry
    {
        Gauge gauge;
        std::string unit;
    };

    // std::map: node-based, so instrument addresses are stable across
    // later registrations — components cache raw pointers/references.
    std::map<std::string, Counter> counters_;
    std::map<std::string, GaugeEntry> gauges_;
};

} // namespace densim::obs

#endif // DENSIM_OBS_REGISTRY_HH
