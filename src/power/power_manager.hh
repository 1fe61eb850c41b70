/**
 * @file
 * Socket-level power management: DVFS under a temperature limit plus
 * idle power gating.
 *
 * The paper's policy (Table III / Sec. III-D) emphasizes
 * responsiveness: every 1 ms each socket is set to the highest
 * frequency whose predicted peak temperature stays below the 95 C
 * limit, with the two top states being opportunistic boost. Sockets
 * idle for a whole power-management epoch are power gated and still
 * draw 10 % of TDP.
 *
 * Frequency/power behaviour of the running job is supplied as a
 * FreqCurve (per-P-state total power at the 90 C characterization
 * point and relative performance), which the workload library
 * provides per benchmark set (Fig. 7).
 */

#ifndef DENSIM_POWER_POWER_MANAGER_HH
#define DENSIM_POWER_POWER_MANAGER_HH

#include <cstddef>
#include <vector>

#include "core/units.hh"
#include "obs/registry.hh"
#include "power/leakage.hh"
#include "power/pstate.hh"
#include "thermal/heatsink.hh"
#include "thermal/simple_peak_model.hh"

namespace densim {

/**
 * Power and performance versus frequency for one workload class,
 * indexed by P-state (same order as the PStateTable).
 */
struct FreqCurve
{
    std::vector<double> totalPowerAt90C; //!< W at chip temp 90 C.
    std::vector<double> perfRel;         //!< Throughput vs fastest.
};

/** Outcome of a DVFS decision. */
struct DvfsDecision
{
    std::size_t pstate;    //!< Chosen P-state index.
    double freqMhz;        //!< Chosen frequency.
    Watts power;           //!< Predicted total socket power.
    Celsius predictedPeak; //!< Predicted peak chip temperature.
    bool feasible;         //!< False if even the slowest state
                           //!< violates the limit (we still run at
                           //!< the slowest state then).
};

/** DVFS + gating policy engine. */
class PowerManager
{
  public:
    /**
     * @param table P-state table.
     * @param peak Eq. (1) evaluator.
     * @param t_limit Junction temperature limit (Table III: 95 C).
     * @param gated_frac_tdp Power of a gated socket as a fraction of
     *        TDP (paper: 0.10).
     */
    PowerManager(const PStateTable &table, SimplePeakModel peak,
                 Celsius t_limit = Celsius(95.0),
                 double gated_frac_tdp = 0.10);

    /**
     * Pick the highest feasible P-state given the *current* socket
     * ambient temperature, assuming the heatsink has fully soaked
     * (steady P * (R_int + R_ext) rise) — a conservative decision
     * used where no sink-state tracking exists.
     */
    DvfsDecision chooseAtAmbient(const FreqCurve &curve,
                                 const LeakageModel &leak,
                                 Celsius ambient,
                                 const HeatSink &sink) const;

    /**
     * chooseAtAmbient restricted to P-states at or below
     * @p max_pstate — used by the boost-dwell governor: when a
     * socket's boost-residency budget is exhausted the search is
     * capped at the highest sustained state ([36]: a fully loaded
     * X2150 sustains only the highest non-boost frequency).
     */
    DvfsDecision chooseAtAmbientCapped(const FreqCurve &curve,
                                       const LeakageModel &leak,
                                       Celsius ambient,
                                       const HeatSink &sink,
                                       std::size_t max_pstate) const;

    /**
     * Exactly the per-state feasibility test every search applies:
     * two-pass leakage-compensated peak at @p ambient for P-state
     * @p pstate, compared against the junction limit. The test is
     * monotone in ambient — Eq. (1) is affine in ambient with unit
     * slope and leakage is non-decreasing in temperature — so a
     * `true` at some ambient implies `true` at every cooler one and
     * a `false` implies `false` at every hotter one. Callers exploit
     * this to memoize feasibility as two per-state ambient bounds
     * (see chooseAtAmbientBounded and PredictionCache).
     */
    bool feasibleAt(const FreqCurve &curve, const LeakageModel &leak,
                    Celsius ambient, const HeatSink &sink,
                    std::size_t pstate) const;

    /**
     * chooseAtAmbientCapped accelerated by learned feasibility
     * bounds. @p max_feas_c / @p min_infeas_c are caller-owned
     * per-state arrays (indexed by P-state, at least table().size()
     * entries) holding the hottest ambient each state is known
     * feasible at and the coolest it is known infeasible at, for
     * this exact (curve, sink) pair; initialize to -inf / +inf.
     * States with ambient >= min_infeas_c[i] are skipped without
     * evaluation (provably infeasible by monotonicity); every state
     * actually evaluated tightens its bounds. The chosen state's
     * decision fields are always computed exactly, so the returned
     * decision is bit-identical to chooseAtAmbientCapped.
     */
    DvfsDecision chooseAtAmbientBounded(const FreqCurve &curve,
                                        const LeakageModel &leak,
                                        Celsius ambient,
                                        const HeatSink &sink,
                                        std::size_t max_pstate,
                                        double *max_feas_c,
                                        double *min_infeas_c) const;

    /** Dynamic (leakage-free) power at state @p i. */
    Watts dynamicPower(const FreqCurve &curve,
                       const LeakageModel &leak, std::size_t i) const;

    /** Power drawn by a power-gated idle socket. */
    Watts gatedPower(const LeakageModel &leak) const;

    const PStateTable &pstates() const { return table_; }
    const SimplePeakModel &peakModel() const { return peak_; }

    /**
     * Register this power manager's instruments into @p registry
     * ("power.dvfsSearches": full P-state searches executed). The
     * registry must outlive the manager; without a registry attached
     * the choose* paths skip accounting entirely.
     */
    void attachObs(obs::Registry &registry);

  private:
    void checkCurve(const FreqCurve &curve) const;

    /** Predicted socket power and peak chip temperature of one state. */
    struct StateEval
    {
        double power; //!< W, leakage at the first-pass temperature.
        double peak;  //!< C, second-pass Eq. (1) peak.
    };

    /**
     * The paper's two-pass leakage compensation for P-state @p idx:
     * estimate the peak at the 90 C-characterized power, correct
     * leakage for that temperature, and re-estimate.
     */
    StateEval evalState(const FreqCurve &curve, const LeakageModel &leak,
                        Celsius ambient, const HeatSink &sink,
                        std::size_t idx) const;

    /**
     * The one descending feasibility search: the highest state at or
     * below @p first whose peak meets the limit, else the slowest.
     * With a ladder (@p lo / @p hi non-null, see
     * chooseAtAmbientBounded) states known infeasible at this ambient
     * are skipped and every evaluated state tightens its bounds.
     */
    DvfsDecision searchDown(const FreqCurve &curve,
                            const LeakageModel &leak, Celsius ambient,
                            const HeatSink &sink, std::size_t first,
                            double *lo, double *hi) const;

    /** One per searchDown — a full (possibly capped) state search. */
    void
    countSearch() const
    {
        if (searches_ != nullptr)
            searches_->inc();
    }

    const PStateTable &table_;
    SimplePeakModel peak_;
    double tLimitC_;
    double gatedFracTdp_;
    obs::Counter *searches_ = nullptr; //!< Owned by the registry.
};

} // namespace densim

#endif // DENSIM_POWER_POWER_MANAGER_HH
