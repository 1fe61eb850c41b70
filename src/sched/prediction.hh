/**
 * @file
 * Placement prediction services shared by the Predictive and
 * CouplingPredictor policies.
 *
 * Both policies reason about what frequency a job would settle at if
 * placed on a candidate socket. Per Sec. IV-C the prediction uses the
 * simple linear machinery only: entry temperature from the coupling
 * table, Eq. (1) with two-pass leakage compensation (chooseSteady),
 * never the detailed models used to evaluate the research.
 */

#ifndef DENSIM_SCHED_PREDICTION_HH
#define DENSIM_SCHED_PREDICTION_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "sched/scheduler.hh"

namespace densim {

/**
 * Engine-owned memo for the prediction helpers below. Within one
 * scheduling epoch every input of predictPlacement(s, set) — the
 * candidate's ambient and boost credit plus immutable tables — is
 * constant, and downstreamPenaltyMhz(s, p) is fully determined by
 * (s, p - powerW[s]) plus the busy/frequency/ambient state of s's
 * downstream sockets. The engine therefore:
 *
 *  - bumps `epoch` whenever any input may have moved (thermalStep,
 *    powerManage, a coupling-map rebuild), invalidating everything;
 *  - surgically drops the penalty entries of a changed socket and of
 *    its upstream sockets on job placement/completion/migration/fault
 *    transitions inside an epoch (CouplingMap::upstream gives exactly
 *    the set of candidates whose penalty sums read the changed
 *    socket's state).
 *
 * Cached values are returned verbatim, so the cached path is
 * bit-identical to recomputation — tested by running with the
 * schedPredictionCache knob off (ctx.cache == nullptr) and comparing
 * SimMetrics with EXPECT_EQ.
 *
 * When `exactDvfs` is set (no faults armed) the
 * penalty loop additionally prunes each downstream P-state search to
 * start at the socket's current state via `pstate`
 * (PowerManager::chooseAtAmbientFrom): the current state was chosen
 * this epoch at an ambient no hotter than the perturbed one, so every
 * faster state is already known infeasible.
 */
struct PredictionCache
{
    struct PlaceEntry
    {
        std::uint64_t stamp = 0; //!< Epoch the entry was filled in.
        WorkloadSet set{};
        DvfsDecision decision{};
    };

    struct PenaltyEntry
    {
        std::uint64_t stamp = 0;
        double extra = 0.0; //!< job_power - powerW[socket] key.
        double mhz = 0.0;
    };

    std::uint64_t epoch = 1;
    std::vector<PlaceEntry> place;
    std::vector<PenaltyEntry> penalty;

    /**
     * Per-socket, per-P-state two-sided ambient feasibility ladder:
     * `feasLoC[s * npstates + i]` is the hottest ambient at which
     * P-state i running `feasSet[s]` is *known* feasible on socket
     * s, `feasHiC[...]` the coolest at which it is known infeasible.
     * PowerManager::feasibleAt is monotone in ambient, so a probe at
     * or below the low bound is provably feasible and one at or
     * above the high bound provably infeasible — only probes landing
     * in the (shrinking) gap ever evaluate the thermal model.
     *
     * Unlike the memo entries above, the ladder carries no epoch
     * stamp: feasibility is a time-invariant property of the
     * socket's heat sink, the workload's power curve, the leakage
     * model, and the probed ambient — none of which change within a
     * run (fan derates move the *ambient field*, not the sinks) —
     * so bounds learned in one epoch stay valid in every later
     * epoch. Each socket's row is keyed by workload set and wiped
     * when a different set lands on it.
     */
    std::size_t npstates = 0;
    std::vector<WorkloadSet> feasSet;
    std::vector<std::uint8_t> feasSetValid;
    std::vector<double> feasLoC;
    std::vector<double> feasHiC;
    //! Cached mhzPerCelsius(feasSet[s], sink-of-s); <= 0 = unset.
    std::vector<double> feasMhzPerC;
    //! Frequency of each P-state (copy of the engine's table) so the
    //! ladder walk resolves state -> MHz without a bounds-checked
    //! table lookup per probe.
    std::vector<double> stateFreqMhz;

    /**
     * Engine-maintained per-socket fast path for the penalty loop's
     * common case. `fastFeasC[s]` is the hottest ambient at which
     * socket s's *current* P-state is known feasible (the ladder's
     * low bound at the state chosen by the last setSocketRate), and
     * `fastSlope[s]` the penalty charged per degree of ambient rise
     * there (mhzPerCelsius when below the fastest state, 0 when
     * boosting). A probe at or below `fastFeasC[s]` provably keeps
     * the state, so its penalty is `dt * fastSlope[s]` with no
     * ladder walk at all — the exact value the walk would produce.
     * Idle sockets hold (+inf, 0): any probe passes, charging
     * nothing, which also subsumes the busy check. Sockets whose
     * penalty slope is not learned yet hold -inf, forcing the slow
     * path until a probe computes it. Refreshed on every rate change
     * (setSocketRate) and on job clear; the ladder's low bound can
     * only rise in between, so a stale snapshot is conservative,
     * never wrong.
     */
    std::vector<double> fastFeasC;
    std::vector<double> fastSlope;

    /** Engine's live per-socket P-state array (for pruned searches). */
    const std::size_t *pstate = nullptr;
    /** True when pruned downstream searches are provably exact. */
    bool exactDvfs = false;

    /** Size for @p n sockets / @p n_pstates states; drop everything. */
    void reset(std::size_t n, std::size_t n_pstates)
    {
        epoch = 1;
        place.assign(n, {});
        penalty.assign(n, {});
        npstates = n_pstates;
        feasSet.assign(n, {});
        feasSetValid.assign(n, 0);
        feasLoC.assign(n * n_pstates, 0.0);
        feasHiC.assign(n * n_pstates, 0.0);
        feasMhzPerC.assign(n, 0.0);
        stateFreqMhz.assign(n_pstates, 0.0);
        fastFeasC.assign(
            n, std::numeric_limits<double>::infinity());
        fastSlope.assign(n, 0.0);
    }

    double *ladderLo(std::size_t s) { return &feasLoC[s * npstates]; }
    double *ladderHi(std::size_t s) { return &feasHiC[s * npstates]; }

    /**
     * Point socket @p s's ladder row at workload @p set, wiping the
     * bounds if a different set (or nothing) was keyed there.
     */
    void touchLadder(std::size_t s, WorkloadSet set)
    {
        if (feasSetValid[s] && feasSet[s] == set)
            return;
        feasSet[s] = set;
        feasSetValid[s] = 1;
        feasMhzPerC[s] = 0.0;
        double *lo = ladderLo(s);
        double *hi = ladderHi(s);
        for (std::size_t i = 0; i < npstates; ++i) {
            lo[i] = -std::numeric_limits<double>::infinity();
            hi[i] = std::numeric_limits<double>::infinity();
        }
    }

    /** Drop every entry (epoch-granularity invalidation). */
    void invalidate() { ++epoch; }

    /** Drop one socket's penalty entry (stays valid as a candidate). */
    void invalidatePenalty(std::size_t socket)
    {
        penalty[socket].stamp = 0;
    }
};

/**
 * Steady-state DVFS decision predicted for placing a job of @p set on
 * idle socket @p socket, given the other sockets' current powers.
 */
DvfsDecision predictPlacement(const SchedContext &ctx,
                              std::size_t socket, WorkloadSet set);

/**
 * Predicted aggregate frequency loss (MHz) across sockets downstream
 * of @p socket if a job drawing @p job_power were placed there.
 * For each busy downstream socket the job's extra heat raises the
 * ambient by coeff * (P_job - P_current); if the re-predicted
 * frequency drops below the current one, that discrete loss is
 * charged. When the extra heat does not cross a P-state edge *right
 * now*, the expected marginal loss is charged instead:
 * dT * (200 MHz / edge spacing) — the time-average of the discrete
 * loss as the downstream socket's ambient drifts across edges. Idle
 * downstream sockets contribute nothing (nothing to slow down).
 */
double downstreamPenaltyMhz(const SchedContext &ctx, std::size_t socket,
                            Watts job_power);

/**
 * Expected frequency sensitivity of a socket with heat sink @p sink
 * running workload @p set: MHz lost per degree of ambient rise,
 * averaged across the P-state ladder.
 */
double mhzPerCelsius(const SchedContext &ctx, WorkloadSet set,
                     const HeatSink &sink);

} // namespace densim

#endif // DENSIM_SCHED_PREDICTION_HH
