#include "sched/prediction.hh"

#include <algorithm>
#include <limits>

#include "power/pstate.hh"
#include "workload/curves.hh"

namespace densim {

DvfsDecision
predictPlacement(const SchedContext &ctx, std::size_t socket,
                 WorkloadSet set)
{
    // The prediction horizon is one (millisecond-scale) job while the
    // ambient field moves with the 30 s socket time constant, so the
    // job's future temperature is Eq. (1) evaluated at the *current*
    // ambient — exactly the paper's "estimate an initial chip
    // temperature using equation 1" step. Leakage compensation is the
    // second pass inside chooseAtAmbientCapped.
    PredictionCache *cache = ctx.cache;
    if (cache != nullptr) {
        const PredictionCache::PlaceEntry &e = cache->place[socket];
        if (e.stamp == cache->epoch && e.set == set)
            return e.decision;
    }
    const auto &table = ctx.pm->pstates();
    const std::size_t cap = ctx.boostCreditS[socket] > 0.0
                                ? table.size() - 1
                                : table.highestSustainedIndex();
    const DvfsDecision decision = ctx.pm->chooseAtAmbientCapped(
        freqCurveFor(set), *ctx.leak, Celsius(ctx.ambientC[socket]),
        ctx.topo->sinkOf(socket), cap);
    if (cache != nullptr)
        cache->place[socket] =
            PredictionCache::PlaceEntry{cache->epoch, set, decision};
    return decision;
}

double
mhzPerCelsius(const SchedContext &ctx, WorkloadSet set,
              const HeatSink &sink)
{
    // Consecutive P-state feasibility edges in ambient space are
    // separated by dP * (R_int + R_ext); crossing one costs 200 MHz.
    const auto &table = ctx.pm->pstates();
    const auto &curve = freqCurveFor(set);
    const double p_span =
        curve.totalPowerAt90C.back() - curve.totalPowerAt90C.front();
    const double f_span =
        table.fastest().freqMhz - table.slowest().freqMhz;
    const double r_total =
        (ctx.pm->peakModel().rInt() + sink.rExt).value();
    return f_span / (p_span * r_total);
}

double
downstreamPenaltyMhz(const SchedContext &ctx, std::size_t socket,
                     Watts job_power)
{
    const double extra = job_power.value() - ctx.powerW[socket];
    if (extra <= 0.0)
        return 0.0;

    // The penalty is fully determined by `extra` plus the downstream
    // sockets' state, so (epoch stamp, extra) is a complete memo key:
    // the engine drops the entry whenever any downstream socket's
    // state changes (see PredictionCache).
    PredictionCache *cache = ctx.cache;
    if (cache != nullptr) {
        const PredictionCache::PenaltyEntry &e =
            cache->penalty[socket];
        if (e.stamp == cache->epoch && e.extra == extra) {
            if (cache->count.memoHits != nullptr)
                cache->count.memoHits->inc();
            return e.mhz;
        }
    }

    const auto &table = ctx.pm->pstates();
    const std::size_t boost_cap = table.size() - 1;
    const std::size_t sustained_cap = table.highestSustainedIndex();
    const double fastest_mhz = table.fastest().freqMhz;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    // Per-call tallies, added to the registry once on the way out.
    std::uint64_t fast_hits = 0;
    std::uint64_t walks = 0;
    std::uint64_t probes = 0;

    double penalty = 0.0;
    const std::size_t count = ctx.coupling->downstreamCount(socket);
    const std::size_t *ids = ctx.coupling->downstreamIds(socket);
    const double *coeffs = ctx.coupling->downstreamAmbCoeffs(socket);
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t d = ids[k];
        // Table lookup (Sec. IV-C): the placement's extra heat will
        // raise the downstream socket's ambient by coeff * dP once
        // the field settles.
        const double dt = coeffs[k] * extra;
        const double amb_new = ctx.ambientC[d] + dt;
        if (cache != nullptr && amb_new <= cache->fastFeasC[d]) {
            // Common case: the perturbed ambient stays inside the
            // known-feasible region of the snapshot's state, so the
            // walk would stop there; the charge reduces to the
            // precomputed linear slope. Idle sockets sit at
            // (+inf, 0), passing here with zero charge; only busy
            // sockets' finite snapshots count as fast-path hits.
            penalty += dt * cache->fastSlope[d];
            fast_hits += cache->fastFeasC[d] < kInf ? 1 : 0;
            continue;
        }
        if (ctx.busy[d] == 0)
            continue;
        const WorkloadSet set = ctx.runningSet[d];
        const std::size_t cap =
            ctx.boostCreditS[d] > 0.0 ? boost_cap : sustained_cap;
        double decision_mhz;
        if (cache != nullptr) {
            // Only the decision *frequency* is needed here, and
            // frequency is a pure function of the P-state, so the
            // capped descending search reduces to a walk down the
            // cached feasibility ladder: states known infeasible at
            // amb_new are skipped, a state known feasible is chosen,
            // and only probes inside a ladder gap evaluate the
            // thermal model (tightening the gap for every later
            // probe, in this epoch or any other). Without faults the
            // walk may start at the current state (see
            // PredictionCache).
            ++walks;
            cache->touchLadder(d, set);
            double *lo = cache->ladderLo(d);
            double *hi = cache->ladderHi(d);
            const std::size_t start =
                cache->walkFromCurrent ? std::min(cache->pstate[d], cap)
                                       : cap;
            std::size_t chosen = 0;
            for (std::size_t idx = start + 1; idx-- > 0;) {
                if (idx == 0) {
                    chosen = 0; // Slowest state is chosen regardless.
                    break;
                }
                if (amb_new >= hi[idx])
                    continue;
                if (amb_new <= lo[idx]) {
                    chosen = idx;
                    break;
                }
                ++probes;
                if (ctx.pm->feasibleAt(freqCurveFor(set), *ctx.leak,
                                       Celsius(amb_new),
                                       ctx.topo->sinkOf(d), idx)) {
                    lo[idx] = amb_new;
                    chosen = idx;
                    break;
                }
                hi[idx] = amb_new;
            }
            decision_mhz = cache->stateFreqMhz[chosen];
        } else {
            decision_mhz =
                ctx.pm
                    ->chooseAtAmbientCapped(freqCurveFor(set),
                                            *ctx.leak,
                                            Celsius(amb_new),
                                            ctx.topo->sinkOf(d), cap)
                    .freqMhz;
        }
        const double discrete =
            std::max(0.0, ctx.freqMhz[d] - decision_mhz);
        if (discrete > 0.0) {
            penalty += discrete;
        } else if (decision_mhz < fastest_mhz - 1e-9) {
            // No edge crossed right now != no damage: once the
            // downstream socket is off the boost plateau, charge the
            // time-averaged expectation so upstream heat always has
            // a price. Sockets still boosting after the added heat
            // have genuine headroom and cost nothing.
            if (cache != nullptr) {
                if (cache->feasMhzPerC[d] <= 0.0)
                    cache->feasMhzPerC[d] = mhzPerCelsius(
                        ctx, set, ctx.topo->sinkOf(d));
                penalty += dt * cache->feasMhzPerC[d];
            } else {
                penalty +=
                    dt * mhzPerCelsius(ctx, set, ctx.topo->sinkOf(d));
            }
        }
    }
    if (cache != nullptr) {
        cache->penalty[socket] =
            PredictionCache::PenaltyEntry{cache->epoch, extra, penalty};
        const PredictionCache::Counters &c = cache->count;
        if (c.fastHits != nullptr) {
            c.fastHits->inc(fast_hits);
            c.walks->inc(walks);
            c.ladderProbes->inc(probes);
        }
    }
    return penalty;
}

} // namespace densim
