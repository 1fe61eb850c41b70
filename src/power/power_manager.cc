#include "power/power_manager.hh"

#include "util/logging.hh"

namespace densim {

PowerManager::PowerManager(const PStateTable &pstate_table,
                           SimplePeakModel peak_model, Celsius t_limit,
                           double gated_frac_tdp)
    : table_(pstate_table), peak_(peak_model),
      tLimitC_(t_limit.value()), gatedFracTdp_(gated_frac_tdp)
{
    if (tLimitC_ <= 0.0)
        fatal("PowerManager: temperature limit must be positive, got ",
              tLimitC_);
    if (gatedFracTdp_ < 0.0 || gatedFracTdp_ > 1.0)
        fatal("PowerManager: gated power fraction ", gatedFracTdp_,
              " outside [0, 1]");
}

void
PowerManager::attachObs(obs::Registry &registry)
{
    searches_ = &registry.counter("power.dvfsSearches");
}

void
PowerManager::checkCurve(const FreqCurve &curve) const
{
    if (curve.totalPowerAt90C.size() != table_.size() ||
        curve.perfRel.size() != table_.size()) {
        panic("FreqCurve has ", curve.totalPowerAt90C.size(), "/",
              curve.perfRel.size(), " entries for ", table_.size(),
              " P-states");
    }
}

Watts
PowerManager::dynamicPower(const FreqCurve &curve,
                           const LeakageModel &leak, std::size_t i) const
{
    checkCurve(curve);
    if (i >= table_.size())
        panic("P-state index ", i, " out of range");
    const double dyn = curve.totalPowerAt90C[i] -
                       leak.at(leak.refTemperature()).value();
    if (dyn < 0.0)
        fatal("FreqCurve power at state ", i, " (",
              curve.totalPowerAt90C[i],
              " W) is below reference leakage (",
              leak.at(leak.refTemperature()).value(), " W)");
    return Watts(dyn);
}

PowerManager::StateEval
PowerManager::evalState(const FreqCurve &curve, const LeakageModel &leak,
                        Celsius ambient, const HeatSink &sink,
                        std::size_t idx) const
{
    const double p90 = curve.totalPowerAt90C[idx];
    const double t1 = peak_.peak(ambient, Watts(p90), sink).value();
    const double p2 = dynamicPower(curve, leak, idx).value() +
                      leak.at(Celsius(t1)).value();
    return {p2, peak_.peak(ambient, Watts(p2), sink).value()};
}

DvfsDecision
PowerManager::searchDown(const FreqCurve &curve, const LeakageModel &leak,
                         Celsius ambient, const HeatSink &sink,
                         std::size_t first, double *lo,
                         double *hi) const
{
    checkCurve(curve);
    countSearch();
    if (first >= table_.size())
        panic("PowerManager: max P-state ", first, " out of range");
    const double amb_c = ambient.value();
    for (std::size_t idx = first + 1; idx-- > 0;) {
        if (hi != nullptr && idx > 0 && amb_c >= hi[idx])
            continue; // Known infeasible at a cooler-or-equal probe.
        const StateEval e = evalState(curve, leak, ambient, sink, idx);
        const bool ok = e.peak <= tLimitC_;
        if (lo != nullptr) {
            if (ok) {
                if (amb_c > lo[idx])
                    lo[idx] = amb_c;
            } else if (amb_c < hi[idx]) {
                hi[idx] = amb_c;
            }
        }
        if (ok || idx == 0)
            return {idx, table_.at(idx).freqMhz, Watts(e.power),
                    Celsius(e.peak), ok};
    }
    panic("unreachable: P-state loop fell through");
}

DvfsDecision
PowerManager::chooseAtAmbient(const FreqCurve &curve,
                              const LeakageModel &leak, Celsius ambient,
                              const HeatSink &sink) const
{
    return chooseAtAmbientCapped(curve, leak, ambient, sink,
                                 table_.size() - 1);
}

DvfsDecision
PowerManager::chooseAtAmbientCapped(const FreqCurve &curve,
                                    const LeakageModel &leak,
                                    Celsius ambient,
                                    const HeatSink &sink,
                                    std::size_t max_pstate) const
{
    return searchDown(curve, leak, ambient, sink, max_pstate, nullptr,
                      nullptr);
}

bool
PowerManager::feasibleAt(const FreqCurve &curve,
                         const LeakageModel &leak, Celsius ambient,
                         const HeatSink &sink, std::size_t pstate) const
{
    return evalState(curve, leak, ambient, sink, pstate).peak <=
           tLimitC_;
}

DvfsDecision
PowerManager::chooseAtAmbientBounded(const FreqCurve &curve,
                                     const LeakageModel &leak,
                                     Celsius ambient,
                                     const HeatSink &sink,
                                     std::size_t max_pstate,
                                     double *max_feas_c,
                                     double *min_infeas_c) const
{
    return searchDown(curve, leak, ambient, sink, max_pstate,
                      max_feas_c, min_infeas_c);
}

Watts
PowerManager::gatedPower(const LeakageModel &leak) const
{
    return Watts(gatedFracTdp_ * leak.tdp().value());
}

} // namespace densim
