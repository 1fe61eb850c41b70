#include "obs/phase_profiler.hh"

#include "util/logging.hh"

namespace densim::obs {

const char *
phaseName(Phase phase)
{
    switch (phase) {
    case Phase::ThermalStep:
        return "thermalStep";
    case Phase::PowerManage:
        return "powerManage";
    case Phase::ProcessWindow:
        return "processWindow";
    case Phase::Migration:
        return "migrations";
    case Phase::Count:
        break;
    }
    return "unknown";
}

void
PhaseProfiler::reset()
{
    totals_.fill(Totals{});
    depth_ = 0;
}

void
PhaseProfiler::begin(Phase phase)
{
    static_cast<void>(phase);
    if (depth_ >= kMaxDepth)
        panic("obs: phase scopes nested deeper than ", kMaxDepth);
    starts_[depth_] = Clock::now();
    ++depth_;
}

void
PhaseProfiler::end(Phase phase)
{
    if (depth_ <= 0)
        panic("obs: phase scope end without a matching begin");
    --depth_;
    const Clock::time_point start = starts_[depth_];
    const Clock::time_point stop = Clock::now();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop -
                                                             start)
            .count());
    Totals &t = totals_[static_cast<std::size_t>(phase)];
    ++t.calls;
    t.ns += ns;
    if (sink_ != nullptr && sink_->enabled()) {
        sink_->addComplete(phaseName(phase), "engine", *simNowS_ * 1e6,
                           0.0, static_cast<int>(phase));
    }
}

} // namespace densim::obs
