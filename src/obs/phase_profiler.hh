/**
 * @file
 * Phase timers — wall-clock profiling of the engine's per-epoch
 * phases (thermalStep, powerManage, processWindow, migrations).
 *
 * An RAII PhaseScope reads std::chrono::steady_clock on entry and
 * exit and accumulates inclusive call count + nanoseconds per phase
 * in its PhaseProfiler. Scopes nest (a stack tracks the current
 * depth). The engine opens one scope per phase call in every build;
 * results are bit-identical with or without a reader because
 * wall-clock time never feeds back into the model (DESIGN.md
 * Sec. 10).
 *
 * When a TraceSink is attached every scope also emits a Chrome "X"
 * complete event, stamped on the *simulated* clock with zero
 * duration and one row per phase. Wall time stays out of the trace,
 * so a traced run writes the same bytes every time (a run restored
 * from a checkpoint reproduces the uninterrupted run's file); the
 * wall-clock totals are read from totals() instead.
 */

#ifndef DENSIM_OBS_PHASE_PROFILER_HH
#define DENSIM_OBS_PHASE_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>

#include "core/effects.hh"
#include "obs/trace.hh"

namespace densim::obs {

/** The engine phases worth a timer of their own. */
enum class Phase : unsigned {
    ThermalStep,
    PowerManage,
    ProcessWindow,
    Migration,
    Count //!< Sentinel, not a phase.
};

/** Stable display name ("thermalStep", ...). */
const char *phaseName(Phase phase);

/** Inclusive per-phase wall-clock accumulator with nesting support. */
class PhaseProfiler
{
  public:
    struct Totals
    {
        std::uint64_t calls = 0;
        std::uint64_t ns = 0; //!< Inclusive wall time.
    };

    /**
     * Forward every scope to @p sink as a complete event stamped
     * with the simulated time *@p sim_now_s (seconds; the event
     * timestamp is in microseconds). A null @p sink detaches.
     */
    void setSink(TraceSink *sink, const double *sim_now_s)
    {
        sink_ = sink;
        simNowS_ = sim_now_s;
    }

    /** Zero the totals. */
    void reset();

    Totals totals(Phase phase) const
    {
        return totals_[static_cast<std::size_t>(phase)];
    }

    /** Current scope nesting depth (0 outside any scope). */
    int depth() const { return depth_; }

    /** @name PhaseScope internals */
    ///@{
    void begin(Phase phase);
    /** Cold observability endpoint: timers and the trace sink only
     *  ever observe the simulation, never feed back (DESIGN.md
     *  Sec. 10). */
    DENSIM_COLD void end(Phase phase);
    ///@}

  private:
    using Clock = std::chrono::steady_clock;

    static constexpr int kMaxDepth = 16;

    std::array<Totals, static_cast<std::size_t>(Phase::Count)>
        totals_{};
    std::array<Clock::time_point, kMaxDepth> starts_{};
    int depth_ = 0;
    TraceSink *sink_ = nullptr;
    const double *simNowS_ = nullptr;
};

/** RAII scope timing one phase. */
class PhaseScope
{
  public:
    PhaseScope(PhaseProfiler &profiler, Phase phase)
        : profiler_(profiler), phase_(phase)
    {
        profiler_.begin(phase_);
    }
    ~PhaseScope() { profiler_.end(phase_); }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    PhaseProfiler &profiler_;
    Phase phase_;
};

} // namespace densim::obs

#endif // DENSIM_OBS_PHASE_PROFILER_HH
