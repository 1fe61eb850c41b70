#include "sched/coupling_predictor.hh"

#include <limits>

#include "sched/prediction.hh"
#include "util/arena.hh"
#include "util/logging.hh"

namespace densim {

CouplingPredictor::CouplingPredictor(double downstream_weight,
                                     bool global_search)
    : downstreamWeight_(downstream_weight), globalSearch_(global_search)
{
    if (downstreamWeight_ < 0.0)
        fatal("CouplingPredictor: downstream weight must be "
              "non-negative, got ",
              downstreamWeight_);
}

std::size_t
CouplingPredictor::pickWithin(const Job &job, const SchedContext &ctx,
                              const std::size_t *candidates,
                              std::size_t count)
{
    double best_score = -std::numeric_limits<double>::infinity();
    double best_peak = std::numeric_limits<double>::infinity();
    std::size_t best = candidates[0];
    std::size_t n_best = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t s = candidates[k];
        const DvfsDecision d = predictPlacement(ctx, s, job.set);
        const double penalty =
            downstreamWeight_ == 0.0
                ? 0.0
                : downstreamWeight_ *
                      downstreamPenaltyMhz(ctx, s, d.power);
        const double score = d.freqMhz - penalty;
        // Primary: net frequency benefit. Secondary: most thermal
        // headroom (the placement keeps its frequency longest).
        // Remaining ties: uniform random.
        const double peak_c = d.predictedPeak.value();
        if (score > best_score + 1e-9 ||
            (score > best_score - 1e-9 &&
             peak_c < best_peak - 1e-9)) {
            best_score = score;
            best_peak = peak_c;
            best = s;
            n_best = 1;
        } else if (score > best_score - 1e-9 &&
                   peak_c < best_peak + 1e-9) {
            ++n_best;
            if (ctx.rng->nextBounded(n_best) == 0)
                best = s;
        }
    }
    return best;
}

std::size_t
CouplingPredictor::pick(const Job &job, const SchedContext &ctx)
{
    if (globalSearch_)
        return pickWithin(job, ctx, ctx.idle->data(),
                          ctx.idle->size());

    // Paper mechanics: choose a row with idle sockets at random, then
    // evaluate only that row's idle sockets. Idle ids ascend, so each
    // row's sockets are one contiguous span of the idle list: one
    // pass records the span boundaries and the chosen row's
    // candidates are a pointer range into the idle array itself — no
    // copy. The boundary scratch lives in the per-epoch arena (zero
    // heap in steady state).
    const auto &idle = *ctx.idle;
    Arena &arena = *ctx.scratch;
    const Arena::Marker marker = arena.mark();
    std::size_t *starts = arena.alloc<std::size_t>(idle.size() + 1);

    std::size_t n_rows = 0;
    int last_row = -1;
    for (std::size_t k = 0; k < idle.size(); ++k) {
        const int row = ctx.socketRow[idle[k]];
        if (row != last_row) {
            starts[n_rows++] = k;
            last_row = row;
        }
    }
    starts[n_rows] = idle.size();
    const std::size_t pick_at = ctx.rng->nextBounded(n_rows);
    const std::size_t best =
        pickWithin(job, ctx, idle.data() + starts[pick_at],
                   starts[pick_at + 1] - starts[pick_at]);
    arena.release(marker);
    return best;
}

} // namespace densim
