#include "sched/coupling_predictor.hh"

#include <limits>

#include "sched/prediction.hh"
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
    // pass counts the rows, a second scans to the chosen row's span,
    // and the candidates are a pointer range into the idle array
    // itself — no copy, no scratch.
    const auto &idle = *ctx.idle;
    const int *row_of = ctx.socketRow;
    std::size_t n_rows = 1;
    for (std::size_t k = 1; k < idle.size(); ++k)
        n_rows += row_of[idle[k]] != row_of[idle[k - 1]];
    std::size_t row_left = ctx.rng->nextBounded(n_rows);
    std::size_t begin = 0;
    while (row_left > 0) {
        ++begin;
        row_left -= row_of[idle[begin]] != row_of[idle[begin - 1]];
    }
    std::size_t end = begin + 1;
    while (end < idle.size() && row_of[idle[end]] == row_of[idle[begin]])
        ++end;
    return pickWithin(job, ctx, idle.data() + begin, end - begin);
}

} // namespace densim
