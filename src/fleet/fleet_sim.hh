/**
 * @file
 * Fleet-scale sharded simulation (DESIGN.md Sec. 15).
 *
 * FleetSim owns N chassis shards — each a full DenseServerSim with
 * its own config, fault timeline and RNG streams — and advances them
 * in lockstep exchange windows on a persistent util/parallel.hh
 * WorkerPool:
 *
 *   window k:  gather summaries (serial, shard-id order)
 *           -> take window k's cluster arrivals (the batch drawn
 *              ahead during window k-1, or a fresh draw) and
 *              dispatch them (serial)
 *           -> parallel beat: the calling thread first draws window
 *              k+1's arrivals from a copy of the arrival stream, then
 *              claims shards (heaviest first) like every worker; each
 *              shard task submits its own batch and advances through
 *              the window's pm epochs, touching only its own shard
 *
 * The look-ahead is exact: the cluster stream depends only on the
 * fleet RNG and the window horizons, never on shard state.
 *
 * Determinism: everything order-sensitive — summary gathering,
 * dispatching, metric roll-up, registry merging — runs serially in
 * shard-id order at the barrier; the parallel beat is embarrass-
 * ingly parallel over disjoint shard state. FleetMetrics is
 * therefore bit-identical for any worker-thread count (pinned by
 * tests/fleet_test.cc).
 *
 * RNG domain separation: every fleet stream seed is
 * domainSeed(fleetSeed, shard, tag) with the tags below, so a
 * shard's streams can never collide with another shard's — or with
 * any engine-internal stream, which are derived from the (already
 * avalanched) per-shard seed.
 */

#ifndef DENSIM_FLEET_FLEET_SIM_HH
#define DENSIM_FLEET_FLEET_SIM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dense_server_sim.hh"
#include "core/metrics_io.hh"
#include "core/sim_config.hh"
#include "fleet/fleet_dispatcher.hh"
#include "fleet/fleet_metrics.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"

namespace densim {

class WorkerPool;

/** Stream tags for domainSeed() under the fleet seed domain. */
namespace fleet_stream {
/** Per-shard engine seed (shard coordinate = shard id). */
constexpr std::uint64_t kShardEngine = 0x5eed0f5aadULL;
/** Cluster arrival stream (shard coordinate fixed at 0). */
constexpr std::uint64_t kArrivals = 0xa44174a15ULL;
} // namespace fleet_stream

/**
 * Wall-clock totals of the fleet's window phases. They only observe
 * the run: they live outside the checkpointed registry and never
 * feed back into the model, so reading them changes no result.
 */
struct FleetPhaseTotals
{
    using Totals = obs::PhaseProfiler::Totals;

    Totals barrier;     //!< Serial gather + dispatch, every window.
    Totals lookahead;   //!< Caller's draw of the next window's arrivals.
    Totals parallel;    //!< Parallel beat, wall time.
    Totals barrierWait; //!< Beat wall time minus mean worker busy time.

    /** The phases as rows, in display order. */
    std::array<PhaseRow, 4> rows() const
    {
        return {{{"barrier", barrier},
                 {"lookahead", lookahead},
                 {"parallel", parallel},
                 {"barrierWait", barrierWait}}};
    }
};

/** A fleet of chassis shards driven in lockstep exchange windows. */
class FleetSim
{
  public:
    /**
     * Build a fleet from @p config (which must have
     * config.fleet.enabled()): one DenseServerSim per chassis, each
     * under its own instance of the scheduling policy named
     * @p scheduler, plus the configured dispatcher.
     */
    FleetSim(const SimConfig &config, const std::string &scheduler);

    ~FleetSim();
    FleetSim(const FleetSim &) = delete;
    FleetSim &operator=(const FleetSim &) = delete;

    /**
     * Run the fleet to completion on up to @p threads workers
     * (0 = hardware concurrency). The result is bit-identical for
     * every value of @p threads. Implemented as
     * beginRun() + advanceWindow() to exhaustion + finishRun(), in
     * the exact operation order of the historical monolithic loop.
     */
    FleetMetrics run(unsigned threads = 1);

    // --- streaming (window-stepped) interface -------------------------
    // Mirrors the engine's beginRun/advanceEpoch/finishRun: each
    // advanceWindow() is one exchange window (barrier -> dispatch ->
    // parallel shard epochs). Between calls every shard sits at an
    // epoch boundary and all cross-shard state is serial — exactly
    // the point where a checkpoint captures the whole fleet.

    /** Reset fleet state and open every shard's streamed run. */
    void beginRun();

    /**
     * Run one exchange window on up to @p threads workers. Returns
     * false — without advancing anything — once no shard has pending
     * work, at which point finishRun() collects the metrics. The
     * worker pool is built by the first window and rebuilt only when
     * @p threads changes.
     */
    bool advanceWindow(unsigned threads = 1);

    /** Finalize all shards and roll up FleetMetrics. */
    FleetMetrics finishRun();

    /** Exchange windows completed so far in the open run. */
    std::size_t windowsRun() const { return window_; }

    /** Shards in the fleet. */
    std::size_t chassis() const { return shards_.size(); }

    /** The base configuration every shard was derived from. */
    const SimConfig &config() const { return base_; }

    /** Sockets across the whole fleet. */
    std::size_t totalSockets() const;

    /** The dispatcher routing cluster arrivals. */
    const FleetDispatcher &dispatcher() const { return *dispatcher_; }

    /**
     * Fleet-level counters plus every shard's registry merged under
     * "shard<N>/" after run() — one namespace per chassis, no shared
     * instrument storage during the run.
     */
    const obs::Registry &observability() const { return registry_; }

    /** Wall-clock totals of the window phases since beginRun() (a
     *  restored fleet: since construction). */
    const FleetPhaseTotals &phaseTotals() const { return phases_; }

  private:
    /**
     * Checkpoint serializer (src/ckpt): captures the window cursor,
     * arrival-stream position, dispatcher cursor, partial metrics
     * and every shard's engine state at the window barrier.
     */
    friend class CkptAccess;

    std::vector<ShardSummary> gatherSummaries() const;

    /** Route @p jobs into batches_ and tally the dispatch. */
    void dispatchWindow(const std::vector<Job> &jobs,
                        const std::vector<ShardSummary> &summaries);

    /** Hand shard @p s its batch, if it has one. */
    void submitBatch(std::size_t s);

    /** submitBatch() for every shard, in shard-id order. */
    void submitBatches();

    /** Forget the look-ahead batch; the next window draws afresh. */
    void dropLookahead() { lookaheadReady_ = false; }

    SimConfig base_;
    std::uint64_t fleetSeed_ = 0;
    std::vector<std::unique_ptr<DenseServerSim>> shards_;
    std::unique_ptr<FleetDispatcher> dispatcher_;
    obs::Registry registry_;

    // --- streaming-run state (beginRun .. finishRun) ------------------
    std::unique_ptr<JobGenerator> arrivals_; //!< Cluster Poisson stream.
    FleetMetrics metrics_;        //!< Dispatch counts accumulate here.
    std::vector<std::vector<Job>> batches_; //!< Per-shard scratch.
    obs::Counter *windowsCtr_ = nullptr;
    obs::Counter *dispatchedCtr_ = nullptr;
    std::size_t window_ = 0;      //!< Next exchange window to run.
    bool arrivalsOpen_ = true;    //!< Cluster stream still fanning out.
    bool fleetOpen_ = false;      //!< beginRun .. finishRun.

    // --- look-ahead: never checkpointed ---------------------------------
    // arrivals_ stays the barrier cursor a checkpoint saves; the next
    // window is drawn from a copy, which replaces arrivals_ when that
    // window's barrier takes the batch.
    std::unique_ptr<JobGenerator> lookaheadGen_;
    std::vector<Job> lookaheadJobs_;
    bool lookaheadReady_ = false;

    // --- workers and wall-clock observation ---------------------------
    std::vector<std::uint64_t> busyNs_; //!< Per worker, this beat.
    FleetPhaseTotals phases_;
    unsigned poolThreads_ = 0;          //!< Request pool_ was built for.
    std::unique_ptr<WorkerPool> pool_;  //!< Built by the first window.
};

} // namespace densim

#endif // DENSIM_FLEET_FLEET_SIM_HH
