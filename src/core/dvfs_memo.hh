/**
 * @file
 * Per-socket DVFS decision memo — the engine's cache around
 * PowerManager::chooseAtAmbientCapped.
 *
 * A socket whose (workload set, boost cap, ambient temperature)
 * inputs have not changed since its last power-management epoch gets
 * the previous decision back without re-running the P-state search.
 * A hit requires a bitwise-equal ambient, so the memo is exact.
 *
 * The memo is keyed implicitly on the P-state table the decisions
 * were made against: reset()/noteTable() record an identity stamp,
 * and a changed stamp drops every entry — a decision made for one
 * table must never be replayed against another.
 */

#ifndef DENSIM_CORE_DVFS_MEMO_HH
#define DENSIM_CORE_DVFS_MEMO_HH

#include <cstddef>
#include <vector>

#include "power/power_manager.hh"
#include "util/logging.hh"
#include "workload/benchmark.hh"

namespace densim {

/** Memo table of the last DVFS decision per socket. */
class DvfsMemoTable
{
  public:
    DvfsMemoTable() = default;

    /** Drop everything and size for @p sockets decisions made against
     *  the P-state table identified by @p table_stamp. */
    void reset(std::size_t sockets, const void *table_stamp)
    {
        entries_.assign(sockets, Entry{});
        stamp_ = table_stamp;
    }

    /** Number of socket slots. */
    std::size_t size() const { return entries_.size(); }

    /** Invalidate every memoized decision. */
    void invalidateAll()
    {
        for (Entry &e : entries_)
            e.valid = false;
    }

    /**
     * Declare which P-state table upcoming decisions are made
     * against; if it differs from the stamped one, every entry is
     * invalidated.
     */
    void noteTable(const void *table_stamp)
    {
        if (table_stamp != stamp_) {
            stamp_ = table_stamp;
            invalidateAll();
        }
    }

    /**
     * The memoized decision for @p socket if it was made for the same
     * workload set and boost cap at a bitwise-equal ambient; nullptr
     * on a miss.
     */
    const DvfsDecision *lookup(std::size_t socket, WorkloadSet set,
                               std::size_t cap, Celsius ambient) const
    {
        if (socket >= entries_.size())
            panic("DvfsMemoTable: socket ", socket, " out of range (",
                  entries_.size(), ")");
        const Entry &e = entries_[socket];
        if (!e.valid || e.set != set || e.cap != cap ||
            ambient.value() != e.ambientC)
            return nullptr;
        return &e.d;
    }

    /** Record the decision @p d made for the given inputs. */
    void store(std::size_t socket, WorkloadSet set, std::size_t cap,
               Celsius ambient, const DvfsDecision &d)
    {
        if (socket >= entries_.size())
            panic("DvfsMemoTable: socket ", socket, " out of range (",
                  entries_.size(), ")");
        Entry &e = entries_[socket];
        e.valid = true;
        e.set = set;
        e.cap = cap;
        e.ambientC = ambient.value();
        e.d = d;
    }

  private:
    // Checkpoints serialize the entries verbatim (counter-stream
    // determinism: a restored run must hit/miss exactly like the
    // uninterrupted one) and re-stamp via reset()/noteTable() — the
    // raw stamp_ pointer is meaningless across processes.
    friend class CkptAccess;

    struct Entry
    {
        bool valid = false;
        WorkloadSet set = WorkloadSet::Computation;
        std::size_t cap = 0;
        double ambientC = 0.0;
        DvfsDecision d{};
    };

    std::vector<Entry> entries_;
    const void *stamp_ = nullptr;
};

} // namespace densim

#endif // DENSIM_CORE_DVFS_MEMO_HH
