/**
 * @file
 * Cross-HBM-channel out-of-order scheduling — CrHCS (Section 3).
 *
 * CrHCS starts from the PE-aware schedule and fills each channel's stalls
 * with non-zeros migrated from the next channel(s). Migrated elements are
 * tagged (pvt=0, PE_src) so the architecture can segregate their partial
 * sums into the destination PE's shared-channel URAM group and reduce
 * them later (Section 4.2). Migration respects the RAW distance in the
 * destination: two elements of the same row that accumulate in the same
 * physical URAM bank — same destination PE and same source-PE URAM —
 * must be at least rawDistance beats apart (Section 3.3).
 *
 * Implementation notes (where the paper under-specifies):
 *  - migration runs as one beat-synchronous sweep: all channels fill a
 *    beat position together, each pulling from its donor's *tail* only
 *    while the donor still reaches beyond that position. This shrinks
 *    sources naturally (Fig. 5's contiguous repacking), cascades refills
 *    in the same pass (Fig. 5c), and keeps the PEG loads balanced by
 *    construction (Fig. 5d's "minimal load imbalance") — crucial since
 *    an element migrates at most once (only pvt elements are donors; the
 *    wire format's single pvt bit names a single source);
 *  - the eligibility scan over skipped donors is bounded (kLookahead) to
 *    keep scheduling linear; in practice the head donor is almost always
 *    eligible, matching the paper's observation that CrHCS "never fails
 *    to find a RAW dependency-free value".
 */

#ifndef CHASON_SCHED_CRHCS_H_
#define CHASON_SCHED_CRHCS_H_

#include "sched/pe_aware.h"

namespace chason {
namespace sched {

/** The two schedules CrhcsScheduler::scheduleWithBaseline returns. */
struct SchedulePair
{
    Schedule crhcs;   ///< the CrHCS schedule
    Schedule peAware; ///< the PE-aware (Serpens) schedule it migrated
};

/**
 * How the migration pass traverses the channels.
 *
 * The paper describes migration channel by channel (Fig. 5). A faithful
 * sequential-greedy pass, however, lets the first destination absorb a
 * heavy neighbour's entire tail; since an element migrates only once,
 * that destination becomes an un-relievable bottleneck when *all*
 * channels carry serialized tails (e.g. mycielskian12). The
 * beat-synchronous traversal fixes this by advancing all channels
 * together, so load balances by construction. Both are kept: the
 * sequential variant is the ablation that motivates the default
 * (bench_ablation_strategy).
 */
enum class MigrationStrategy
{
    BeatSynchronous,  ///< default: all channels sweep positions together
    SequentialGreedy, ///< Fig. 5's channel-by-channel reading
};

/**
 * The paper's cross-channel scheduler. Honors the full Scheduler
 * contract: schedule() is pure, reentrant and thread-safe, and the
 * chosen MigrationStrategy is part of name() so cached CrHCS and
 * sequential-greedy schedules never alias in core::ScheduleCache.
 */
class CrhcsScheduler : public Scheduler
{
  public:
    /** Donors examined per stall before giving up on that slot. */
    static constexpr std::size_t kLookahead = 32;

    explicit CrhcsScheduler(const SchedConfig &config,
                            MigrationStrategy strategy =
                                MigrationStrategy::BeatSynchronous)
        : Scheduler(config), strategy_(strategy)
    {
    }

    std::string
    name() const override
    {
        return strategy_ == MigrationStrategy::BeatSynchronous
            ? "crhcs"
            : "crhcs-sequential";
    }

    MigrationStrategy strategy() const { return strategy_; }

    Schedule schedule(const sparse::CsrMatrix &matrix) const override;

    /**
     * The PE-aware scheduler this one migrates from: the same geometry
     * at migrationDepth 0 — exactly the Serpens baseline's scheduler
     * (core::Engine), so its name and config key the same cache entry.
     */
    PeAwareScheduler baseline() const;

    /**
     * Both schedules of the paper's comparison from one placement
     * (Section 3: CrHCS starts from the PE-aware schedule). The phase
     * work is built once and each phase placed once; placement writes
     * the phase into the PE-aware schedule as well, and the CrHCS copy
     * is then migrated in place. Each result is bit-identical to what schedule() and
     * baseline().schedule() return on their own, at every jobs value.
     */
    SchedulePair scheduleWithBaseline(const sparse::CsrMatrix &matrix) const;

    /**
     * Apply cross-channel migration in place to a PE-aware phase.
     * Exposed for unit tests and the scheduling explorer example.
     */
    static void migratePhase(WindowSchedule &phase,
                             const SchedConfig &config,
                             MigrationStrategy strategy =
                                 MigrationStrategy::BeatSynchronous);

  private:
    /**
     * Balanced (beat-synchronous) migration driven by the free-slot
     * masks placement emits, so the sweep walks holes directly instead
     * of revisiting every beat. @p masks must describe @p phase exactly
     * (one byte per beat, bit p set iff PE p's slot is a stall) and is
     * kept in sync as slots fill; the phase must carry no trailing
     * stall beats. @p donorMasks mirrors the layout with bit p set iff
     * the slot holds a donor (valid private element); with @p fresh
     * true the phase is a fresh placement — @p donorMasks may then be
     * empty (it is derived as the complement of @p masks) and the
     * final trim is O(1) instead of walking donated tails. With
     * @p jobs > 1 the per-channel donor-pool setup is sharded over the
     * scheduling pool; the schedule bytes are bit-identical for every
     * jobs value.
     */
    static void migrateWithMasks(WindowSchedule &phase,
                                 const SchedConfig &config,
                                 FreeSlotMasks &masks,
                                 FreeSlotMasks &donorMasks, bool fresh,
                                 unsigned jobs);

    /** schedule() and scheduleWithBaseline(): place and migrate every
     *  phase; with @p placed non-null, placement also writes each phase
     *  into it before migration. */
    Schedule build(const sparse::CsrMatrix &matrix,
                   std::vector<WindowSchedule> *placed) const;

    MigrationStrategy strategy_;
};

} // namespace sched
} // namespace chason

#endif // CHASON_SCHED_CRHCS_H_
