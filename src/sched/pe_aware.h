/**
 * @file
 * PE-aware OoO non-zero scheduling — the Serpens/Sextans/LevelST scheme
 * (Section 2.2, Fig. 2b).
 *
 * Rows mapped to a lane are interleaved round-robin so that consecutive
 * elements of the same row are at least rawDistance beats apart. When no
 * row is eligible at a beat, an explicit zero (stall) is emitted to keep
 * the HLS pipeline at II=1. The scheme never looks outside a lane's own
 * rows — the intra-channel restriction CrHCS lifts.
 */

#ifndef CHASON_SCHED_PE_AWARE_H_
#define CHASON_SCHED_PE_AWARE_H_

#include "sched/scheduler.h"

namespace chason {
namespace sched {

/**
 * Serpens' intra-channel out-of-order scheduler. Honors the full
 * Scheduler contract: schedule() is pure, reentrant and thread-safe.
 */
class PeAwareScheduler : public Scheduler
{
  public:
    explicit PeAwareScheduler(const SchedConfig &config)
        : Scheduler(config)
    {
    }

    std::string name() const override { return "pe-aware"; }

    Schedule schedule(const sparse::CsrMatrix &matrix) const override;

    /**
     * Schedule one phase's lanes into per-channel beat lists. Shared
     * with CrhcsScheduler, which post-processes this result.
     *
     * When @p freeMasks is non-null it is filled with the phase's
     * per-channel free-slot bitmaps — one byte per beat, bit p set iff
     * PE p's slot is a stall. CrhcsScheduler's migration pass consumes
     * the masks so it never rescans placed beats. When @p copy is
     * non-null it receives a second, identical copy of the phase,
     * written from the same cache-resident blocks — the PE-aware
     * schedule CrhcsScheduler::scheduleWithBaseline keeps beside the
     * one it migrates. Channels are independent, so with @p jobs > 1
     * they are placed on the process-wide pool (core::fanOut); the
     * result is bit-identical for every jobs value.
     */
    static WindowSchedule schedulePhase(const PhaseWork &work,
                                        const SchedConfig &config,
                                        FreeSlotMasks *freeMasks = nullptr,
                                        WindowSchedule *copy = nullptr,
                                        unsigned jobs = 1);
};

} // namespace sched
} // namespace chason

#endif // CHASON_SCHED_PE_AWARE_H_
