/**
 * @file
 * Shared scheduler epilogue.
 */

#include "sched/scheduler.h"

#include "common/env.h"
#include "core/thread_pool.h"

namespace chason {
namespace sched {

unsigned
Scheduler::resolvedJobs() const
{
    // The scheduler-specific CHASON_SCHED_JOBS wins over CHASON_JOBS.
    return core::resolveJobs(
        jobs_ != 0
            ? jobs_
            : static_cast<unsigned>(common::envUint("CHASON_SCHED_JOBS", 0)));
}

Schedule
Scheduler::finalize(const sparse::CsrMatrix &matrix, std::string name,
                    std::vector<WindowSchedule> phases) const
{
    Schedule schedule;
    schedule.config = config_;
    schedule.scheduler = std::move(name);
    schedule.rows = matrix.rows();
    schedule.cols = matrix.cols();
    schedule.nnz = matrix.nnz();
    schedule.phases = std::move(phases);
    for (WindowSchedule &phase : schedule.phases)
        phase.realign();
    return schedule;
}

} // namespace sched
} // namespace chason
