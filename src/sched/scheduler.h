/**
 * @file
 * Abstract scheduler interface.
 *
 * A scheduler turns a CSR matrix into the per-channel beat lists the
 * streaming accelerators consume. Three implementations mirror the
 * paper's Section 2.2 / 3:
 *
 *  - RowBasedScheduler   (Fig. 2a): in-order, one row at a time;
 *  - PeAwareScheduler    (Fig. 2b): Serpens' intra-channel OoO scheme;
 *  - CrhcsScheduler      (Fig. 2c): the paper's cross-channel scheme.
 */

#ifndef CHASON_SCHED_SCHEDULER_H_
#define CHASON_SCHED_SCHEDULER_H_

#include <string>

#include "sched/config.h"
#include "sched/schedule.h"
#include "sparse/formats.h"

namespace chason {
namespace sched {

/**
 * Base class for the offline non-zero schedulers.
 *
 * Contract for every implementation:
 *  - schedule() is a *pure function* of (config, matrix): it touches no
 *    global or mutable member state, draws no randomness, and returns a
 *    bit-identical Schedule on every call — the property the schedule
 *    cache's content-addressed keying and the batch engine's
 *    determinism guarantee are built on;
 *  - schedule() is const, reentrant and thread-safe: one scheduler
 *    instance may serve any number of threads concurrently
 *    (core::BatchEngine workers do exactly this);
 *  - the result places every matrix non-zero exactly once, carries
 *    correct lane tags, and respects the RAW distance on every
 *    physical URAM bank (sched::validateSchedule enforces this).
 */
class Scheduler
{
  public:
    explicit Scheduler(const SchedConfig &config) : config_(config)
    {
        config_.validate();
    }

    virtual ~Scheduler() = default;

    /** Algorithm name for reports (also part of the cache key). */
    virtual std::string name() const = 0;

    /** Produce a schedule for @p matrix (pure; see class contract). */
    virtual Schedule schedule(const sparse::CsrMatrix &matrix) const = 0;

    const SchedConfig &config() const { return config_; }

    /**
     * Worker count for scheduling the independent (pass, window) phases
     * in parallel (the PE-aware and CrHCS schedulers; the row-based one
     * runs inline). 0 (the default) resolves to the CHASON_SCHED_JOBS
     * environment variable, then CHASON_JOBS (the bench harness's
     * worker knob), falling back to the hardware thread count;
     * 1 forces the sequential path. Deliberately NOT part of SchedConfig
     * or name(): the parallel path is bit-identical to the sequential
     * one, so the jobs knob must not fragment core::ScheduleCache keys.
     */
    void setJobs(unsigned jobs) { jobs_ = jobs; }
    unsigned jobs() const { return jobs_; }

  protected:
    SchedConfig config_;
    unsigned jobs_ = 0; ///< 0 = auto (CHASON_SCHED_JOBS, CHASON_JOBS, hw)

    /** jobs() resolved as documented there; at least 1. */
    unsigned resolvedJobs() const;

    /** Shared epilogue: set metadata and align every phase. */
    Schedule
    finalize(const sparse::CsrMatrix &matrix, std::string name,
             std::vector<WindowSchedule> phases) const;
};

} // namespace sched
} // namespace chason

#endif // CHASON_SCHED_SCHEDULER_H_
