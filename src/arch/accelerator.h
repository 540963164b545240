/**
 * @file
 * Accelerator base: configuration, run results, and the shared streaming
 * simulation both Serpens and Chasoň build on.
 */

#ifndef CHASON_ARCH_ACCELERATOR_H_
#define CHASON_ARCH_ACCELERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "arch/peg.h"
#include "arch/timing.h"
#include "hbm/hbm.h"
#include "sched/config.h"
#include "sched/schedule.h"

namespace chason {
namespace arch {

class StreamPlan; // arch/stream_soa.h

/** Full architecture configuration. */
struct ArchConfig
{
    sched::SchedConfig sched;
    hbm::HbmConfig hbm = hbm::HbmConfig::alveoU55c();
    TimingConfig timing;

    /**
     * Physical URAMs per ScUG (Section 4.5). 8 keeps one URAM per
     * logical bank; the shipped design folds to 4 (two banks per URAM),
     * halving the rows a pass can cover but not the performance.
     */
    unsigned scugSize = 4;

    /** Dense-vector x channel (one beyond the matrix channels). */
    unsigned xChannel() const { return sched.channels; }

    /** Result y channel. */
    unsigned yChannel() const { return sched.channels + 1; }

    /** Instruction/descriptor channel. */
    unsigned instChannel() const { return sched.channels + 2; }

    /** Channels in use (19 in the paper's configuration). */
    unsigned usedChannels() const { return sched.channels + 3; }

    /** Rows one pass may cover given the physical URAM capacity. */
    std::uint32_t capacityRowsPerLane() const;

    /** Validate and panic on inconsistencies. */
    void validate() const;
};

/**
 * Kernel-call parameters: the full contract is y = alpha * A x +
 * beta * y_in (the Serpens kernel family's interface; Eq. 8 uses the
 * same scalars for SpMM). The default (alpha 1, beta 0) is plain SpMV.
 */
struct SpmvParams
{
    float alpha = 1.0f;
    float beta = 0.0f;

    /** Previous y; required when beta != 0, ignored otherwise. */
    const std::vector<float> *yIn = nullptr;
};

/** Outcome of simulating one SpMV invocation. */
struct RunResult
{
    /** The computed result vector (length = matrix rows). */
    std::vector<float> y;

    /** Cycle breakdown at the accelerator's clock. */
    CycleBreakdown cycles;

    /** Per-channel transfer accounting. */
    hbm::HbmDevice traffic;

    /** Latency in microseconds at the configured clock. */
    double latencyUs = 0.0;

    /** Memory stall factor that was applied. */
    double memStallFactor = 1.0;

    RunResult() : traffic(hbm::HbmConfig::alveoU55c()) {}
};

/** Abstract streaming SpMV accelerator. */
class Accelerator
{
  public:
    explicit Accelerator(const ArchConfig &config);
    virtual ~Accelerator() = default;

    virtual std::string name() const = 0;

    /** Kernel clock this architecture closes timing at. */
    virtual double frequencyMhz() const = 0;

    /** Execute a schedule against the dense vector @p x. */
    RunResult
    run(const sched::Schedule &schedule, const std::vector<float> &x,
        const SpmvParams &params = {}) const
    {
        return execute(schedule, x, params, nullptr);
    }

    /**
     * Execute @p schedule by replaying @p plan, a StreamPlan built from
     * this exact schedule with migrationDepth() (arch/stream_soa.h).
     * Bit-identical to run() without a plan — y, cycles, traffic — but
     * skips the per-run beat-list traversal, the dominant host cost
     * when one schedule is simulated repeatedly. Every model check the
     * unplanned path makes per slot was made when the plan was built.
     */
    RunResult
    run(const sched::Schedule &schedule, const StreamPlan &plan,
        const std::vector<float> &x, const SpmvParams &params = {}) const
    {
        return execute(schedule, x, params, &plan);
    }

    /**
     * Shared-bank distances the datapath instantiates — the migration
     * depth a StreamPlan for this accelerator must be built with. 0
     * means no shared banks: any migrated slot is a hard error.
     */
    virtual unsigned migrationDepth() const = 0;

    const ArchConfig &config() const { return config_; }

  protected:
    ArchConfig config_;

    /** Datapath-specific run; @p plan is null for the unplanned path. */
    virtual RunResult execute(const sched::Schedule &schedule,
                              const std::vector<float> &x,
                              const SpmvParams &params,
                              const StreamPlan *plan) const = 0;

    /**
     * Shared streaming core. Streams every phase through per-channel
     * PEGs — the channels of a pass in parallel on the process-wide
     * pool (core::fanOut, CHASON_JOBS wide) — merges partial sums into
     * y at pass boundaries, and accumulates timing, traffic and the
     * final writeback sequentially. Results are bit-identical at every
     * jobs value.
     *
     * @param migration_depth shared banks instantiated per PE; 0 makes
     *        any migrated slot a hard error (the Serpens datapath).
     * @param with_reduction  account Reduction Unit sweeps per pass.
     * @param plan            optional pre-packed SoA lanes for this
     *        exact (schedule, migration_depth) pair — skips the
     *        beat-list traversal on every run (see arch/stream_soa.h).
     *        Results are bit-identical with or without a plan.
     */
    RunResult simulateStreaming(const sched::Schedule &schedule,
                                const std::vector<float> &x,
                                const SpmvParams &params,
                                unsigned migration_depth,
                                bool with_reduction,
                                const StreamPlan *plan = nullptr) const;
};

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_ACCELERATOR_H_
