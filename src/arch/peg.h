/**
 * @file
 * Processing element group model (Section 4.2).
 *
 * A PEG owns eight PEs. Each PE has a multiplier, a 10-cycle accumulating
 * adder, a private-partial-sum URAM (URAM_pvt), and — in Chasoň — a
 * shared-channel URAM group (ScUG) with one logical bank per source PE
 * (and per migration-distance when the scheduler is configured beyond
 * the paper's depth of 1). The Router steers each product to the right
 * bank using the (pvt, PE_src) tags.
 *
 * The model is functional plus checked: every accumulation verifies the
 * RAW distance on its physical bank (BankStamps), so a schedule that
 * would corrupt data on the real pipeline panics here instead of
 * silently producing wrong sums.
 */

#ifndef CHASON_ARCH_PEG_H_
#define CHASON_ARCH_PEG_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "sched/config.h"
#include "sched/schedule.h"

namespace chason {
namespace arch {

/**
 * RAW-distance stamps of one accumulator bank: the stream beat each
 * address was last written at. checkStamp() is the model's one
 * per-write check site — bank depth, beat range and RAW distance —
 * shared by the banks' own stamps (unplanned runs, Pe::process) and
 * by StreamPlan, which checks every slot once at build time against a
 * stamp array of its own.
 */
class BankStamps
{
  public:
    /** Stamp of an address not written since the last reset. */
    static constexpr std::int32_t kNeverWritten =
        std::numeric_limits<std::int32_t>::min() / 2;

    /**
     * Size for @p depth addresses, none written. The stamp array is
     * filled lazily by the first check() after a reset, so a bank that
     * is never written — most shared banks, and every bank of a
     * planned replay — costs no stamp storage or clearing.
     */
    void reset(std::size_t depth);

    /** checkStamp() against this bank's stamps. */
    void
    check(std::uint32_t addr, std::int64_t beat, unsigned raw_distance)
    {
        if (lastWrite_.empty())
            lastWrite_.assign(depth_, kNeverWritten);
        checkStamp(lastWrite_.data(), depth_, addr, beat, raw_distance);
    }

    /**
     * Record a write to @p addr at stream beat @p beat in the stamp
     * array @p last_write of @p depth entries. Panics if @p addr is
     * beyond the depth, @p beat is outside the stamp range, or the
     * previous write to @p addr was closer than @p raw_distance beats
     * — the real pipeline would have read a stale partial sum. Defined
     * inline: it runs once per non-zero.
     */
    static void
    checkStamp(std::int32_t *last_write, std::size_t depth,
               std::uint32_t addr, std::int64_t beat,
               unsigned raw_distance)
    {
        chason_assert(addr < depth, "bank address %u beyond depth %zu",
                      addr, depth);
        chason_assert(beat >= 0 && beat <= kMaxBeat,
                      "beat %lld outside the bank's RAW stamp range",
                      static_cast<long long>(beat));
        chason_assert(
            static_cast<std::int64_t>(last_write[addr]) +
                    static_cast<std::int64_t>(raw_distance) <=
                beat,
            "RAW hazard at address %u: writes at beats %lld and %lld",
            addr, static_cast<long long>(last_write[addr]),
            static_cast<long long>(beat));
        last_write[addr] = static_cast<std::int32_t>(beat);
    }

  private:
    // Stamps are stored as int32 — half the reset/check traffic of
    // int64 stamps. Stream beats are bounded by the total schedule
    // length, far below 2^31; checkStamp() asserts the bound.
    static constexpr std::int64_t kMaxBeat =
        std::numeric_limits<std::int32_t>::max();

    std::size_t depth_ = 0;
    /** Empty until the first write since reset, then depth_ long. */
    std::vector<std::int32_t> lastWrite_;
};

/** One accumulator URAM bank: partial sums plus their RAW stamps. */
class AccumulatorBank
{
  public:
    /**
     * Clear sums and RAW history; size for @p depth rows. The sums
     * skip the clear when already @p depth deep and unwritten since
     * the last reset — most shared banks of a PEG set never receive a
     * migrated product — and the stamps refill lazily (BankStamps), so
     * pooled PEG sets reset only what a run wrote.
     */
    void reset(std::size_t depth);

    /**
     * Checked accumulate: stamps().check(), then add @p product into
     * @p addr. The streaming simulation splits the two — every check at
     * pack or plan-build time, the adds in one unchecked MAC loop — and
     * makes exactly these checks in exactly this per-bank order.
     */
    void
    accumulate(std::uint32_t addr, float product, std::int64_t beat,
               unsigned raw_distance)
    {
        stamps_.check(addr, beat, raw_distance);
        sums_[addr] += product;
        dirty_ = true;
    }

    float value(std::uint32_t addr) const;
    std::size_t depth() const { return sums_.size(); }

    /** Raw partial-sum storage, indexed by bank address. */
    const float *data() const { return sums_.data(); }

    /**
     * Writable sums for the unchecked MAC loop (arch/stream_soa.cc),
     * whose addresses were checked when the slots were packed. The
     * writer must call markWritten() so the next reset clears them.
     */
    float *sums() { return sums_.data(); }
    void markWritten() { dirty_ = true; }

    BankStamps &stamps() { return stamps_; }

  private:
    std::vector<float> sums_;
    BankStamps stamps_;
    bool dirty_ = false;
};

/** BRAM buffer holding the current window of the dense vector x. */
class XWindowBuffer
{
  public:
    /** Load x[base, base+len) as the active window. */
    void load(const std::vector<float> &x, std::uint32_t base,
              std::uint32_t len);

    /** Read by global column index; panics outside the window. */
    float at(std::uint32_t global_col) const;

    /** Raw window storage, indexed by window-local column. */
    const float *data() const { return window_.data(); }

    std::uint32_t base() const { return base_; }
    std::uint32_t length() const
    {
        return static_cast<std::uint32_t>(window_.size());
    }

  private:
    std::vector<float> window_;
    std::uint32_t base_ = 0;
};

/**
 * One processing element: multiplier + router + accumulator banks,
 * held in one array indexed by routing tag (banks()).
 */
class Pe
{
  public:
    /**
     * @param migration_depth shared-bank distances supported (0 = a
     *                        Serpens PE with no shared storage)
     * @param pes             source PEs per shared distance
     */
    Pe(unsigned migration_depth, unsigned pes);

    /** Clear all banks and size them for @p uram_depth rows. */
    void reset(std::size_t uram_depth);

    /**
     * Consume one slot at stream beat @p beat: multiply by the x window
     * entry and accumulate into the bank selected by the slot's tags.
     * Panics if the slot needs a bank this PE does not have.
     */
    void process(const sched::Slot &slot, const XWindowBuffer &x,
                 std::int64_t beat, const sched::SchedConfig &config,
                 unsigned my_channel, unsigned my_pe);

    const AccumulatorBank &pvt() const { return banks_[0]; }

    /** Shared bank for (distance, source PE); distance >= 1. */
    const AccumulatorBank &shared(unsigned distance, unsigned src_pe) const;

    /**
     * The banks indexed by routing tag: 0 is URAM_pvt, 1 + (distance -
     * 1) * pes + source PE a shared bank (routingTag()). The SoA
     * streaming path (arch/stream_soa.cc) routes products by tag.
     */
    AccumulatorBank *banks() { return banks_.data(); }
    unsigned bankCount() const
    {
        return static_cast<unsigned>(banks_.size());
    }

    unsigned migrationDepth() const
    {
        return static_cast<unsigned>((banks_.size() - 1) / pes_);
    }

  private:
    std::vector<AccumulatorBank> banks_;
    unsigned pes_;
};

/** Bank routing tag of a shared bank (distance >= 1), see Pe::banks(). */
inline unsigned
routingTag(unsigned distance, unsigned src_pe, unsigned pes)
{
    return 1 + (distance - 1) * pes + src_pe;
}

/**
 * A PEG: the PEs of one channel plus its Reduction Unit.
 */
class Peg
{
  public:
    Peg(const sched::SchedConfig &config, unsigned migration_depth);

    void reset(std::size_t uram_depth);

    Pe &pe(unsigned p);
    const Pe &pe(unsigned p) const;
    unsigned pes() const { return static_cast<unsigned>(pes_.size()); }

    /**
     * Reduction Unit (Section 4.2.2): sum the shared banks of all PEs
     * for a given (distance, source PE) — the adder-tree sweep — and
     * return the consolidated per-row partial sums.
     */
    std::vector<float> reduceShared(unsigned distance,
                                    unsigned src_pe) const;

    /**
     * Allocation-free reduceShared: writes the consolidated sums into
     * @p out (bank depth entries). Summation order is the same balanced
     * pairwise adder tree, evaluated element-wise, so the results are
     * bit-identical to reduceShared().
     */
    void reduceSharedInto(unsigned distance, unsigned src_pe,
                          float *out) const;

  private:
    static constexpr std::size_t kMaxLeaves = sched::kMaxPesPerGroup;

    std::vector<Pe> pes_;
};

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_PEG_H_
