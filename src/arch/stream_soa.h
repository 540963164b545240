/**
 * @file
 * SoA fast path for the streaming phase of the cycle-level simulation.
 *
 * The straightforward simulator walks the AoS beat list and calls
 * Pe::process per slot, re-deriving the lane map, re-checking the x
 * window and re-selecting the destination bank for every non-zero. This
 * module restructures one channel-phase into struct-of-arrays staging:
 * a single *pack* pass over the beat list appends the valid slots of
 * each PE to flat value/column/address/bank arrays, then the *MAC* pass
 * multiplies against the x window as one dense loop over those arrays
 * (AVX2 gather+mul when the CPU supports it, portable scalar otherwise)
 * and adds the products, in beat order, straight into the bank sums.
 *
 * Every per-slot model check lives in the pack pass: window bounds,
 * routing tags and bank reach, and the three checks
 * AccumulatorBank::accumulate makes (bank depth, beat range, RAW
 * distance, through BankStamps::check). The MAC pass checks nothing,
 * and it is the one MAC loop of the simulator.
 *
 * The pack output depends only on the schedule and the geometry — not
 * on x — so a caller that streams the same schedule repeatedly (the
 * whole point of offline scheduling: one schedule, many SpMV calls) can
 * pack every channel-phase once into a StreamPlan, which makes every
 * check once at build time against stamps of its own. The unplanned
 * path packs per run and checks against the banks' own stamps.
 *
 * Bit-identity: a bank only ever receives products from its owning
 * (channel, PE) lane, and this path preserves the beat order within
 * each lane, so every bank sees the same additions in the same order as
 * the per-slot walk. Products are rounded to fp32 by an explicit
 * multiply before the add (never fused into an FMA), matching the
 * two-step multiply/accumulate of Pe::process. The cycle accounting is
 * untouched — this is purely a host-speed rewrite of the functional
 * model's inner loop. Channels never share a bank, so the channels of
 * a pass may stream concurrently, each into its own Peg.
 */

#ifndef CHASON_ARCH_STREAM_SOA_H_
#define CHASON_ARCH_STREAM_SOA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/peg.h"
#include "sched/schedule.h"

namespace chason {
namespace arch {

/**
 * Read-only view of the valid slots one PE consumes in one phase: four
 * parallel arrays of `size` entries, in beat order. Both the plan-less
 * scratch lanes and StreamPlan's arena hand these to the MAC pass.
 */
struct LaneView
{
    const float *value = nullptr;          ///< matrix values
    const std::uint32_t *winCol = nullptr; ///< window-local column
    const std::uint32_t *addr = nullptr;   ///< local URAM address
    const std::uint8_t *bank = nullptr;    ///< routing tag, Pe::banks()
    std::size_t size = 0;
};

/** The PE lanes of one channel-phase, indexed by PE. */
using ChannelLanes = std::array<LaneView, sched::kMaxPesPerGroup>;

/** SoA staging for the valid slots one PE consumes in one phase. */
struct PackedLane
{
    std::vector<float> value;
    std::vector<std::uint32_t> winCol;
    std::vector<std::uint32_t> addr;
    std::vector<std::uint8_t> bank;

    void
    clear()
    {
        value.clear();
        winCol.clear();
        addr.clear();
        bank.clear();
    }

    LaneView
    view() const
    {
        return {value.data(), winCol.data(), addr.data(), bank.data(),
                value.size()};
    }
};

/**
 * Reusable scratch of one channel: the unplanned path's packed lanes
 * and the MAC pass's product buffer. Concurrent channels each need
 * their own.
 */
struct StreamScratch
{
    std::array<PackedLane, sched::kMaxPesPerGroup> lanes;
    std::vector<float> product;
};

/** The x window one phase streams against: [base, base + length). */
struct XWindow
{
    std::uint32_t base = 0;
    std::uint32_t length = 0;
};

/** The x window of @p phase; panics if it reaches beyond the columns. */
XWindow phaseWindow(const sched::Schedule &schedule,
                    const sched::WindowSchedule &phase);

/** Rows pass @p pass of @p schedule covers. */
std::uint64_t passRows(const sched::Schedule &schedule, std::uint32_t pass);

/** Bank depth pass @p pass uses: its rows per lane, rounded up. */
std::uint32_t passBankDepth(const sched::Schedule &schedule,
                            std::uint32_t pass);

/**
 * The unplanned path for one channel-phase: pack @p cws into
 * @p scratch's lanes, checking every slot on the way — window bounds,
 * routing tags, bank reach, and against @p peg's bank stamps at stream
 * beat @p beat_base + t — then run macChannel. Same multiplies, same
 * additions in the same per-bank order, same checks as calling
 * Pe::process on every slot.
 */
void streamChannel(const sched::ChannelWindowSchedule &cws,
                   const sched::SchedConfig &config, unsigned channel,
                   unsigned migration_depth, XWindow window,
                   std::int64_t beat_base, const float *x, Peg &peg,
                   StreamScratch &scratch);

/**
 * The MAC pass over checked lanes: dense multiply against the window
 * @p win (x at the window base), then in-order unchecked accumulation
 * into @p peg's bank sums. @p product is caller-provided scratch,
 * resized per lane.
 */
void macChannel(const ChannelLanes &lanes, Peg &peg, const float *win,
                std::vector<float> &product);

/**
 * Every channel-phase of one schedule, packed once. Build a plan when
 * the same schedule is streamed more than once (repeated SpMV, cached
 * schedules in a server, benchmarking); Accelerator::run then skips
 * the beat-list traversal and replays the packed lanes. The plan is
 * immutable after construction and safe to share across threads.
 *
 * Layout: one exactly-sized arena per plan, filled by two passes over
 * the beats — a counting pass sizes every lane, a packing pass fills
 * them. The packing pass makes every per-slot check streamChannel
 * makes, the RAW checks against a stamp array of its own, so a replay
 * checks nothing. The arena holds four sections of nnz entries each,
 * in this order:
 *
 *     value[nnz] (f32) | winCol[nnz] (u32) | addr[nnz] (u32)
 *     | bank[nnz] (u8)
 *
 * Within every section the entries are grouped by lane, lanes ordered
 * (phase, channel, PE); lane i occupies [laneStart_[i],
 * laneStart_[i + 1]) in each section. A lane is therefore an
 * offset/length view into the arena, and the plan costs 13 bytes per
 * valid slot (one per non-zero) plus one offset per lane
 * (memoryBytes()).
 *
 * The plan captures schedule *content*; it must be built from the same
 * schedule object (or a bit-identical copy) and the same migration
 * depth as the runs it accompanies — matches() spot-checks geometry,
 * including the row and column counts the replay's unchecked bank
 * and window indexing rely on.
 */
class StreamPlan
{
  public:
    StreamPlan(const sched::Schedule &schedule, unsigned migration_depth);

    /** Cheap consistency check against a schedule / depth pair. */
    bool matches(const sched::Schedule &schedule,
                 unsigned migration_depth) const;

    /** The PE lanes of channel @p ch in phase @p phase. */
    ChannelLanes channel(std::size_t phase, unsigned ch) const;

    unsigned migrationDepth() const { return migrationDepth_; }

    /** Heap bytes held: the arena plus the lane offsets. */
    std::size_t memoryBytes() const;

    /** memoryBytes() of a plan of @p schedule, without building it. */
    static std::size_t bytesFor(const sched::Schedule &schedule);

  private:
    /** One lane's view into the arena. */
    LaneView lane(std::size_t index) const;

    unsigned channels_ = 0;
    unsigned pes_ = 0;
    unsigned migrationDepth_ = 0;
    std::size_t phaseCount_ = 0;
    std::uint32_t rows_ = 0; ///< the schedule's, for matches()
    std::uint32_t cols_ = 0; ///< the schedule's, for matches()
    std::size_t nnz_ = 0;    ///< the schedule's, for matches()
    std::size_t slots_ = 0; ///< valid slots = entries per section
    /** Lane start offsets, [phase][channel][pe] flattened, + end. */
    std::vector<std::size_t> laneStart_;
    /** The four sections described above, back to back. */
    std::unique_ptr<std::byte[]> arena_;
};

/** True when the AVX2 gather+mul kernel is compiled in and usable. */
bool streamSoaUsesAvx2();

} // namespace arch
} // namespace chason

#endif // CHASON_ARCH_STREAM_SOA_H_
