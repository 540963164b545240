/**
 * @file
 * SoA streaming fast path implementation.
 */

#include "arch/stream_soa.h"

#include <algorithm>

#include "common/logging.h"
#include "core/thread_pool.h"

#if defined(__x86_64__) || defined(_M_X64)
#define CHASON_STREAM_SOA_X86 1
#include <immintrin.h>
#else
#define CHASON_STREAM_SOA_X86 0
#endif

namespace chason {
namespace arch {

namespace {

/**
 * out[i] = val[i] * win[idx[i]], element-wise fp32 multiply. Kept free
 * of fused multiply-adds on purpose: the product must round to fp32
 * before the accumulate so the fast path reproduces Pe::process
 * bit-for-bit.
 */
void
mulGatherScalar(const float *val, const std::uint32_t *idx,
                std::size_t n, const float *win, float *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = val[i] * win[idx[i]];
}

#if CHASON_STREAM_SOA_X86
__attribute__((target("avx2"))) void
mulGatherAvx2(const float *val, const std::uint32_t *idx, std::size_t n,
              const float *win, float *out)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i vi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(idx + i));
        const __m256 vx = _mm256_i32gather_ps(win, vi, 4);
        const __m256 vv = _mm256_loadu_ps(val + i);
        // _mm256_mul_ps rounds exactly like the scalar fp32 multiply.
        _mm256_storeu_ps(out + i, _mm256_mul_ps(vv, vx));
    }
    for (; i < n; ++i)
        out[i] = val[i] * win[idx[i]];
}

bool
cpuHasAvx2()
{
    return __builtin_cpu_supports("avx2") != 0;
}
#endif

void
mulGather(const float *val, const std::uint32_t *idx, std::size_t n,
          const float *win, float *out)
{
#if CHASON_STREAM_SOA_X86
    static const bool use_avx2 = cpuHasAvx2();
    if (use_avx2) {
        mulGatherAvx2(val, idx, n, win, out);
        return;
    }
#endif
    mulGatherScalar(val, idx, n, win, out);
}

} // namespace

bool
streamSoaUsesAvx2()
{
#if CHASON_STREAM_SOA_X86
    return cpuHasAvx2();
#else
    return false;
#endif
}

XWindow
phaseWindow(const sched::Schedule &schedule,
            const sched::WindowSchedule &phase)
{
    const std::uint32_t base = phase.window * schedule.config.windowCols;
    const std::uint32_t length = std::min<std::uint32_t>(
        schedule.config.windowCols, schedule.cols - base);
    chason_assert(static_cast<std::uint64_t>(base) + length <=
                      schedule.cols,
                  "window [%u, %u) outside x of size %u", base,
                  base + length, schedule.cols);
    return {base, length};
}

std::uint64_t
passRows(const sched::Schedule &schedule, std::uint32_t pass)
{
    const sched::SchedConfig &sc = schedule.config;
    return std::min<std::uint64_t>(
        sc.rowsPerPass(),
        static_cast<std::uint64_t>(schedule.rows) -
            static_cast<std::uint64_t>(pass) * sc.rowsPerPass());
}

std::uint32_t
passBankDepth(const sched::Schedule &schedule, std::uint32_t pass)
{
    const std::uint32_t lanes = sched::LaneMap(schedule.config).lanes();
    return static_cast<std::uint32_t>(
        (passRows(schedule, pass) + lanes - 1) / lanes);
}

namespace {

/**
 * Visit every valid slot of one channel's beat list of one phase, in
 * beat order, after making every model check Pe::process would have
 * made for it: window bounds, routing tags and bank reach here, then
 * bank depth, beat range and RAW distance through @p check (pe,
 * routing tag, local URAM address, stream beat @p beat_base + t),
 * which must end in BankStamps::checkStamp. @p emit receives (pe,
 * value, window-local column, local URAM address, bank routing tag).
 */
template <typename Check, typename Emit>
void
forEachPackedSlot(const sched::ChannelWindowSchedule &cws,
                  const sched::SchedConfig &config, unsigned channel,
                  unsigned migration_depth, XWindow window,
                  std::int64_t beat_base, Check &&check, Emit &&emit)
{
    const unsigned pes = config.pesPerGroup();
    const sched::LaneMap map(config);
    const std::uint32_t lanes = map.lanes();
    const std::uint32_t rplp = config.rowsPerLanePerPass;
    const std::uint32_t win_base = window.base;
    const std::uint32_t win_len = window.length;

    // Power-of-two geometry (the default config) turns the per-slot
    // divisions of the local-row derivation into shifts/masks.
    const bool lanes_pow2 = (lanes & (lanes - 1)) == 0;
    const bool rplp_pow2 = (rplp & (rplp - 1)) == 0;
    unsigned lane_shift = 0;
    while (lanes_pow2 && (1u << lane_shift) < lanes)
        ++lane_shift;

    // Hoisted: the callers' byte stores may alias the beat list's
    // bounds, which would otherwise be reloaded every slot.
    const sched::Beat *beats = cws.beats.data();
    const std::size_t beat_count = cws.beats.size();
    for (std::size_t t = 0; t < beat_count; ++t) {
        const sched::Beat &bt = beats[t];
        for (unsigned p = 0; p < pes; ++p) {
            const sched::Slot &slot = bt.slots[p];
            if (!slot.valid)
                continue; // explicit zero: MAC skipped, PE idle

            chason_assert(slot.col >= win_base &&
                              slot.col - win_base < win_len,
                          "column %u outside loaded window [%u, %u)",
                          slot.col, win_base, win_base + win_len);
            const std::uint32_t local_row = lanes_pow2
                ? slot.row >> lane_shift
                : slot.row / lanes;
            const std::uint32_t addr =
                rplp_pow2 ? (local_row & (rplp - 1)) : (local_row % rplp);

            std::uint8_t bank;
            if (slot.pvt) {
                chason_assert(
                    slot.chSrc == channel && slot.peSrc == p,
                    "private slot of lane (%u,%u) routed to (%u,%u)",
                    slot.chSrc, slot.peSrc, channel, p);
                bank = 0;
            } else {
                const unsigned distance =
                    (slot.chSrc + config.channels - channel) %
                    config.channels;
                chason_assert(distance >= 1 &&
                                  distance <= migration_depth,
                              "migrated slot from channel %u needs "
                              "distance %u, PE supports %u",
                              slot.chSrc, distance, migration_depth);
                chason_assert(slot.peSrc < pes, "PE_src %u out of range",
                              slot.peSrc);
                const unsigned bank_id =
                    routingTag(distance, slot.peSrc, pes);
                chason_assert(bank_id <= 255,
                              "bank id %u overflows the SoA routing tag",
                              bank_id);
                bank = static_cast<std::uint8_t>(bank_id);
            }
            check(p, bank, addr,
                  beat_base + static_cast<std::int64_t>(t));
            emit(p, slot.value, slot.col - win_base, addr, bank);
        }
    }
}

/** Arena bytes per valid slot: value, winCol, addr, bank. */
constexpr std::size_t kPlanBytesPerSlot = 4 + 4 + 4 + 1;

/** Arena plus lane offsets for @p slots valid slots in @p lanes lanes. */
std::size_t
planBytes(std::size_t slots, std::size_t lanes)
{
    return slots * kPlanBytesPerSlot + (lanes + 1) * sizeof(std::size_t);
}

} // namespace

void
streamChannel(const sched::ChannelWindowSchedule &cws,
              const sched::SchedConfig &config, unsigned channel,
              unsigned migration_depth, XWindow window,
              std::int64_t beat_base, const float *x, Peg &peg,
              StreamScratch &scratch)
{
    for (PackedLane &lane : scratch.lanes)
        lane.clear();
    std::array<AccumulatorBank *, sched::kMaxPesPerGroup> banks{};
    for (unsigned p = 0; p < peg.pes(); ++p)
        banks[p] = peg.pe(p).banks();
    const unsigned raw = config.rawDistance;
    forEachPackedSlot(
        cws, config, channel, migration_depth, window, beat_base,
        [&banks, raw](unsigned p, std::uint8_t bank, std::uint32_t addr,
                      std::int64_t beat) {
            banks[p][bank].stamps().check(addr, beat, raw);
        },
        [&scratch](unsigned p, float value, std::uint32_t win_col,
                   std::uint32_t addr, std::uint8_t bank) {
            PackedLane &lane = scratch.lanes[p];
            lane.value.push_back(value);
            lane.winCol.push_back(win_col);
            lane.addr.push_back(addr);
            lane.bank.push_back(bank);
        });
    ChannelLanes lanes;
    for (std::size_t p = 0; p < lanes.size(); ++p)
        lanes[p] = scratch.lanes[p].view();
    macChannel(lanes, peg, x + window.base, scratch.product);
}

void
macChannel(const ChannelLanes &lanes, Peg &peg, const float *win,
           std::vector<float> &product)
{
    // MAC pass, one PE at a time: dense multiply, then in-order
    // accumulation into the raw bank sums. Every address and RAW
    // distance was checked when the lanes were packed.
    // chason-lint: begin-hot (the one MAC loop: plan replays and
    // unplanned runs both stream every non-zero through it)
    for (unsigned p = 0; p < peg.pes(); ++p) {
        const LaneView &lane = lanes[p];
        const std::size_t n = lane.size;
        if (n == 0)
            continue;
        product.resize(n); // chason-lint: allow(CHL002) amortized scratch, capacity survives across calls
        mulGather(lane.value, lane.winCol, n, win, product.data());

        // Sums indexed by the uint8 routing tag (Pe::banks()).
        Pe &pe = peg.pe(p);
        AccumulatorBank *banks = pe.banks();
        const unsigned count = std::min(pe.bankCount(), 256u);
        float *sums[256];
        for (unsigned b = 0; b < count; ++b)
            sums[b] = banks[b].sums();

        const std::uint32_t *addr = lane.addr;
        const std::uint8_t *bank = lane.bank;
        const float *prod = product.data();
        // Bit (tag % 64) marks the banks written, for the next reset.
        std::uint64_t written = 0;
        for (std::size_t i = 0; i < n; ++i) {
            sums[bank[i]][addr[i]] += prod[i];
            written |= std::uint64_t{1} << (bank[i] & 63u);
        }
        for (unsigned b = 0; b < count; ++b) {
            if ((written >> (b & 63u)) & 1u)
                banks[b].markWritten();
        }
    }
    // chason-lint: end-hot
}

StreamPlan::StreamPlan(const sched::Schedule &schedule,
                       unsigned migration_depth)
    : channels_(schedule.config.channels),
      pes_(schedule.config.pesPerGroup()),
      migrationDepth_(migration_depth),
      phaseCount_(schedule.phases.size()), rows_(schedule.rows),
      cols_(schedule.cols), nnz_(schedule.nnz)
{
    const sched::SchedConfig &sc = schedule.config;

    // Counting pass: the valid slots of every lane (channel-parallel:
    // channels own disjoint lanes), then exclusive prefix sums into
    // lane start offsets.
    const unsigned jobs = core::resolveJobs(0);
    laneStart_.assign(phaseCount_ * channels_ * pes_ + 1, 0);
    core::fanOut(jobs, channels_, [&](std::size_t ch) {
        for (std::size_t i = 0; i < phaseCount_; ++i) {
            const std::size_t lane0 = (i * channels_ + ch) * pes_;
            for (const sched::Beat &beat :
                 schedule.phases[i].channels[ch].beats)
                for (unsigned p = 0; p < pes_; ++p)
                    laneStart_[lane0 + p + 1] += beat.slots[p].valid;
        }
    });
    for (std::size_t i = 1; i < laneStart_.size(); ++i)
        laneStart_[i] += laneStart_[i - 1];
    slots_ = laneStart_.back();

    // Packing pass into the exactly-sized arena (layout: see header).
    // Channels own disjoint lanes, so they pack in parallel; each walks
    // its phases in order against one flat RAW stamp array of its own,
    // [pe][routing tag][address], cleared at every pass change like
    // the banks are.
    arena_ = std::make_unique_for_overwrite<std::byte[]>(
        slots_ * kPlanBytesPerSlot);
    float *value = reinterpret_cast<float *>(arena_.get());
    std::uint32_t *win_col = reinterpret_cast<std::uint32_t *>(
        arena_.get() + slots_ * 4);
    std::uint32_t *addr = win_col + slots_;
    std::uint8_t *bank =
        reinterpret_cast<std::uint8_t *>(arena_.get() + slots_ * 12);
    const std::size_t banks = static_cast<std::size_t>(pes_) *
        (1 + static_cast<std::size_t>(migration_depth) * pes_);
    const std::size_t banks_per_pe = banks / pes_;
    core::fanOut(jobs, channels_, [&](std::size_t c) {
        const unsigned ch = static_cast<unsigned>(c);
        std::vector<std::int32_t> stamps;
        std::size_t depth = 0;
        std::array<std::size_t, sched::kMaxPesPerGroup> cursor{};
        std::int64_t beat_base = 0;
        for (std::size_t i = 0; i < phaseCount_; ++i) {
            const sched::WindowSchedule &phase = schedule.phases[i];
            if (i == 0 || phase.pass != schedule.phases[i - 1].pass) {
                depth = passBankDepth(schedule, phase.pass);
                stamps.assign(banks * depth, BankStamps::kNeverWritten);
            }
            const std::size_t lane0 = (i * channels_ + ch) * pes_;
            for (unsigned p = 0; p < pes_; ++p)
                cursor[p] = laneStart_[lane0 + p];
            // Captures by value where they can: the arena's byte stores
            // may alias anything captured by reference.
            forEachPackedSlot(
                phase.channels[ch], sc, ch, migration_depth,
                phaseWindow(schedule, phase), beat_base,
                [st = stamps.data(), depth, banks_per_pe,
                 raw = sc.rawDistance](unsigned p, std::uint8_t b,
                                       std::uint32_t a,
                                       std::int64_t beat) {
                    BankStamps::checkStamp(
                        st + (p * banks_per_pe + b) * depth, depth, a,
                        beat, raw);
                },
                [&cursor, value, win_col, addr,
                 bank](unsigned p, float v, std::uint32_t col,
                       std::uint32_t a, std::uint8_t b) {
                    const std::size_t k = cursor[p]++;
                    value[k] = v;
                    win_col[k] = col;
                    addr[k] = a;
                    bank[k] = b;
                });
            beat_base += static_cast<std::int64_t>(phase.alignedBeats) +
                sc.rawDistance;
        }
    });
}

LaneView
StreamPlan::lane(std::size_t index) const
{
    const std::size_t begin = laneStart_[index];
    const std::byte *base = arena_.get();
    const auto *words = reinterpret_cast<const std::uint32_t *>(
        base + slots_ * 4);
    return {reinterpret_cast<const float *>(base) + begin,
            words + begin,
            words + slots_ + begin,
            reinterpret_cast<const std::uint8_t *>(base + slots_ * 12) +
                begin,
            laneStart_[index + 1] - begin};
}

ChannelLanes
StreamPlan::channel(std::size_t phase, unsigned ch) const
{
    ChannelLanes lanes;
    const std::size_t first = (phase * channels_ + ch) * pes_;
    for (unsigned p = 0; p < pes_; ++p)
        lanes[p] = lane(first + p);
    return lanes;
}

std::size_t
StreamPlan::memoryBytes() const
{
    return planBytes(slots_, laneStart_.size() - 1);
}

std::size_t
StreamPlan::bytesFor(const sched::Schedule &schedule)
{
    // Every non-zero occupies exactly one valid slot.
    return planBytes(schedule.nnz, schedule.phases.size() *
                         schedule.config.channels *
                         schedule.config.pesPerGroup());
}

bool
StreamPlan::matches(const sched::Schedule &schedule,
                    unsigned migration_depth) const
{
    return channels_ == schedule.config.channels &&
        migrationDepth_ == migration_depth &&
        phaseCount_ == schedule.phases.size() && rows_ == schedule.rows &&
        cols_ == schedule.cols && nnz_ == schedule.nnz;
}

} // namespace arch
} // namespace chason
