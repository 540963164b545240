/**
 * @file
 * CrHCS implementation.
 *
 * Migration runs as one beat-synchronous pass over the PE-aware phase:
 * beat positions are visited in order, and at each position every
 * channel fills its free slots with elements pulled from the *tail* of
 * its donor channel(s), but only while the donor's remaining list is
 * still longer than the position being filled. Because all channels
 * advance together, load balances by construction: a channel keeps
 * absorbing exactly until it would become the new bottleneck, and a slot
 * freed by donation deeper in a list becomes fillable from the next
 * channel when the sweep reaches it — the cascading refill of Fig. 5
 * happens in the same pass. Elements migrate at most once (only pvt
 * elements are donors), matching the single pvt bit of the wire format.
 *
 * Performance notes. Donor pools are lazy: instead of snapshotting every
 * donor of a channel up front (an O(beats × pes) copy per phase), a pool
 * keeps a scan cursor walking the source from its tail and materializes
 * at most kLookahead candidates at a time. This is observationally
 * identical to the eager snapshot because a slot only ever transitions
 * pvt→cleared (donated, and removed from the pool in the same step) or
 * invalid→migrant (pvt=0, never a donor) during the sweep — both are
 * skipped by the scan either way. The sweep itself is event-driven: it
 * consumes the free-slot masks placement emits and jumps from hole to
 * hole (plus each channel's extension point) instead of crossing every
 * beat, visiting exactly the positions where the beat-synchronous
 * order could act — see migrateWithMasks for the equivalence argument,
 * including why a destination whose donors no longer reach beyond the
 * sweep can be dropped permanently and when a freed source slot is
 * visible to the remainder of the sweep.
 *
 * The (pass, window) phases are mutually independent, so schedule()
 * fans them out over the process-wide pool (sched::fanOutPhases) when
 * jobs > 1. Each phase's placement + migration is a pure function of
 * (PhaseWork, config), and results land in a pre-sized vector slot
 * keyed by phase index — so the parallel path is bit-identical to the
 * sequential one and the Scheduler purity contract (and ScheduleCache
 * keying) is preserved. Trace sinks are thread-local; when one is
 * active the phases run inline so span attribution stays complete.
 * scheduleWithBaseline() runs the same loop with placement writing each
 * phase twice, so one placement yields both the PE-aware and the CrHCS
 * schedule.
 */

#include "sched/crhcs.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#include "core/thread_pool.h"
#include "trace/trace.h"

namespace chason {
namespace sched {

namespace {


/** A migratable element still sitting in its source channel. 32-bit
 *  indices keep the entry at 24 bytes (a 2^32-beat channel would be a
 *  half-terabyte schedule), so shifting the candidate window is cheap. */
struct Donor
{
    std::uint32_t beat;
    std::uint32_t pe;
    Slot slot;
};

/** Key for a destination RAW tracker: (row, destination PE). */
std::uint64_t
bankKey(std::uint32_t row, unsigned pe)
{
    return (static_cast<std::uint64_t>(row) << 3) | pe;
}

/**
 * Open-addressing (linear probe) map from bankKey to the last beat the
 * bank was written. The migration inner loop queries this once per
 * candidate donor, which made std::unordered_map's allocation-per-node
 * and pointer chasing a measurable slice of scheduling time; a flat
 * power-of-two table with Fibonacci hashing is 3-4x cheaper and needs
 * no per-entry allocation. bankKey is < 2^35, so ~0 (all ones) is a
 * safe empty marker.
 */
class RawTracker
{
  public:
    RawTracker() { rehash(kInitialSlots); }

    /** Last beat bank (row, pe) was written, or kNoBeat if never;
     *  @p t is unused (this tracker remembers everything — the
     *  sequential traversal revisits early beats, so nothing can be
     *  aged out). */
    std::uint64_t
    findLast(std::uint32_t row, unsigned pe, std::size_t) const
    {
        const std::uint64_t *found = find(bankKey(row, pe));
        return found != nullptr ? *found : ~std::uint64_t{0};
    }

    /** Last beat the bank was written, or nullptr if never. */
    const std::uint64_t *
    find(std::uint64_t key) const
    {
        std::size_t i = indexOf(key);
        while (entries_[i].key != kEmpty) {
            if (entries_[i].key == key)
                return &entries_[i].val;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    void
    put(std::uint32_t row, unsigned pe, std::uint64_t val)
    {
        put(bankKey(row, pe), val);
    }

    void
    put(std::uint64_t key, std::uint64_t val)
    {
        std::size_t i = indexOf(key);
        while (entries_[i].key != kEmpty) {
            if (entries_[i].key == key) {
                entries_[i].val = val;
                return;
            }
            i = (i + 1) & mask_;
        }
        entries_[i] = {key, val};
        if (++used_ * 4 > (mask_ + 1) * 3)
            rehash((mask_ + 1) * 2);
    }

  private:
    /** Key and value side by side: a probe that finds its key reads the
     *  value from the same cache line, where split key/value arrays
     *  cost a second miss — half the tracker's memory stalls. */
    struct Entry
    {
        std::uint64_t key;
        std::uint64_t val;
    };

    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    static constexpr std::size_t kInitialSlots = 1024;

    std::size_t
    indexOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
                   (key * 0x9E3779B97F4A7C15ull) >> 32) &
            mask_;
    }

    void
    rehash(std::size_t slots)
    {
        std::vector<Entry> old = std::move(entries_);
        entries_.assign(slots, {kEmpty, 0});
        mask_ = slots - 1;
        for (const Entry &e : old) {
            if (e.key == kEmpty)
                continue;
            std::size_t j = indexOf(e.key);
            while (entries_[j].key != kEmpty)
                j = (j + 1) & mask_;
            entries_[j] = e;
        }
    }

    std::vector<Entry> entries_;
    std::size_t mask_ = 0;
    std::size_t used_ = 0;
};

/** findLast() result when the bank was never written (recently). */
constexpr std::uint64_t kNoBeat = ~std::uint64_t{0};

/**
 * RAW tracker specialized for the balanced sweep, where each
 * destination's fill beats strictly increase: a placement older than
 * rawDistance beats can never block again, so only the most recent
 * rawDistance beats' placements — at most rawDistance * pes entries,
 * a few hundred bytes — need to be kept. Entries are appended in
 * non-decreasing beat order and aged by advancing a tail index, so a
 * lookup is a short linear scan of L1-resident keys instead of a probe
 * into a hash table that, at large-matrix scale, grows to megabytes
 * per destination and makes every probe a cache miss. Live keys are
 * unique (re-placing a key requires its previous placement to have
 * gone stale), so the scan can run forward and vectorize.
 */
class RecentRaw
{
  public:
    void init(unsigned rawDistance) { raw_ = rawDistance; }

    /** Last beat @p row was written within the blocking window of
     *  beat @p t, or kNoBeat. Queries must come with non-decreasing
     *  @p t (the sweep's per-destination order). */
    std::uint64_t
    findLast(std::uint32_t row, unsigned, std::size_t t)
    {
        while (tail_ < beats_.size() &&
               beats_[tail_] + std::size_t{raw_} <= t)
            ++tail_;
        for (std::size_t i = tail_; i < rows_.size(); ++i)
            if (rows_[i] == row)
                return beats_[i];
        return kNoBeat;
    }

    void
    put(std::uint32_t row, unsigned, std::size_t beat)
    {
        if (tail_ >= kCompactAt) {
            rows_.erase(rows_.begin(),
                        rows_.begin() + static_cast<std::ptrdiff_t>(tail_));
            beats_.erase(beats_.begin(),
                         beats_.begin() + static_cast<std::ptrdiff_t>(tail_));
            tail_ = 0;
        }
        rows_.push_back(row);
        beats_.push_back(static_cast<std::uint32_t>(beat));
    }

  private:
    /** Aged-out prefix kept before the buffers compact; amortizes the
     *  erase to O(1) per put. */
    static constexpr std::size_t kCompactAt = 4096;

    unsigned raw_ = 1;
    std::size_t tail_ = 0; ///< first still-live entry
    std::vector<std::uint32_t> rows_;
    std::vector<std::uint32_t> beats_;
};

/**
 * Donor bookkeeping for one source channel: a lazy tail-first scan that
 * keeps at most `lookahead` candidates materialized. The window always
 * holds the deepest remaining donors in (beat desc, pe asc) order — the
 * exact order the eager snapshot used.
 *
 * Invariant: the window is refilled after construction and after every
 * take, so it is empty only when the channel has no donors left. That
 * makes empty() and remainingLength() — which the sweep calls once per
 * (beat, destination) — O(1) reads instead of scan re-entries.
 *
 * version() counts every mutation (donor materialized or taken). The
 * sweep uses it to memoize failed takes: as long as the version is
 * unchanged, the window holds the same candidates, and RAW stamps only
 * ever move later, so a take that failed at beat t must keep failing
 * until the earliest-unblock beat the failure reported.
 */
class DonorPool
{
  public:
    /**
     * @p want donors are materialized up front; 0 defers every scan to
     * prefill()/take() so construction stays O(1) and a batch of pools
     * can run their first scans in parallel. When @p donorMask is given
     * (one byte per beat, bit p set iff slot p holds a donor — a valid
     * private element), the scan walks the mask with word-granular
     * skipping instead of touching the 128-byte beats; the mask only
     * needs to be accurate for the not-yet-scanned region, which never
     * changes during a sweep (donations clear slots behind the scan,
     * migrated-in elements land in free slots and are not donors).
     */
    DonorPool(const ChannelWindowSchedule &ch, unsigned pes,
              std::size_t want = 1,
              const std::uint8_t *donorMask = nullptr)
        : ch_(&ch), pes_(pes), mask_(donorMask),
          scanBeat_(static_cast<std::ptrdiff_t>(ch.length()) - 1)
    {
        fill(want);
    }

    /**
     * Materialize up to @p want donors now. Output-invariant: take()
     * fills to its lookahead on entry anyway, so prefetching candidates
     * early changes when the scan work happens, never what any take
     * returns.
     */
    void
    prefill(std::size_t want)
    {
        fill(want);
    }

    bool
    empty() const
    {
        return whead_ == window_.size();
    }

    /**
     * The source list's length if its trailing donated slots were
     * trimmed right now (deepest remaining donor + 1). The source may
     * also hold migrated-in elements it received during the sweep, but
     * those carry pvt=0 and are never donors, so the scan skips them.
     */
    std::size_t
    remainingLength() const
    {
        return empty() ? 0 : window_[whead_].beat + std::size_t{1};
    }

    /** Mutation counter; changes whenever the candidate set changes. */
    std::uint64_t
    version() const
    {
        return version_;
    }

    /**
     * Find, among the first @p lookahead donors (deepest first), one
     * whose row may be written on destination PE @p pe at beat @p t
     * given the RAW tracker @p last_place; remove and return it. On
     * failure, @p unblock_beat receives the earliest beat at which any
     * of the scanned candidates stops being RAW-blocked.
     */
    template <class RawT>
    bool
    take(unsigned pe, std::size_t t, unsigned raw_distance,
         std::size_t lookahead, RawT &last_place, Donor &out,
         std::size_t &unblock_beat)
    {
        fill(lookahead);
        const std::size_t limit =
            std::min(lookahead, window_.size() - whead_);
        std::size_t unblock = std::numeric_limits<std::size_t>::max();
        for (std::size_t k = 0; k < limit; ++k) {
            const Donor &d = window_[whead_ + k];
            const std::uint64_t found =
                last_place.findLast(d.slot.row, pe, t);
            if (found == kNoBeat || found + raw_distance <= t) {
                out = d;
                // The window is a deque over a growing buffer: shift
                // the k entries ahead of the hole (usually 0-2) one
                // slot right and bump the head — O(k) instead of the
                // old vector-erase's O(window) tail memmove, which
                // dominated the sweep's memory traffic.
                for (std::size_t i = whead_ + k; i > whead_; --i)
                    window_[i] = window_[i - 1];
                if (++whead_ >= kCompactAt) {
                    window_.erase(window_.begin(),
                                  window_.begin() +
                                      static_cast<std::ptrdiff_t>(whead_));
                    whead_ = 0;
                }
                ++version_;
                fill(1);
                return true;
            }
            unblock = std::min(unblock,
                               static_cast<std::size_t>(found) +
                                   raw_distance);
        }
        unblock_beat = unblock;
        return false;
    }

  private:
    /** Consumed entries kept before the deque compacts its buffer;
     *  amortizes the prefix erase to O(1) per take. */
    static constexpr std::size_t kCompactAt = 4096;

    /** Hint the descending scan's next beats into cache: placement
     *  streamed them past the hierarchy with non-temporal stores, so
     *  without the hint every materialization eats a full memory-
     *  latency read, and the backward stride defeats the hardware
     *  prefetcher until it locks on. */
    void
    prefetchBeat(std::ptrdiff_t b) const
    {
        if (b >= 0) {
            const char *q = reinterpret_cast<const char *>(
                &ch_->beats[static_cast<std::size_t>(b)]);
            __builtin_prefetch(q, 0, 1);
            __builtin_prefetch(q + 64, 0, 1);
        }
    }

    /** Advance the tail scan until @p want donors are materialized. */
    void
    fill(std::size_t want)
    {
        if (mask_ != nullptr) {
            fillFromMask(want);
            return;
        }
        while (window_.size() - whead_ < want && scanBeat_ >= 0) {
            prefetchBeat(scanBeat_ - 2);
            const Slot &slot =
                ch_->beats[static_cast<std::size_t>(scanBeat_)]
                    .slots[scanPe_];
            if (slot.valid && slot.pvt) {
                window_.push_back({static_cast<std::uint32_t>(scanBeat_),
                                   scanPe_, slot});
                ++version_;
            }
            if (++scanPe_ >= pes_) {
                scanPe_ = 0;
                --scanBeat_;
            }
        }
    }

    /** Mask-driven scan: identical materialization order (beat desc,
     *  pe asc), but donor-free beats cost one byte test and fully
     *  donated tails are skipped a 64-bit word at a time. */
    void
    fillFromMask(std::size_t want)
    {
        while (window_.size() - whead_ < want && scanBeat_ >= 0) {
            prefetchBeat(scanBeat_ - 2);
            const std::uint8_t bits = static_cast<std::uint8_t>(
                mask_[scanBeat_] & (0xFFu << scanPe_));
            if (bits == 0) {
                scanPe_ = 0;
                --scanBeat_;
                while (scanBeat_ >= 7) {
                    std::uint64_t w;
                    std::memcpy(&w, mask_ + (scanBeat_ - 7), 8);
                    if (w != 0)
                        break;
                    scanBeat_ -= 8;
                }
                continue;
            }
            const unsigned pe = static_cast<unsigned>(
                std::countr_zero(static_cast<unsigned>(bits)));
            window_.push_back(
                {static_cast<std::uint32_t>(scanBeat_), pe,
                 ch_->beats[static_cast<std::size_t>(scanBeat_)]
                     .slots[pe]});
            ++version_;
            if ((scanPe_ = pe + 1) >= pes_) {
                scanPe_ = 0;
                --scanBeat_;
            }
        }
    }

    const ChannelWindowSchedule *ch_;
    unsigned pes_;
    const std::uint8_t *mask_;
    std::ptrdiff_t scanBeat_; ///< next beat the scan will visit
    unsigned scanPe_ = 0;     ///< next pe the scan will visit
    std::uint64_t version_ = 0;
    std::vector<Donor> window_; ///< deque: live entries are [whead_, end)
    std::size_t whead_ = 0;
};

/**
 * Sequential-greedy traversal (the ablation): destinations are filled
 * one after the other, each draining its donors as far as the donor
 * remains longer. Kept for bench_ablation_strategy; see
 * MigrationStrategy for why this loses on uniformly-heavy inputs.
 */
void
migrateSequential(WindowSchedule &phase, const SchedConfig &config)
{
    const unsigned channels = config.channels;
    const unsigned pes = config.pesPerGroup();

    for (unsigned dst = 0; dst < channels; ++dst) {
        ChannelWindowSchedule &dst_ch = phase.channels[dst];
        RawTracker last_place;
        for (unsigned depth = 1; depth <= config.migrationDepth;
             ++depth) {
            const unsigned src = (dst + depth) % channels;
            if (src == dst)
                break;
            phase.channels[src].trimTrailingStalls(pes);
            DonorPool pool(phase.channels[src], pes);
            for (std::size_t t = 0; !pool.empty(); ++t) {
                if (t >= dst_ch.length()) {
                    if (pool.remainingLength() <= dst_ch.length())
                        break; // absorbing more just moves the bottleneck
                    dst_ch.beats.emplace_back();
                }
                for (unsigned p = 0; p < pes && !pool.empty(); ++p) {
                    Slot &slot = dst_ch.beats[t].slots[p];
                    if (slot.valid)
                        continue;
                    if (pool.remainingLength() <= t + 1)
                        break;
                    Donor donor;
                    std::size_t unblock = 0;
                    if (!pool.take(p, t, config.rawDistance,
                                   CrhcsScheduler::kLookahead,
                                   last_place, donor, unblock)) {
                        continue;
                    }
                    slot = donor.slot;
                    slot.pvt = false;
                    slot.peSrc = static_cast<std::uint8_t>(donor.pe);
                    slot.chSrc = static_cast<std::uint8_t>(src);
                    last_place.put(slot.row, p, t);
                    phase.channels[src]
                        .beats[donor.beat]
                        .slots[donor.pe] = Slot();
                }
            }
            phase.channels[src].trimTrailingStalls(pes);
        }
        dst_ch.trimTrailingStalls(pes);
    }
}

} // namespace

void
CrhcsScheduler::migratePhase(WindowSchedule &phase,
                             const SchedConfig &config,
                             MigrationStrategy strategy)
{
    const unsigned channels = config.channels;
    const unsigned pes = config.pesPerGroup();
    if (config.migrationDepth == 0 || channels < 2) {
        for (ChannelWindowSchedule &ch : phase.channels)
            ch.trimTrailingStalls(pes);
        phase.realign();
        return;
    }

    for (ChannelWindowSchedule &ch : phase.channels)
        ch.trimTrailingStalls(pes);

    if (strategy == MigrationStrategy::SequentialGreedy) {
        migrateSequential(phase, config);
        for (ChannelWindowSchedule &ch : phase.channels)
            ch.trimTrailingStalls(pes);
        phase.realign();
        return;
    }

    // Rebuild the free-slot and donor bitmaps the hot path receives
    // straight from placement; this entry point accepts arbitrary
    // phases (possibly already carrying migrated-in pvt=0 elements), so
    // it pays one scan over the beats to recover both.
    FreeSlotMasks masks(channels);
    FreeSlotMasks donor_masks(channels);
    for (unsigned ch = 0; ch < channels; ++ch) {
        const ChannelWindowSchedule &cws = phase.channels[ch];
        std::vector<std::uint8_t> &m = masks[ch];
        std::vector<std::uint8_t> &dm = donor_masks[ch];
        m.resize(cws.length());
        dm.resize(cws.length());
        for (std::size_t t = 0; t < m.size(); ++t) {
            std::uint8_t bits = 0;
            std::uint8_t donors = 0;
            for (unsigned p = 0; p < pes; ++p) {
                const Slot &slot = cws.beats[t].slots[p];
                if (!slot.valid)
                    bits |= static_cast<std::uint8_t>(1u << p);
                else if (slot.pvt)
                    donors |= static_cast<std::uint8_t>(1u << p);
            }
            m[t] = bits;
            dm[t] = donors;
        }
    }
    migrateWithMasks(phase, config, masks, donor_masks, false, 1);
}

void
CrhcsScheduler::migrateWithMasks(WindowSchedule &phase,
                                 const SchedConfig &config,
                                 FreeSlotMasks &masks,
                                 FreeSlotMasks &donorMasks, bool fresh,
                                 unsigned jobs)
{
    const unsigned channels = config.channels;
    const unsigned pes = config.pesPerGroup();
    constexpr std::size_t kDoneCh = std::numeric_limits<std::size_t>::max();
    const std::uint8_t full_mask =
        static_cast<std::uint8_t>((1u << pes) - 1u);

    // Donor pools and per-destination RAW trackers. Construction is
    // deferred (want = 0) so the per-channel setup — deriving the donor
    // bitmap and running the first tail scans — runs sharded across the
    // scheduling pool when jobs > 1. Each pool's candidate window is
    // its own buffer and the merge is just the pools vector indexed by
    // channel, so the sharded setup is deterministic; the prefill
    // itself is output-invariant (take() fills to the lookahead on
    // entry anyway), merely moving scan work earlier.
    if (fresh) {
        // Fresh placement: every valid slot is private, so the donor
        // bitmap is exactly the complement of the free bitmap. Sized
        // here (pointer-stable), bytes computed in the sharded setup.
        donorMasks.resize(channels);
        for (unsigned ch = 0; ch < channels; ++ch)
            donorMasks[ch].resize(masks[ch].size());
    }
    std::vector<DonorPool> pool;
    pool.reserve(channels);
    for (unsigned ch = 0; ch < channels; ++ch)
        pool.emplace_back(phase.channels[ch], pes, 0,
                          donorMasks[ch].data());
    const auto setupChannel = [&](std::size_t ch) {
        if (fresh) {
            const std::vector<std::uint8_t> &fm = masks[ch];
            std::vector<std::uint8_t> &dm = donorMasks[ch];
            for (std::size_t t = 0; t < fm.size(); ++t)
                dm[t] = static_cast<std::uint8_t>(full_mask & ~fm[t]);
        }
        pool[ch].prefill(kLookahead);
    };
    if (jobs > 1 && channels > 1) {
        core::fanOut(jobs, channels, setupChannel);
    } else {
        for (unsigned ch = 0; ch < channels; ++ch)
            setupChannel(ch);
    }
    // One tracker per (destination, PE) bank rather than per
    // destination: a take only ever queries keys of its own PE, so the
    // split cuts each lookup's scan to the handful of that bank's
    // placements within the RAW window.
    std::vector<RecentRaw> last_place(
        static_cast<std::size_t>(channels) * pes);
    for (RecentRaw &raw : last_place)
        raw.init(config.rawDistance);

    // Failed-take memo per (destination, PE): a take that scanned its
    // whole lookahead and found every candidate RAW-blocked keeps
    // failing — with the identical result — until either the candidate
    // set changes (pool version) or the sweep reaches the earliest
    // unblock beat the failure reported. RAW stamps are monotone (puts
    // only ever store later beats), so skipping the re-scan cannot
    // change the outcome; it removes roughly half the tracker probes of
    // the sweep.
    struct RetryMemo
    {
        std::uint64_t ver = std::numeric_limits<std::uint64_t>::max();
        std::size_t beat = 0;
    };
    std::vector<RetryMemo> retry(
        static_cast<std::size_t>(channels) * pes);

    // Event-driven sweep, equivalent to the beat-synchronous one (all
    // channels advance through beat positions together, each pulling
    // from its donors only while they reach beyond the position) but
    // visiting only the beats where something can happen: next_t[dst]
    // is the earliest unswept beat of dst holding a free slot, or its
    // length (the extension point). Everything in between is fully
    // valid and the original sweep crossed it without effect. kDoneCh
    // marks a destination whose donors no longer reach beyond the
    // sweep; remainingLength() is monotone non-increasing (donation
    // only removes donors, and migrated-in elements are never donors)
    // and the sweep position only grows, so that state is permanent
    // and the destination is dropped for good.
    std::vector<std::size_t> next_t(channels, 0);
    // Deepest migrated-in fill per channel (+1); with the pools'
    // deepest-remaining-donor view this yields each channel's trimmed
    // length at the end without rescanning its tail.
    std::vector<std::size_t> fill_len(channels, 0);
    auto advance = [&masks, &next_t](unsigned ch, std::size_t from) {
        const std::vector<std::uint8_t> &m = masks[ch];
        const std::size_t len = m.size();
        std::size_t b = from;
        while (b < len && m[b] == 0)
            ++b;
        next_t[ch] = b; // b == len: the extension event
    };
    for (unsigned ch = 0; ch < channels; ++ch)
        advance(ch, 0);

    for (;;) {
        std::size_t t = kDoneCh;
        for (unsigned ch = 0; ch < channels; ++ch)
            t = std::min(t, next_t[ch]);
        if (t == kDoneCh)
            break;
        // Visit this beat's destinations in channel order, re-reading
        // next_t as we go: a donation can free a slot at this very
        // beat in a not-yet-visited channel, and the beat-synchronous
        // order would have seen it.
        for (unsigned dst = 0; dst < channels; ++dst) {
            if (next_t[dst] != t)
                continue;
            ChannelWindowSchedule &dst_ch = phase.channels[dst];
            if (t < dst_ch.length()) {
                // The fill below writes this beat's slots; warm both
                // of its cache lines while the donor checks run.
                const char *q =
                    reinterpret_cast<const char *>(&dst_ch.beats[t]);
                __builtin_prefetch(q, 1, 1);
                __builtin_prefetch(q + 64, 1, 1);
            }

            // Does any donor channel still have work beyond beat t?
            bool donor_beyond = false;
            for (unsigned depth = 1; depth <= config.migrationDepth;
                 ++depth) {
                const unsigned src = (dst + depth) % channels;
                if (src == dst)
                    break;
                if (pool[src].remainingLength() > t + 1) {
                    donor_beyond = true;
                    break;
                }
            }
            if (!donor_beyond) {
                next_t[dst] = kDoneCh;
                continue;
            }
            if (t >= dst_ch.length()) {
                dst_ch.beats.emplace_back();
                masks[dst].push_back(full_mask);
            }

            // Walk the beat's free slots off its mask byte instead of
            // reading slot.valid out of the 128-byte beat: the mask is
            // hot, while the beat itself was streamed to memory by
            // placement and costs a cold read. The mask mirrors
            // validity exactly (placement emits it, every fill clears
            // its bit), and only this destination's own fills can
            // change it at this beat, so iterating a snapshot of the
            // byte visits the same slots in the same order.
            std::uint8_t free_bits = masks[dst][t];
            while (free_bits != 0) {
                const unsigned p = static_cast<unsigned>(
                    std::countr_zero(static_cast<unsigned>(free_bits)));
                free_bits &= static_cast<std::uint8_t>(free_bits - 1u);
                const std::size_t dp =
                    static_cast<std::size_t>(dst) * pes + p;
                std::uint64_t chain_ver = 0;
                for (unsigned depth = 1; depth <= config.migrationDepth;
                     ++depth) {
                    const unsigned s = (dst + depth) % channels;
                    if (s == dst)
                        break;
                    chain_ver += pool[s].version();
                }
                if (retry[dp].ver == chain_ver && t < retry[dp].beat)
                    continue; // memoized failure still holds
                Donor donor;
                bool taken = false;
                unsigned src = 0;
                std::size_t unblock =
                    std::numeric_limits<std::size_t>::max();
                for (unsigned depth = 1;
                     depth <= config.migrationDepth && !taken; ++depth) {
                    src = (dst + depth) % channels;
                    if (src == dst)
                        break;
                    // Pull only while the donor list still reaches
                    // beyond this beat: otherwise moving the element
                    // cannot shrink the makespan.
                    if (pool[src].remainingLength() <= t + 1)
                        continue;
                    std::size_t pool_unblock =
                        std::numeric_limits<std::size_t>::max();
                    taken = pool[src].take(p, t, config.rawDistance,
                                           kLookahead, last_place[dp],
                                           donor, pool_unblock);
                    unblock = std::min(unblock, pool_unblock);
                }
                if (!taken) {
                    retry[dp] = {chain_ver, unblock};
                    continue;
                }
                Slot &slot = dst_ch.beats[t].slots[p];
                slot = donor.slot;
                slot.pvt = false;
                slot.peSrc = static_cast<std::uint8_t>(donor.pe);
                slot.chSrc = static_cast<std::uint8_t>(src);
                last_place[dp].put(slot.row, p, t);
                masks[dst][t] &=
                    static_cast<std::uint8_t>(~(1u << p));
                if (t + 1 > fill_len[dst])
                    fill_len[dst] = t + 1;
                phase.channels[src].beats[donor.beat].slots[donor.pe] =
                    Slot();
                // Donation visibility: the freed source slot becomes a
                // fillable hole only where the beat-synchronous order
                // had not passed it yet — at a later beat, or at this
                // beat in a channel still ahead of dst this round.
                if (next_t[src] != kDoneCh &&
                    (donor.beat > t ||
                     (donor.beat == t && src > dst))) {
                    masks[src][donor.beat] |=
                        static_cast<std::uint8_t>(1u << donor.pe);
                    if (donor.beat < next_t[src])
                        next_t[src] = donor.beat;
                }
            }
            advance(dst, t + 1);
        }
    }

    if (fresh) {
        // O(1) trim: a fresh placement has no trailing stalls and only
        // private slots, so after the sweep each channel's deepest
        // valid slot is the deeper of its deepest remaining donor
        // (window front of its pool) and its deepest migrated-in fill
        // — no need to walk the donated tail beat by beat.
        for (unsigned ch = 0; ch < channels; ++ch) {
            const std::size_t new_len =
                std::max(pool[ch].remainingLength(), fill_len[ch]);
            ChannelWindowSchedule &cws = phase.channels[ch];
            if (new_len < cws.length())
                cws.beats.resize(new_len);
        }
    } else {
        // Arbitrary input phases may hold pvt=0 elements deeper than
        // any donor, which the pools do not see; fall back to the
        // beat-walking trim.
        for (ChannelWindowSchedule &ch : phase.channels)
            ch.trimTrailingStalls(pes);
    }
    phase.realign();
}

Schedule
CrhcsScheduler::schedule(const sparse::CsrMatrix &matrix) const
{
    return build(matrix, nullptr);
}

PeAwareScheduler
CrhcsScheduler::baseline() const
{
    SchedConfig config = config_;
    config.migrationDepth = 0;
    PeAwareScheduler baseline(config);
    baseline.setJobs(jobs_);
    return baseline;
}

SchedulePair
CrhcsScheduler::scheduleWithBaseline(const sparse::CsrMatrix &matrix) const
{
    std::vector<WindowSchedule> placed;
    Schedule crhcs = build(matrix, &placed);
    const PeAwareScheduler pe_aware = baseline();
    Schedule pe = finalize(matrix, pe_aware.name(), std::move(placed));
    pe.config = pe_aware.config();
    return {std::move(crhcs), std::move(pe)};
}

Schedule
CrhcsScheduler::build(const sparse::CsrMatrix &matrix,
                      std::vector<WindowSchedule> *placed) const
{
    // Scheduler phase timings: one host span per offline stage, plus
    // an aggregate split of the per-phase loop into its PE-aware
    // placement and cross-channel migration halves — the two costs the
    // preprocessing analysis (bench_preprocessing_cost) compares. Trace
    // sinks are thread-local, so with one active the phases run inline
    // on this thread and the split stays complete.
    trace::TraceSink *sink = trace::activeSink();
    double t0 = sink ? sink->nowUs() : 0.0;
    const PhaseWorkList work_list = buildPhaseWork(matrix, config_);
    if (sink) {
        trace::SpanEvent span;
        span.name = "crhcs.build_phase_work";
        span.begin = t0;
        span.dur = sink->nowUs() - t0;
        span.track = trace::hostTrack();
        sink->recordSpan(std::move(span));
        sink->addCounter("crhcs.phases", work_list.size());
    }

    std::vector<WindowSchedule> phases(work_list.size());
    if (placed != nullptr)
        placed->assign(work_list.size(), WindowSchedule{});
    const unsigned jobs = sink ? 1u : resolvedJobs();
    // The balanced strategy takes the mask-carrying fast path:
    // placement emits the free-slot bitmaps as a byproduct and the
    // migration sweep walks them directly, never rescanning beats.
    const bool balanced =
        strategy_ == MigrationStrategy::BeatSynchronous &&
        config_.migrationDepth > 0 && config_.channels >= 2;
    double place_us = 0.0, migrate_us = 0.0;
    fanOutPhases(work_list, jobs, [&](std::size_t i) {
        const double p0 = sink ? sink->nowUs() : 0.0;
        FreeSlotMasks masks;
        phases[i] = PeAwareScheduler::schedulePhase(
            work_list[i], config_, balanced ? &masks : nullptr,
            placed != nullptr ? &(*placed)[i] : nullptr, jobs);
        const double p1 = sink ? sink->nowUs() : 0.0;
        if (balanced) {
            FreeSlotMasks donor_masks;
            migrateWithMasks(phases[i], config_, masks, donor_masks, true,
                             jobs);
        } else {
            migratePhase(phases[i], config_, strategy_);
        }
        if (sink) {
            place_us += p1 - p0;
            migrate_us += sink->nowUs() - p1;
        }
    });
    if (sink) {
        trace::SpanEvent place;
        place.name = "crhcs.pe_aware_placement";
        place.begin = t0;
        place.dur = place_us;
        place.track = trace::hostTrack();
        sink->recordSpan(std::move(place));
        trace::SpanEvent migrate;
        migrate.name = "crhcs.migration";
        migrate.begin = t0 + place_us;
        migrate.dur = migrate_us;
        migrate.track = trace::hostTrack();
        sink->recordSpan(std::move(migrate));
    }
    return finalize(matrix, name(), std::move(phases));
}

} // namespace sched
} // namespace chason
