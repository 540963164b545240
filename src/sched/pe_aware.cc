/**
 * @file
 * PE-aware scheduler implementation.
 *
 * The round-robin row interleaving is per lane, and lanes of a channel
 * never interact (each writes only its own slot column), so a lane is a
 * self-contained event stream: a single FIFO of (wake beat, run) pairs.
 * Because the RAW distance is a constant, re-queued wake times are
 * non-decreasing, so the FIFO head is always the next run to issue and
 * its issue beat is simply max(previous issue + 1, head wake). That
 * collapses the original beat-major sweep — which visited every beat of
 * every lane, stalls included — into one O(1)-per-*element* step, which
 * is what the 800-matrix corpus experiments need.
 *
 * The channel is then built in two passes. Pass A runs the queue per
 * lane purely arithmetically to learn the exact channel length (max
 * lane end + 1) — ~0.2% of phase time — so the beat list is allocated
 * and zero-filled exactly once, with no growth copies and no trailing
 * stall trim. Pass B replays the queues lane-major in cache-sized beat
 * blocks (a block of beats fits L2, each lane's queue suspends at the
 * block edge), so every 128-byte beat is touched while hot instead of
 * the beat-major order streaming the whole multi-hundred-MB schedule
 * through the cache once per issued element. Issue beats are unchanged
 * by any of this, so the produced schedule is bit-identical to the
 * original per-beat implementation.
 *
 * Channels share nothing but the read-only phase work, so a phase's
 * channels are placed on the process-wide pool (core::fanOut), each
 * worker with its own thread-local scratch; schedule() additionally fans
 * the phases out (sched::fanOutPhases). Each channel's beats depend on
 * its own lanes only, so every jobs value gives the same bytes.
 */

#include "sched/pe_aware.h"

#include <algorithm>
#include <vector>

#include "core/thread_pool.h"

namespace chason {
namespace sched {

namespace {


/** Beats per pass-B block: 4096 * sizeof(Beat) = 512 KiB, sized to sit
 *  in L2 while each lane's issues for the block are scattered into it. */
constexpr std::size_t kBlockBeats = 4096;

/**
 * A queued run: may issue again no earlier than beat `wake`, its next
 * element is at `off` in the phase's element arrays, `rem` elements
 * are left. Self-contained 16-byte entries keep the issue loop free of
 * side-array traffic — no per-run cursor update and no RowRun reload
 * per element. 32-bit fields cannot overflow: a 2^32-beat channel
 * would be a half-terabyte schedule, and a phase holds far fewer than
 * 2^32 elements.
 */
struct QueuedRun
{
    std::uint32_t wake = 0;
    std::uint32_t row = 0;
    std::uint32_t off = 0;
    std::uint32_t rem = 0;
};

/** Single-FIFO round-robin state of one lane, over shared scratch. */
struct LaneState
{
    common::Span<const RowRun> runs;
    QueuedRun *q = nullptr; ///< ring of queued runs, size nrun
    std::size_t nrun = 0;
    std::size_t head = 0, size = 0;
    std::size_t next = 0; ///< earliest beat the lane may issue at

    /** Reset to the initial all-runs-ready state. */
    void reset()
    {
        head = 0;
        size = nrun;
        next = 0;
        for (std::size_t i = 0; i < nrun; ++i) {
            const RowRun &run = runs[i];
            q[i] = {0, run.row, static_cast<std::uint32_t>(run.offset),
                    run.len};
        }
    }
};

/**
 * Pass A: dry-run one lane's queue to its end. Returns last issue beat
 * + 1 (the lane's contribution to the channel length); 0 for an empty
 * lane. Consumes the ring — callers reset() before pass B.
 */
std::size_t
laneEndBeat(LaneState &ls, unsigned d)
{
    std::size_t next = 0;
    while (ls.size > 0) {
        QueuedRun e = ls.q[ls.head];
        if (++ls.head == ls.nrun)
            ls.head = 0;
        --ls.size;
        const std::size_t t = e.wake > next ? e.wake : next;
        next = t + 1;
        if (--e.rem > 0) {
            std::size_t tail = ls.head + ls.size;
            if (tail >= ls.nrun)
                tail -= ls.nrun;
            e.wake = static_cast<std::uint32_t>(t + d);
            ls.q[tail] = e;
            ++ls.size;
        }
    }
    return next;
}

} // namespace

WindowSchedule
PeAwareScheduler::schedulePhase(const PhaseWork &work,
                                const SchedConfig &config,
                                FreeSlotMasks *freeMasks,
                                WindowSchedule *copy, unsigned jobs)
{
    const unsigned pes = config.pesPerGroup();
    const unsigned d = config.rawDistance;

    WindowSchedule ws;
    ws.pass = work.pass;
    ws.window = work.window;
    ws.channels.resize(config.channels);
    if (freeMasks != nullptr) {
        freeMasks->clear();
        freeMasks->resize(config.channels);
    }
    if (copy != nullptr) {
        copy->pass = work.pass;
        copy->window = work.window;
        copy->channels.clear();
        copy->channels.resize(config.channels);
    }

    const std::uint8_t full_mask =
        static_cast<std::uint8_t>((1u << pes) - 1u);

    core::fanOut(jobs, config.channels, [&](std::size_t ch) {
        // Thread-local so consecutive channels, phases and schedule()
        // calls on a thread reuse the same warm pages instead of
        // re-faulting half a megabyte of scratch each time. Single-FIFO
        // state is re-reset per channel, so persistence is invisible to
        // the result.
        static thread_local std::vector<QueuedRun> queue_buf;
        // Per-block composition scratch, reused across blocks and
        // channels so it stays cache-resident: the stall template is
        // refilled and the block's issues scattered into it at L2 cost,
        // then the finished block lands in the (cold) beat list with
        // one streaming copy — instead of paying read-for-ownership
        // traffic on the whole multi-MB list twice (template fill +
        // issue stores).
        static thread_local std::vector<Beat> block_buf;

        ChannelWindowSchedule &cws = ws.channels[ch];
        std::array<LaneState, kMaxPesPerGroup> lane;
        std::size_t runs = 0;
        for (unsigned pe = 0; pe < pes; ++pe) {
            LaneState &ls = lane[pe];
            ls.runs = work.lanes[static_cast<std::size_t>(ch) * pes + pe];
            ls.nrun = ls.runs.size();
            runs += ls.nrun;
        }
        queue_buf.resize(runs);
        std::size_t base = 0;
        for (unsigned pe = 0; pe < pes; ++pe) {
            lane[pe].q = queue_buf.data() + base;
            base += lane[pe].nrun;
        }

        // Pass A: exact channel length. The last appended beat of the
        // original sweep is always an issue beat, so the length is the
        // latest lane end with no trailing stalls.
        std::size_t len = 0;
        for (unsigned pe = 0; pe < pes; ++pe) {
            LaneState &ls = lane[pe];
            ls.reset();
            len = std::max(len, laneEndBeat(ls, d));
        }
        if (len == 0)
            return;

        // One exact allocation up front (capacity only — the beats are
        // composed block by block in the scratch buffer and appended,
        // so the cold storage is written exactly once).
        cws.beats.reserve(len);
        BeatList *twin =
            copy != nullptr ? &copy->channels[ch].beats : nullptr;
        if (twin != nullptr)
            twin->reserve(len);
        std::uint8_t *mask = nullptr;
        if (freeMasks != nullptr) {
            (*freeMasks)[ch].assign(len, full_mask);
            mask = (*freeMasks)[ch].data();
        }

        for (unsigned pe = 0; pe < pes; ++pe)
            lane[pe].reset();

        // Pass B: lane-major fill in L2-sized beat blocks, composed in
        // the scratch buffer (template refill + issue stores both hit
        // cache) and streamed out once per block.
        const Beat stall_beat{};
        for (std::size_t block = 0; block < len; block += kBlockBeats) {
            const std::size_t block_end =
                std::min(len, block + kBlockBeats);
            block_buf.assign(block_end - block, stall_beat);
            Beat *bb = block_buf.data() - block; // indexed by absolute t
            for (unsigned pe = 0; pe < pes; ++pe) {
                LaneState &ls = lane[pe];
                while (ls.size > 0) {
                    QueuedRun e = ls.q[ls.head];
                    const std::size_t t =
                        e.wake > ls.next ? e.wake : ls.next;
                    if (t >= block_end)
                        break; // lane resumes in a later block
                    if (++ls.head == ls.nrun)
                        ls.head = 0;
                    --ls.size;
                    ls.next = t + 1;
                    // Whole-slot aggregate store: the compiler emits
                    // one 16-byte write instead of seven field stores.
                    bb[t].slots[pe] =
                        Slot{work.vals[e.off], e.row, work.cols[e.off],
                             true, true, static_cast<std::uint8_t>(pe),
                             static_cast<std::uint8_t>(ch)};
                    if (mask != nullptr)
                        mask[t] &=
                            static_cast<std::uint8_t>(~(1u << pe));
                    if (--e.rem > 0) {
                        std::size_t tail = ls.head + ls.size;
                        if (tail >= ls.nrun)
                            tail -= ls.nrun;
                        e.wake = static_cast<std::uint32_t>(t + d);
                        ++e.off;
                        ls.q[tail] = e;
                        ++ls.size;
                    }
                }
            }
            cws.beats.append(block_buf.data(), block_end - block);
            if (twin != nullptr)
                twin->append(block_buf.data(), block_end - block);
        }
    });
    return ws;
}

Schedule
PeAwareScheduler::schedule(const sparse::CsrMatrix &matrix) const
{
    const PhaseWorkList work = buildPhaseWork(matrix, config_);
    std::vector<WindowSchedule> phases(work.size());
    const unsigned jobs = resolvedJobs();
    fanOutPhases(work, jobs, [&](std::size_t i) {
        phases[i] = schedulePhase(work[i], config_, nullptr, nullptr, jobs);
    });
    return finalize(matrix, name(), std::move(phases));
}

} // namespace sched
} // namespace chason
