/**
 * @file
 * JSON report emitter implementation.
 */

#include "core/report_json.h"

namespace chason {
namespace core {

void
writeFields(common::JsonWriter &out, const arch::CycleBreakdown &cycles)
{
    out.field("matrix_stream", cycles.matrixStream)
        .field("x_load", cycles.xLoad)
        .field("pipeline_fill", cycles.pipelineFill)
        .field("reduction", cycles.reduction)
        .field("writeback", cycles.writeback)
        .field("inst_stream", cycles.instStream)
        .field("launch", cycles.launch)
        .field("total", cycles.total());
}

void
writeFields(common::JsonWriter &out, const SpmvReport &report)
{
    out.field("kind", "spmv")
        .field("accelerator", report.accelerator)
        .field("dataset", report.dataset)
        .field("rows", report.rows)
        .field("cols", report.cols)
        .field("nnz", report.nnz)
        .field("frequency_mhz", report.frequencyMhz)
        .field("cycles", report.cycles)
        .object("cycle_breakdown",
                [&] { writeFields(out, report.cycleBreakdown); })
        .field("latency_ms", report.latencyMs)
        .field("gflops", report.gflops)
        .field("power_w", report.powerW)
        .field("energy_efficiency", report.energyEfficiency)
        .field("bandwidth_efficiency", report.bandwidthEfficiency)
        .field("underutilization_percent",
               report.underutilizationPercent)
        .field("per_peg_underutilization",
               report.perPegUnderutilization)
        .field("matrix_stream_bytes", report.matrixStreamBytes)
        .field("total_bytes", report.totalBytes)
        .field("functional_error", report.functionalError);
}

void
writeFields(common::JsonWriter &out, const SpmmReport &report)
{
    out.field("kind", "spmm")
        .field("accelerator", report.accelerator)
        .field("rows", report.rows)
        .field("cols", report.cols)
        .field("n_cols", report.nCols)
        .field("nnz", report.nnz)
        .field("tiles", report.tiles)
        .field("frequency_mhz", report.frequencyMhz)
        .field("cycles", report.cycles)
        .field("latency_ms", report.latencyMs)
        .field("gflops", report.gflops)
        .field("underutilization_percent",
               report.underutilizationPercent)
        .field("functional_error", report.functionalError);
}

void
writeFields(common::JsonWriter &out, const sched::ScheduleStats &stats)
{
    out.field("nnz", stats.nnz)
        .field("total_slots", stats.totalSlots)
        .field("stalls", stats.stalls)
        .field("underutilization_percent", stats.underutilizationPercent)
        .field("per_peg_underutilization", stats.perPegUnderutilization)
        .field("stream_beats_per_channel", stats.streamBeatsPerChannel)
        .field("matrix_beats", stats.matrixBeats)
        .field("matrix_bytes", stats.matrixBytes)
        .field("phases", stats.phases);
}

void
writeFields(common::JsonWriter &out, const ScheduleCacheStats &stats)
{
    out.field("hits", stats.hits)
        .field("misses", stats.misses)
        .field("hit_rate", stats.hitRate())
        .field("evictions", stats.evictions)
        .field("disk_hits", stats.diskHits)
        .field("disk_misses", stats.diskMisses)
        .field("disk_hit_rate", stats.diskHitRate())
        .field("persisted", stats.persisted)
        .field("corrupt", stats.corrupt)
        .field("entries", stats.entries)
        .field("bytes", stats.bytes)
        .field("budget_bytes", stats.budgetBytes)
        .field("plans_built", stats.plansBuilt)
        .field("plan_bytes", stats.planBytes);
}

void
writeFields(common::JsonWriter &out, const Comparison &comparison)
{
    out.object("chason", [&] { writeFields(out, comparison.chason); })
        .object("serpens", [&] { writeFields(out, comparison.serpens); })
        .field("speedup", comparison.speedup())
        .field("transfer_reduction", comparison.transferReduction())
        .field("energy_gain", comparison.energyGain());
}

} // namespace core
} // namespace chason
