/**
 * @file
 * JSON serialization of reports — the machine-readable counterpart of
 * the benches' text tables, for downstream plotting/tooling.
 *
 * Every report type has a writeFields() overload that writes its
 * members into an object a common::JsonWriter has open, so callers can
 * nest a report or extend its object (chason_sweep, the daemon's
 * stats); toJson() wraps the same members in a compact object.
 */

#ifndef CHASON_CORE_REPORT_JSON_H_
#define CHASON_CORE_REPORT_JSON_H_

#include <string>

#include "arch/timing.h"
#include "common/json.h"
#include "core/engine.h"
#include "core/schedule_cache.h"
#include "core/spmm.h"
#include "sched/analyzer.h"

namespace chason {
namespace core {

/**
 * Write one report's members into the object @p out has open (cycle
 * breakdowns use snake_case category keys; cache counters include
 * both tiers' hit rates).
 */
void writeFields(common::JsonWriter &out, const SpmvReport &report);
void writeFields(common::JsonWriter &out,
                 const arch::CycleBreakdown &cycles);
void writeFields(common::JsonWriter &out, const SpmmReport &report);
void writeFields(common::JsonWriter &out,
                 const sched::ScheduleStats &stats);
void writeFields(common::JsonWriter &out,
                 const ScheduleCacheStats &stats);
void writeFields(common::JsonWriter &out, const Comparison &comparison);

/** Any of the reports above as one compact JSON object. */
template <class Report>
std::string
toJson(const Report &report)
{
    common::JsonWriter out;
    out.object([&] { writeFields(out, report); });
    return out.str();
}

} // namespace core
} // namespace chason

#endif // CHASON_CORE_REPORT_JSON_H_
