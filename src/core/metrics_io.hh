/**
 * @file
 * Machine-readable export of simulation results: a JSON object per
 * run and CSV rows for sweeps — what a downstream user pipes into
 * their plotting stack.
 */

#ifndef DENSIM_CORE_METRICS_IO_HH
#define DENSIM_CORE_METRICS_IO_HH

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hh"
#include "obs/phase_profiler.hh"

namespace densim {

namespace obs {
class Registry;
} // namespace obs

/** A phase's display name and its wall-clock totals. */
using PhaseRow = std::pair<const char *, obs::PhaseProfiler::Totals>;

/**
 * Serialize @p metrics as a single strict-JSON object (no trailing
 * \n). Non-finite values (e.g. runtimeExpansionMax on a run with zero
 * completed jobs) are emitted as `null` — JSON has no nan/inf tokens.
 */
std::string metricsToJson(const SimMetrics &metrics);

/**
 * Serialize an observability registry snapshot:
 * {"counters":{name:value,...},"gauges":{name:{"value":v,"unit":u}}}.
 */
std::string countersToJson(const obs::Registry &registry);

/** The engine phases of @p profiler as rows, in obs::Phase order. */
std::vector<PhaseRow> phaseRows(const obs::PhaseProfiler &profiler);

/**
 * Serialize wall-clock phase totals:
 * {"thermalStep":{"calls":n,"ns":t},...} in row order. Wall time
 * differs run to run, so this never enters SimMetrics, FleetMetrics,
 * digests or checkpoints; the CLI prints it only under --counters.
 */
std::string phasesToJson(std::span<const PhaseRow> rows);

/**
 * The zone-ambient timeline of @p metrics as JSONL (one strict-JSON
 * object per sample; empty string when sampling was off). Same format
 * obs::writeTimelineJsonlFile writes for SimConfig::obsTimelinePath.
 */
std::string timelineToJsonl(const SimMetrics &metrics);

/** Header row matching metricsToCsvRow(). */
std::string metricsCsvHeader();

/**
 * One CSV row of the headline metrics, prefixed by the given
 * scheduler/workload/load identification columns.
 */
std::string metricsToCsvRow(const std::string &scheduler,
                            const std::string &workload, double load,
                            const SimMetrics &metrics);

} // namespace densim

#endif // DENSIM_CORE_METRICS_IO_HH
