/**
 * @file
 * Chrome-trace / Perfetto-compatible timeline sink. Records simulation
 * events (task lifetimes, resource occupancy, flow lifetimes, scheduler
 * steps, counters) and serializes them as the Trace Event Format JSON that
 * chrome://tracing and ui.perfetto.dev load directly:
 * `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
 *
 * Mapping conventions (see docs/OBSERVABILITY.md for the walkthrough):
 *  - pid = one engine run (process_name metadata carries the run label);
 *    a traced sweep shows each run as its own process group.
 *  - tid = one serial track within a run: a resource ("n3.gpu"), a
 *    scheduler ("n0.sched"), or the run's task/flow home track. Resource
 *    occupancy and scheduler steps are B/E duration events (strictly
 *    nested because the underlying resources are serial).
 *  - Tasks and flows are *async* events ('b'/'n'/'e' with an id): they
 *    overlap arbitrarily, and Perfetto lays each id out on its own async
 *    row. Flow rate changes are 'n' (async instant) events carrying the
 *    new rate in args.
 *  - Counters (queue depth, KV occupancy, link rates) are 'C' events.
 *
 * Timestamps are simulated seconds scaled to microseconds (the format's
 * unit). The sink is a passive accumulator: recording never touches the
 * simulator. Not thread-safe; one sink belongs to one run (the
 * Observation umbrella merges per-run sinks under a lock at run end).
 */
#ifndef SMARTINF_OBS_TRACE_SINK_H
#define SMARTINF_OBS_TRACE_SINK_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace smartinf::obs {

/** One recorded trace event (pre-rendered args; see file comment). */
struct TraceEvent {
    char ph = 'i';        ///< Trace Event Format phase
    double ts_us = 0.0;   ///< simulated time, microseconds
    double dur_us = -1.0; ///< 'X' only; <0 = absent
    uint32_t pid = 0;
    uint32_t tid = 0;
    uint64_t id = 0;      ///< async id ('b'/'n'/'e'); 0 = absent
    bool has_id = false;
    std::string name;
    std::string cat;       ///< category; empty = "sim"
    std::string args_json; ///< rendered JSON object body, "" = no args
};

/** Accumulates trace events and writes Trace Event Format JSON. */
class TraceSink
{
  public:
    /** Register (or look up) a process group named @p name. */
    uint32_t process(const std::string &name);
    /** Register (or look up) thread track @p name under @p pid. */
    uint32_t thread(uint32_t pid, const std::string &name);

    /** @name Event recording. Timestamps are simulated seconds. @{ */
    void durationBegin(uint32_t pid, uint32_t tid, const std::string &name,
                       Seconds t, std::string args_json = {});
    void durationEnd(uint32_t pid, uint32_t tid, Seconds t);
    void asyncBegin(uint32_t pid, const std::string &cat,
                    const std::string &name, uint64_t id, Seconds t,
                    std::string args_json = {});
    void asyncInstant(uint32_t pid, const std::string &cat,
                      const std::string &name, uint64_t id, Seconds t,
                      std::string args_json = {});
    void asyncEnd(uint32_t pid, const std::string &cat,
                  const std::string &name, uint64_t id, Seconds t,
                  std::string args_json = {});
    void instant(uint32_t pid, uint32_t tid, const std::string &name,
                 Seconds t, std::string args_json = {});
    /** Counter track @p name; @p args_json carries the series values,
     *  e.g. R"("depth": 3)" (object body without braces). */
    void counter(uint32_t pid, const std::string &name, Seconds t,
                 std::string args_json);
    /** @} */

    std::size_t eventCount() const { return events_.size(); }
    const std::vector<TraceEvent> &events() const { return events_; }

    /**
     * Merge a per-run sink into this document, remapping the other sink's
     * pids through this sink's process-name table (the Observation
     * umbrella labels runs uniquely, so remapped pids never collide).
     */
    void append(const TraceSink &other);

    /** Serialize the full document (metadata + events). */
    void write(std::ostream &os) const;

  private:
    /** Per-process track names ("process_name"/"thread_name" metadata). */
    struct TrackNames {
        std::string process;
        std::vector<std::string> threads; ///< indexed by tid
    };

    std::vector<TraceEvent> events_;
    std::unordered_map<std::string, uint32_t> pid_by_name_;
    std::vector<TrackNames> processes_; ///< indexed by pid
};

} // namespace smartinf::obs

#endif // SMARTINF_OBS_TRACE_SINK_H
