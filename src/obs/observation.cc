#include "obs/observation.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/logging.h"
#include "sim/resource.h"
#include "sim/task_graph.h"

namespace smartinf::obs {

namespace {

std::atomic<Observation *> g_current{nullptr};

/**
 * Minimum simulated-time spacing between successive *timeline* samples of
 * one high-churn series (link utilization, per-flow rate). Every max-min
 * recompute re-reports the whole contention component, so an unthrottled
 * timeline is O(events x component size); throttling bounds it to
 * O(duration / dt) per series, with sampled-counter semantics (sub-quantum
 * churn aliases). The metrics CSV sees every exact sample regardless.
 */
constexpr Seconds kTraceSampleDt = 0.05;

/** Compact numeric literal for rendered args ("%.10g" round-trips the
 *  values the timeline cares about without bloating the JSON). */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

/**
 * Low-resolution numeric literal for *high-churn* trace values (link
 * utilization, per-flow rates). Every max-min recompute re-reports every
 * value in the touched component, so full-precision rendering would defeat
 * the transition dedupe and multiply the trace size by the component size.
 * Three significant digits keep the timeline readable while collapsing
 * sub-0.1% churn; the metrics CSV keeps exact values.
 */
std::string
coarse(double v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%.3g", v);
    return buf;
}

std::string
routeName(const net::Route &route)
{
    std::string out;
    for (const net::Link *link : route) {
        if (!out.empty())
            out += '>';
        out += link->name();
    }
    return out.empty() ? std::string("(empty)") : out;
}

} // namespace

// ---------------------------------------------------------------------------
// RunObservation

bool
RunObservation::Throttle::admit(const std::string &rendered, Seconds now)
{
    if (emitted && (args == rendered || now - t < kTraceSampleDt))
        return false; // no visible change, or churn inside the quantum
    args = rendered;
    t = now;
    emitted = true;
    return true;
}

RunObservation::RunObservation(std::string label,
                               const ObservationOptions &opts,
                               sim::Simulator &sim, net::FlowNetwork &net)
    : label_(std::move(label)), sim_(sim), net_(net),
      counters_(opts.metrics_window)
{
    pid_ = trace_.process(label_);
    SI_ASSERT(sim_.observer() == nullptr && net_.observer() == nullptr,
              "run already observed");
    sim_.setObserver(this);
    net_.setObserver(this);
    prev_log_clock_ = exchangeLogClock([this] { return sim_.now(); });
}

RunObservation::~RunObservation()
{
    exchangeLogClock(std::move(prev_log_clock_));
    if (sim_.observer() == this)
        sim_.setObserver(nullptr);
    if (net_.observer() == this)
        net_.setObserver(nullptr);
}

uint32_t
RunObservation::track(const std::string &name)
{
    auto it = track_by_name_.find(name);
    if (it != track_by_name_.end())
        return it->second;
    const uint32_t tid = trace_.thread(pid_, name);
    track_by_name_.emplace(name, tid);
    return tid;
}

void
RunObservation::traceCounter(const std::string &name, Seconds t,
                             std::string args_json)
{
    if (counter_throttle_[name].admit(args_json, t))
        trace_.counter(pid_, name, t, std::move(args_json));
}

void
RunObservation::metric(const std::string &name, Seconds t, double value)
{
    counters_.record(label_ + ": " + name, t, value);
}

void
RunObservation::taskStarted(std::size_t id, const sim::TaskLabel &label,
                            Seconds now)
{
    trace_.asyncBegin(pid_, "task", label.str(), id, now);
    metric("events.outstanding", now,
           static_cast<double>(sim_.queue().size()));
}

void
RunObservation::taskFinished(std::size_t id, const sim::TaskLabel &label,
                             Seconds now)
{
    trace_.asyncEnd(pid_, "task", label.str(), id, now);
}

void
RunObservation::taskAbandoned(std::size_t id, const sim::TaskLabel &label,
                              Seconds now)
{
    // Close the slice opened by taskStarted so the timeline stays
    // well-formed; the "revoked" arg distinguishes it from a completion.
    trace_.asyncInstant(pid_, "task", label.str(), id, now,
                        "\"revoked\": true");
    trace_.asyncEnd(pid_, "task", label.str(), id, now);
}

void
RunObservation::jobStarted(const sim::Resource &resource, double work,
                           Seconds now)
{
    trace_.durationBegin(pid_, track(resource.name()), "job", now,
                         "\"work\": " + num(work));
}

void
RunObservation::jobFinished(const sim::Resource &resource, double work,
                            Seconds now)
{
    (void)work;
    trace_.durationEnd(pid_, track(resource.name()), now);
}

void
RunObservation::flowStarted(net::FlowId id, const net::Route &route,
                            Bytes bytes, Seconds now)
{
    std::string name = routeName(route);
    trace_.asyncBegin(pid_, "flow", name, id, now,
                      "\"bytes\": " + num(bytes));
    flow_names_.emplace(id, std::move(name));
    metric("flows.active", now, static_cast<double>(net_.activeFlows()));
}

void
RunObservation::flowRateChanged(net::FlowId id, BytesPerSec rate,
                                Seconds now)
{
    // Recomputes re-report every flow of the touched component; the
    // timeline needs the *first* rate and subsequent transitions, throttled
    // to the sampling quantum — neighbouring arrivals shift every
    // component member's exact rate, which would otherwise make the
    // instant stream O(events × component size).
    std::string rendered = "\"rate_Bps\": " + coarse(rate);
    if (!flow_rate_throttle_[id].admit(rendered, now))
        return;
    auto name = flow_names_.find(id);
    trace_.asyncInstant(pid_, "flow",
                        name != flow_names_.end() ? name->second : "flow",
                        id, now, std::move(rendered));
}

void
RunObservation::linkRateChanged(const net::Link &link, BytesPerSec aggregate,
                                Seconds now)
{
    const double util =
        link.capacity() > 0.0 ? aggregate / link.capacity() : 0.0;
    traceCounter("link " + link.name(), now, "\"util\": " + coarse(util));
    metric("link." + link.name() + ".util", now, util);
}

void
RunObservation::flowFinished(net::FlowId id, Seconds now)
{
    auto name = flow_names_.find(id);
    trace_.asyncEnd(pid_, "flow",
                    name != flow_names_.end() ? name->second : "flow", id,
                    now);
    if (name != flow_names_.end())
        flow_names_.erase(name);
    flow_rate_throttle_.erase(id);
    // activeFlows() still counts this flow (we fire before its slot
    // retires), so subtract the one that just finished.
    metric("flows.active", now,
           static_cast<double>(net_.activeFlows()) - 1.0);
}

void
RunObservation::flowCancelled(net::FlowId id, Seconds now)
{
    // Latency-phase cancellations never opened a slice (flowStarted only
    // fires at bulk entry), so only close what was begun.
    auto name = flow_names_.find(id);
    if (name != flow_names_.end()) {
        trace_.asyncEnd(pid_, "flow", name->second, id, now);
        flow_names_.erase(name);
        // A bulk-phase flow leaves the contention set; activeFlows() still
        // counts it while this hook fires, as in flowFinished().
        metric("flows.active", now,
               static_cast<double>(net_.activeFlows()) - 1.0);
    }
    flow_rate_throttle_.erase(id);
    metric("flows.cancelled", now, 1.0);
}

void
RunObservation::faultInjected(const std::string &kind, int node, Seconds now)
{
    ++faults_seen_;
    trace_.instant(pid_, track("faults"),
                   kind + " n" + std::to_string(node), now,
                   "\"kind\": \"" + kind + "\", \"node\": " +
                       std::to_string(node));
    traceCounter("faults", now,
                 "\"injected\": " + std::to_string(faults_seen_));
    metric("faults." + kind, now, 1.0);
}

void
RunObservation::recoveryAction(const std::string &action, int node,
                               Seconds now)
{
    trace_.instant(pid_, track("faults"),
                   action + " n" + std::to_string(node), now,
                   "\"action\": \"" + action + "\", \"node\": " +
                       std::to_string(node));
    metric("recovery." + action, now, 1.0);
}

void
RunObservation::schedulerStepBegun(int node, int step, int batch_size,
                                   int prefills, Seconds now)
{
    trace_.durationBegin(pid_, track("n" + std::to_string(node) + ".sched"),
                         "step " + std::to_string(step), now,
                         "\"batch\": " + std::to_string(batch_size) +
                             ", \"prefills\": " + std::to_string(prefills));
    metric("batch.n" + std::to_string(node), now,
           static_cast<double>(batch_size));
}

void
RunObservation::schedulerStepFinished(int node, Seconds now)
{
    trace_.durationEnd(pid_, track("n" + std::to_string(node) + ".sched"),
                       now);
}

void
RunObservation::queueDepth(int node, int depth, Seconds now)
{
    const std::string tag = "n" + std::to_string(node);
    traceCounter("queue " + tag, now,
                 "\"depth\": " + std::to_string(depth));
    metric("queue_depth." + tag, now, static_cast<double>(depth));
}

void
RunObservation::runningBatch(int node, int size, Seconds now)
{
    const std::string tag = "n" + std::to_string(node);
    traceCounter("batch " + tag, now, "\"size\": " + std::to_string(size));
    metric("batch." + tag, now, static_cast<double>(size));
}

void
RunObservation::requestRetired(int node, int request_id, Seconds arrival,
                               Seconds finish, Seconds now)
{
    trace_.instant(pid_, track("n" + std::to_string(node) + ".sched"),
                   "retire r" + std::to_string(request_id), now,
                   "\"latency_s\": " + num(finish - arrival));
    metric("request_latency_s.n" + std::to_string(node), now,
           finish - arrival);
}

void
RunObservation::kvOccupancy(const std::string &scope, Bytes hbm, Bytes host,
                            Bytes csd, Seconds now)
{
    const std::string name = scope.empty() ? "kv" : "kv " + scope;
    traceCounter(name, now,
                 "\"hbm_MB\": " + coarse(hbm / 1e6) +
                     ", \"host_MB\": " + coarse(host / 1e6) +
                     ", \"csd_MB\": " + coarse(csd / 1e6));
    metric(name + ".hbm_bytes", now, hbm);
    metric(name + ".host_bytes", now, host);
    metric(name + ".csd_bytes", now, csd);
}

void
RunObservation::kvAllocator(const std::string &scope, int used_hbm,
                            int free_hbm, int used_host, int free_host,
                            int used_csd, double fragmentation,
                            Bytes block_table_bytes, double prefix_hit_rate,
                            Seconds now)
{
    const std::string name =
        scope.empty() ? "kvalloc" : "kvalloc " + scope;
    traceCounter(name, now,
                 "\"hbm_used\": " + std::to_string(used_hbm) +
                     ", \"hbm_free\": " + std::to_string(free_hbm) +
                     ", \"host_used\": " + std::to_string(used_host) +
                     ", \"csd_used\": " + std::to_string(used_csd) +
                     ", \"frag\": " + coarse(fragmentation) +
                     ", \"hit_rate\": " + coarse(prefix_hit_rate));
    metric(name + ".hbm_used_blocks", now, static_cast<double>(used_hbm));
    metric(name + ".hbm_free_blocks", now, static_cast<double>(free_hbm));
    metric(name + ".host_used_blocks", now, static_cast<double>(used_host));
    metric(name + ".host_free_blocks", now, static_cast<double>(free_host));
    metric(name + ".csd_used_blocks", now, static_cast<double>(used_csd));
    metric(name + ".fragmentation", now, fragmentation);
    metric(name + ".block_table_bytes", now, block_table_bytes);
    metric(name + ".prefix_hit_rate", now, prefix_hit_rate);
}

void
RunObservation::ctrlDecision(const std::string &kind, int node, Seconds now)
{
    trace_.instant(pid_, track("ctrl"),
                   kind + " n" + std::to_string(node), now,
                   "\"kind\": \"" + kind + "\", \"node\": " +
                       std::to_string(node));
    metric("ctrl." + kind, now, 1.0);
}

void
RunObservation::ctrlReplicas(int active, int warming, int draining,
                             Seconds now)
{
    traceCounter("ctrl replicas", now,
                 "\"active\": " + std::to_string(active) +
                     ", \"warming\": " + std::to_string(warming) +
                     ", \"draining\": " + std::to_string(draining));
    metric("ctrl.replicas_active", now, static_cast<double>(active));
    metric("ctrl.replicas_warming", now, static_cast<double>(warming));
    metric("ctrl.replicas_draining", now, static_cast<double>(draining));
}

void
RunObservation::sloAttainment(int node, bool attained, Seconds now)
{
    // 0/1 samples: the CounterSampler's windowed mean is the windowed
    // attainment rate, per replica — the satellite aggregation the whole-
    // run record vectors cannot provide incrementally.
    metric("slo_attained.n" + std::to_string(node), now,
           attained ? 1.0 : 0.0);
}

// ---------------------------------------------------------------------------
// Observation

Observation::Observation(ObservationOptions options)
    : options_(std::move(options)), counters_(options_.metrics_window)
{
    // counters_ rejects a non-finite or non-positive window.
}

Observation::~Observation()
{
    uninstall();
}

Observation *
Observation::current()
{
    return g_current.load(std::memory_order_acquire);
}

void
Observation::install()
{
    Observation *expected = nullptr;
    const bool won = g_current.compare_exchange_strong(
        expected, this, std::memory_order_release);
    SI_REQUIRE(won || expected == this,
               "another Observation is already installed");
}

void
Observation::uninstall()
{
    Observation *expected = this;
    g_current.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_release);
}

std::unique_ptr<RunObservation>
Observation::beginRun(const std::string &label, sim::Simulator &sim,
                      net::FlowNetwork &net)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string tagged =
        "r" + std::to_string(runs_started_++) + ": " + label;
    return std::make_unique<RunObservation>(tagged, options_, sim, net);
}

void
Observation::finishRun(std::unique_ptr<RunObservation> run)
{
    SI_ASSERT(run != nullptr, "finishRun without a run");
    std::lock_guard<std::mutex> lock(mutex_);
    trace_.append(run->trace());
    counters_.merge(run->counters());
    ++runs_finished_;
    // run's destructor detaches it from the simulator/network here, while
    // both are still alive (Engine::run finishes before ctx dies).
}

bool
Observation::writeOutputs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    bool ok = true;
    if (!options_.trace_path.empty()) {
        std::ofstream os(options_.trace_path);
        if (os)
            trace_.write(os);
        else
            ok = false;
    }
    if (!options_.metrics_path.empty()) {
        std::ofstream os(options_.metrics_path);
        if (os)
            counters_.writeCsv(os);
        else
            ok = false;
    }
    return ok;
}

} // namespace smartinf::obs
