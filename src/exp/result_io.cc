#include "exp/result_io.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "common/json.h"
#include "common/streaming_percentiles.h"
#include "serve/metrics.h"

namespace smartinf::exp {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no inf/nan
    std::ostringstream oss;
    oss.precision(std::numeric_limits<double>::max_digits10);
    oss << v;
    return oss.str();
}

namespace {

/**
 * The field-walk visitor (common/field_walk.h) that writes one config
 * block as a JSON object, keys in walk order. It keeps the rows that
 * matter, or every row when @p every_row is set (the system block).
 */
class JsonFields
{
  public:
    JsonFields(std::ostream &os, bool every_row)
        : os_(os), every_row_(every_row)
    {}

    template <typename T>
    void
    operator()(const FieldRow<T> &row)
    {
        if (!row.matters && !every_row_)
            return;
        os_ << sep_ << '"' << row.name << "\":";
        sep_ = ",";
        using V = std::remove_const_t<T>;
        if constexpr (std::is_enum_v<V>)
            os_ << '"' << row.label(row.value) << '"';
        else if constexpr (std::is_same_v<V, bool>)
            os_ << (row.value ? "true" : "false");
        else if constexpr (std::is_floating_point_v<V>)
            os_ << jsonNumber(row.value);
        else
            os_ << row.value;
    }

    void
    enter(const char *key, bool open, const char * = nullptr)
    {
        open_[depth_++] = open;
        if (open) {
            os_ << sep_ << '"' << key << "\":";
            sep_ = "{";
        }
    }

    void
    leave()
    {
        if (open_[--depth_]) {
            os_ << "}";
            sep_ = ",";
        }
    }

    void gate(bool, bool) {}

    template <typename T>
    void rule(bool, const char *, const T &)
    {}

    void finish() { os_ << "}"; }

  private:
    std::ostream &os_;
    bool every_row_;
    const char *sep_ = "{";
    std::array<bool, 4> open_{};
    int depth_ = 0;
};

/** One config block as a JSON object, through its walk. */
template <typename C, typename... Scope>
void
writeFieldsJson(std::ostream &os, const C &config, bool every_row,
                const Scope &...scope)
{
    JsonFields json(os, every_row);
    walkFields(json, config, scope...);
    json.finish();
}

/**
 * The serve block. Its top level keeps a JSON key order of its own (the
 * client knobs first, the arrival knobs in every client mode, the stream
 * size as num_requests), so it is written by hand; its nested blocks walk
 * their rows.
 */
void
writeServeConfigJson(std::ostream &os, const serve::ServeConfig &c)
{
    os << "{\"scheduler\":\"" << serve::schedulerPolicyName(c.scheduler)
       << "\",\"client_mode\":\"" << serve::clientModeName(c.client_mode)
       << "\",\"num_requests\":" << c.streamSize()
       << ",\"arrival_rate\":" << jsonNumber(c.arrival_rate)
       << ",\"seed\":" << c.seed
       << ",\"prompt_tokens\":" << c.prompt_tokens
       << ",\"output_tokens\":" << c.output_tokens
       << ",\"prompt_lengths\":";
    writeFieldsJson(os, c.prompt_lengths, false);
    os << ",\"output_lengths\":";
    writeFieldsJson(os, c.output_lengths, false);
    os << ",\"max_batch\":" << c.max_batch
       << ",\"weight_wire_fraction\":" << jsonNumber(c.weight_wire_fraction)
       << ",\"concurrency\":" << c.concurrency
       << ",\"think_time_s\":" << jsonNumber(c.think_time)
       << ",\"kv\":";
    writeFieldsJson(os, c.kv, false);
    os << ",\"ctrl\":";
    writeFieldsJson(os, c.ctrl, false);
    os << ",\"modulation\":";
    writeFieldsJson(os, c.modulation, false, true);
    if (c.record_cap > 0)
        os << ",\"record_cap\":" << c.record_cap
           << ",\"stream_window_s\":" << jsonNumber(c.stream_window_s);
    os << ",\"trace_driven\":" << (c.trace.empty() ? "false" : "true")
       << "}";
}

void
writeSpecJson(std::ostream &os, const RunSpec &spec)
{
    os << "{\"label\":\"" << jsonEscape(spec.label) << "\""
       << ",\"workload\":\"" << train::workloadKindName(spec.workload)
       << "\"";
    if (spec.workload == train::WorkloadKind::Serving) {
        os << ",\"serve\":";
        writeServeConfigJson(os, spec.serve);
    }
    os << ",\"model\":{\"name\":\"" << jsonEscape(spec.model.name) << "\""
       << ",\"family\":\"" << train::familyName(spec.model.family) << "\""
       << ",\"num_params\":" << jsonNumber(spec.model.num_params)
       << ",\"num_layers\":" << spec.model.num_layers
       << ",\"hidden_dim\":" << spec.model.hidden_dim << "}"
       << ",\"train\":{\"batch_size\":" << spec.train.batch_size
       << ",\"seq_len\":" << spec.train.seq_len << "}"
       << ",\"system\":";
    writeFieldsJson(os, spec.system, true, true);
    os << "}";
}

void
writeTrafficJson(std::ostream &os, const train::TrafficLedger &t)
{
    os << "{\"shared_opt_read\":" << jsonNumber(t.shared_opt_read)
       << ",\"shared_opt_write\":" << jsonNumber(t.shared_opt_write)
       << ",\"shared_grad_read\":" << jsonNumber(t.shared_grad_read)
       << ",\"shared_grad_write\":" << jsonNumber(t.shared_grad_write)
       << ",\"shared_param_up\":" << jsonNumber(t.shared_param_up)
       << ",\"internal_read\":" << jsonNumber(t.internal_read)
       << ",\"internal_write\":" << jsonNumber(t.internal_write)
       << ",\"internode_tx\":" << jsonNumber(t.internode_tx)
       << ",\"internode_rx\":" << jsonNumber(t.internode_rx) << "}";
}

} // namespace

void
writeRecordJson(std::ostream &os, const RunRecord &record)
{
    os << "{\"spec\":";
    writeSpecJson(os, record.spec);
    os << ",\"spec_hash\":\"" << hashHex(record.spec_hash) << "\""
       << ",\"engine\":\"" << jsonEscape(record.engine_name) << "\""
       << ",\"result\":{\"forward_s\":"
       << jsonNumber(record.result.phases.forward) << ",\"backward_s\":"
       << jsonNumber(record.result.phases.backward) << ",\"update_s\":"
       << jsonNumber(record.result.phases.update) << ",\"iteration_s\":"
       << jsonNumber(record.result.iteration_time)
       << ",\"tokens_per_s\":" << jsonNumber(record.tokensPerSecond())
       << ",\"traffic\":";
    writeTrafficJson(os, record.result.traffic);
    // Fault/recovery stats appear only when the run injected faults, so
    // fault-free records keep their exact historic shape.
    const train::FaultStats &f = record.result.fault;
    if (f.enabled) {
        os << ",\"fault\":{\"node_crashes\":" << f.node_crashes
           << ",\"link_degrades\":" << f.link_degrades;
        if (record.result.kind == train::WorkloadKind::Serving)
            os << ",\"requests_displaced\":" << f.requests_displaced
               << ",\"retries_dispatched\":" << f.retries_dispatched
               << ",\"requests_shed\":" << f.requests_shed;
        else
            os << ",\"checkpoints_written\":" << f.checkpoints_written
               << ",\"restarts\":" << f.restarts
               << ",\"iterations_replayed\":" << f.iterations_replayed;
        os << "}";
    }
    if (record.result.kind == train::WorkloadKind::Serving) {
        const serve::ServingMetrics m = serve::summarize(record.result);
        os << ",\"serving\":{\"num_requests\":" << m.num_requests
           << ",\"latency_p50_s\":" << jsonNumber(m.latency.p50)
           << ",\"latency_p95_s\":" << jsonNumber(m.latency.p95)
           << ",\"latency_p99_s\":" << jsonNumber(m.latency.p99)
           << ",\"latency_mean_s\":" << jsonNumber(m.latency.mean)
           << ",\"ttft_p50_s\":" << jsonNumber(m.ttft.p50)
           << ",\"ttft_p99_s\":" << jsonNumber(m.ttft.p99)
           << ",\"queue_delay_p99_s\":" << jsonNumber(m.queue_delay.p99)
           << ",\"requests_per_s\":" << jsonNumber(m.requests_per_sec)
           << ",\"output_tokens_per_s\":"
           << jsonNumber(m.output_tokens_per_sec)
           << ",\"mean_queue_depth\":" << jsonNumber(m.mean_queue_depth)
           << ",\"peak_queue_depth\":" << m.peak_queue_depth
           << ",\"num_served\":" << m.num_served
           << ",\"num_shed\":" << m.num_shed
           << ",\"num_retried\":" << m.num_retried
           << ",\"total_retries\":" << m.total_retries
           << ",\"success_rate\":" << jsonNumber(m.success_rate)
           << ",\"goodput_per_s\":" << jsonNumber(m.goodput)
           << ",\"shed_wait_p99_s\":" << jsonNumber(m.shed_wait.p99)
           << ",\"num_rejected\":" << m.num_rejected
           << ",\"num_deferred\":" << m.num_deferred
           << ",\"total_deferrals\":" << m.total_deferrals
           << ",\"reject_wait_p99_s\":" << jsonNumber(m.reject_wait.p99)
           << ",\"load_imbalance\":" << jsonNumber(m.load_imbalance)
           << ",\"replica_requests\":[";
        for (std::size_t i = 0; i < m.replica_requests.size(); ++i) {
            if (i)
                os << ",";
            os << m.replica_requests[i];
        }
        os << "]";
        const train::CtrlStats &cs = record.result.ctrl;
        if (cs.enabled)
            os << ",\"ctrl\":{\"rejected\":" << cs.rejected
               << ",\"deferrals\":" << cs.deferrals
               << ",\"scale_ups\":" << cs.scale_ups
               << ",\"scale_downs\":" << cs.scale_downs
               << ",\"warmups_completed\":" << cs.warmups_completed
               << ",\"peak_active_replicas\":" << cs.peak_active_replicas
               << "}";
        if (record.spec.serve.kv.paged()) {
            const train::KvCacheStats &kv = record.result.kv;
            os << ",\"kv_cache\":{\"prefix_hits\":" << kv.prefix_hits
               << ",\"prefix_misses\":" << kv.prefix_misses
               << ",\"prefix_hit_rate\":" << jsonNumber(kv.hitRate())
               << ",\"prefix_evictions\":" << kv.prefix_evictions
               << ",\"cow_copies\":" << kv.cow_copies
               << ",\"peak_used_blocks\":" << kv.peak_used_blocks
               << ",\"peak_span_blocks\":" << kv.peak_span_blocks
               << ",\"peak_fragmentation\":"
               << jsonNumber(kv.peak_fragmentation)
               << ",\"peak_block_table_bytes\":"
               << jsonNumber(kv.peak_block_table_bytes) << "}";
        }
        os << ",\"requests\":[";
        const auto &reqs = record.result.requests;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const auto &r = reqs[i];
            if (i)
                os << ",";
            os << "{\"id\":" << r.id << ",\"node\":" << r.node
               << ",\"arrival_s\":" << jsonNumber(r.arrival)
               << ",\"start_s\":" << jsonNumber(r.start)
               << ",\"first_token_s\":" << jsonNumber(r.first_token)
               << ",\"finish_s\":" << jsonNumber(r.finish)
               << ",\"prompt_tokens\":" << r.prompt_tokens
               << ",\"output_tokens\":" << r.output_tokens
               << ",\"retries\":" << r.retries
               << ",\"shed\":" << (r.shed ? "true" : "false")
               << ",\"rejected\":" << (r.rejected ? "true" : "false")
               << ",\"deferrals\":" << r.deferrals << "}";
        }
        os << "]";
        // Streaming provenance (record_cap runs only): the record array
        // above is a truncated prefix, so the cap, the sketch exactness,
        // and the windowed rates ride along. Uncapped records keep their
        // exact historic shape.
        const train::StreamingServeStats &ss = record.result.streaming;
        if (record.spec.serve.record_cap > 0) {
            os << ",\"streaming\":{\"record_cap\":"
               << record.spec.serve.record_cap
               << ",\"records_retained\":" << ss.records_retained
               << ",\"percentiles_exact\":"
               << (ss.percentilesExact() ? "true" : "false")
               << ",\"percentile_max_rel_error\":"
               << jsonNumber(ss.percentilesExact()
                                 ? 0.0
                                 : StreamingPercentiles::maxRelativeError())
               << ",\"window_s\":" << jsonNumber(ss.windows.windowSeconds())
               << ",\"peak_arrivals_per_s\":"
               << jsonNumber(ss.windows.peakRate("arrivals"))
               << ",\"peak_retirements_per_s\":"
               << jsonNumber(ss.windows.peakRate("retirements"))
               << "}";
        }
        os << "}";
    }
    os << "}}";
}

void
writeRecordsJson(std::ostream &os, const std::vector<RunRecord> &records)
{
    os << "[";
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (i)
            os << ",";
        writeRecordJson(os, records[i]);
    }
    os << "]";
}

void
writeTableJson(std::ostream &os, const Table &table)
{
    os << "{\"title\":\"" << jsonEscape(table.title()) << "\",\"header\":[";
    for (std::size_t i = 0; i < table.header().size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << jsonEscape(table.header()[i]) << "\"";
    }
    os << "],\"rows\":[";
    for (std::size_t r = 0; r < table.rows().size(); ++r) {
        if (r)
            os << ",";
        os << "[";
        const auto &row = table.rows()[r];
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << ",";
            os << "\"" << jsonEscape(row[c]) << "\"";
        }
        os << "]";
    }
    os << "]}";
}

void
writeRecordsCsv(std::ostream &os, const std::vector<RunRecord> &records)
{
    os << "label,workload,model,strategy,num_devices,gpu,num_gpus,optimizer,"
          "compression_wire_fraction,num_nodes,overlap_grad_sync,"
          "congested_topology,fpga_dram_usable,spec_hash,forward_s,"
          "backward_s,update_s,iteration_s,tokens_per_s,"
          "shared_total_bytes,internode_bytes,scheduler,arrival_rate,"
          "max_batch,num_requests,latency_p50_s,latency_p95_s,"
          "latency_p99_s,requests_per_s\n";
    // Keep the CSV single-schema with no quoting: every free-form string
    // field gets its separators replaced.
    auto sanitize = [](std::string s) {
        for (auto &c : s)
            if (c == ',' || c == '\n' || c == '\r')
                c = ';';
        return s;
    };
    for (const auto &rec : records) {
        const auto &sys = rec.spec.system;
        os << sanitize(rec.spec.label) << ","
           << train::workloadKindName(rec.spec.workload) << ","
           << sanitize(rec.spec.model.name) << ","
           << train::strategyName(sys.strategy) << "," << sys.num_devices
           << "," << train::gpuName(sys.gpu) << "," << sys.num_gpus << ","
           << optim::optimizerName(sys.optimizer) << ","
           << jsonNumber(sys.compression_wire_fraction) << ","
           << sys.num_nodes << "," << (sys.overlap_grad_sync ? 1 : 0) << ","
           << (sys.congested_topology ? 1 : 0) << ","
           << jsonNumber(sys.calib.fpga_dram_usable) << ","
           << hashHex(rec.spec_hash) << ","
           << jsonNumber(rec.result.phases.forward) << ","
           << jsonNumber(rec.result.phases.backward) << ","
           << jsonNumber(rec.result.phases.update) << ","
           << jsonNumber(rec.result.iteration_time) << ","
           << jsonNumber(rec.tokensPerSecond()) << ","
           << jsonNumber(rec.result.traffic.sharedTotal()) << ","
           << jsonNumber(rec.result.traffic.internodeTotal());
        if (rec.result.kind == train::WorkloadKind::Serving) {
            const serve::ServingMetrics m = serve::summarize(rec.result);
            os << "," << serve::schedulerPolicyName(rec.spec.serve.scheduler)
               << "," << jsonNumber(rec.spec.serve.arrival_rate) << ","
               << rec.spec.serve.max_batch << "," << m.num_requests << ","
               << jsonNumber(m.latency.p50) << ","
               << jsonNumber(m.latency.p95) << ","
               << jsonNumber(m.latency.p99) << ","
               << jsonNumber(m.requests_per_sec) << "\n";
        } else {
            os << ",,,,,,,,\n";
        }
    }
}

} // namespace smartinf::exp
