/**
 * @file
 * Configuration of one inference-serving experiment: the client model
 * (open-loop Poisson arrivals, an explicit trace, or closed-loop clients
 * with think time), per-request token counts (fixed or sampled from seeded
 * length distributions), the batch-scheduling policy, and the KV-cache
 * tiering model. Every field here can affect the simulated result; the
 * walks at the end of this file say when, for validation, the RunSpec hash
 * and the spec JSON at once — add new knobs there, or cached results
 * alias.
 *
 * Determinism contract (applies to every knob in this file): configs are
 * consumed only (a) before the simulation starts, by
 * generateRequestStream() — which draws *all* randomness up front from the
 * seeded PRNG — or (b) inside deterministic event callbacks, on state that
 * is a pure function of the stream and the spec. Nothing here may read
 * wall-clock time, thread ids, or any other run-environment state, which
 * is what keeps serving records bit-identical across repeats, `--jobs`
 * counts, and build types.
 */
#ifndef SMARTINF_SERVE_SERVE_CONFIG_H
#define SMARTINF_SERVE_SERVE_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/field_walk.h"
#include "common/units.h"
#include "ctrl/ctrl_config.h"
#include "fault/fault_config.h"

namespace smartinf::serve {

/** How the per-node batch scheduler admits requests. */
enum class SchedulerPolicy {
    /** A batch is formed when the node is idle and runs to full
     *  completion (every request emits all its tokens) before the next
     *  batch is admitted. */
    Fifo,
    /** Continuous batching (Orca/vLLM style): requests join and leave the
     *  running batch at decode-step boundaries; newly admitted requests
     *  prefill in the step they join. */
    Continuous
};

/** Stable lowercase name ("fifo"/"continuous"); never allocates. */
const char *schedulerPolicyName(SchedulerPolicy policy);

/** Every policy, in declaration order (sweep axes). */
std::vector<SchedulerPolicy> allSchedulerPolicies();

/** How requests are offered to the cluster. */
enum class ClientMode {
    /**
     * Arrivals are independent of service: a finite Poisson stream (or an
     * explicit trace) submits at pre-computed times no matter how far the
     * servers have fallen behind. Overload shows up as unbounded queue
     * delay — the right model for measuring saturation.
     */
    OpenLoop,
    /**
     * A fixed population of @c concurrency clients, each holding exactly
     * one request in flight: submit, wait for the last token, think for
     * @c think_time simulated seconds, submit the next. Offered load
     * self-regulates to service capacity — the right model for
     * throughput–concurrency curves. Issue times are *reactive* (they
     * depend on simulated completions), but they are still a deterministic
     * function of the spec: all randomness (lengths) is pre-drawn, and the
     * next submission is scheduled from the retirement event callback.
     */
    ClosedLoop
};

/** Stable lowercase name ("open-loop"/"closed-loop"); never allocates. */
const char *clientModeName(ClientMode mode);

/** Family of a per-request token-length distribution. */
enum class LengthDistKind {
    /** Every request uses the ServeConfig scalar (prompt_tokens /
     *  output_tokens). Draws nothing from the PRNG. */
    Fixed,
    /** Uniform integer in [min_tokens, max_tokens]. */
    Uniform,
    /** round(exp(N(log_mean, log_sigma))) clamped to
     *  [min_tokens, max_tokens] — the heavy-tailed shape of production
     *  request mixes (a few very long outputs among many short ones). */
    Lognormal
};

/** Stable lowercase name ("fixed"/"uniform"/"lognormal"). */
const char *lengthDistKindName(LengthDistKind kind);

/**
 * A per-request token-length distribution (prompt or output). All samples
 * are drawn *before* the simulation by generateRequestStream(), from a
 * PRNG stream derived from ServeConfig::seed that is separate from the
 * arrival stream — so enabling sampled lengths never perturbs the arrival
 * times, and Fixed (the default) draws nothing at all, keeping default
 * configs bit-identical to the pre-distribution behavior.
 */
struct LengthDistribution {
    LengthDistKind kind = LengthDistKind::Fixed;
    /** Inclusive lower bound (Uniform) / clamp floor (Lognormal). */
    int min_tokens = 1;
    /** Inclusive upper bound (Uniform) / clamp ceiling (Lognormal). */
    int max_tokens = 8192;
    /** Mean of the underlying normal, in ln(tokens) (Lognormal only). */
    double log_mean = 5.0;
    /** Stddev of the underlying normal, in ln-space (Lognormal only). */
    double log_sigma = 1.0;
};

/** How resident KV is laid out across the tiered byte space. */
enum class KvLayout {
    /**
     * The legacy admission-order layout (the default): every step's
     * resident KV is one contiguous range from offset 0, so retirement
     * never frees reusable holes and the HBM budget acts as a watermark.
     * Bit-identical to the pre-paging model.
     */
    Contiguous,
    /**
     * vLLM-style paged allocation (src/kv/): fixed block_tokens pages
     * with free-list reuse and per-request block tables. Retirement
     * returns pages, fragmentation and block-table overhead become
     * measurable, and shared-prefix caching becomes possible.
     */
    Paged
};

/** Stable lowercase name ("contiguous"/"paged"); never allocates. */
const char *kvLayoutName(KvLayout layout);

/**
 * The shared-prompt mix: which requests carry a shared system prompt
 * (LengthDistribution-style, sampled *before* the simulation from a PRNG
 * stream derived from ServeConfig::seed — independent of both the arrival
 * and the length streams, so enabling prefix sharing never perturbs
 * either). Requires the paged KV layout: only per-request block tables
 * can map the same physical pages twice.
 */
struct SharedPrefixConfig {
    /** Probability a request carries a shared prefix (0 disables the
     *  mix; every field below is then inert). */
    double share_fraction = 0.0;
    /** Distinct shared prompts; each sharing request picks one uniformly
     *  (its prefix_id in [0, num_prefixes)). */
    int num_prefixes = 1;
    /** Tokens of the shared prompt, clamped per request to its own
     *  prompt length. */
    int prefix_tokens = 128;

    /** True when the mix draws anything (share_fraction > 0). */
    bool enabled() const { return share_fraction > 0.0; }
};

/**
 * The KV-cache model: per-request key/value state grows with every
 * processed token and must live *somewhere*. Tiers fill strictly in order
 * HBM -> host memory -> CSD storage; KV resident beyond hbm_budget is read
 * back through the GPU link every decode step (a real flow, contending
 * with parameter streaming), and KV beyond hbm_budget + host_budget
 * additionally crosses the storage substrate. Disabled by default:
 * existing configs simulate bit-identically to the pre-KV model.
 * See DESIGN.md "The KV-cache model" for the exact tiering/flow rules.
 */
struct KvCacheConfig {
    /** Master switch. When false every other field is inert (and the
     *  RunSpec hash normalizes them out). */
    bool enabled = false;
    /**
     * GPU HBM available for KV state (weights are streamed, not resident,
     * so most of HBM is KV budget). KV within this budget is read for
     * free — on-package bandwidth is not the bottleneck this model cares
     * about. Must be > 0 when enabled: a zero budget cannot hold even the
     * current decode step's working set.
     */
    Bytes hbm_budget = GiB(4.0);
    /**
     * Host-memory tier capacity for spilled KV. Resident KV in
     * (hbm_budget, hbm_budget + host_budget] is re-read over the GPU link
     * each decode step; beyond that it spills to the CSDs and each read
     * additionally crosses the storage media + shared interconnect.
     */
    Bytes host_budget = GiB(64.0);
    /** Byte-space layout; Paged swaps in the src/kv/ allocator. */
    KvLayout layout = KvLayout::Contiguous;
    /** Tokens per KV page (Paged only; inert — and normalized out of the
     *  RunSpec hash — under the contiguous layout). */
    int block_tokens = 32;
    /** Shared-prompt mix (Paged only; disabled by default). */
    SharedPrefixConfig prefix;

    /** True when the paged allocator is active. */
    bool paged() const { return enabled && layout == KvLayout::Paged; }
};

/**
 * Non-homogeneous arrival-rate modulation for open-loop generated streams:
 * a sinusoidal diurnal component on the base rate plus seeded burst
 * episodes that multiply it. Arrivals are drawn by thinning (accept/reject
 * at the envelope rate), so the modulated stream still comes from the
 * arrival stream alone — but it consumes *two* uniforms per candidate
 * instead of one, which is why `enabled` gates the whole struct: disabled
 * configs draw exactly the legacy single-uniform sequence and stay
 * byte-identical to every pre-modulation run. Burst episode boundaries
 * come from a sixth derived stream (burstSeed), so toggling bursts never
 * perturbs the accept/reject draws' positions within the arrival stream.
 */
struct ArrivalModulationConfig {
    /** Master switch. When false every other field is inert (and the
     *  RunSpec hash normalizes them out). Requires at least one component
     *  armed (diurnal amplitude or burst multiplier) — an enabled no-op
     *  would still switch the generator to two-uniform thinning, changing
     *  results without changing any effective rate, and validate()
     *  rejects that contradiction. */
    bool enabled = false;
    /** Relative swing of the sinusoidal component: the instantaneous base
     *  rate is arrival_rate * (1 + amplitude * sin(2*pi*t/period)), which
     *  starts at the mean rate, rising.
     *  Must be in [0, 1) so the rate stays positive; 0 disables the
     *  diurnal component. */
    double diurnal_amplitude = 0.0;
    /** Period of the sinusoid in simulated seconds (an hour-long "day"
     *  by default — scenario time, not wall time). */
    Seconds diurnal_period_s = 3600.0;
    /** Rate multiplier during a burst episode (1 disables bursts). */
    double burst_rate_multiplier = 1.0;
    /** Mean gap between burst episodes, the first one included
     *  (exponentially distributed, drawn from the burst stream). */
    Seconds burst_mean_gap_s = 600.0;
    /** Mean burst episode duration (exponentially distributed). */
    Seconds burst_mean_duration_s = 60.0;

    /** True when the sinusoidal component actually modulates. */
    bool diurnal() const { return enabled && diurnal_amplitude > 0.0; }
    /** True when burst episodes actually modulate. */
    bool bursts() const { return enabled && burst_rate_multiplier > 1.0; }
};

/** Full configuration of one serving experiment. */
struct ServeConfig {
    SchedulerPolicy scheduler = SchedulerPolicy::Continuous;
    /** Requests in the (finite) stream. Ignored when @c trace is set. */
    int num_requests = 16;
    /** Open-loop Poisson arrival rate (requests/s of *simulated* time).
     *  Ignored in closed-loop mode, where arrivals are reactive. */
    double arrival_rate = 0.05;
    /** Seed of the deterministic arrival *and* length streams (the two
     *  draw from independently derived PRNGs, so adding sampled lengths
     *  never changes the arrival times). */
    std::uint64_t seed = 0x5eedu;
    /** Prefill length per request (the Fixed value; see prompt_lengths). */
    int prompt_tokens = 256;
    /** Tokens each request generates, incl. the prefill's first token
     *  (the Fixed value; see output_lengths). */
    int output_tokens = 16;
    /** Sampled prompt-length distribution; Fixed = use prompt_tokens. */
    LengthDistribution prompt_lengths;
    /** Sampled output-length distribution; Fixed = use output_tokens. */
    LengthDistribution output_lengths;
    /** Most requests a node's scheduler runs in one batch. */
    int max_batch = 8;
    /**
     * Stored-weight wire volume as a fraction of the dense FP16
     * parameters, for engines that keep quantized weights on the CSDs and
     * dequantize on the GPU (SU+O+C; default 4-bit = 0.25). Mirrors the
     * training-side compression_wire_fraction.
     */
    double weight_wire_fraction = 0.25;
    /** Open-loop stream vs fixed-concurrency closed-loop clients. */
    ClientMode client_mode = ClientMode::OpenLoop;
    /** Closed-loop client population (requests in flight at most this;
     *  ClosedLoop only). */
    int concurrency = 8;
    /** Simulated seconds a closed-loop client waits between receiving a
     *  request's last token and submitting its next (ClosedLoop only). */
    Seconds think_time = 0.0;
    /** KV-cache growth/tiering model (disabled by default). */
    KvCacheConfig kv;
    /**
     * Fault injection + failover/retry model (disabled by default, and
     * inert by contract when disabled). The fault stream is
     * derived from this config's @c seed — faultSeed(seed), the fourth
     * independent stream after arrivals, lengths, and prefixes — so
     * FaultConfig::seed is ignored for serving runs.
     */
    fault::FaultConfig fault;
    /**
     * Cluster control plane: dispatch policy, SLO admission, replica
     * autoscaling (disabled by default, and byte-inert
     * when disabled — requests shard exactly as id % replicas). Its
     * randomness comes from a fifth derived stream, ctrlSeed(seed), so
     * enabling it never perturbs arrivals, lengths, prefixes, or faults.
     */
    ctrl::CtrlConfig ctrl;
    /**
     * Diurnal/bursty arrival-rate modulation (open-loop generated streams
     * only; disabled by default and byte-inert when disabled).
     */
    ArrivalModulationConfig modulation;
    /**
     * Most per-request latency records retained across the whole run.
     * 0 (the default) keeps every record. A positive cap bounds result
     * memory independent of stream length: the first record_cap
     * retirement records are kept verbatim (the JSON "requests" array
     * truncates with them). Summary metrics always come from the
     * streaming aggregates, whose percentile sketches stay exact up to
     * the cap (always, when it is 0) and carry bounded relative error
     * above it. Changes the result, so it joins the RunSpec hash when
     * set.
     */
    int record_cap = 0;
    /**
     * Window width of the streaming metric time-series (CounterSampler
     * windows for windowed arrival/retirement rates; capped runs only,
     * inert — and normalized out of the hash — when record_cap == 0).
     */
    Seconds stream_window_s = 60.0;
    /**
     * Explicit arrival times (simulated seconds, non-decreasing). When
     * non-empty this trace *is* the request stream (num_requests,
     * arrival_rate, and seed-driven arrivals are ignored; sampled lengths
     * still apply). OpenLoop only.
     */
    std::vector<Seconds> trace;

    /** Requests the stream will contain (trace size or num_requests). */
    int streamSize() const
    {
        return trace.empty() || client_mode == ClientMode::ClosedLoop
                   ? num_requests
                   : static_cast<int>(trace.size());
    }

    /** True when any per-request length is sampled (non-Fixed). */
    bool samplesLengths() const
    {
        return prompt_lengths.kind != LengthDistKind::Fixed ||
               output_lengths.kind != LengthDistKind::Fixed;
    }

    /** True when the request stream draws shared-prefix assignments (the
     *  third seed consumer, after arrivals and lengths). */
    bool sharesPrefixes() const { return kv.paged() && kv.prefix.enabled(); }

    /** Actionable error list; empty means the config is usable. */
    std::vector<std::string> validate() const;
};

/**
 * The LengthDistribution walk (common/field_walk.h), in RunSpec hash
 * order: only the parameters the kind consumes matter (a Fixed
 * distribution uses the ServeConfig scalar, whose row follows this block
 * in the ServeConfig walk).
 */
template <typename V, FieldsOf<LengthDistribution> C>
void
walkFields(V &v, C &d)
{
    const bool sampled = d.kind != LengthDistKind::Fixed;
    const bool lognormal = d.kind == LengthDistKind::Lognormal;
    field(v, "kind", d.kind, true, lengthDistKindName);
    field(v, "min_tokens", d.min_tokens, sampled, {1, kUnbounded, ">= 1"});
    field(v, "max_tokens", d.max_tokens, sampled);
    v.rule(!sampled || d.max_tokens >= d.min_tokens,
           "max_tokens must be >= min_tokens", d.max_tokens);
    // A non-finite parameter draws NaN or inf lengths, which the clamp
    // silently turns into min_tokens or max_tokens.
    field(v, "log_mean", d.log_mean, lognormal,
          {-kFiniteMax, kFiniteMax, "finite"});
    field(v, "log_sigma", d.log_sigma, lognormal,
          {0.0, kFiniteMax, "finite and >= 0"});
}

/**
 * The KvCacheConfig walk (with its SharedPrefixConfig), in RunSpec hash
 * order: nothing matters while disabled; the page size and the prefix mix
 * only under the paged layout, and the prefix-pool shape only while a
 * share fraction is set. The layout is not inert while disabled: asking
 * for paged allocation with no KV model is a contradiction.
 */
template <typename V, FieldsOf<KvCacheConfig> C>
void
walkFields(V &v, C &kv)
{
    const bool on = kv.enabled;
    const bool paged = kv.paged();
    const bool shared = paged && kv.prefix.enabled();
    field(v, "enabled", kv.enabled, true);
    v.rule(on || kv.layout == KvLayout::Contiguous,
           "layout=paged requires kv.enabled (the paged allocator models KV "
           "placement; enable the KV model or drop the layout override)",
           kvLayoutName(kv.layout));
    // A non-finite budget models nothing sensible: it has no whole-page
    // count.
    field(v, "hbm_budget", kv.hbm_budget, on,
          {kTiny, kFiniteMax,
           "finite and positive when KV modeling is enabled: a zero budget "
           "cannot hold even one decode step's working set (disable kv "
           "instead)"});
    field(v, "host_budget", kv.host_budget, on,
          {kTiny, kFiniteMax,
           "finite and positive when KV modeling is enabled (use a large "
           "budget to disable CSD spill)"});
    field(v, "layout", kv.layout, on, kvLayoutName);
    field(v, "block_tokens", kv.block_tokens, paged,
          {1, kUnbounded, ">= 1 under the paged layout (tokens per KV page)"});
    v.rule(!on || !kv.prefix.enabled() || kv.layout == KvLayout::Paged,
           "prefix sharing requires kv.layout=paged (only per-request block "
           "tables can map shared pages; set kv.layout = KvLayout::Paged or "
           "clear kv.prefix.share_fraction)",
           kv.prefix.share_fraction);
    v.enter("prefix", paged);
    field(v, "share_fraction", kv.prefix.share_fraction, paged,
          {0.0, 1.0,
           "in [0, 1] (the probability a request carries a shared prefix)"});
    field(v, "num_prefixes", kv.prefix.num_prefixes, shared,
          {1, kUnbounded, ">= 1 when prefix sharing is enabled"});
    field(v, "prefix_tokens", kv.prefix.prefix_tokens, shared,
          {1, kUnbounded, ">= 1 when prefix sharing is enabled"});
    v.leave();
}

/**
 * The ArrivalModulationConfig walk, in RunSpec hash order. @p live: the
 * run generates open-loop arrivals, the only ones modulation reshapes
 * (ServeConfig's walk rejects it anywhere else). Within it the diurnal
 * period matters only with the sinusoid armed and the burst shape only
 * with a multiplier above 1. Validation does not depend on @p live.
 */
template <typename V, FieldsOf<ArrivalModulationConfig> C>
void
walkFields(V &v, C &m, bool live)
{
    const bool on = m.enabled;
    const bool diurnal = m.diurnal();
    const bool bursts = m.bursts();
    field(v, "enabled", m.enabled, live);
    field(v, "diurnal_amplitude", m.diurnal_amplitude, live && on,
          {0.0, 0x1.fffffffffffffp-1, // the largest double below 1
           "in [0, 1) (the instantaneous rate must stay positive)"},
          on);
    field(v, "diurnal_period_s", m.diurnal_period_s, live && diurnal,
          {kTiny, kUnbounded, "positive when the diurnal component is armed"},
          diurnal);
    // Thinning accepts a candidate with probability rate/envelope: an
    // infinite multiplier makes that ratio 0 or NaN, and generation would
    // never end.
    field(v, "burst_rate_multiplier", m.burst_rate_multiplier, live && on,
          {1.0, kFiniteMax,
           "finite and >= 1 (bursts raise the rate; 1 disables them)"},
          on);
    field(v, "burst_mean_gap_s", m.burst_mean_gap_s, live && bursts,
          {kTiny, kUnbounded, "positive when bursts are armed"}, bursts);
    field(v, "burst_mean_duration_s", m.burst_mean_duration_s,
          live && bursts,
          {kTiny, kUnbounded, "positive when bursts are armed"}, bursts);
}

/** What the ServeConfig walk reads outside the struct. */
struct ServeScope {
    /** The engine stores quantized weights (SU+O+C), so
     *  weight_wire_fraction shapes the run. */
    bool quantized_weights = false;
    /** An armed fault model draws its schedule from faultSeed(seed). */
    bool fault_stream = false;
};

/**
 * The ServeConfig walk, in RunSpec hash order. The client mode decides
 * which arrival knobs matter: closed-loop runs ignore the rate and the
 * trace, a trace ignores the open-loop knobs. The seed feeds six streams:
 * arrivals (open-loop, no trace), sampled lengths, prefix assignment,
 * the control plane's dispatch draws, the fault schedule and burst
 * episodes; it matters iff one of them draws. A record cap of 0 is the
 * uncapped run no matter how stream_window_s is set. Trace ordering is
 * checked by ServeConfig::validate(), outside the walk.
 */
template <typename V, FieldsOf<ServeConfig> C>
void
walkFields(V &v, C &c, const ServeScope &scope)
{
    const bool closed = c.client_mode == ClientMode::ClosedLoop;
    const bool generated = !closed && c.trace.empty();
    const bool capped = c.record_cap > 0;
    const bool seeded = generated || c.samplesLengths() ||
                        c.sharesPrefixes() || c.ctrl.drawsRandomness() ||
                        scope.fault_stream;
    field(v, "scheduler", c.scheduler, true, schedulerPolicyName);
    field(v, "max_batch", c.max_batch, true, {1, kUnbounded, ">= 1"});
    block(v, "prompt_lengths", c.prompt_lengths);
    field(v, "prompt_tokens", c.prompt_tokens,
          c.prompt_lengths.kind == LengthDistKind::Fixed,
          {1, kUnbounded, ">= 1"});
    block(v, "output_lengths", c.output_lengths);
    field(v, "output_tokens", c.output_tokens,
          c.output_lengths.kind == LengthDistKind::Fixed,
          {1, kUnbounded, ">= 1"});
    field(v, "weight_wire_fraction", c.weight_wire_fraction,
          scope.quantized_weights, {kTiny, 1.0, "in (0, 1]"}, true);
    block(v, "kv", c.kv);
    block(v, "ctrl", c.ctrl);
    field(v, "client_mode", c.client_mode, true, clientModeName);
    field(v, "num_requests", c.num_requests, closed || c.trace.empty(),
          {1, kUnbounded, ">= 1"});
    field(v, "concurrency", c.concurrency, closed,
          {1, kUnbounded, ">= 1 in closed-loop mode"});
    field(v, "think_time", c.think_time, closed,
          {0.0, kFiniteMax, "finite and >= 0"});
    field(v, "arrival_rate", c.arrival_rate, generated,
          {kTiny, kFiniteMax, "finite and positive"});
    field(v, "trace", c.trace, !closed && !c.trace.empty());
    v.rule(!closed || c.trace.empty(),
           "a trace cannot drive closed-loop clients (arrivals are "
           "reactive); clear trace or use open-loop mode",
           c.trace.size());
    field(v, "seed", c.seed, seeded);
    block(v, "modulation", c.modulation, generated);
    v.rule(!c.modulation.enabled || !closed,
           "modulation requires open-loop arrivals (closed-loop issue "
           "times are reactive, there is no arrival rate to modulate)",
           clientModeName(c.client_mode));
    v.rule(!c.modulation.enabled || c.trace.empty(),
           "modulation cannot apply to an explicit trace (the trace "
           "already is the arrival process); clear trace or drop "
           "modulation",
           c.trace.size());
    v.rule(!c.modulation.enabled || c.modulation.diurnal_amplitude > 0.0 ||
               c.modulation.burst_rate_multiplier > 1.0,
           "modulation.enabled with neither a diurnal amplitude nor a "
           "burst multiplier is a contradiction, not a no-op (thinning "
           "changes the draw sequence); disable modulation or arm a "
           "component",
           c.modulation.diurnal_amplitude);
    v.gate(true, capped);
    field(v, "record_cap", c.record_cap, capped,
          {0, kUnbounded, ">= 0 (0 keeps every record)"}, true);
    field(v, "stream_window_s", c.stream_window_s, capped,
          {kTiny, kFiniteMax,
           "finite and positive when record_cap bounds the retained "
           "records"});
}

} // namespace smartinf::serve

#endif // SMARTINF_SERVE_SERVE_CONFIG_H
