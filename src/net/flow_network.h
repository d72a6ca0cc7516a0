/**
 * @file
 * Event-driven fluid-flow network model. Active transfers are flows over a
 * route of Links; link capacity is divided among concurrent flows with
 * max-min fairness (progressive water-filling). This captures the contention
 * phenomena the paper measures — shared-interconnect saturation under RAID0
 * versus linearly scaling CSD-internal bandwidth — without packet-level
 * detail.
 *
 * The scheduler is *incremental*: a persistent link -> active-flow index
 * partitions the flow set into contention components (flows connected by
 * shared links), and a flow arrival or completion recomputes water-filling
 * only over the affected component. Flows in untouched components keep their
 * rates, their progress is settled lazily, and per-link statistics are
 * accumulated from a per-link aggregate rate instead of a per-flow sweep.
 * A flow whose route shares no link with any active flow is a component of
 * size one, so the "no contention" fast path costs O(route length).
 *
 * Components are kept across events, each a list of member flows and links
 * that every member points back into. A starting flow joins the components
 * of its links, and the largest absorbs the rest. A retiring flow leaves
 * its component, which stays whole when a local test proves it cannot have
 * split: at most one of the flow's links still carries flows (a leaf), or
 * one other flow crosses every link it still shares (a cover). Only when
 * both fail is that one component re-split by a flood fill over its own
 * members. The partition must equal a from-scratch flood fill at every
 * recompute, not merely cover it: the recompute set decides which flows
 * settle, and settling at t1 and again at t2 rounds @c remaining (hence
 * the completion time) differently from settling once at t2.
 * oracleComponents() is that flood fill; the tests compare it with
 * components() after every event.
 *
 * Link state is a vector indexed by Link::id(), flow slots and components
 * keep their buffers across reuse, and all scratch state is epoch-stamped
 * and reused across events, so starting or retiring a flow allocates only
 * while a buffer grows past its high-water mark (tests/test_hot_path_allocs.cc
 * pins the serving and the training event loops).
 *
 * Completions: each component carries one key, the earliest (due, id) of
 * its members, where @c due is a flow's exact completion time at its
 * current rate. A recompute always covers whole components and rewrites
 * every member's @c due, so the key it records is exact, never a bound. The
 * network keeps its components in a min-heap on that key and mirrors the
 * front into the event queue's single alarm, which it owns
 * (sim/event_queue.h); when the front time moves, the alarm is re-armed in
 * place. A completion event retires every flow due by now, from the
 * components keyed by now, in (due, id) order.
 *
 * Determinism: water-filling freezes flows in ascending FlowId order and
 * takes as bottleneck the first link with the smallest share in first-touch
 * order (the order links are first reached when walking flows by ascending
 * id), so rates are a pure function of the active flow set. Each component
 * is filled on its own: disjoint components share no link, so a freeze in
 * one never moves another's residuals, and each sees the bottlenecks and
 * shares of one global fill. No fill sorts its links: the bottleneck is
 * the argmin of the shares, and an exact tie goes to the link with the
 * smaller first-touch key (its lowest-id flow, then that flow's first route
 * position), written only for the tied pair. The round that freezes a
 * component's last flows writes their rates (and completion times) only:
 * the residuals it would update are never read again. Each flow settles
 * its progress as it freezes, once per recompute. oracleRates() recomputes
 * that function from scratch with none of the incremental bookkeeping; the
 * stress tests assert bit-identical agreement after every event.
 */
#ifndef SMARTINF_NET_FLOW_NETWORK_H
#define SMARTINF_NET_FLOW_NETWORK_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/link.h"
#include "sim/simulator.h"

namespace smartinf::net {

/** An ordered list of links a transfer traverses. */
using Route = std::vector<Link *>;

/** Handle to an in-flight transfer. */
using FlowId = uint64_t;

/**
 * Read-only witness of flow lifecycle and rate changes. Same determinism
 * contract as sim::SimObserver (see sim/observer.h): hooks fire
 * synchronously from inside the network's own event handling and must not
 * start flows or schedule events. Degenerate flows (zero bytes or empty
 * route) complete without ever entering the contention set and are not
 * reported.
 */
class FlowObserver
{
  public:
    virtual ~FlowObserver() = default;

    /** A flow entered its bulk (contending) phase. */
    virtual void flowStarted(FlowId id, const Route &route, Bytes bytes,
                             Seconds now)
    {
        (void)id;
        (void)route;
        (void)bytes;
        (void)now;
    }
    /** A flow's max-min rate was (re)assigned. Reported for every flow of
     *  a recomputed contention component, changed or not. */
    virtual void flowRateChanged(FlowId id, BytesPerSec rate, Seconds now)
    {
        (void)id;
        (void)rate;
        (void)now;
    }
    /** A link's aggregate rate was refreshed (0 when its last flow left). */
    virtual void linkRateChanged(const Link &link, BytesPerSec aggregate,
                                 Seconds now)
    {
        (void)link;
        (void)aggregate;
        (void)now;
    }
    /** A flow delivered its last byte (fires before its completion
     *  callback runs). */
    virtual void flowFinished(FlowId id, Seconds now)
    {
        (void)id;
        (void)now;
    }
    /** A flow was revoked mid-transfer (fault injection); its completion
     *  callback never runs. */
    virtual void flowCancelled(FlowId id, Seconds now)
    {
        (void)id;
        (void)now;
    }
};

/**
 * Max-min fair fluid-flow transfer engine driven by the event queue. It
 * receives its own typed events: a flow's latency expiry (its slot) and
 * the completion alarm.
 */
class FlowNetwork : private sim::Receiver
{
  public:
    /** Claims @p sim's event-queue alarm (see sim/event_queue.h): build
     *  exactly one network per Simulator. */
    explicit FlowNetwork(sim::Simulator &sim) : sim_(sim)
    {
        sim_.queue().claimAlarm();
    }
    /** Queued events and the alarm name this network's address. */
    FlowNetwork(const FlowNetwork &) = delete;
    FlowNetwork &operator=(const FlowNetwork &) = delete;

    /** Attach/detach a passive observer (nullptr = none; observers add
     *  no events and never change rates or completion times). */
    void setObserver(FlowObserver *observer) { observer_ = observer; }
    FlowObserver *observer() const { return observer_; }

    /**
     * Begin transferring @p bytes along @p route; @p done fires on
     * completion (a null @p done completes silently). Zero-byte transfers
     * complete on the next event. A flow may also carry a fixed propagation
     * latency added before completion; the returned id tracks the flow
     * through the delay phase (rate 0) and into the bulk phase.
     */
    FlowId startFlow(const Route &route, Bytes bytes, sim::Notify done,
                     Seconds latency = 0.0);

    /**
     * Revoke an in-flight transfer (fault injection). Progress up to now is
     * settled, the flow leaves the contention set, survivors' rates are
     * recomputed, and the completion callback is dropped — it never runs.
     * Latency-phase flows are cancelled before ever contending. Returns
     * false if the flow already completed (its callback ran or is already
     * scheduled) or was already revoked. Scans the live slots, which are
     * bounded by the peak number of concurrent flows.
     */
    bool cancelFlow(FlowId id);

    /**
     * Notify the network that @p link's effective capacity changed (its
     * capacity factor was adjusted mid-run). Utilization statistics are
     * flushed at the old capacity, then the contention component crossing
     * the link is recomputed under the new one — incremental rates must
     * keep matching oracleRates() bit for bit after every such event. A
     * link that never carried a flow needs no notification.
     */
    void linkCapacityChanged(Link *link);

    /** Number of in-flight bulk-phase flows (latency-phase flows excluded,
     *  matching the contention set). */
    std::size_t activeFlows() const { return n_active_; }

    /** Instantaneous rate of a flow; 0 if completed or still in its
     *  latency phase. Scans the live slots (tests and diagnostics). */
    BytesPerSec currentRate(FlowId id) const;

    /** Aggregate bytes completed through the network. Settled lazily: only
     *  exact at completion boundaries (always exact once the sim drains). */
    Bytes totalBytesDelivered() const { return total_delivered_; }

    /** Sum of the rates of active flows crossing @p link (with multiplicity
     *  for routes listing a link twice); 0 for links carrying no flow. */
    BytesPerSec linkAggregateRate(const Link *link) const;

    /**
     * Reference full recomputation of the max-min assignment for the current
     * active set, with fresh containers and no incremental state. Rates are
     * listed by ascending FlowId, link aggregates in first-touch order. Test
     * oracle: must match the incremental scheduler bit for bit.
     */
    struct OracleSnapshot {
        std::vector<std::pair<FlowId, BytesPerSec>> rates;
        std::vector<std::pair<const Link *, BytesPerSec>> link_rates;
    };
    OracleSnapshot oracleRates() const;

    /** Active flows grouped by contention component: each component's ids
     *  ascending, components ordered by their lowest id. */
    using Partition = std::vector<std::vector<FlowId>>;
    /** The contention components the network keeps across events (checks
     *  every member's back-link to its component, and each component's
     *  completion key and heap slot, on the way). */
    Partition components() const;
    /**
     * Reference flood fill of the "shares a link" relation over the active
     * flows' routes, with fresh containers and no incremental state. Test
     * oracle: must equal components() after every event.
     */
    Partition oracleComponents() const;

    /** Flow slots allocated (== peak concurrent flows, not total ever) —
     *  memory-bound introspection for tests. */
    std::size_t slotsAllocated() const { return slots_.size(); }
    /** Completion-heap entries currently stored: one per contention
     *  component (FlowNetwork.DelayedCompletionsKeepTheirHeapEntry). */
    std::size_t completionHeapSize() const { return completion_heap_.size(); }

  private:
    /** A flow is retired once fewer than this many bytes remain. */
    static constexpr Bytes kCompletionEpsilon = 1.0;
    static constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

    struct FlowSlot {
        FlowId id = 0;
        Route route; ///< copied in; the buffer is kept across slot reuse
        std::vector<uint32_t> links; ///< Link::id() per route entry
        Bytes remaining = 0.0;
        BytesPerSec rate = 0.0;
        Seconds settled_at = 0.0; ///< time @c remaining refers to
        Seconds due = 0.0; ///< exact completion time at the current rate
        sim::Notify done; ///< whom to tell on completion
        uint64_t mark = 0;    ///< water-fill freeze (and settle) epoch
        uint32_t comp = kNoSlot; ///< component while active
        uint32_t comp_pos = 0;   ///< index in that component's flows
        bool live = false;    ///< allocated to a flow (free slots: false)
        bool active = false;  ///< in bulk phase (delayed/free slots: false)
        bool cancelled = false; ///< revoked while in its latency phase
        Bytes pending_bytes = 0.0; ///< bulk size while in latency phase
    };

    /** Indexed by Link::id(); an entry whose link is null has never
     *  carried a flow. */
    struct LinkState {
        Link *link = nullptr;
        double capacity = 0.0;
        std::vector<uint32_t> flows; ///< active slots, ascending id, with
                                     ///< multiplicity per route entry
        BytesPerSec agg_rate = 0.0;  ///< sum of crossing flows' rates
        Seconds accounted_at = 0.0;  ///< stats accumulated up to here
        uint32_t comp = kNoSlot;     ///< component while carrying flows
        uint32_t comp_pos = 0;       ///< index in that component's links
        /// @name Scratch, stale unless freshly written
        /// The recompute's link pass writes @c residual and @c unfixed on
        /// every link it refills; only a tie or an observed recompute
        /// writes the first-touch key (keyTouch()).
        /// @{
        double residual = 0.0; ///< capacity left for unfixed flows
        int unfixed = 0;       ///< crossing entries not yet frozen
        FlowId touch_id = 0;   ///< first-touch key: lowest crossing flow id
        uint32_t touch_pos = 0; ///< ... and the link's first route position
        /// @}
    };

    /** A contention component: the active flows connected through shared
     *  links, and the links carrying them. A free component is empty and
     *  out of the completion heap. */
    struct Component {
        std::vector<uint32_t> flows; ///< slots, in no particular order
        std::vector<uint32_t> links; ///< Link::id()s, in no particular order
        uint64_t mark = 0;           ///< collection / fill epoch
        Seconds due = 0.0;  ///< completion key: the earliest member (due,
        FlowId due_id = 0;  ///< id), exact since the last fill
        uint32_t heap_pos = kNoSlot; ///< index in completion_heap_
    };
    /** The alarm's event argument; any other argument is a flow slot
     *  whose latency phase expired. */
    static constexpr uint64_t kAlarm = kNoSlot;
    void onNotify(uint64_t arg) override;

    uint32_t allocSlot();
    void freeSlot(uint32_t slot);
    /** The live slot carrying flow @p id, or kNoSlot. */
    uint32_t findSlot(FlowId id) const;
    /** The bulk-phase flows by ascending id (the oracles' walk order). */
    std::vector<const FlowSlot *> activeById() const;
    /** Fill @p link's state the first time the network sees it. */
    void trackLink(Link *link);
    /** @p link's state if it ever carried a flow, else nullptr. */
    const LinkState *seenLink(const Link *link) const;
    /** Move a delayed flow into the bulk phase (shared with startFlow). */
    void beginBulk(uint32_t slot);
    /** Advance one flow's progress to @p now against its current rate. */
    void settleFlow(FlowSlot &flow, Seconds now);
    /** Accumulate one link's stats to @p now from its aggregate rate. */
    void flushLink(LinkState &ls, Seconds now);
    /** Add member @p idx (a flow slot or a link id) to component @p comp's
     *  @p list, recording its back-link. */
    template <class Member>
    static void enterComponent(std::vector<uint32_t> &list,
                               std::vector<Member> &members, uint32_t comp,
                               uint32_t idx);
    /** Remove member @p idx from its component's @p list in O(1): the last
     *  member takes its place. */
    template <class Member>
    static void leaveComponent(std::vector<uint32_t> &list,
                               std::vector<Member> &members, uint32_t idx);
    uint32_t allocComponent();
    /** Join the components of @p slot's links (the largest absorbs the
     *  rest) and add the flow to the result. */
    void joinComponents(uint32_t slot);
    /** Move every member of component @p from into @p into. */
    void mergeComponent(uint32_t into, uint32_t from);
    /**
     * Take @p slot out of the link index and its component (clearing its
     * active flag), then re-split the component if staysConnected() cannot
     * prove it whole.
     */
    void detachFlow(uint32_t slot);
    /** Leaf or cover test on a flow already out of the link index. */
    bool staysConnected(const FlowSlot &flow) const;
    /** Flood-fill component @p comp's members into connected pieces. */
    void resplitComponent(uint32_t comp);
    /**
     * Collect the links of the union of the components of @p seeds (slot
     * indices) into comp_links_.
     */
    void collectComponents(std::span<const uint32_t> seeds);
    /**
     * Flush and zero the collected links, then water-fill and reschedule
     * the components that still carry flows: the core incremental step.
     * The link pass names those components, so seeds retired after
     * collectComponents() drop out, and each piece a retirement split off
     * is filled alone.
     */
    void recomputeComponent(Seconds now);
    /** Write link @p li's first-touch key from the front of its list. */
    void keyTouch(uint32_t li);
    /** Oracle first-touch order of two links (both keyed by keyTouch()). */
    bool touchedBefore(uint32_t a, uint32_t b) const;
    /**
     * Water-fill component @p comp alone, freezing with @p fill_epoch and
     * settling each member to @p now as it freezes; refresh its links'
     * aggregate rates, and key it in the completion heap at its earliest
     * (due, id).
     */
    void fillComponent(uint32_t comp, Seconds now, uint64_t fill_epoch);
    /** (due, id) order of two flows. */
    static bool dueBefore(const FlowSlot &a, const FlowSlot &b);
    /** Completion-heap order: component @p a's key before @p b's. */
    bool keyedBefore(uint32_t a, uint32_t b) const;
    /** Move the heap entry at @p pos up or down to its place. */
    void siftCompletion(std::size_t pos);
    /** Take @p comp out of the heap (no-op if it was never keyed). */
    void dropCompletion(uint32_t comp);
    /** Arm the queue's alarm at the heap front's time (disarm when no
     *  completion is pending); re-arms only when that time moved. */
    void rescheduleCompletionEvent();
    void onCompletionEvent();

    sim::Simulator &sim_;
    FlowObserver *observer_ = nullptr;
    std::vector<FlowSlot> slots_;
    std::vector<uint32_t> free_slots_;
    std::size_t n_active_ = 0; ///< bulk-phase flows
    std::vector<LinkState> link_states_; ///< indexed by Link::id()
    /** Non-free components, a min-heap on (due, due_id). */
    std::vector<uint32_t> completion_heap_;
    std::vector<Component> components_;
    std::vector<uint32_t> free_components_;
    uint64_t epoch_ = 0;
    FlowId next_id_ = 0;
    Bytes total_delivered_ = 0.0;
    // Reused per-event scratch (never shrunk; steady state allocates
    // nothing).
    std::vector<uint32_t> comp_links_;
    std::vector<uint32_t> comp_flows_; ///< observed recomputes only
    std::vector<uint32_t> fill_comps_;
    std::vector<uint32_t> frozen_;
    std::vector<uint32_t> split_flows_;
    std::vector<uint32_t> bfs_stack_;
    std::vector<uint32_t> retiring_;
    std::vector<sim::Notify> callbacks_;
};

} // namespace smartinf::net

#endif // SMARTINF_NET_FLOW_NETWORK_H
