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
 * size one, so the "no contention" fast path costs O(route length). Link
 * state is a vector indexed by Link::id(), flow slots keep their route
 * buffers across reuse, and all scratch state is epoch-stamped and reused
 * across events, so starting or retiring a flow allocates only while a
 * buffer grows past its high-water mark (tests/test_hot_path_allocs.cc
 * pins the whole serving event loop below 0.1 allocations per event).
 *
 * Completions: the network keeps its own heap of projected completion times
 * and mirrors the front into the event queue's single alarm, which it owns
 * (sim/event_queue.h). When the front time moves, the alarm is re-armed in
 * place. Each active flow has one live entry, keyed at or before its exact
 * completion time. A recompute that moves a completion earlier pushes a new
 * entry; one that only delays it (the common case) keeps the old entry as a
 * lower bound, which is re-keyed in place only if it reaches the front. The
 * front is settled to a live, exact entry before the alarm is armed and
 * before each retirement, so alarm times and retirement order are those of
 * a heap re-keyed on every recompute.
 *
 * Determinism: water-filling freezes flows in ascending FlowId order and
 * scans candidate bottleneck links in first-touch order (the order links are
 * first reached when walking flows by ascending id), so rates are a pure
 * function of the active flow set. oracleRates() recomputes that function
 * from scratch with none of the incremental bookkeeping; the stress tests
 * assert bit-identical agreement after every event.
 */
#ifndef SMARTINF_NET_FLOW_NETWORK_H
#define SMARTINF_NET_FLOW_NETWORK_H

#include <cstdint>
#include <functional>
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

/** Max-min fair fluid-flow transfer engine driven by the event queue. */
class FlowNetwork
{
  public:
    /** Claims @p sim's event-queue alarm (see sim/event_queue.h): build
     *  exactly one network per Simulator. */
    explicit FlowNetwork(sim::Simulator &sim) : sim_(sim)
    {
        sim_.queue().claimAlarm();
    }
    /** The alarm's callback holds this network's address. */
    FlowNetwork(const FlowNetwork &) = delete;
    FlowNetwork &operator=(const FlowNetwork &) = delete;

    /** Attach/detach a passive observer (nullptr = none; observers add
     *  no events and never change rates or completion times). */
    void setObserver(FlowObserver *observer) { observer_ = observer; }
    FlowObserver *observer() const { return observer_; }

    /**
     * Begin transferring @p bytes along @p route; @p done fires on
     * completion. Zero-byte transfers complete on the next event. A flow may
     * also carry a fixed propagation latency added before completion; the
     * returned id tracks the flow through the delay phase (rate 0) and into
     * the bulk phase.
     */
    FlowId startFlow(const Route &route, Bytes bytes,
                     std::function<void()> done, Seconds latency = 0.0);

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
    std::size_t activeFlows() const { return active_.size(); }

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

    /** Flow slots allocated (== peak concurrent flows, not total ever) —
     *  memory-bound introspection for tests. */
    std::size_t slotsAllocated() const { return slots_.size(); }
    /** Completion-heap entries currently stored: one live entry per active
     *  flow plus tombstones of entries superseded by an earlier completion.
     *  A flow whose completion is only delayed adds none
     *  (FlowNetwork.DelayedCompletionsKeepTheirHeapEntry). */
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
        Seconds due = 0.0;   ///< exact completion time at the current rate
        Seconds keyed = 0.0; ///< time of the flow's live heap entry: a
                             ///< lower bound on @c due (+inf: no entry)
        std::function<void()> done;
        uint32_t stamp = 0;   ///< bumped on push/retire; guards heap
        uint64_t mark = 0;    ///< closure-visit / water-fill freeze epoch
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
        uint64_t mark = 0;           ///< closure/scratch epoch
        double residual = 0.0;       ///< water-fill scratch
        int unfixed = 0;             ///< water-fill scratch
        FlowId touch_id = 0;   ///< first-touch key: lowest crossing flow id
        uint32_t touch_pos = 0; ///< ... and the link's first route position
    };

    struct HeapEntry {
        Seconds when;
        FlowId id;      ///< tie-break + validation
        uint32_t slot;
        uint32_t stamp;
    };
    /** std::push_heap builds a max-heap; invert (when, id) for min-first. */
    static bool heapLater(const HeapEntry &a, const HeapEntry &b);

    uint32_t allocSlot();
    void freeSlot(uint32_t slot);
    /** The live slot carrying flow @p id, or kNoSlot. */
    uint32_t findSlot(FlowId id) const;
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
    /**
     * Collect the contention component reachable from @p seeds (slot
     * indices) into comp_flows_ / comp_links_, in flood-fill order.
     */
    void markComponent(std::span<const uint32_t> seeds);
    /**
     * Flush, settle, water-fill, and reschedule the collected component:
     * the core incremental step. Seeds retired after markComponent() (their
     * active flag cleared) are excluded from the recompute set.
     */
    void recomputeComponent(Seconds now);
    bool heapEntryValid(const HeapEntry &e) const;
    /** Push @p slot's entry at its @c due; its old entry goes stale. */
    void pushCompletion(uint32_t slot);
    void compactCompletionHeap();
    /**
     * Pop stale entries off the heap front and re-key a lower-bound front
     * to its flow's @c due, until the heap is empty, its front is live and
     * exact (the earliest (due, id) of all flows), or its front is keyed
     * after @p horizon (every flow is due after it).
     */
    void settleCompletionFront(Seconds horizon);
    /** Restore heap order after the front entry's time grew. */
    void siftDownFront();
    /** Arm the queue's alarm at the heap front's time (disarm when no
     *  completion is pending); re-arms only when that time moved. */
    void rescheduleCompletionEvent();
    void onCompletionEvent();

    sim::Simulator &sim_;
    FlowObserver *observer_ = nullptr;
    std::vector<FlowSlot> slots_;
    std::vector<uint32_t> free_slots_;
    std::vector<uint32_t> active_; ///< bulk-phase slots, ascending id
    std::vector<LinkState> link_states_; ///< indexed by Link::id()
    std::vector<HeapEntry> completion_heap_; ///< min-heap on (when, id)
    uint64_t epoch_ = 0;
    FlowId next_id_ = 0;
    Bytes total_delivered_ = 0.0;
    // Reused per-event scratch (never shrunk; steady state allocates
    // nothing).
    std::vector<uint32_t> comp_links_;
    std::vector<uint32_t> comp_flows_;
    std::vector<uint32_t> bfs_stack_;
    std::vector<uint32_t> retiring_;
    std::vector<std::function<void()>> callbacks_;
};

} // namespace smartinf::net

#endif // SMARTINF_NET_FLOW_NETWORK_H
