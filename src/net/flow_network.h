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
 * size one, so the "no contention" fast path costs O(route length). All
 * scratch state is epoch-stamped and reused across events — steady-state
 * scheduling performs no heap allocation.
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
#include <unordered_map>
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
    explicit FlowNetwork(sim::Simulator &sim) : sim_(sim) {}

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
    FlowId startFlow(Route route, Bytes bytes, std::function<void()> done,
                     Seconds latency = 0.0);

    /**
     * Revoke an in-flight transfer (fault injection). Progress up to now is
     * settled, the flow leaves the contention set, survivors' rates are
     * recomputed, and the completion callback is dropped — it never runs.
     * Latency-phase flows are cancelled before ever contending. Returns
     * false if the flow already completed (its callback ran or is already
     * scheduled).
     */
    bool cancelFlow(FlowId id);

    /**
     * Notify the network that @p link's effective capacity changed (its
     * capacity factor was adjusted mid-run). Utilization statistics are
     * flushed at the old capacity, then the contention component crossing
     * the link is recomputed under the new one — incremental rates must
     * keep matching oracleRates() bit for bit after every such event. A
     * link the network has never seen needs no notification.
     */
    void linkCapacityChanged(Link *link);

    /** Number of in-flight bulk-phase flows (latency-phase flows excluded,
     *  matching the contention set). */
    std::size_t activeFlows() const { return active_.size(); }

    /** Instantaneous rate of a flow; 0 if completed or still in its
     *  latency phase. */
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
    /** Completion-heap entries currently stored, live plus tombstones. */
    std::size_t completionHeapSize() const { return completion_heap_.size(); }

  private:
    /** A flow is retired once fewer than this many bytes remain. */
    static constexpr Bytes kCompletionEpsilon = 1.0;
    static constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

    struct FlowSlot {
        FlowId id = 0;
        Route route;
        std::vector<uint32_t> links; ///< link_states_ index per route entry
        Bytes remaining = 0.0;
        BytesPerSec rate = 0.0;
        Seconds settled_at = 0.0; ///< time @c remaining refers to
        std::function<void()> done;
        uint32_t stamp = 0;   ///< bumped on rate change/retire; guards heap
        uint64_t mark = 0;    ///< closure-visit / water-fill freeze epoch
        bool active = false;  ///< in bulk phase (delayed/free slots: false)
        bool cancelled = false; ///< revoked while in its latency phase
        Bytes pending_bytes = 0.0; ///< bulk size while in latency phase
    };

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
    uint32_t linkIndex(Link *link);
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
    void markComponent(const std::vector<uint32_t> &seeds);
    /**
     * Flush, settle, water-fill, and reschedule the collected component:
     * the core incremental step. Seeds retired after markComponent() (their
     * active flag cleared) are excluded from the recompute set.
     */
    void recomputeComponent(Seconds now);
    bool heapEntryValid(const HeapEntry &e) const;
    void pushCompletion(uint32_t slot, Seconds when);
    void compactCompletionHeap();
    /** Re-arm the single pending simulator event at the heap front. */
    void rescheduleCompletionEvent();
    void onCompletionEvent();

    sim::Simulator &sim_;
    FlowObserver *observer_ = nullptr;
    std::vector<FlowSlot> slots_;
    std::vector<uint32_t> free_slots_;
    std::unordered_map<FlowId, uint32_t> id_to_slot_;
    std::vector<uint32_t> active_; ///< bulk-phase slots, ascending id
    std::vector<LinkState> link_states_;
    std::unordered_map<const Link *, uint32_t> link_index_;
    std::vector<HeapEntry> completion_heap_; ///< min-heap on (when, id)
    uint64_t epoch_ = 0;
    FlowId next_id_ = 0;
    sim::EventId pending_event_ = 0;
    Seconds pending_time_ = 0.0;
    bool event_scheduled_ = false;
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
