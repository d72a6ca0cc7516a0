#include "net/flow_network.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "obs/profiler.h"

namespace smartinf::net {

bool
FlowNetwork::heapLater(const HeapEntry &a, const HeapEntry &b)
{
    if (a.when != b.when)
        return a.when > b.when;
    return a.id > b.id;
}

// ---- slot / link bookkeeping ------------------------------------------------

uint32_t
FlowNetwork::allocSlot()
{
    if (!free_slots_.empty()) {
        const uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
}

void
FlowNetwork::freeSlot(uint32_t slot)
{
    FlowSlot &f = slots_[slot];
    id_to_slot_.erase(f.id);
    f.route.clear();
    f.links.clear();
    f.done = nullptr;
    f.active = false;
    f.cancelled = false;
    ++f.stamp; // Invalidate any heap entries still referencing the slot.
    free_slots_.push_back(slot);
}

uint32_t
FlowNetwork::linkIndex(Link *link)
{
    auto [it, inserted] =
        link_index_.emplace(link, static_cast<uint32_t>(link_states_.size()));
    if (inserted) {
        LinkState ls;
        ls.link = link;
        ls.capacity = link->effectiveCapacity();
        ls.accounted_at = sim_.now();
        link_states_.push_back(std::move(ls));
    }
    return it->second;
}

// ---- public API -------------------------------------------------------------

FlowId
FlowNetwork::startFlow(Route route, Bytes bytes, std::function<void()> done,
                       Seconds latency)
{
    SI_REQUIRE(bytes >= 0.0, "negative transfer size");
    const FlowId id = next_id_++;

    if (latency <= 0.0 && (bytes < kCompletionEpsilon || route.empty())) {
        // Degenerate flows complete on the next event boundary so callers
        // never observe re-entrant completion; no slot is registered.
        sim_.after(0.0, std::move(done));
        total_delivered_ += bytes;
        return id;
    }

    const uint32_t slot = allocSlot();
    FlowSlot &f = slots_[slot];
    f.id = id;
    f.route = std::move(route);
    f.done = std::move(done);
    f.rate = 0.0;
    f.pending_bytes = bytes;
    id_to_slot_.emplace(id, slot);

    if (latency > 0.0) {
        // Model propagation/setup latency as a delay before bandwidth
        // consumption begins; contention only applies to the bulk phase.
        // The flow keeps its id (and rate 0) through the delay.
        sim_.after(latency, [this, slot]() { beginBulk(slot); });
        return id;
    }
    beginBulk(slot);
    return id;
}

void
FlowNetwork::beginBulk(uint32_t slot)
{
    const Seconds now = sim_.now();
    FlowSlot &f = slots_[slot];

    if (f.cancelled) {
        // Revoked during its latency phase: the slot was kept alive so this
        // delayed event could land somewhere valid. Drop the callback.
        freeSlot(slot);
        return;
    }
    if (f.pending_bytes < kCompletionEpsilon || f.route.empty()) {
        total_delivered_ += f.pending_bytes;
        sim_.after(0.0, std::move(f.done));
        freeSlot(slot);
        return;
    }

    f.active = true;
    f.remaining = f.pending_bytes;
    f.settled_at = now;
    f.links.clear();
    f.links.reserve(f.route.size());
    for (Link *link : f.route)
        f.links.push_back(linkIndex(link));

    // Register in the id-ordered indexes. A latency-delayed flow can carry
    // a smaller id than already-active flows, so insert sorted.
    const FlowId id = f.id;
    auto by_id = [this](uint32_t s, FlowId v) { return slots_[s].id < v; };
    active_.insert(std::lower_bound(active_.begin(), active_.end(), id, by_id),
                   slot);
    for (uint32_t li : f.links) {
        auto &lf = link_states_[li].flows;
        lf.insert(std::lower_bound(lf.begin(), lf.end(), id, by_id), slot);
    }

    if (observer_)
        observer_->flowStarted(id, f.route, f.remaining, now);

    markComponent({slot});
    recomputeComponent(now);
    rescheduleCompletionEvent();
}

bool
FlowNetwork::cancelFlow(FlowId id)
{
    const auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end())
        return false; // Completed (or degenerate): nothing to revoke.
    const uint32_t slot = it->second;
    FlowSlot &f = slots_[slot];
    const Seconds now = sim_.now();

    if (!f.active) {
        // Latency phase: a delayed beginBulk event still references the
        // slot, so keep it allocated and let beginBulk() reap it.
        f.cancelled = true;
        f.done = nullptr;
        if (observer_)
            observer_->flowCancelled(f.id, now);
        return true;
    }

    // Bulk phase: settle what actually moved (aborted transfers keep their
    // partial delivery), then retire the flow exactly like a completion —
    // component marked before detaching — except the callback is dropped.
    markComponent({slot});
    settleFlow(f, now);
    f.rate = 0.0;
    if (observer_)
        observer_->flowCancelled(f.id, now);
    for (uint32_t li : f.links) {
        auto &lf = link_states_[li].flows;
        lf.erase(std::find(lf.begin(), lf.end(), slot));
    }
    f.active = false;
    active_.erase(std::find(active_.begin(), active_.end(), slot));
    freeSlot(slot);

    recomputeComponent(now);
    rescheduleCompletionEvent();
    return true;
}

void
FlowNetwork::linkCapacityChanged(Link *link)
{
    const auto it = link_index_.find(link);
    if (it == link_index_.end())
        return; // Never carried a flow; linkIndex() reads the new capacity.
    LinkState &ls = link_states_[it->second];
    const double effective = link->effectiveCapacity();
    if (ls.capacity == effective)
        return;
    const Seconds now = sim_.now();
    // Flush utilization while the old capacity is still the denominator,
    // then re-waterfill everything that crosses the link under the new one.
    flushLink(ls, now);
    ls.capacity = effective;
    if (ls.flows.empty())
        return;
    markComponent(ls.flows);
    recomputeComponent(now);
    rescheduleCompletionEvent();
}

BytesPerSec
FlowNetwork::currentRate(FlowId id) const
{
    auto it = id_to_slot_.find(id);
    return it == id_to_slot_.end() ? 0.0 : slots_[it->second].rate;
}

BytesPerSec
FlowNetwork::linkAggregateRate(const Link *link) const
{
    auto it = link_index_.find(link);
    return it == link_index_.end() ? 0.0 : link_states_[it->second].agg_rate;
}

// ---- lazy settlement --------------------------------------------------------

void
FlowNetwork::settleFlow(FlowSlot &flow, Seconds now)
{
    const Seconds elapsed = now - flow.settled_at;
    flow.settled_at = now;
    if (elapsed <= 0.0)
        return;
    const Bytes moved = std::min(flow.remaining, flow.rate * elapsed);
    flow.remaining -= moved;
    total_delivered_ += moved;
}

void
FlowNetwork::flushLink(LinkState &ls, Seconds now)
{
    const Seconds elapsed = now - ls.accounted_at;
    ls.accounted_at = now;
    if (elapsed <= 0.0 || ls.agg_rate <= 0.0)
        return;
    ls.link->account(ls.agg_rate * elapsed, ls.agg_rate / ls.capacity,
                     elapsed);
}

// ---- incremental scheduling -------------------------------------------------

void
FlowNetwork::markComponent(const std::vector<uint32_t> &seeds)
{
    // Flood-fill the "shares a link" relation from the seed flows. Work is
    // proportional to the component (plus a sort of its few links
    // downstream), so a flow that shares no links costs O(route length),
    // independent of how many other flows are active.
    const uint64_t epoch = ++epoch_;
    bfs_stack_.clear();
    comp_links_.clear();
    comp_flows_.clear();
    for (uint32_t s : seeds) {
        if (slots_[s].mark != epoch) {
            slots_[s].mark = epoch;
            comp_flows_.push_back(s);
            bfs_stack_.push_back(s);
        }
    }
    while (!bfs_stack_.empty()) {
        const uint32_t s = bfs_stack_.back();
        bfs_stack_.pop_back();
        for (uint32_t li : slots_[s].links) {
            LinkState &ls = link_states_[li];
            if (ls.mark == epoch)
                continue;
            ls.mark = epoch;
            comp_links_.push_back(li);
            for (uint32_t other : ls.flows) {
                if (slots_[other].mark != epoch) {
                    slots_[other].mark = epoch;
                    comp_flows_.push_back(other);
                    bfs_stack_.push_back(other);
                }
            }
        }
    }
}

void
FlowNetwork::recomputeComponent(Seconds now)
{
    const obs::Profiler::Scoped probe(obs::Section::FlowRecompute);

    // Per-link statistics must be flushed against the rates that held since
    // the last account point, before any rate in the component changes.
    // Then zero every closure link's aggregate: links whose last flow just
    // retired drop out of the re-keyed link set below and must not keep a
    // stale positive rate (it would flush phantom bytes later).
    for (uint32_t li : comp_links_) {
        flushLink(link_states_[li], now);
        link_states_[li].agg_rate = 0.0;
        // A link whose last flow just retired never re-enters the re-keyed
        // set below, so its rate drop is only visible here.
        if (observer_)
            observer_->linkRateChanged(*link_states_[li].link, 0.0, now);
    }

    // Drop retired seeds and settle the survivors' progress to now. Each
    // flow settles on its own, so the flows stay in flood-fill order.
    comp_flows_.erase(std::remove_if(comp_flows_.begin(), comp_flows_.end(),
                                     [this](uint32_t s) {
                                         return !slots_[s].active;
                                     }),
                      comp_flows_.end());
    for (uint32_t s : comp_flows_)
        settleFlow(slots_[s], now);

    // Re-key the component's links and initialise the water-fill scratch.
    // Each link's flow list holds exactly its active flows, one entry per
    // route occurrence (a route listing a link twice claims two shares), so
    // it gives the unfixed count directly; links whose last flow retired
    // drop out. The oracle scans links in first-touch order (walking flows
    // by ascending id, each route in order). A link is first touched by
    // its lowest-id flow, the front of its id-ordered list, at its first
    // position in that flow's route, so sorting on that pair reproduces the
    // order without sorting the flows.
    std::size_t n_links = 0;
    for (uint32_t li : comp_links_) {
        LinkState &ls = link_states_[li];
        if (ls.flows.empty())
            continue;
        const FlowSlot &first = slots_[ls.flows.front()];
        ls.residual = ls.capacity;
        ls.unfixed = static_cast<int>(ls.flows.size());
        ls.touch_id = first.id;
        ls.touch_pos = static_cast<uint32_t>(
            std::find(first.links.begin(), first.links.end(), li) -
            first.links.begin());
        comp_links_[n_links++] = li;
    }
    comp_links_.resize(n_links);
    std::sort(comp_links_.begin(), comp_links_.end(),
              [this](uint32_t a, uint32_t b) {
                  const LinkState &la = link_states_[a];
                  const LinkState &lb = link_states_[b];
                  if (la.touch_id != lb.touch_id)
                      return la.touch_id < lb.touch_id;
                  return la.touch_pos < lb.touch_pos;
              });

    // Progressive water-filling over the component. Repeatedly find the
    // most-constrained link (smallest residual capacity per unfixed flow),
    // freeze its flows at that fair share, and release their capacity
    // claims elsewhere. The bottleneck's own id-ordered list names exactly
    // the flows to freeze, in the ascending-id order the oracle freezes
    // them; flows frozen in an earlier round, and the repeat entries of a
    // route that lists the link twice, carry this recompute's stamp.
    const uint64_t fill_epoch = ++epoch_;
    std::size_t n_unfixed = comp_flows_.size();
    while (n_unfixed > 0) {
        uint32_t bottleneck = kNoSlot;
        double best_share = std::numeric_limits<double>::infinity();
        for (uint32_t li : comp_links_) {
            const LinkState &ls = link_states_[li];
            if (ls.unfixed <= 0)
                continue;
            const double share = ls.residual / ls.unfixed;
            if (share < best_share) {
                best_share = share;
                bottleneck = li;
            }
        }
        SI_ASSERT(bottleneck != kNoSlot, "no bottleneck among active flows");

        // Freeze every unfixed flow crossing the bottleneck at best_share.
        const std::size_t before = n_unfixed;
        for (uint32_t s : link_states_[bottleneck].flows) {
            FlowSlot &flow = slots_[s];
            if (flow.mark == fill_epoch)
                continue;
            flow.mark = fill_epoch;
            flow.rate = best_share;
            --n_unfixed;
            for (uint32_t li : flow.links) {
                LinkState &ls = link_states_[li];
                ls.residual -= best_share;
                if (ls.residual < 0.0)
                    ls.residual = 0.0; // Guard FP round-off.
                --ls.unfixed;
            }
        }
        SI_ASSERT(n_unfixed < before, "water-filling failed to make progress");
    }

    // Refresh per-link aggregate rates (summed in id order so the oracle
    // reproduces the exact bit pattern) and re-key each flow's completion.
    for (uint32_t li : comp_links_) {
        LinkState &ls = link_states_[li];
        ls.agg_rate = 0.0;
        for (uint32_t s : ls.flows)
            ls.agg_rate += slots_[s].rate;
    }
    for (uint32_t s : comp_flows_) {
        FlowSlot &flow = slots_[s];
        SI_ASSERT(flow.rate > 0.0, "active flow with zero rate");
        ++flow.stamp;
        pushCompletion(s, now + flow.remaining / flow.rate);
    }

    if (observer_) {
        // Witnesses see rate changes by ascending id, as the oracle lists
        // them; unobserved runs skip the sort.
        std::sort(comp_flows_.begin(), comp_flows_.end(),
                  [this](uint32_t a, uint32_t b) {
                      return slots_[a].id < slots_[b].id;
                  });
        for (uint32_t li : comp_links_)
            observer_->linkRateChanged(*link_states_[li].link,
                                       link_states_[li].agg_rate, now);
        for (uint32_t s : comp_flows_)
            observer_->flowRateChanged(slots_[s].id, slots_[s].rate, now);
    }
    auto &profiler = obs::Profiler::instance();
    profiler.addFlowsTouched(comp_flows_.size());
    profiler.addLinksTouched(comp_links_.size());
}

// ---- completion heap --------------------------------------------------------

bool
FlowNetwork::heapEntryValid(const HeapEntry &e) const
{
    const FlowSlot &f = slots_[e.slot];
    return f.active && f.stamp == e.stamp && f.id == e.id;
}

void
FlowNetwork::pushCompletion(uint32_t slot, Seconds when)
{
    completion_heap_.push_back(
        HeapEntry{when, slots_[slot].id, slot, slots_[slot].stamp});
    std::push_heap(completion_heap_.begin(), completion_heap_.end(), heapLater);
    // Rate churn leaves one tombstone per superseded entry; compact before
    // the dead weight dominates.
    if (completion_heap_.size() > 64 &&
        completion_heap_.size() > 4 * active_.size())
        compactCompletionHeap();
}

void
FlowNetwork::compactCompletionHeap()
{
    completion_heap_.erase(
        std::remove_if(completion_heap_.begin(), completion_heap_.end(),
                       [this](const HeapEntry &e) {
                           return !heapEntryValid(e);
                       }),
        completion_heap_.end());
    std::make_heap(completion_heap_.begin(), completion_heap_.end(), heapLater);
}

void
FlowNetwork::rescheduleCompletionEvent()
{
    // Drop superseded entries so the armed event always matches a live
    // completion (each tombstone is popped at most once, ever).
    while (!completion_heap_.empty() &&
           !heapEntryValid(completion_heap_.front())) {
        std::pop_heap(completion_heap_.begin(), completion_heap_.end(), heapLater);
        completion_heap_.pop_back();
    }
    if (completion_heap_.empty()) {
        if (event_scheduled_) {
            sim_.cancel(pending_event_);
            event_scheduled_ = false;
        }
        return;
    }
    const Seconds when = completion_heap_.front().when;
    if (event_scheduled_ && pending_time_ == when)
        return;
    if (event_scheduled_)
        sim_.cancel(pending_event_);
    pending_event_ = sim_.at(when, [this]() { onCompletionEvent(); });
    pending_time_ = when;
    event_scheduled_ = true;
}

void
FlowNetwork::onCompletionEvent()
{
    event_scheduled_ = false;
    const Seconds now = sim_.now();

    retiring_.clear();
    while (!completion_heap_.empty()) {
        const HeapEntry &top = completion_heap_.front();
        if (heapEntryValid(top) && top.when > now)
            break;
        const bool due = heapEntryValid(top);
        const uint32_t slot = top.slot;
        std::pop_heap(completion_heap_.begin(), completion_heap_.end(), heapLater);
        completion_heap_.pop_back();
        if (due)
            retiring_.push_back(slot);
    }
    SI_ASSERT(!retiring_.empty(), "completion event with no due flow");

    // The contention component of the retiring flows: every survivor whose
    // rate can change. Marked before the retiring flows leave the index.
    markComponent(retiring_);

    // Settle and detach the retiring flows; leftover sub-epsilon bytes are
    // credited so delivered totals match the requested sizes.
    callbacks_.clear();
    for (uint32_t s : retiring_) {
        FlowSlot &f = slots_[s];
        settleFlow(f, now);
        total_delivered_ += f.remaining;
        f.remaining = 0.0;
        f.rate = 0.0;
        if (observer_)
            observer_->flowFinished(f.id, now);
        obs::Profiler::instance().countFlowRetire();
        callbacks_.push_back(std::move(f.done));
        for (uint32_t li : f.links) {
            auto &lf = link_states_[li].flows;
            lf.erase(std::find(lf.begin(), lf.end(), s));
        }
        f.active = false;
    }
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [this](uint32_t s) {
                                     return !slots_[s].active;
                                 }),
                  active_.end());
    for (uint32_t s : retiring_)
        freeSlot(s);

    recomputeComponent(now);
    rescheduleCompletionEvent();

    // Callbacks run last: they may start new flows, which re-enter
    // startFlow() and recompute rates consistently.
    const obs::Profiler::Scoped probe(obs::Section::FlowCallbacks);
    for (auto &callback : callbacks_) {
        if (callback)
            callback();
    }
}

// ---- reference oracle -------------------------------------------------------

FlowNetwork::OracleSnapshot
FlowNetwork::oracleRates() const
{
    // Full recomputation from first principles: fresh containers, flows in
    // ascending-id order, links in first-touch order. Deliberately mirrors
    // none of the incremental bookkeeping — this is the specification the
    // incremental scheduler must match bit for bit.
    OracleSnapshot snap;
    std::vector<const FlowSlot *> flows;
    flows.reserve(active_.size());
    for (uint32_t s : active_)
        flows.push_back(&slots_[s]);

    std::vector<Link *> links;
    std::vector<double> residual;
    std::vector<int> unfixed_count;
    auto link_pos = [&](Link *link) {
        const auto it = std::find(links.begin(), links.end(), link);
        if (it != links.end())
            return static_cast<std::size_t>(it - links.begin());
        links.push_back(link);
        residual.push_back(link->effectiveCapacity());
        unfixed_count.push_back(0);
        return links.size() - 1;
    };
    for (const FlowSlot *f : flows)
        for (Link *link : f->route)
            ++unfixed_count[link_pos(link)];

    std::vector<double> rate(flows.size(), 0.0);
    std::vector<std::size_t> unfixed(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i)
        unfixed[i] = i;

    while (!unfixed.empty()) {
        std::size_t bottleneck = links.size();
        double best_share = std::numeric_limits<double>::infinity();
        for (std::size_t li = 0; li < links.size(); ++li) {
            if (unfixed_count[li] <= 0)
                continue;
            const double share = residual[li] / unfixed_count[li];
            if (share < best_share) {
                best_share = share;
                bottleneck = li;
            }
        }
        SI_ASSERT(bottleneck != links.size(),
                  "oracle: no bottleneck among active flows");

        std::vector<std::size_t> still_unfixed;
        still_unfixed.reserve(unfixed.size());
        for (std::size_t i : unfixed) {
            const Route &route = flows[i]->route;
            const bool crosses = std::find(route.begin(), route.end(),
                                           links[bottleneck]) != route.end();
            if (!crosses) {
                still_unfixed.push_back(i);
                continue;
            }
            rate[i] = best_share;
            for (Link *link : route) {
                const std::size_t li = link_pos(link);
                residual[li] -= best_share;
                if (residual[li] < 0.0)
                    residual[li] = 0.0;
                --unfixed_count[li];
            }
        }
        SI_ASSERT(still_unfixed.size() < unfixed.size(),
                  "oracle: water-filling failed to make progress");
        unfixed.swap(still_unfixed);
    }

    snap.rates.reserve(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i)
        snap.rates.emplace_back(flows[i]->id, rate[i]);

    // Per-link aggregates, contributions in ascending flow id (the same
    // order the incremental engine sums its per-link flow lists).
    std::vector<double> agg(links.size(), 0.0);
    for (std::size_t i = 0; i < flows.size(); ++i)
        for (Link *link : flows[i]->route)
            agg[link_pos(link)] += rate[i];
    snap.link_rates.reserve(links.size());
    for (std::size_t li = 0; li < links.size(); ++li)
        snap.link_rates.emplace_back(links[li], agg[li]);
    return snap;
}

} // namespace smartinf::net
