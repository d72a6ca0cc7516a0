#include "net/flow_network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/logging.h"
#include "obs/profiler.h"

namespace smartinf::net {

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
    f.route.clear();
    f.links.clear();
    f.done = {};
    f.live = false;
    f.active = false;
    f.cancelled = false;
    free_slots_.push_back(slot);
}

uint32_t
FlowNetwork::findSlot(FlowId id) const
{
    for (uint32_t s = 0; s < slots_.size(); ++s)
        if (slots_[s].live && slots_[s].id == id)
            return s;
    return kNoSlot;
}

std::vector<const FlowNetwork::FlowSlot *>
FlowNetwork::activeById() const
{
    std::vector<const FlowSlot *> flows;
    for (const FlowSlot &f : slots_)
        if (f.active)
            flows.push_back(&f);
    std::sort(flows.begin(), flows.end(),
              [](const FlowSlot *a, const FlowSlot *b) {
                  return a->id < b->id;
              });
    return flows;
}

const FlowNetwork::LinkState *
FlowNetwork::seenLink(const Link *link) const
{
    const uint32_t id = link->id();
    if (id >= link_states_.size() || link_states_[id].link == nullptr)
        return nullptr;
    SI_ASSERT(link_states_[id].link == link, "links ",
              link_states_[id].link->name(), " and ", link->name(),
              " share id ", id, ": one network carries links of one topology");
    return &link_states_[id];
}

void
FlowNetwork::trackLink(Link *link)
{
    if (seenLink(link) != nullptr)
        return;
    const uint32_t id = link->id();
    if (id >= link_states_.size())
        link_states_.resize(id + 1);
    LinkState &ls = link_states_[id];
    ls.link = link;
    ls.capacity = link->effectiveCapacity();
    ls.accounted_at = sim_.now();
}

// ---- public API -------------------------------------------------------------

FlowId
FlowNetwork::startFlow(const Route &route, Bytes bytes, sim::Notify done,
                       Seconds latency)
{
    SI_REQUIRE(std::isfinite(bytes) && bytes >= 0.0,
               "transfer size must be finite and non-negative, got ", bytes);
    SI_REQUIRE(std::isfinite(latency) && latency >= 0.0,
               "flow latency must be finite and non-negative, got ", latency);
    const FlowId id = next_id_++;

    const uint32_t slot = allocSlot();
    FlowSlot &f = slots_[slot];
    f.id = id;
    f.route.assign(route.begin(), route.end());
    f.done = done;
    f.rate = 0.0;
    f.pending_bytes = bytes;
    f.live = true;

    if (latency > 0.0) {
        // Model propagation/setup latency as a delay before bandwidth
        // consumption begins; contention only applies to the bulk phase.
        // The flow keeps its id (and rate 0) through the delay.
        sim_.after(latency, sim::Notify{this, slot});
        return id;
    }
    beginBulk(slot);
    return id;
}

void
FlowNetwork::onNotify(uint64_t arg)
{
    if (arg == kAlarm)
        onCompletionEvent();
    else
        beginBulk(static_cast<uint32_t>(arg));
}

void
FlowNetwork::beginBulk(uint32_t slot)
{
    const Seconds now = sim_.now();
    FlowSlot &f = slots_[slot];

    if (f.cancelled) {
        // Revoked during its latency phase: the slot was kept alive so this
        // delayed event could land somewhere valid.
        freeSlot(slot);
        return;
    }
    if (f.pending_bytes < kCompletionEpsilon || f.route.empty()) {
        // Degenerate flows complete on the next event boundary so callers
        // never observe re-entrant completion; the slot is freed at once.
        // Without a completion to deliver there is no event, as in the bulk
        // phase.
        total_delivered_ += f.pending_bytes;
        if (f.done)
            sim_.after(0.0, f.done);
        freeSlot(slot);
        return;
    }

    f.active = true;
    f.remaining = f.pending_bytes;
    f.settled_at = now;
    f.links.clear();
    for (Link *link : f.route) {
        trackLink(link);
        f.links.push_back(link->id());
    }

    // Register in the id-ordered link index. A latency-delayed flow can
    // carry a smaller id than already-active flows, so insert sorted.
    const FlowId id = f.id;
    auto by_id = [this](uint32_t s, FlowId v) { return slots_[s].id < v; };
    ++n_active_;
    for (uint32_t li : f.links) {
        auto &lf = link_states_[li].flows;
        lf.insert(std::lower_bound(lf.begin(), lf.end(), id, by_id), slot);
    }

    if (observer_)
        observer_->flowStarted(id, f.route, f.remaining, now);

    joinComponents(slot);
    collectComponents({&slot, 1});
    recomputeComponent(now);
    rescheduleCompletionEvent();
}

bool
FlowNetwork::cancelFlow(FlowId id)
{
    const uint32_t slot = findSlot(id);
    if (slot == kNoSlot)
        return false; // Completed (or degenerate): nothing to revoke.
    FlowSlot &f = slots_[slot];
    if (f.cancelled)
        return false; // Revoked in its latency phase already.
    const Seconds now = sim_.now();

    if (!f.active) {
        // Latency phase: a delayed beginBulk event still references the
        // slot, so keep it allocated and let beginBulk() reap it.
        f.cancelled = true;
        f.done.drop();
        f.done = {};
        if (observer_)
            observer_->flowCancelled(f.id, now);
        return true;
    }

    // Bulk phase: settle what actually moved (aborted transfers keep their
    // partial delivery), then retire the flow exactly like a completion —
    // component collected before detaching — except the callback is
    // dropped.
    collectComponents({&slot, 1});
    settleFlow(f, now);
    f.rate = 0.0;
    f.done.drop();
    if (observer_)
        observer_->flowCancelled(f.id, now);
    detachFlow(slot);
    --n_active_;
    freeSlot(slot);

    recomputeComponent(now);
    rescheduleCompletionEvent();
    return true;
}

void
FlowNetwork::linkCapacityChanged(Link *link)
{
    if (seenLink(link) == nullptr)
        return; // Never carried a flow; trackLink() reads the new capacity.
    LinkState &ls = link_states_[link->id()];
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
    collectComponents({&ls.flows.front(), 1});
    recomputeComponent(now);
    rescheduleCompletionEvent();
}

BytesPerSec
FlowNetwork::currentRate(FlowId id) const
{
    const uint32_t slot = findSlot(id);
    return slot == kNoSlot ? 0.0 : slots_[slot].rate;
}

BytesPerSec
FlowNetwork::linkAggregateRate(const Link *link) const
{
    const LinkState *ls = seenLink(link);
    return ls == nullptr ? 0.0 : ls->agg_rate;
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

template <class Member>
void
FlowNetwork::enterComponent(std::vector<uint32_t> &list,
                            std::vector<Member> &members, uint32_t comp,
                            uint32_t idx)
{
    members[idx].comp = comp;
    members[idx].comp_pos = static_cast<uint32_t>(list.size());
    list.push_back(idx);
}

template <class Member>
void
FlowNetwork::leaveComponent(std::vector<uint32_t> &list,
                            std::vector<Member> &members, uint32_t idx)
{
    const uint32_t pos = members[idx].comp_pos;
    const uint32_t last = list.back();
    list[pos] = last;
    members[last].comp_pos = pos;
    list.pop_back();
    members[idx].comp = kNoSlot;
}

uint32_t
FlowNetwork::allocComponent()
{
    if (!free_components_.empty()) {
        const uint32_t comp = free_components_.back();
        free_components_.pop_back();
        return comp;
    }
    components_.emplace_back();
    return static_cast<uint32_t>(components_.size() - 1);
}

void
FlowNetwork::joinComponents(uint32_t slot)
{
    // A start is a union, so the merged partition stays exact. Merging the
    // smaller components into the largest moves each member O(log n) times
    // over its life.
    auto size = [this](uint32_t comp) {
        return components_[comp].flows.size() + components_[comp].links.size();
    };
    uint32_t into = kNoSlot;
    for (uint32_t li : slots_[slot].links) {
        const uint32_t comp = link_states_[li].comp;
        if (comp != kNoSlot && (into == kNoSlot || size(comp) > size(into)))
            into = comp;
    }
    if (into == kNoSlot)
        into = allocComponent();
    for (uint32_t li : slots_[slot].links) {
        const uint32_t comp = link_states_[li].comp;
        if (comp == kNoSlot)
            enterComponent(components_[into].links, link_states_, into, li);
        else if (comp != into)
            mergeComponent(into, comp);
    }
    enterComponent(components_[into].flows, slots_, into, slot);
}

void
FlowNetwork::mergeComponent(uint32_t into, uint32_t from)
{
    Component &dst = components_[into];
    Component &src = components_[from];
    for (uint32_t s : src.flows)
        enterComponent(dst.flows, slots_, into, s);
    for (uint32_t li : src.links)
        enterComponent(dst.links, link_states_, into, li);
    src.flows.clear();
    src.links.clear();
    dropCompletion(from);
    free_components_.push_back(from);
}

void
FlowNetwork::detachFlow(uint32_t slot)
{
    FlowSlot &f = slots_[slot];
    const uint32_t comp = f.comp;
    Component &c = components_[comp];
    for (uint32_t li : f.links) {
        auto &lf = link_states_[li].flows;
        lf.erase(std::find(lf.begin(), lf.end(), slot));
        if (lf.empty())
            leaveComponent(c.links, link_states_, li);
    }
    leaveComponent(c.flows, slots_, slot);
    f.active = false;
    if (c.flows.empty()) {
        SI_ASSERT(c.links.empty(), "component links outlived its flows");
        dropCompletion(comp);
        free_components_.push_back(comp);
    } else if (!staysConnected(f)) {
        resplitComponent(comp);
    }
}

bool
FlowNetwork::staysConnected(const FlowSlot &flow) const
{
    // A path between two survivors that ran through the retired flow
    // entered and left it on two distinct links that still carry flows.
    // With at most one such link (a leaf) there is no such path; if one
    // survivor crosses all of them (a cover), it bridges every such path.
    const auto &links = flow.links;
    auto shared = [&](std::size_t i) {
        return !link_states_[links[i]].flows.empty() &&
               std::find(links.begin(), links.begin() + i, links[i]) ==
                   links.begin() + i;
    };
    std::size_t n_shared = 0;
    uint32_t fewest = kNoSlot; // The shared link with the fewest flows.
    for (std::size_t i = 0; i < links.size(); ++i) {
        if (!shared(i))
            continue;
        ++n_shared;
        if (fewest == kNoSlot || link_states_[links[i]].flows.size() <
                                     link_states_[fewest].flows.size())
            fewest = links[i];
    }
    if (n_shared <= 1)
        return true;
    for (uint32_t s : link_states_[fewest].flows) {
        const auto &crossed = slots_[s].links;
        const bool covers = std::all_of(
            links.begin(), links.end(), [&](uint32_t li) {
                return link_states_[li].flows.empty() ||
                       std::find(crossed.begin(), crossed.end(), li) !=
                           crossed.end();
            });
        if (covers)
            return true;
    }
    return false;
}

void
FlowNetwork::resplitComponent(uint32_t comp)
{
    // The fallback flood fill, over this component's members only. An
    // unassigned back-link marks a member not yet reached; the first piece
    // keeps the component's index.
    Component &c = components_[comp];
    split_flows_.assign(c.flows.begin(), c.flows.end());
    for (uint32_t s : c.flows)
        slots_[s].comp = kNoSlot;
    for (uint32_t li : c.links)
        link_states_[li].comp = kNoSlot;
    c.flows.clear();
    c.links.clear();
    uint32_t piece = comp;
    for (uint32_t seed : split_flows_) {
        if (slots_[seed].comp != kNoSlot)
            continue;
        if (piece == kNoSlot)
            piece = allocComponent();
        Component &p = components_[piece];
        enterComponent(p.flows, slots_, piece, seed);
        bfs_stack_.assign(1, seed);
        while (!bfs_stack_.empty()) {
            const uint32_t s = bfs_stack_.back();
            bfs_stack_.pop_back();
            for (uint32_t li : slots_[s].links) {
                LinkState &ls = link_states_[li];
                if (ls.comp != kNoSlot)
                    continue;
                enterComponent(p.links, link_states_, piece, li);
                for (uint32_t other : ls.flows) {
                    if (slots_[other].comp == kNoSlot) {
                        enterComponent(p.flows, slots_, piece, other);
                        bfs_stack_.push_back(other);
                    }
                }
            }
        }
        piece = kNoSlot;
    }
}

void
FlowNetwork::collectComponents(std::span<const uint32_t> seeds)
{
    const uint64_t epoch = ++epoch_;
    comp_links_.clear();
    for (uint32_t s : seeds) {
        Component &c = components_[slots_[s].comp];
        if (c.mark == epoch)
            continue;
        c.mark = epoch;
        comp_links_.insert(comp_links_.end(), c.links.begin(), c.links.end());
    }
}

void
FlowNetwork::recomputeComponent(Seconds now)
{
    const obs::Profiler::Scoped probe(obs::Section::FlowRecompute);

    // Per-link statistics must be flushed against the rates that held since
    // the last account point, before any rate in the component changes.
    // Then zero every link's aggregate: links whose last flow just retired
    // drop out of the link set and must not keep a stale positive rate (it
    // would flush phantom bytes later), and their rate drop is only visible
    // here. The links that still carry flows name the components to refill:
    // every surviving flow crosses one, and a retirement may have re-split a
    // collected component, whose pieces are filled alone.
    const uint64_t fill_epoch = ++epoch_;
    fill_comps_.clear();
    std::size_t n_flows = 0;
    std::size_t n_links = 0;
    for (uint32_t li : comp_links_) {
        LinkState &ls = link_states_[li];
        flushLink(ls, now);
        ls.agg_rate = 0.0;
        if (observer_)
            observer_->linkRateChanged(*ls.link, 0.0, now);
        if (ls.flows.empty())
            continue;
        // Water-fill scratch: each link's flow list holds exactly its active
        // flows, one entry per route occurrence (a route listing a link
        // twice claims two shares), so it gives the unfixed count directly.
        ls.residual = ls.capacity;
        ls.unfixed = static_cast<int>(ls.flows.size());
        comp_links_[n_links++] = li;
        Component &c = components_[ls.comp];
        if (c.mark != fill_epoch) {
            c.mark = fill_epoch;
            fill_comps_.push_back(ls.comp);
            n_flows += c.flows.size();
        }
    }
    comp_links_.resize(n_links);

    for (uint32_t comp : fill_comps_)
        fillComponent(comp, now, fill_epoch);

    if (observer_) {
        // Witnesses see links in first-touch order and rate changes by
        // ascending id, as the oracle lists them; unobserved runs skip the
        // keys, the flow list and the sorts.
        comp_flows_.clear();
        for (uint32_t comp : fill_comps_)
            comp_flows_.insert(comp_flows_.end(),
                               components_[comp].flows.begin(),
                               components_[comp].flows.end());
        for (uint32_t li : comp_links_)
            keyTouch(li);
        std::sort(comp_links_.begin(), comp_links_.end(),
                  [this](uint32_t a, uint32_t b) {
                      return touchedBefore(a, b);
                  });
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
    profiler.addFlowsTouched(n_flows);
    profiler.addLinksTouched(n_links);
}

void
FlowNetwork::keyTouch(uint32_t li)
{
    // The oracle scans links in first-touch order (walking flows by
    // ascending id, each route in order). A link is first touched by its
    // lowest-id flow, the front of its id-ordered list, at its first
    // position in that flow's route.
    LinkState &ls = link_states_[li];
    const FlowSlot &first = slots_[ls.flows.front()];
    ls.touch_id = first.id;
    ls.touch_pos = static_cast<uint32_t>(
        std::find(first.links.begin(), first.links.end(), li) -
        first.links.begin());
}

bool
FlowNetwork::touchedBefore(uint32_t a, uint32_t b) const
{
    const LinkState &la = link_states_[a];
    const LinkState &lb = link_states_[b];
    if (la.touch_id != lb.touch_id)
        return la.touch_id < lb.touch_id;
    return la.touch_pos < lb.touch_pos;
}

void
FlowNetwork::fillComponent(uint32_t comp, Seconds now, uint64_t fill_epoch)
{
    // Progressive water-filling over one component. Repeatedly find the
    // most-constrained link (smallest residual capacity per unfixed flow),
    // freeze its flows at that fair share, and release their capacity
    // claims elsewhere. The oracle scans links in first-touch order and
    // keeps the first smallest share, so the bottleneck is the argmin with
    // an exact tie going to the first-touched link; only tied links are
    // keyed. Another component's rounds never touch these links, so the
    // oracle's global fill picks the same bottlenecks here in the same
    // order.
    Component &c = components_[comp];
    const FlowSlot *earliest = nullptr;
    std::size_t n_frozen = 0;
    while (n_frozen < c.flows.size()) {
        uint32_t bottleneck = kNoSlot;
        double best_share = std::numeric_limits<double>::infinity();
        for (uint32_t li : c.links) {
            const LinkState &ls = link_states_[li];
            if (ls.unfixed <= 0)
                continue;
            const double share = ls.residual / ls.unfixed;
            if (share == best_share) {
                keyTouch(li);
                keyTouch(bottleneck);
            }
            if (share < best_share ||
                (share == best_share && touchedBefore(li, bottleneck))) {
                best_share = share;
                bottleneck = li;
            }
        }
        SI_ASSERT(bottleneck != kNoSlot, "no bottleneck among active flows");
        SI_ASSERT(best_share > 0.0, "active flow with zero rate");

        // The bottleneck's own id-ordered list names exactly the flows to
        // freeze, in the ascending-id order the oracle freezes them; flows
        // frozen in an earlier round, and the repeat entries of a route that
        // lists the link twice, carry this recompute's stamp. A flow settles
        // to now as it freezes, against the rate that held until now. Every
        // member freezes once, so the earliest (due, id) seen is the
        // component's exact completion key.
        frozen_.clear();
        for (uint32_t s : link_states_[bottleneck].flows) {
            FlowSlot &flow = slots_[s];
            if (flow.mark == fill_epoch)
                continue;
            flow.mark = fill_epoch;
            settleFlow(flow, now);
            flow.rate = best_share;
            flow.due = now + flow.remaining / best_share;
            if (earliest == nullptr || dueBefore(flow, *earliest))
                earliest = &flow;
            frozen_.push_back(s);
        }
        SI_ASSERT(!frozen_.empty(), "water-filling failed to make progress");
        n_frozen += frozen_.size();
        if (n_frozen == c.flows.size())
            break; // Nothing reads the last round's residuals.

        // Release this round's claims, in the same flow order as its freeze.
        for (uint32_t s : frozen_) {
            for (uint32_t li : slots_[s].links) {
                LinkState &ls = link_states_[li];
                ls.residual -= best_share;
                if (ls.residual < 0.0)
                    ls.residual = 0.0; // Guard FP round-off.
                --ls.unfixed;
            }
        }
    }
    // Settle-in-freeze and the exact key both rest on this.
    SI_ASSERT(n_frozen == c.flows.size(), "water-filling froze ", n_frozen,
              " flows of a ", c.flows.size(), "-flow component");

    // Refresh the links' aggregate rates (zeroed by the recompute), summed
    // in id order so the oracle reproduces the exact bit pattern.
    for (uint32_t li : c.links) {
        LinkState &ls = link_states_[li];
        for (uint32_t s : ls.flows)
            ls.agg_rate += slots_[s].rate;
    }
    c.due = earliest->due;
    c.due_id = earliest->id;
    if (c.heap_pos == kNoSlot) {
        c.heap_pos = static_cast<uint32_t>(completion_heap_.size());
        completion_heap_.push_back(comp);
    }
    siftCompletion(c.heap_pos);
}

// ---- completion heap --------------------------------------------------------

bool
FlowNetwork::dueBefore(const FlowSlot &a, const FlowSlot &b)
{
    if (a.due != b.due)
        return a.due < b.due;
    return a.id < b.id;
}

bool
FlowNetwork::keyedBefore(uint32_t a, uint32_t b) const
{
    const Component &ca = components_[a];
    const Component &cb = components_[b];
    if (ca.due != cb.due)
        return ca.due < cb.due;
    return ca.due_id < cb.due_id;
}

void
FlowNetwork::siftCompletion(std::size_t pos)
{
    // Binary-heap layout: children of i at 2i+1 and 2i+2, the earliest key
    // on top. Every component records its position, so a re-keyed one
    // moves from where it sits.
    std::vector<uint32_t> &heap = completion_heap_;
    const uint32_t moving = heap[pos];
    auto place = [&](uint32_t comp, std::size_t at) {
        heap[at] = comp;
        components_[comp].heap_pos = static_cast<uint32_t>(at);
    };
    while (pos > 0 && keyedBefore(moving, heap[(pos - 1) / 2])) {
        place(heap[(pos - 1) / 2], pos);
        pos = (pos - 1) / 2;
    }
    const std::size_t n = heap.size();
    for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
        if (child + 1 < n && keyedBefore(heap[child + 1], heap[child]))
            ++child;
        if (!keyedBefore(heap[child], moving))
            break;
        place(heap[child], pos);
        pos = child;
    }
    place(moving, pos);
}

void
FlowNetwork::dropCompletion(uint32_t comp)
{
    // A retiring component left the heap before its flows detached, and a
    // piece re-split off by one retirement was never keyed.
    Component &c = components_[comp];
    if (c.heap_pos == kNoSlot)
        return;
    const std::size_t pos = c.heap_pos;
    c.heap_pos = kNoSlot;
    const uint32_t last = completion_heap_.back();
    completion_heap_.pop_back();
    if (pos < completion_heap_.size()) {
        completion_heap_[pos] = last;
        siftCompletion(pos);
    }
}

void
FlowNetwork::rescheduleCompletionEvent()
{
    auto &queue = sim_.queue();
    if (completion_heap_.empty()) {
        queue.disarm();
        return;
    }
    const Seconds when = components_[completion_heap_.front()].due;
    if (!queue.armedAt(when))
        queue.arm(when, sim::Notify{this, kAlarm});
}

void
FlowNetwork::onCompletionEvent()
{
    const Seconds now = sim_.now();

    // Retire every flow due by now, in (due, id) order: the members due by
    // now of the components keyed by now. Those components leave the heap;
    // the recompute below re-keys the ones that keep flows.
    retiring_.clear();
    while (!completion_heap_.empty() &&
           components_[completion_heap_.front()].due <= now) {
        const uint32_t comp = completion_heap_.front();
        for (uint32_t s : components_[comp].flows)
            if (slots_[s].due <= now)
                retiring_.push_back(s);
        dropCompletion(comp);
    }
    SI_ASSERT(!retiring_.empty(), "completion event with no due flow");
    std::sort(retiring_.begin(), retiring_.end(),
              [this](uint32_t a, uint32_t b) {
                  return dueBefore(slots_[a], slots_[b]);
              });

    // The contention components of the retiring flows: every survivor whose
    // rate can change, and every link whose aggregate does. Collected before
    // the retiring flows leave them, so links whose last flow leaves are
    // still flushed and zeroed.
    collectComponents(retiring_);

    // Settle and detach the retiring flows; leftover sub-epsilon bytes are
    // credited so delivered totals match the requested sizes. Each still
    // counts in activeFlows() while its hook fires.
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
        callbacks_.push_back(f.done);
        detachFlow(s);
    }
    n_active_ -= retiring_.size();
    for (uint32_t s : retiring_)
        freeSlot(s);

    recomputeComponent(now);
    rescheduleCompletionEvent();

    // Callbacks run last: they may start new flows, which re-enter
    // startFlow() and recompute rates consistently.
    const obs::Profiler::Scoped probe(obs::Section::FlowCallbacks);
    for (const sim::Notify &callback : callbacks_) {
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
    const std::vector<const FlowSlot *> flows = activeById();

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

FlowNetwork::Partition
FlowNetwork::components() const
{
    // Each non-free component sits in the completion heap exactly once, at
    // its stored position, keyed at its earliest member (due, id); free
    // ones are absent, and the heap order holds.
    for (std::size_t pos = 1; pos < completion_heap_.size(); ++pos)
        SI_ASSERT(!keyedBefore(completion_heap_[pos],
                               completion_heap_[(pos - 1) / 2]),
                  "completion heap out of order at ", pos);
    Partition parts;
    for (uint32_t comp = 0; comp < components_.size(); ++comp) {
        const Component &c = components_[comp];
        if (c.flows.empty()) {
            SI_ASSERT(c.heap_pos == kNoSlot, "free component ", comp,
                      " left in the completion heap");
            continue;
        }
        SI_ASSERT(c.heap_pos < completion_heap_.size() &&
                      completion_heap_[c.heap_pos] == comp,
                  "component ", comp, " lost its completion heap slot");
        auto &ids = parts.emplace_back();
        const FlowSlot *earliest = nullptr;
        for (uint32_t pos = 0; pos < c.flows.size(); ++pos) {
            const FlowSlot &f = slots_[c.flows[pos]];
            SI_ASSERT(f.active && f.comp == comp && f.comp_pos == pos,
                      "flow ", f.id, " lost its component back-link");
            for (uint32_t li : f.links)
                SI_ASSERT(link_states_[li].comp == comp, "link ",
                          link_states_[li].link->name(), " of flow ", f.id,
                          " sits in another component");
            if (earliest == nullptr || dueBefore(f, *earliest))
                earliest = &f;
            ids.push_back(f.id);
        }
        SI_ASSERT(c.due == earliest->due && c.due_id == earliest->id,
                  "component ", comp, " is not keyed at flow ", earliest->id);
        for (uint32_t pos = 0; pos < c.links.size(); ++pos) {
            const LinkState &ls = link_states_[c.links[pos]];
            SI_ASSERT(!ls.flows.empty() && ls.comp == comp &&
                          ls.comp_pos == pos,
                      "link ", ls.link->name(), " is a stale member");
        }
        std::sort(ids.begin(), ids.end());
    }
    SI_ASSERT(parts.size() == completion_heap_.size(),
              "completion heap holds ", completion_heap_.size(),
              " entries for ", parts.size(), " components");
    std::sort(parts.begin(), parts.end());
    return parts;
}

FlowNetwork::Partition
FlowNetwork::oracleComponents() const
{
    // Flood fill from first principles: which flows each link carries,
    // rebuilt from the routes, then a walk from each unreached flow in
    // ascending-id order, so parts come out ordered by their lowest id.
    const std::vector<const FlowSlot *> flows = activeById();
    std::map<const Link *, std::vector<std::size_t>> carried;
    for (std::size_t i = 0; i < flows.size(); ++i)
        for (const Link *link : flows[i]->route)
            carried[link].push_back(i);

    Partition parts;
    std::vector<bool> reached(flows.size(), false);
    for (std::size_t seed = 0; seed < flows.size(); ++seed) {
        if (reached[seed])
            continue;
        reached[seed] = true;
        auto &ids = parts.emplace_back();
        std::vector<std::size_t> stack{seed};
        while (!stack.empty()) {
            const std::size_t i = stack.back();
            stack.pop_back();
            ids.push_back(flows[i]->id);
            for (const Link *link : flows[i]->route) {
                for (std::size_t j : carried[link]) {
                    if (!reached[j]) {
                        reached[j] = true;
                        stack.push_back(j);
                    }
                }
            }
        }
        std::sort(ids.begin(), ids.end());
    }
    return parts;
}

} // namespace smartinf::net
