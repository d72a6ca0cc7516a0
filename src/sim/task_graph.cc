#include "sim/task_graph.h"

#include <algorithm>
#include <memory>
#include <new>
#include <string>

#include "common/logging.h"
#include "obs/profiler.h"
#include "sim/observer.h"

namespace smartinf::sim {

std::string
TaskLabel::str() const
{
    std::string out = stem;
    if (a >= 0) {
        out += '.';
        out += std::to_string(a);
    }
    if (b >= 0) {
        out += '.';
        out += std::to_string(b);
    }
    return out;
}

TaskGraph::Task &
TaskGraph::task(TaskId id)
{
    SI_ASSERT(id >= base_, "task ", id, " was trimmed");
    SI_ASSERT(id < total_added_, "bad task id");
    return blocks_[(id - base_) >> kBlockShift][id & (kBlockSize - 1)];
}

const TaskGraph::Task &
TaskGraph::task(TaskId id) const
{
    SI_ASSERT(id >= base_, "task ", id, " was trimmed");
    SI_ASSERT(id < total_added_, "bad task id");
    return blocks_[(id - base_) >> kBlockShift][id & (kBlockSize - 1)];
}

TaskGraph::Block
TaskGraph::newBlock()
{
    // Aligned from a plain buffer by hand: aligned operator new pads each
    // block and frees the padding as small holes between blocks. Over a
    // perfbench run those holes raised train_scaleout_n32's peak RSS by
    // ~0.4 MiB (glibc 2.36, x86-64).
    constexpr std::size_t kBytes = kBlockSize * sizeof(Task);
    std::size_t space = kBytes + alignof(Task);
    auto *buffer = new std::byte[space];
    void *first = buffer;
    std::align(alignof(Task), kBytes, first, space);
    std::uninitialized_value_construct_n(static_cast<Task *>(first),
                                         kBlockSize);
    return Block(std::launder(static_cast<Task *>(first)),
                 FreeBlock{buffer});
}

TaskGraph::TaskId
TaskGraph::append(Kind kind, TaskLabel label)
{
    // Post-start additions stay dormant (released == false) until the
    // caller wires their dependencies and calls release().
    SI_REQUIRE(total_added_ < kMaxTasks, "task ids must fit in 32 bits");
    if ((total_added_ & (kBlockSize - 1)) == 0)
        blocks_.push_back(spare_block_ ? std::move(spare_block_) : newBlock());
    const TaskId id = total_added_++;
    Task &t = task(id);
    t = Task{};
    t.label = label;
    t.kind = kind;
    const Domain open_run =
        domain_runs_.empty() ? kNoDomain : domain_runs_.back().domain;
    if (current_domain_ != open_run) {
        domain_runs_.push_back({id, current_domain_});
        peak_domain_runs_ = std::max(peak_domain_runs_, domain_runs_.size());
    }
    return id;
}

TaskGraph::TaskId
TaskGraph::notify(Notify what, TaskLabel label)
{
    SI_ASSERT(what, "a notify task needs a receiver (see barrier())");
    const TaskId id = append(Kind::Notify, label);
    task(id).receiver = what.to;
    task(id).arg = what.arg;
    return id;
}

TaskGraph::TaskId
TaskGraph::barrier(TaskLabel label)
{
    return append(Kind::Barrier, label);
}

TaskGraph::TaskId
TaskGraph::compute(Resource &resource, double work, TaskLabel label)
{
    const TaskId id = append(Kind::Compute, label);
    task(id).resource = &resource;
    task(id).amount = work;
    return id;
}

TaskGraph::TaskId
TaskGraph::delay(Seconds duration, TaskLabel label)
{
    SI_REQUIRE(duration >= 0.0, "negative delay");
    const TaskId id = append(Kind::Delay, label);
    task(id).amount = duration;
    return id;
}

TaskGraph::TaskId
TaskGraph::transfer(const TransferRoute &route, Bytes bytes, TaskLabel label)
{
    const TaskId id = append(Kind::Transfer, label);
    task(id).route = &route;
    task(id).amount = bytes;
    return id;
}

void
TaskGraph::dependsOn(TaskId task_id, TaskId dep)
{
    SI_ASSERT(task_id < total_added_ && dep < total_added_, "bad task id");
    SI_ASSERT(task_id != dep, "task cannot depend on itself");
    Task &t = task(task_id);
    SI_ASSERT(!t.launched, "cannot add a dependency to a launched task");
    // A trimmed dependency was completed (or abandoned with its whole
    // closed sub-graph) long ago — satisfied, exactly like the completed
    // branch below.
    if (dep < base_) {
        SI_ASSERT(started_, "completed dependency before start()");
        return;
    }
    Task &d = task(dep);
    if (d.completed) {
        SI_ASSERT(started_, "completed dependency before start()");
        return; // already satisfied
    }
    addDependent(d, task_id);
    ++t.pending_deps;
}

void
TaskGraph::addDependent(Task &t, TaskId id)
{
    SI_REQUIRE(t.num_dependents < kMaxDependents,
               "a task's fan-out must fit in 24 bits");
    const auto dependent_id = static_cast<uint32_t>(id);
    if (t.num_dependents < kInlineDependents) {
        t.dependents[t.num_dependents++] = dependent_id;
        return;
    }
    if (t.num_dependents == kInlineDependents) {
        // The fan-out outgrows the inline pair: move it to a pooled list.
        uint32_t list = static_cast<uint32_t>(fanouts_.size());
        if (free_fanouts_.empty()) {
            fanouts_.emplace_back();
        } else {
            list = free_fanouts_.back();
            free_fanouts_.pop_back();
        }
        fanouts_[list].assign(t.dependents, t.dependents + kInlineDependents);
        t.dependents[0] = list;
    }
    fanouts_[t.dependents[0]].push_back(dependent_id);
    ++t.num_dependents;
}

void
TaskGraph::recycleFanout(Task &t)
{
    if (t.num_dependents <= kInlineDependents)
        return;
    const uint32_t list = t.dependents[0];
    fanouts_[list].clear();
    free_fanouts_.push_back(list);
    t.num_dependents = 0;
}

void
TaskGraph::dependsOn(TaskId task_id, const std::vector<TaskId> &deps)
{
    for (TaskId dep : deps)
        dependsOn(task_id, dep);
}

void
TaskGraph::start()
{
    SI_REQUIRE(!started_, "start() called twice");
    started_ = true;
    // Launching a static task may already grow the graph (a notify task's
    // receiver can add + release dynamic tasks); those manage their own
    // release, so only the pre-start prefix is released here.
    const TaskId static_tasks = total_added_;
    for (TaskId id = 0; id < static_tasks; ++id) {
        Task &t = task(id);
        t.released = true;
        if (t.pending_deps == 0)
            launch(id);
    }
}

void
TaskGraph::release(TaskId id)
{
    SI_REQUIRE(started_, "release() before start() (start releases all)");
    Task &t = task(id);
    SI_ASSERT(!t.released, "task ", id, " released twice");
    t.released = true;
    if (t.pending_deps == 0)
        launch(id);
}

void
TaskGraph::releaseRange(TaskId first, TaskId end)
{
    SI_ASSERT(end <= total_added_, "bad release range");
    for (TaskId id = first; id < end; ++id)
        if (!task(id).released)
            release(id);
}

void
TaskGraph::launch(TaskId id)
{
    Task &t = task(id);
    SI_ASSERT(!t.launched, "task ", id, " launched twice");
    SI_ASSERT(!t.abandoned, "launching revoked task ", id);
    t.launched = true;
    obs::Profiler::instance().countTaskLaunch();
    if (SimObserver *observer = sim_.observer())
        observer->taskStarted(id, t.label, sim_.now());
    const Notify done{this, id};
    switch (t.kind) {
    case Kind::Barrier:
        complete(id);
        return;
    case Kind::Delay:
        sim_.after(t.amount, done);
        return;
    case Kind::Compute:
        t.resource->submit(t.amount, done);
        return;
    case Kind::Transfer:
        SI_ASSERT(seam_ != nullptr, "transfer task ", id,
                  " in a graph without a transfer seam");
        // The bytes are read before the flow id takes their place.
        t.flow = seam_->startTransfer(*t.route, t.amount, done);
        return;
    case Kind::Notify:
        // One bracket around the receiver and the completion, so neither
        // trims storage an outer frame is still reading.
        ++callback_depth_;
        Notify{t.receiver, t.arg}();
        complete(id);
        --callback_depth_;
        return;
    }
}

void
TaskGraph::complete(TaskId id)
{
    // Adding tasks never moves one, and trim waits for the outermost
    // frame, so this reference holds while dependents launch below.
    Task &t = task(id);
    if (t.abandoned)
        return; // A revoked task's work drains as a discarded no-op.
    SI_ASSERT(!t.completed, "task ", id, " completed twice");
    const obs::Profiler::Scoped probe(obs::Section::TaskComplete);
    // A completed task's dependent list is frozen (dependsOn on a
    // completed dep is a no-op). Its count shares a word with the flags:
    // read it before the flag store, as a load of the word just after a
    // byte store into it stalls store forwarding.
    const std::size_t fanout = t.num_dependents;
    ++callback_depth_;
    t.completed = true;
    max_finish_ = std::max(max_finish_, sim_.now());
    if (SimObserver *observer = sim_.observer())
        observer->taskFinished(id, t.label, sim_.now());
    ++completed_;
    for (std::size_t i = 0; i < fanout; ++i) {
        const TaskId dep_id = dependent(t, fanout, i);
        Task &dep = task(dep_id);
        SI_ASSERT(dep.pending_deps > 0, "dependency underflow");
        if (--dep.pending_deps == 0 && dep.released && !dep.abandoned)
            launch(dep_id);
    }
    recycleFanout(t);
    --callback_depth_;
    // Trim only at the outermost frame: a nested trim would free the
    // storage an outer complete()'s dependent loop is still reading.
    if (callback_depth_ == 0 && completed_ - trim_checkpoint_ >= kTrimChunk)
        maybeTrim();
}

void
TaskGraph::maybeTrim()
{
    trim_checkpoint_ = completed_;
    // Completion is final, so the done prefix only grows.
    while (trim_front_ < total_added_ &&
           (task(trim_front_).completed || task(trim_front_).abandoned))
        ++trim_front_;
    const std::size_t whole = (trim_front_ - base_) >> kBlockShift;
    if (whole > 0)
        spare_block_ = std::move(blocks_[whole - 1]);
    blocks_.erase(blocks_.begin(),
                  blocks_.begin() + static_cast<std::ptrdiff_t>(whole));
    base_ += whole << kBlockShift;
    // Drop the domain runs wholly below base_; the run holding base_ stays.
    std::size_t below = 0;
    while (below + 1 < domain_runs_.size() &&
           domain_runs_[below + 1].first <= base_)
        ++below;
    domain_runs_.erase(domain_runs_.begin(),
                       domain_runs_.begin() +
                           static_cast<std::ptrdiff_t>(below));
}

bool
TaskGraph::abandoned(TaskId id) const
{
    return task(id).abandoned;
}

template <typename Fn>
void
TaskGraph::forEachInDomain(Domain d, Fn &&fn)
{
    // Runs are in id order, and trimmed tasks are completed/abandoned
    // already, so starting each run at base_ visits exactly the candidates.
    // The bound is re-read per task: a callback may add tasks to d.
    for (std::size_t r = 0; r < domain_runs_.size(); ++r) {
        if (domain_runs_[r].domain != d)
            continue;
        for (TaskId id = std::max(domain_runs_[r].first, base_);
             id < runEnd(r); ++id)
            fn(id, task(id));
    }
}

std::size_t
TaskGraph::revokeDomain(Domain d)
{
    SI_REQUIRE(d != kNoDomain, "cannot revoke the null domain");
    const Seconds now = sim_.now();
    std::size_t revoked = 0;
    // Ascending id order is the determinism contract: flows are cancelled
    // in the order their tasks were created.
    forEachInDomain(d, [&](TaskId id, Task &t) {
        if (t.completed || t.abandoned)
            return;
        t.abandoned = true;
        max_finish_ = std::max(max_finish_, now); // Never "finished".
        ++completed_;
        ++revoked;
        if (t.launched && t.kind == Kind::Transfer)
            seam_->cancelTransfer(t.flow);
        if (SimObserver *observer = sim_.observer()) {
            if (t.launched)
                observer->taskAbandoned(id, t.label, now);
        }
    });
    // A revocable unit must be a closed sub-graph: anything downstream of an
    // abandoned task has to be gone too, or it would wait forever.
    forEachInDomain(d, [&](TaskId, Task &t) {
        if (!t.abandoned)
            return;
        const std::size_t fanout = t.num_dependents;
        for (std::size_t i = 0; i < fanout; ++i)
            SI_ASSERT(task(dependent(t, fanout, i)).abandoned ||
                          task(dependent(t, fanout, i)).completed,
                      "revoked domain leaves dangling dependent ",
                      dependent(t, fanout, i));
        recycleFanout(t);
    });
    return revoked;
}

Seconds
TaskGraph::makespan() const
{
    SI_ASSERT(done(), "makespan() before completion");
    return max_finish_;
}

} // namespace smartinf::sim
