#include "sim/task_graph.h"

#include <algorithm>
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

TaskGraph::TaskId
TaskGraph::add(Action action, TaskLabel label)
{
    // Post-start additions stay dormant (released == false) until the
    // caller wires their dependencies and calls release().
    if ((total_added_ & (kBlockSize - 1)) == 0)
        blocks_.push_back(spare_block_ ? std::move(spare_block_)
                                       : std::make_unique<Task[]>(kBlockSize));
    const TaskId id = total_added_++;
    task(id) = Task{std::move(action), label, {}, 0, false, false,
                    false, false, current_domain_, -1.0, -1.0};
    return id;
}

TaskGraph::TaskId
TaskGraph::barrier(TaskLabel label)
{
    return add(nullptr, label);
}

TaskGraph::TaskId
TaskGraph::compute(Resource &resource, double work, TaskLabel label)
{
    return add(
        [&resource, work](std::function<void()> done) {
            resource.submit(work, std::move(done));
        },
        label);
}

TaskGraph::TaskId
TaskGraph::delay(Seconds duration, TaskLabel label)
{
    SI_REQUIRE(duration >= 0.0, "negative delay");
    return add(
        [this, duration](std::function<void()> done) {
            sim_.after(duration, std::move(done));
        },
        label);
}

std::string
TaskGraph::labelString(TaskId id) const
{
    return task(id).label.str();
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
    d.dependents.push_back(task_id);
    ++t.pending_deps;
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
    // Launching a static task may already grow the graph (its action can
    // add + release dynamic tasks); those manage their own release, so
    // only the pre-start prefix is released here.
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
    t.start_time = sim_.now();
    obs::Profiler::instance().countTaskLaunch();
    if (SimObserver *observer = sim_.observer())
        observer->taskStarted(id, t.label, sim_.now());
    if (!t.action) {
        complete(id);
        return;
    }
    // Move the action out before invoking it, so the task drops the
    // closure (and whatever it captured) as soon as it has run.
    Action action = std::move(t.action);
    const TaskId prev_launching = launching_;
    launching_ = id;
    ++callback_depth_;
    action([this, id]() { complete(id); });
    --callback_depth_;
    launching_ = prev_launching;
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
    ++callback_depth_;
    t.completed = true;
    t.finish_time = sim_.now();
    max_finish_ = std::max(max_finish_, t.finish_time);
    if (!cancellers_.empty())
        cancellers_.erase(id);
    if (SimObserver *observer = sim_.observer())
        observer->taskFinished(id, t.label, sim_.now());
    ++completed_;
    // A completed task's dependent list is frozen (dependsOn on a
    // completed dep is a no-op).
    for (const TaskId dep_id : t.dependents) {
        Task &dep = task(dep_id);
        SI_ASSERT(dep.pending_deps > 0, "dependency underflow");
        if (--dep.pending_deps == 0 && dep.released && !dep.abandoned)
            launch(dep_id);
    }
    --callback_depth_;
    // Trim only at the outermost frame: a nested trim would free the
    // storage an outer complete()'s dependent loop is still reading.
    if (trim_enabled_ && callback_depth_ == 0 &&
        completed_ - trim_checkpoint_ >= kTrimChunk)
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
}

void
TaskGraph::setCanceller(TaskId id, std::function<void()> cancel)
{
    SI_ASSERT(!task(id).completed && !task(id).abandoned,
              "canceller on a finished task");
    cancellers_[id] = std::move(cancel);
}

bool
TaskGraph::abandoned(TaskId id) const
{
    return task(id).abandoned;
}

std::size_t
TaskGraph::revokeDomain(Domain d)
{
    SI_REQUIRE(d != kNoDomain, "cannot revoke the null domain");
    const Seconds now = sim_.now();
    std::size_t revoked = 0;
    // Ascending id order is the determinism contract: cancellers (flow
    // revocations) fire in the order the tasks were created. Trimmed
    // tasks are completed/abandoned already, so starting at base_ scans
    // exactly the candidates.
    for (TaskId id = base_; id < total_added_; ++id) {
        if (task(id).domain != d || task(id).completed ||
            task(id).abandoned)
            continue;
        task(id).abandoned = true;
        task(id).finish_time = now; // For makespan(); never "finished".
        max_finish_ = std::max(max_finish_, now);
        ++completed_;
        ++revoked;
        const auto it = cancellers_.find(id);
        if (it != cancellers_.end()) {
            std::function<void()> cancel = std::move(it->second);
            cancellers_.erase(it);
            if (task(id).launched && cancel)
                cancel();
        }
        if (SimObserver *observer = sim_.observer()) {
            if (task(id).launched)
                observer->taskAbandoned(id, task(id).label, now);
        }
    }
    // A revocable unit must be a closed sub-graph: anything downstream of an
    // abandoned task has to be gone too, or it would wait forever.
    for (TaskId id = base_; id < total_added_; ++id) {
        if (task(id).domain != d || !task(id).abandoned)
            continue;
        for (TaskId dep_id : task(id).dependents)
            SI_ASSERT(task(dep_id).abandoned || task(dep_id).completed,
                      "revoked domain leaves dangling dependent ", dep_id);
    }
    return revoked;
}

Seconds
TaskGraph::finishTime(TaskId id) const
{
    SI_ASSERT(task(id).completed, "finishTime() on incomplete task");
    return task(id).finish_time;
}

Seconds
TaskGraph::startTime(TaskId id) const
{
    SI_ASSERT(task(id).launched, "startTime() on unlaunched task");
    return task(id).start_time;
}

Seconds
TaskGraph::makespan() const
{
    SI_ASSERT(done(), "makespan() before completion");
    return max_finish_;
}

} // namespace smartinf::sim
