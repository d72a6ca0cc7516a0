/**
 * @file
 * A dependency graph of asynchronous tasks executed on the simulator. The
 * training engines express one iteration (block loads, GPU compute, gradient
 * offloads, CSD-internal swaps, FPGA updates, ...) as a TaskGraph; overlap
 * falls out of the dependency structure instead of hand-written schedules.
 */
#ifndef SMARTINF_SIM_TASK_GRAPH_H
#define SMARTINF_SIM_TASK_GRAPH_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/resource.h"
#include "sim/simulator.h"

namespace smartinf::sim {

/**
 * Allocation-free task annotation: a static stem plus up to two numeric
 * qualifiers ("bw.compute", block 7 — not a composed std::string). Engines
 * create hundreds of thousands of tasks per sweep, so labels must not churn
 * the heap on construction; str() materialises for debugging only.
 */
struct TaskLabel {
    const char *stem = ""; ///< must point at static storage
    int32_t a = -1;        ///< e.g. block / subgroup index; -1 = unset
    int32_t b = -1;        ///< e.g. device / node index; -1 = unset

    constexpr TaskLabel() = default;
    constexpr TaskLabel(const char *stem, int32_t a = -1, int32_t b = -1)
        : stem(stem), a(a), b(b)
    {
    }

    /** "stem", "stem.7" or "stem.7.2" — debug rendering. */
    std::string str() const;
};

/**
 * Executes tasks respecting dependencies. A task is any asynchronous action:
 * it receives a completion callback and must invoke it exactly once (possibly
 * immediately). Barriers are tasks with no action.
 *
 * Two phases of use:
 *  - Static (the training engines): add every task and dependency, then
 *    start() once; dependency-free tasks launch immediately.
 *  - Dynamic (reactive workloads, e.g. the serving batch scheduler): after
 *    start(), tasks may still be added from inside running actions. A
 *    post-start task stays dormant until release() is called on it, so the
 *    caller can wire its dependencies first; dependsOn() with an
 *    already-completed dependency is a satisfied no-op. releaseRange()
 *    releases a contiguous id block (dynamic construction is append-only,
 *    so a sub-graph built in one callback is always one id range).
 */
class TaskGraph
{
  public:
    using TaskId = std::size_t;
    /** Sentinel for "no task" (e.g. the predecessor of the first block). */
    static constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);
    /** An asynchronous action: call the argument when the task finishes. */
    using Action = std::function<void(std::function<void()> done)>;

    explicit TaskGraph(Simulator &sim) : sim_(sim) {}

    /** Add a task with an arbitrary asynchronous action. */
    TaskId add(Action action, TaskLabel label = {});

    /** Add a no-op barrier task (completes as soon as its deps do). */
    TaskId barrier(TaskLabel label = {});

    /** Add a compute task running @p work units on @p resource. */
    TaskId compute(Resource &resource, double work, TaskLabel label = {});

    /** Add a fixed-delay task (models constant latencies). */
    TaskId delay(Seconds duration, TaskLabel label = {});

    /**
     * Declare that @p task starts only after @p dep completes. After
     * start(), a completed @p dep counts as already satisfied (no-op);
     * @p task must not have launched yet.
     */
    void dependsOn(TaskId task, TaskId dep);

    /** Convenience: @p task depends on every id in @p deps. */
    void dependsOn(TaskId task, const std::vector<TaskId> &deps);

    /**
     * Arm a task added after start(): it launches as soon as its pending
     * dependencies drain (immediately when it has none). Every post-start
     * task needs exactly one release() once its dependencies are wired.
     */
    void release(TaskId id);

    /** release() every not-yet-released task in [first, end). */
    void releaseRange(TaskId first, TaskId end);

    /**
     * Release all dependency-free tasks. Must be called exactly once, before
     * (or while) the simulator runs. Completion of the whole graph can be
     * observed via done() or by draining the simulator.
     */
    void start();

    /** True once every task has completed (revoked tasks count as done). */
    bool done() const { return completed_ == total_added_ && started_; }

    /**
     * Opt into prefix trimming: once enabled, the storage of a completed
     * (or abandoned) prefix of tasks is periodically reclaimed, so a
     * dynamic workload that appends tasks forever — the streaming serving
     * scenarios run millions — holds O(live tasks) memory instead of
     * O(total tasks). Task ids stay global and stable; storage is freed a
     * whole block at a time.
     * The trade: finishTime()/startTime()/labelString()/abandoned() must
     * not be asked about trimmed ids (they assert), and dependsOn() on a
     * trimmed dependency counts as already satisfied. Must be enabled
     * before tasks complete. Every serving run enables it (serving never
     * reads per-task times); training never does, because it reads
     * per-task finish times after the run.
     */
    void enableTrim() { trim_enabled_ = true; }

    /**
     * @name Revocation domains (fault injection).
     *
     * A *domain* groups the tasks of one revocable unit of work — a serving
     * step, a training iteration, an in-flight checkpoint. Tasks added while
     * a domain is current are stamped with it; revokeDomain() later abandons
     * every uncompleted task in the domain: the task counts toward done(),
     * its completion callback becomes a no-op (a resource job already
     * running drains as discarded work), and its registered canceller — if
     * any — runs so side effects (an in-flight flow, a timer) are revoked
     * too. Ordering contract: tasks are abandoned in ascending id order, and
     * every dependent of an abandoned task must itself be completed or
     * abandoned by the end of the call (revocable units are closed
     * sub-graphs). Fault-free runs never open a domain, never register a
     * canceller, and pay nothing.
     * @{
     */
    using Domain = std::uint32_t;
    static constexpr Domain kNoDomain = 0;

    /** Mint a fresh domain id (never reused). */
    Domain openDomain() { return ++last_domain_; }

    /** Tasks added from now on are stamped with @p d (kNoDomain = none). */
    void setCurrentDomain(Domain d) { current_domain_ = d; }
    Domain currentDomain() const { return current_domain_; }

    /**
     * Register a revocation hook for @p id, called (at most once) if the
     * task is abandoned after launching. Typically called from inside the
     * task's own action — launchingTask() names the task being launched.
     */
    void setCanceller(TaskId id, std::function<void()> cancel);

    /** The task whose action is currently being invoked (kInvalidTask
     *  outside launch). Lets an action register its own canceller. */
    TaskId launchingTask() const { return launching_; }

    /** Abandon every uncompleted task in @p d. @return tasks revoked. */
    std::size_t revokeDomain(Domain d);

    /** True if @p id was revoked. */
    bool abandoned(TaskId id) const;
    /** @} */

    /** Completion time of a task. @pre the task has completed. */
    Seconds finishTime(TaskId id) const;
    /** Start time of a task (when its dependencies were satisfied). */
    Seconds startTime(TaskId id) const;

    /** Completion time of the latest-finishing task. @pre done(). */
    Seconds makespan() const;

    /** Total tasks ever added (ids are global: trim never shrinks this). */
    std::size_t taskCount() const { return total_added_; }

    /** Materialised label of a task (debugging/tracing). */
    std::string labelString(TaskId id) const;

    /** A task's stored label. The reference stays valid until the task is
     *  trimmed: adding tasks never moves a task already added. */
    const TaskLabel &label(TaskId id) const { return task(id).label; }

  private:
    struct Task {
        Action action;
        TaskLabel label;
        std::vector<TaskId> dependents;
        std::size_t pending_deps = 0;
        bool launched = false;
        bool completed = false;
        /** Armed to launch (start() arms the static graph; dynamic tasks
         *  are armed individually via release()). */
        bool released = false;
        bool abandoned = false; ///< revoked; completion is a no-op
        Domain domain = kNoDomain;
        Seconds start_time = -1.0;
        Seconds finish_time = -1.0;
    };

    void launch(TaskId id);
    void complete(TaskId id);
    /** Storage slot for global id @p id. */
    Task &task(TaskId id);
    const Task &task(TaskId id) const;
    /** Free every leading block whose tasks are all completed/abandoned.
     *  Only called from the outermost complete() frame (callback_depth_ ==
     *  0): a nested trim would free storage an outer frame's dependent
     *  loop is still reading. Amortized O(1): scans only once per
     *  kTrimChunk completions, resuming where the last scan stopped. */
    void maybeTrim();

    Simulator &sim_;
    /** Tasks live in fixed blocks of kBlockSize, so a growing graph never
     *  reallocates or moves a task. One big doubling array would copy the
     *  whole graph on every growth step, and its large freed buffers
     *  fragment the heap, so peak RSS would creep with every graph built
     *  in one process. blocks_[0] holds ids [base_, base_ + kBlockSize). */
    static constexpr std::size_t kBlockShift = 10;
    static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
    std::vector<std::unique_ptr<Task[]>> blocks_;
    /** The last block trim freed, kept for the next append: a streaming
     *  graph then cycles through warm memory instead of allocating and
     *  constructing a fresh block every kBlockSize tasks. */
    std::unique_ptr<Task[]> spare_block_;
    std::size_t completed_ = 0;
    std::size_t total_added_ = 0; ///< size of the global id space
    bool started_ = false;

    /** @name Trim mode (enableTrim()); all zero-cost when disabled. @{ */
    static constexpr std::size_t kTrimChunk = 1024;
    bool trim_enabled_ = false;
    std::size_t base_ = 0; ///< first untrimmed id (a block boundary)
    std::size_t trim_checkpoint_ = 0; ///< completed_ at the last scan
    std::size_t trim_front_ = 0; ///< ids below this are completed/abandoned
    int callback_depth_ = 0; ///< launch/complete nesting depth
    /** @} */
    /** Latest finish_time seen so far; == makespan() once done(). Kept
     *  incrementally because trim mode discards per-task times. */
    Seconds max_finish_ = 0.0;
    Domain current_domain_ = kNoDomain;
    Domain last_domain_ = kNoDomain;
    TaskId launching_ = kInvalidTask;
    /** Sparse: only fault-armed tasks register (empty in fault-free runs). */
    std::unordered_map<TaskId, std::function<void()>> cancellers_;
};

} // namespace smartinf::sim

#endif // SMARTINF_SIM_TASK_GRAPH_H
