/**
 * @file
 * A dependency graph of asynchronous tasks executed on the simulator. The
 * training engines express one iteration (block loads, GPU compute, gradient
 * offloads, CSD-internal swaps, FPGA updates, ...) as a TaskGraph; overlap
 * falls out of the dependency structure instead of hand-written schedules.
 * A reactive workload re-enters its own code through a notify task: a
 * sentinel that depends on a unit of work and fires a typed event
 * (sim::Notify) at the workload when that unit completes.
 */
#ifndef SMARTINF_SIM_TASK_GRAPH_H
#define SMARTINF_SIM_TASK_GRAPH_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
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
 * A route as the task graph sees it: opaque. The layer that owns the flow
 * network derives its resolved route from this (train::ResolvedRoute) and
 * implements the TransferSeam that starts flows over it.
 */
struct TransferRoute {
};

/**
 * How transfer tasks reach the flow network, which sits above sim/ (DESIGN.md
 * "Layering"). train::SimContext implements it.
 */
class TransferSeam
{
  public:
    /** Start moving @p bytes over @p route; fire @p done when the last
     *  byte lands. @return an id cancelTransfer() accepts. */
    virtual uint64_t startTransfer(const TransferRoute &route, Bytes bytes,
                                   Notify done) = 0;
    /** Revoke transfer @p flow; @p done never fires. A no-op once the
     *  transfer has completed. */
    virtual void cancelTransfer(uint64_t flow) = 0;

  protected:
    ~TransferSeam() = default;
};

/**
 * Executes tasks respecting dependencies. A task is data: its kind and its
 * operands. A barrier completes as soon as its dependencies do, a delay
 * after a fixed time, a compute task when its Resource finishes the work,
 * and a transfer when the flow the TransferSeam starts delivers its last
 * byte. Resources, flows and delay events complete a task by id (a
 * Notify naming the graph), so no closure sits on that path. A notify task
 * fires the Notify it stores when it launches and completes at once; that
 * is how a workload learns that a unit of work it built has finished.
 *
 * Two phases of use:
 *  - Static (the training engines): add every task and dependency, then
 *    start() once; dependency-free tasks launch immediately.
 *  - Dynamic (reactive workloads, e.g. the serving batch scheduler): after
 *    start(), tasks may still be added from inside any event, a notify
 *    task's receiver included. A post-start task stays dormant until
 *    release() is called on it, so the caller can wire its dependencies
 *    first; dependsOn() with an already-completed dependency is a
 *    satisfied no-op. releaseRange() releases a contiguous id block
 *    (dynamic construction is append-only, so a sub-graph built in one
 *    event is always one id range).
 *
 * The storage of a completed (or abandoned) prefix of tasks is reclaimed a
 * whole block at a time, so a workload that appends tasks forever — a
 * serving stream runs millions, a checkpointed training job one iteration
 * after another — holds O(live tasks) memory, not O(total tasks). Task ids
 * stay global and stable. label() and abandoned() must not be asked about a
 * trimmed id (they assert), and dependsOn() on a trimmed dependency counts
 * as already satisfied. A task keeps no times: a workload that needs the
 * instant a unit of work finished hangs a notify task off it.
 */
class TaskGraph : private Receiver
{
  public:
    using TaskId = std::size_t;
    /** Sentinel for "no task" (e.g. the predecessor of the first block). */
    static constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);

    /** @p seam starts the flows of transfer tasks; a graph without one
     *  must not launch any. */
    explicit TaskGraph(Simulator &sim, TransferSeam *seam = nullptr)
        : sim_(sim), seam_(seam)
    {
    }

    /**
     * Add a task that fires @p what when it launches, then completes. The
     * receiver may add and release tasks; a dependent of this task
     * launches only after the receiver returns.
     */
    TaskId notify(Notify what, TaskLabel label = {});

    /** Add a no-op barrier task (completes as soon as its deps do). */
    TaskId barrier(TaskLabel label = {});

    /** Add a compute task running @p work units on @p resource. */
    TaskId compute(Resource &resource, double work, TaskLabel label = {});

    /** Add a fixed-delay task (models constant latencies). */
    TaskId delay(Seconds duration, TaskLabel label = {});

    /** Add a task moving @p bytes over @p route, which must outlive the
     *  task; the graph's TransferSeam starts (and revokes) its flow. */
    TaskId transfer(const TransferRoute &route, Bytes bytes,
                    TaskLabel label = {});

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
     * @name Revocation domains (fault injection).
     *
     * A *domain* groups the tasks of one revocable unit of work — a serving
     * step, a training iteration, an in-flight checkpoint. Tasks added while
     * a domain is current belong to it; revokeDomain() later abandons
     * every uncompleted task in the domain: the task counts toward done(),
     * its completion becomes a no-op (a resource job already running
     * drains as discarded work, a delay's event fires into nothing), and a
     * launched transfer's flow is cancelled through the TransferSeam.
     * Ordering contract: tasks are abandoned in ascending id order, and
     * every dependent of an abandoned task must itself be completed or
     * abandoned by the end of the call (revocable units are closed
     * sub-graphs). Fault-free runs never open a domain and pay nothing.
     * Tasks added in one stretch under one domain form a contiguous id run;
     * the graph records runs, not a per-task stamp, and revokeDomain()
     * walks only the revoked domain's runs.
     * @{
     */
    using Domain = std::uint32_t;
    static constexpr Domain kNoDomain = 0;

    /** Mint a fresh domain id (never reused). */
    Domain openDomain() { return ++last_domain_; }

    /** Tasks added from now on belong to @p d (kNoDomain = none). */
    void setCurrentDomain(Domain d) { current_domain_ = d; }

    /** Abandon every uncompleted task in @p d. @return tasks revoked. */
    std::size_t revokeDomain(Domain d);

    /** True if @p id was revoked. */
    bool abandoned(TaskId id) const;
    /** @} */

    /** Completion time of the latest-finishing task. @pre done(). */
    Seconds makespan() const;

    /** Total tasks ever added (ids are global: trim never shrinks this). */
    std::size_t taskCount() const { return total_added_; }

    /** A task's stored label. The reference stays valid until the task is
     *  trimmed: adding tasks never moves a task already added. */
    const TaskLabel &label(TaskId id) const { return task(id).label; }

    /** @name Side-table introspection (memory-bound tests).
     *  Each count is the peak number of entries live at once, not the
     *  total ever used. @{ */
    /** Pooled dependent lists (tasks with more than two dependents). */
    std::size_t fanoutListsAllocated() const { return fanouts_.size(); }
    /** Domain runs (contiguous id runs added under one domain). */
    std::size_t domainRunsAllocated() const { return peak_domain_runs_; }
    /** @} */

  private:
    enum class Kind : uint8_t { Barrier, Delay, Compute, Transfer, Notify };

    /** Dependents stored inline; a wider fan-out moves to a pooled list. */
    static constexpr uint32_t kInlineDependents = 2;
    /** Ids and pooled-list indices are stored in 32 bits. */
    static constexpr std::size_t kMaxTasks = std::size_t{1} << 32;
    /** num_dependents is a 24-bit field. */
    static constexpr uint32_t kMaxDependents = (uint32_t{1} << 24) - 1;

    /** One cache line per task: 64 bytes, 64-byte aligned. */
    struct alignas(64) Task {
        TaskLabel label;
        /** Operands by kind: compute {resource, amount = work}; delay
         *  {amount = duration}; transfer {route, amount = bytes, which
         *  launch() overwrites with the flow id}; notify {receiver, arg}. */
        union {
            Resource *resource = nullptr;
            const TransferRoute *route;
            Receiver *receiver;
        };
        union {
            double amount = 0.0;
            uint64_t flow;
            uint64_t arg;
        };
        /** The dependents in dependsOn() order while there are at most
         *  kInlineDependents; past that, dependents[0] indexes the pooled
         *  list holding all of them (dependent() reads either form). */
        uint32_t dependents[kInlineDependents] = {};
        uint32_t pending_deps = 0;
        uint32_t num_dependents : 24 = 0;
        Kind kind : 3 = Kind::Barrier;
        bool launched : 1 = false;
        bool completed : 1 = false;
        /** Armed to launch (start() arms the static graph; dynamic tasks
         *  are armed individually via release()). */
        bool released : 1 = false;
        bool abandoned : 1 = false; ///< revoked; completion is a no-op
    };
    // One training iteration of train_scaleout_n32 holds ~147k tasks.
    static_assert(sizeof(Task) == 64, "a task is one cache line");

    /** Tasks with ids from @c first until the next run's first belong to
     *  @c domain; ids below the first run belong to none. */
    struct DomainRun {
        TaskId first;
        Domain domain;
    };

    /** Delay, compute and transfer tasks complete here, by id. */
    void onNotify(uint64_t id) override { complete(static_cast<TaskId>(id)); }

    /** Append a task of @p kind with no operands set. */
    TaskId append(Kind kind, TaskLabel label);
    void launch(TaskId id);
    void complete(TaskId id);
    /** Storage slot for global id @p id. */
    Task &task(TaskId id);
    const Task &task(TaskId id) const;
    /** The @p i-th of the @p fanout dependents of @p t. Re-reads the
     *  pool on every call: launching a dependent may grow it. */
    TaskId
    dependent(const Task &t, std::size_t fanout, std::size_t i) const
    {
        return fanout <= kInlineDependents ? t.dependents[i]
                                           : fanouts_[t.dependents[0]][i];
    }
    void addDependent(Task &t, TaskId id);
    /** Call @p fn(id, task) on every stored task of domain @p d, in
     *  ascending id order. */
    template <typename Fn> void forEachInDomain(Domain d, Fn &&fn);
    /** End of domain_runs_[i]'s id range (exclusive). */
    TaskId
    runEnd(std::size_t i) const
    {
        return i + 1 < domain_runs_.size() ? domain_runs_[i + 1].first
                                           : total_added_;
    }
    /** Return @p t's pooled list, if any, for reuse; @p t keeps none. */
    void recycleFanout(Task &t);
    /** Free every leading block whose tasks are all completed/abandoned.
     *  Only called from the outermost complete() frame (callback_depth_ ==
     *  0): a nested trim would free storage an outer frame's dependent
     *  loop is still reading. Amortized O(1): scans only once per
     *  kTrimChunk completions, resuming where the last scan stopped. */
    void maybeTrim();

    Simulator &sim_;
    TransferSeam *seam_;
    /** Tasks live in fixed blocks of kBlockSize, so a growing graph never
     *  reallocates or moves a task. One big doubling array would copy the
     *  whole graph on every growth step, and its large freed buffers
     *  fragment the heap, so peak RSS would creep with every graph built
     *  in one process. blocks_[0] holds ids [base_, base_ + kBlockSize). */
    static constexpr std::size_t kBlockShift = 10;
    static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
    /** Frees a block's buffer; the tasks sit at a 64-byte boundary in
     *  it (see newBlock()). */
    struct FreeBlock {
        std::byte *buffer;
        void operator()(Task *) const { delete[] buffer; }
    };
    using Block = std::unique_ptr<Task[], FreeBlock>;
    static Block newBlock();
    std::vector<Block> blocks_;
    /** The last block trim freed, kept for the next append: a streaming
     *  graph then cycles through warm memory instead of allocating and
     *  constructing a fresh block every kBlockSize tasks. */
    Block spare_block_;
    /** Pooled dependent lists and their free indices. A list is recycled
     *  (cleared, capacity kept) when its task completes or is abandoned,
     *  so a streaming graph reuses warm lists and allocates none in
     *  steady state. */
    std::vector<std::vector<uint32_t>> fanouts_;
    std::vector<uint32_t> free_fanouts_;
    std::size_t completed_ = 0;
    std::size_t total_added_ = 0; ///< size of the global id space
    bool started_ = false;

    /** @name Prefix trimming (see the class comment). @{ */
    static constexpr std::size_t kTrimChunk = 1024;
    std::size_t base_ = 0; ///< first untrimmed id (a block boundary)
    std::size_t trim_checkpoint_ = 0; ///< completed_ at the last scan
    std::size_t trim_front_ = 0; ///< ids below this are completed/abandoned
    int callback_depth_ = 0; ///< launch/complete nesting depth
    /** @} */
    /** Latest completion (or revocation) time so far; == makespan() once
     *  done(). */
    Seconds max_finish_ = 0.0;
    Domain current_domain_ = kNoDomain;
    Domain last_domain_ = kNoDomain;
    /** Domain runs in ascending id order. A run starts when a task is
     *  added under a domain other than the last run's, so a graph that
     *  never sets a domain holds none; trim drops runs wholly below
     *  base_. */
    std::vector<DomainRun> domain_runs_;
    std::size_t peak_domain_runs_ = 0;
};

} // namespace smartinf::sim

#endif // SMARTINF_SIM_TASK_GRAPH_H
