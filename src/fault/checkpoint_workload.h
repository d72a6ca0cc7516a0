/**
 * @file
 * Checkpoint/restart training under deterministic fault injection. The
 * plain train::TrainingWorkload builds one static iteration; this workload
 * runs a *job* of N iterations reactively, staging each with the same
 * train::stageIteration (one revocation domain per iteration), with a
 * periodic checkpoint stream and a crash recovery model:
 *
 *  - Every checkpoint_interval iterations the job snapshots its GPU-resident
 *    replica as real scheduled flows — GPU->host then RAID0-striped CSD
 *    writes — that overlap (and contend with) the next iteration's
 *    parameter/gradient traffic. The checkpoint becomes *durable* only when
 *    its last stripe lands; a crash mid-checkpoint revokes it.
 *  - A node crash takes the whole synchronous data-parallel job down: the
 *    in-flight iteration and any in-flight checkpoint are revoked (their
 *    flows pulled out of the network mid-transfer), progress rewinds to the
 *    last durable checkpoint, and after repair_time every node replays the
 *    read-back flows (striped CSD reads + host->GPU upload) before the lost
 *    iterations are recomputed. Restart latency is therefore an emergent
 *    cost: repair + read-back + replay.
 *  - Link degradation multiplies host-link capacities for the episode
 *    window (fault::LinkEpisodes; the incremental max-min scheduler
 *    re-shares mid-flow).
 *
 * Determinism: the fault schedule is drawn pre-sim from the fourth derived
 * stream (fault::faultSeed(FaultConfig::seed) — training runs have no client
 * seed), so repeats are bit-identical and arming one category never moves
 * another's events.
 */
#ifndef SMARTINF_FAULT_CHECKPOINT_WORKLOAD_H
#define SMARTINF_FAULT_CHECKPOINT_WORKLOAD_H

#include <optional>
#include <string>
#include <vector>

#include "fault/fault_schedule.h"
#include "train/training_workload.h"

namespace smartinf::fault {

/** N training iterations + periodic checkpoints + fault recovery. */
class CheckpointedTrainingWorkload final : public train::Workload,
                                           private sim::Receiver
{
  public:
    CheckpointedTrainingWorkload(const train::ModelSpec &model,
                                 const train::TrainConfig &train,
                                 FaultConfig fault);

    std::string name() const override { return "checkpointed-training"; }
    train::WorkloadKind kind() const override
    {
        return train::WorkloadKind::Training;
    }

    void build(train::SimContext &ctx) override;
    void collect(const train::SimContext &ctx,
                 train::WorkloadResult &out) override;

  private:
    using TaskId = sim::TaskGraph::TaskId;

    /** Snapshot bytes per node: the fp16 parameter replica. (Optimizer
     *  state already lives sharded on the CSDs; the crash-consistent part
     *  of a checkpoint is the GPU/host-resident replica.) */
    Bytes checkpointBytes() const { return model_.modelBytes(); }

    /**
     * What a typed event naming this workload asks of it: the low byte of
     * the event's argument. Fault and link-restore events carry the
     * event's index into events_ above that byte; the rest carry nothing.
     * The last three are the "job.iter", "ckpt.commit" and "ckpt.restart"
     * notify tasks.
     */
    enum Event : uint64_t {
        kStart, kFault, kRepaired, kLinkRestore,
        kIterationDone, kCheckpointDone, kRestoreDone,
    };
    sim::Notify
    notice(Event what, std::size_t fault = 0)
    {
        return {this, what | uint64_t{fault} << 8};
    }
    void onNotify(uint64_t arg) override;

    void beginIteration();
    void onIterationDone();
    void beginCheckpoint(int snapshot_iter);
    void beginRestore();
    void onFault(std::size_t index);

    const train::ModelSpec model_;
    const train::TrainConfig train_;
    const FaultConfig fault_;

    train::SimContext *ctx_ = nullptr;
    train::NodeBuilders builders_;
    std::vector<FaultEvent> events_;

    // -- job progress ------------------------------------------------------
    int target_ = 0;          ///< iterations the job must complete
    int iterations_done_ = 0; ///< completed (not necessarily durable)
    int durable_iter_ = 0;    ///< last checkpointed iteration (0 = initial)
    bool in_iteration_ = false;
    sim::TaskGraph::Domain iter_domain_ = sim::TaskGraph::kNoDomain;

    // -- checkpoint stream -------------------------------------------------
    bool ckpt_in_flight_ = false;
    int ckpt_iter_ = 0; ///< iteration the in-flight checkpoint snapshots
    sim::TaskGraph::Domain ckpt_domain_ = sim::TaskGraph::kNoDomain;

    // -- fault state -------------------------------------------------------
    bool dead_ = false; ///< crashed; repair + read-back in progress
    train::FaultStats stats_;
    /** Link-degradation episodes (set when enabled). */
    std::optional<LinkEpisodes> links_;
};

} // namespace smartinf::fault

#endif // SMARTINF_FAULT_CHECKPOINT_WORKLOAD_H
