#include "train/engine.h"

#include "common/logging.h"
#include "obs/observation.h"
#include "train/sim_context.h"
#include "train/training_workload.h"

namespace smartinf::train {

Engine::Engine(const ModelSpec &model, const TrainConfig &train,
               const SystemConfig &system)
    : model_(model), train_(train), system_(system)
{
    SI_REQUIRE(model.num_params > 0 && model.num_layers > 0,
               "invalid model spec");
    const auto errors = system.validate();
    SI_REQUIRE(errors.empty(), "invalid SystemConfig: ",
               joinErrors(errors));
}

WorkloadResult
Engine::run(Workload &workload)
{
    SimContext ctx(system_);

    // Opt-in observability: when a session is installed (smartinf_bench
    // --trace/--metrics), record this run. Purely passive — the observers
    // schedule nothing, so events_executed and every simulated timestamp
    // are bit-identical with and without a session (pinned by tests).
    obs::Observation *session = obs::Observation::current();
    std::unique_ptr<obs::RunObservation> watch;
    if (session) {
        watch = session->beginRun(name() + " / " + workload.name(), ctx.sim,
                                  ctx.net);
        ctx.obs = watch.get();
    }

    workload.build(ctx);
    ctx.graph.start();
    ctx.sim.run();
    SI_ASSERT(ctx.graph.done(), "workload graph did not drain");

    WorkloadResult result;
    result.kind = workload.kind();
    workload.collect(ctx, result);
    result.traffic = ctx.traffic;
    result.events_executed = ctx.sim.eventsExecuted();

    if (watch) {
        ctx.obs = nullptr;
        session->finishRun(std::move(watch));
    }
    return result;
}

IterationResult
Engine::runIteration()
{
    TrainingWorkload workload(model_, train_);
    return run(workload);
}

std::string
engineDisplayName(Strategy strategy)
{
    if (strategy == Strategy::Baseline)
        return "ZeRO-Infinity (RAID0)";
    return std::string("Smart-Infinity (") + strategyName(strategy) + ")";
}

std::string
Engine::name() const
{
    std::string label = engineDisplayName(system_.strategy);
    if (system_.num_nodes > 1)
        label += " x" + std::to_string(system_.num_nodes) + " nodes";
    return label;
}

std::unique_ptr<Engine>
makeEngine(const ModelSpec &model, const TrainConfig &train,
           const SystemConfig &system)
{
    return std::make_unique<Engine>(model, train, system);
}

} // namespace smartinf::train
