/**
 * @file
 * Shared simulation substrate for one workload run: the event queue, the
 * flow network, the link registry, the task graph, and the traffic ledger
 * every participating node accumulates into. One SimContext is rebuilt per
 * Engine::run(); every node of a multi-node workload builds into the same
 * context so all flows contend in one fluid-flow model.
 */
#ifndef SMARTINF_TRAIN_SIM_CONTEXT_H
#define SMARTINF_TRAIN_SIM_CONTEXT_H

#include <functional>
#include <vector>

#include "net/flow_network.h"
#include "net/topology.h"
#include "sim/task_graph.h"
#include "train/system_config.h"
#include "train/traffic_ledger.h"

namespace smartinf::obs {
class RunObservation;
}

namespace smartinf::train {

struct SimContext;

/**
 * A route resolved once against a context's topology, for every transfer
 * that takes it. Its owner (a PhaseBuilder, or the context for the
 * inter-node ring) keeps it at a fixed address for the whole run, so a
 * transfer task captures only {route, bytes} and its closure stays inside
 * std::function's inline buffer.
 */
struct ResolvedRoute {
    SimContext *ctx = nullptr;
    net::Route links;
};

/** Shared simulation substrate for one workload run. */
struct SimContext {
    explicit SimContext(const SystemConfig &system)
        : system(system), net(sim), graph(sim)
    {
    }
    /** Routes and in-flight closures hold this context's address. */
    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    const SystemConfig &system;
    sim::Simulator sim;
    net::FlowNetwork net;
    net::Topology topo;
    sim::TaskGraph graph;
    TrafficLedger traffic;

    /**
     * Per-run observability recorder, or nullptr (the default — engines
     * only set it while an obs::Observation session is installed). Layers
     * with semantic events the sim/net hooks cannot see (the serve
     * scheduler and builders) report through it when non-null. Purely
     * passive: never affects tasks, flows, or timing.
     */
    obs::RunObservation *obs = nullptr;

    /**
     * True while a fault-injecting workload drives this context. When set,
     * startTaskFlow() registers a canceller with the task graph for every
     * flow it starts, so revoking a domain pulls its in-flight flows out of
     * the network. Off by default: fault-free runs pay nothing (one branch
     * per flow start, no canceller storage) and stay bit-identical.
     */
    bool faults_armed = false;

    /**
     * Hop routes of the inter-node ring (node i -> i + 1), resolved by the
     * first ring all-reduce scheduled on this context and reused by every
     * later one (dist::scheduleRingAllReduce).
     */
    std::vector<ResolvedRoute> ring_routes;

    /** Add a flow-transfer task over @p route, which must outlive the
     *  run (see ResolvedRoute). */
    sim::TaskGraph::TaskId transfer(const ResolvedRoute &route, Bytes bytes,
                                    sim::TaskLabel label = {});

    /** Start the flow of the task being launched (call it from a task
     *  action): transfer() and the ring hops start every flow here. */
    void startTaskFlow(const net::Route &links, Bytes bytes,
                       std::function<void()> done, Seconds latency);
};

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_SIM_CONTEXT_H
