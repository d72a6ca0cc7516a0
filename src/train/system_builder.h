/**
 * @file
 * Assembles the concrete system shapes (RAID host, CSD host, congested
 * multi-GPU expansion, multi-node NIC fabric) as named links in a
 * net::Topology. Kept separate from the iteration builder so the single-node
 * engines and the dist/ layer share one source of truth for link names and
 * capacities.
 *
 * Naming scheme: intra-node links are "<prefix>host.up", "<prefix>ssd2.read",
 * ... where the prefix is "" for single-node runs and nodePrefix(i) for node
 * i of a cluster. Each node's NIC exposes "<prefix>nic.tx" (egress) and
 * "<prefix>nic.rx" (ingress); collective flows traverse the sender's shared
 * host interconnect, its NIC, the receiver's NIC, and the receiver's host
 * interconnect, which is what makes NIC and PCIe-offload traffic contend.
 */
#ifndef SMARTINF_TRAIN_SYSTEM_BUILDER_H
#define SMARTINF_TRAIN_SYSTEM_BUILDER_H

#include <string>

#include "net/topology.h"
#include "train/system_config.h"

namespace smartinf::train {

/** Link-name prefix of node @p node in a multi-node topology. */
std::string nodePrefix(int node);

/** Link-name prefix of node @p node in a run of @p num_nodes nodes:
 *  nodePrefix(node) on a cluster, "" on a single node. */
std::string linkPrefix(int node, int num_nodes);

/**
 * Add one server's intra-node links (shared host interconnect, GPU link,
 * per-device SSD media + external links, optional congested TP fabric).
 */
void buildNodeLinks(net::Topology &topo, const SystemConfig &system,
                    const std::string &prefix = {});

/** Add every node's NIC endpoint links ("n<i>.nic.tx"/"n<i>.nic.rx"). */
void buildNicLinks(net::Topology &topo, const SystemConfig &system);

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_SYSTEM_BUILDER_H
