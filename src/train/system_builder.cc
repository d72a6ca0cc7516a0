#include "train/system_builder.h"

namespace smartinf::train {

std::string
nodePrefix(int node)
{
    return "n" + std::to_string(node) + ".";
}

std::string
linkPrefix(int node, int num_nodes)
{
    return num_nodes > 1 ? nodePrefix(node) : std::string{};
}

void
buildNodeLinks(net::Topology &topo, const SystemConfig &system,
               const std::string &prefix)
{
    const Calibration &cal = system.calib;
    topo.addLink(prefix + "host.up", cal.host_shared);
    topo.addLink(prefix + "host.down", cal.host_shared);
    topo.addLink(prefix + "gpu.up", cal.gpu_link);
    topo.addLink(prefix + "gpu.down", cal.gpu_link);
    if (system.congested_topology && system.num_gpus > 1) {
        // Peer traffic between tensor-parallel GPUs crosses the shared
        // expansion switch fabric.
        topo.addLink(prefix + "tp.fabric", cal.gpu_link);
    }
    // The baseline reaches SSD media through the software RAID0, which
    // costs striping efficiency; Smart-Infinity's direct pread/pwrite
    // P2P path does not.
    const double media_eff =
        strategyUsesCsd(system.strategy) ? 1.0 : cal.raid_efficiency;
    for (int d = 0; d < system.num_devices; ++d) {
        const std::string ssd = prefix + "ssd" + std::to_string(d);
        topo.addLink(ssd + ".read", cal.ssd_read * media_eff);
        topo.addLink(ssd + ".write", cal.ssd_write * media_eff);
        topo.addLink(ssd + ".up", cal.device_link);
        topo.addLink(ssd + ".down", cal.device_link);
    }
}

void
buildNicLinks(net::Topology &topo, const SystemConfig &system)
{
    for (int n = 0; n < system.num_nodes; ++n) {
        const std::string nic = nodePrefix(n) + "nic";
        topo.addLink(nic + ".tx", system.nic_bandwidth);
        topo.addLink(nic + ".rx", system.nic_bandwidth);
    }
}

} // namespace smartinf::train
