/**
 * @file
 * A named registry of links with stable addresses, plus helpers for duplex
 * (PCIe-style) connections. Concrete system shapes (RAID host, CSD host,
 * congested multi-GPU expansion, and the multi-node NIC fabric used by the
 * dist/ collectives) are assembled in train/system_builder.
 */
#ifndef SMARTINF_NET_TOPOLOGY_H
#define SMARTINF_NET_TOPOLOGY_H

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "net/link.h"

namespace smartinf::net {

/** Pair of directed links modelling one full-duplex physical connection. */
struct DuplexLink {
    Link *up;   ///< device/endpoint -> host direction
    Link *down; ///< host -> device/endpoint direction
};

/** Owns links and resolves them by name. */
class Topology
{
  public:
    /** Create a unidirectional link. Names must be unique; ids are dense,
     *  0, 1, ... in add order. */
    Link &addLink(const std::string &name, BytesPerSec capacity);

    /** Create an ".up"/".down" pair with symmetric capacity. */
    DuplexLink addDuplex(const std::string &name, BytesPerSec capacity);

    /** Create an ".up"/".down" pair with asymmetric capacities. */
    DuplexLink addDuplex(const std::string &name, BytesPerSec up_capacity,
                         BytesPerSec down_capacity);

    /** Look up a link; fatal() on unknown names (configuration error). */
    Link &link(const std::string &name);
    const Link &link(const std::string &name) const;

    bool has(const std::string &name) const { return index_.count(name) != 0; }

    /** Visit every link (stats dumping). */
    void forEachLink(const std::function<void(const Link &)> &visit) const;

    std::size_t linkCount() const { return links_.size(); }

  private:
    std::deque<Link> links_; // deque: stable addresses across growth
    std::unordered_map<std::string, Link *> index_;
};

} // namespace smartinf::net

#endif // SMARTINF_NET_TOPOLOGY_H
