#include "net/topology.h"

#include <cmath>

#include "common/logging.h"

namespace smartinf::net {

Link &
Topology::addLink(const std::string &name, BytesPerSec capacity)
{
    SI_REQUIRE(std::isfinite(capacity) && capacity > 0.0, "link ", name,
               " needs a finite positive capacity, got ", capacity);
    SI_REQUIRE(!has(name), "duplicate link name: ", name);
    links_.emplace_back(static_cast<uint32_t>(links_.size()), name, capacity);
    Link &link = links_.back();
    index_[name] = &link;
    return link;
}

DuplexLink
Topology::addDuplex(const std::string &name, BytesPerSec capacity)
{
    return addDuplex(name, capacity, capacity);
}

DuplexLink
Topology::addDuplex(const std::string &name, BytesPerSec up_capacity,
                    BytesPerSec down_capacity)
{
    return DuplexLink{&addLink(name + ".up", up_capacity),
                      &addLink(name + ".down", down_capacity)};
}

Link &
Topology::link(const std::string &name)
{
    auto it = index_.find(name);
    if (it == index_.end())
        fatal("unknown link: ", name);
    return *it->second;
}

const Link &
Topology::link(const std::string &name) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        fatal("unknown link: ", name);
    return *it->second;
}

void
Topology::forEachLink(const std::function<void(const Link &)> &visit) const
{
    for (const auto &link : links_)
        visit(link);
}

} // namespace smartinf::net
