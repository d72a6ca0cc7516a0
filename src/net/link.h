/**
 * @file
 * A unidirectional bandwidth link. PCIe is full duplex, so topologies model
 * each physical connection as two Links (one per direction); contention is
 * therefore per-direction, which matches how the paper's read and write
 * streams interact (SSD reads do not throttle writes on the interconnect).
 */
#ifndef SMARTINF_NET_LINK_H
#define SMARTINF_NET_LINK_H

#include <cstdint>
#include <string>

#include "common/logging.h"
#include "common/units.h"

namespace smartinf::net {

/** A unidirectional link with fixed capacity and utilization accounting. */
class Link
{
  public:
    Link(uint32_t id, std::string name, BytesPerSec capacity)
        : id_(id), name_(std::move(name)), capacity_(capacity)
    {
    }

    /** Dense index within the owning Topology (0, 1, ... in add order);
     *  FlowNetwork keys its per-link state by it. */
    uint32_t id() const { return id_; }
    const std::string &name() const { return name_; }
    BytesPerSec capacity() const { return capacity_; }

    /**
     * @name Time-varying capacity (fault injection).
     * The nominal capacity never changes; faults scale it by a factor in
     * (0, 1]. The factor defaults to exactly 1.0, and `capacity * 1.0` is
     * IEEE-exact, so fault-free runs are bit-identical to a build without
     * this knob. After changing the factor mid-run the owner must call
     * FlowNetwork::linkCapacityChanged() so in-flight rates are recomputed.
     * @{
     */
    void
    setCapacityFactor(double factor)
    {
        SI_REQUIRE(factor > 0.0 && factor <= 1.0, "capacity factor of link ",
                   name_, " must lie in (0, 1], got ", factor);
        factor_ = factor;
    }
    BytesPerSec effectiveCapacity() const { return capacity_ * factor_; }
    /** @} */

    /** Total bytes carried so far. */
    Bytes bytesCarried() const { return bytes_carried_; }
    /** Integral of instantaneous utilization over time (busy-seconds). */
    Seconds busyIntegral() const { return busy_integral_; }

    /** Average utilization in [0,1] over @p elapsed seconds of simulation. */
    double
    utilization(Seconds elapsed) const
    {
        return elapsed > 0.0 ? busy_integral_ / elapsed : 0.0;
    }

    /** @name Accounting hooks used by FlowNetwork. @{ */
    void
    account(Bytes bytes, double rate_fraction, Seconds elapsed)
    {
        bytes_carried_ += bytes;
        busy_integral_ += rate_fraction * elapsed;
    }
    /** @} */

  private:
    uint32_t id_;
    std::string name_;
    BytesPerSec capacity_;
    double factor_ = 1.0;
    Bytes bytes_carried_ = 0.0;
    Seconds busy_integral_ = 0.0;
};

} // namespace smartinf::net

#endif // SMARTINF_NET_LINK_H
