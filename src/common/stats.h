/**
 * @file
 * The named counter the simulator's resources and devices accumulate into.
 */
#ifndef SMARTINF_COMMON_STATS_H
#define SMARTINF_COMMON_STATS_H

#include <string>
#include <utility>

namespace smartinf {

/** A named monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;
    explicit Counter(std::string name) : name_(std::move(name)) {}

    void add(double amount) { value_ += amount; }
    void increment() { value_ += 1.0; }
    void reset() { value_ = 0.0; }

    double value() const { return value_; }
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    double value_ = 0.0;
};

} // namespace smartinf

#endif // SMARTINF_COMMON_STATS_H
