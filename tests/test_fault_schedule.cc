/**
 * @file
 * The pre-sim fault schedule: deterministic, horizon-bounded, sorted, and
 * built from per-category sub-streams of the fourth derived PRNG stream so
 * arming one category never moves another's events. Also pins
 * FaultConfig::validate() rejections for nonsensical knobs.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_schedule.h"
#include "serve/request_stream.h"

namespace smartinf::fault {
namespace {

FaultConfig
armedConfig()
{
    FaultConfig c;
    c.enabled = true;
    c.horizon = 600.0;
    c.node_mtbf = 120.0;
    c.degrade_mtbf = 60.0;
    return c;
}

std::vector<FaultEvent>
eventsOfKind(const std::vector<FaultEvent> &events, FaultKind kind)
{
    std::vector<FaultEvent> out;
    for (const FaultEvent &e : events)
        if (e.kind == kind)
            out.push_back(e);
    return out;
}

bool
sameEvents(const std::vector<FaultEvent> &a, const std::vector<FaultEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].time != b[i].time || a[i].kind != b[i].kind ||
            a[i].node != b[i].node || a[i].factor != b[i].factor ||
            a[i].duration != b[i].duration)
            return false;
    return true;
}

TEST(FaultSchedule, DeterministicAcrossCalls)
{
    const FaultConfig c = armedConfig();
    const auto a = generateFaultSchedule(c, 0x5eedu, 4);
    const auto b = generateFaultSchedule(c, 0x5eedu, 4);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(sameEvents(a, b));
    // The first event of each category, pinned literally: a moved
    // sub-stream key changes these even where no workload notices.
    const auto crashes = eventsOfKind(a, FaultKind::NodeCrash);
    ASSERT_FALSE(crashes.empty());
    EXPECT_EQ(crashes[0].time, 544.70466963687147);
    EXPECT_EQ(crashes[0].node, 0);
    const auto degrades = eventsOfKind(a, FaultKind::LinkDegrade);
    ASSERT_FALSE(degrades.empty());
    EXPECT_EQ(degrades[0].time, 46.540133845003396);
    EXPECT_EQ(degrades[0].node, 3);
    // A different seed produces a different schedule.
    const auto other = generateFaultSchedule(c, 0x5eedu + 1, 4);
    EXPECT_FALSE(sameEvents(a, other));
}

TEST(FaultSchedule, DisabledOrUnarmedIsEmpty)
{
    FaultConfig c = armedConfig();
    c.enabled = false;
    EXPECT_TRUE(generateFaultSchedule(c, 0x5eedu, 4).empty());

    FaultConfig unarmed;
    unarmed.enabled = true; // all MTBFs kNever
    EXPECT_FALSE(unarmed.anyFaults());
    EXPECT_TRUE(generateFaultSchedule(unarmed, 0x5eedu, 4).empty());
}

TEST(FaultSchedule, SortedByTimeAndBoundedByHorizon)
{
    const FaultConfig c = armedConfig();
    const auto events = generateFaultSchedule(c, 0x5eedu, 4);
    ASSERT_FALSE(events.empty());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_GT(events[i].time, 0.0);
        EXPECT_LT(events[i].time, c.horizon);
        EXPECT_GE(events[i].node, 0);
        EXPECT_LT(events[i].node, 4);
        if (i > 0) {
            EXPECT_LE(events[i - 1].time, events[i].time);
        }
    }
}

TEST(FaultSchedule, CategoryStreamsAreIndependent)
{
    // Arming link degradation must not move node-crash events:
    // each category draws from its own sub-derived stream.
    FaultConfig crashes_only;
    crashes_only.enabled = true;
    crashes_only.horizon = 600.0;
    crashes_only.node_mtbf = 120.0;
    const auto base =
        eventsOfKind(generateFaultSchedule(crashes_only, 0x5eedu, 4),
                     FaultKind::NodeCrash);
    ASSERT_FALSE(base.empty());

    const auto all = eventsOfKind(generateFaultSchedule(armedConfig(),
                                                        0x5eedu, 4),
                                  FaultKind::NodeCrash);
    EXPECT_TRUE(sameEvents(base, all));
}

TEST(FaultSchedule, FaultSeedIsAFourthIndependentStream)
{
    const std::uint64_t seed = 0x5eedu;
    EXPECT_NE(faultSeed(seed), seed);
    EXPECT_NE(faultSeed(seed), serve::lengthSeed(seed));
    EXPECT_NE(faultSeed(seed), serve::prefixSeed(seed));
}

TEST(FaultSchedule, EpisodeParametersCarriedOnEvents)
{
    FaultConfig c;
    c.enabled = true;
    c.horizon = 600.0;
    c.degrade_mtbf = 50.0;
    c.degrade_factor = 0.25;
    c.degrade_duration = 12.0;
    const auto events = generateFaultSchedule(c, 0x5eedu, 4);
    ASSERT_FALSE(events.empty());
    for (const FaultEvent &e : events) {
        if (e.kind == FaultKind::LinkDegrade) {
            EXPECT_DOUBLE_EQ(e.factor, 0.25);
            EXPECT_DOUBLE_EQ(e.duration, 12.0);
        }
    }
}

TEST(FaultConfigValidate, DisabledConfigIsAlwaysValid)
{
    FaultConfig c;
    c.node_mtbf = -5.0; // nonsense, but inert while disabled
    c.retry_limit = -1;
    EXPECT_TRUE(c.validate().empty());
}

TEST(FaultConfigValidate, ArmedDefaultsAreValid)
{
    EXPECT_TRUE(armedConfig().validate().empty());
}

TEST(FaultConfigValidate, RejectsNonsensicalKnobs)
{
    const auto firstError = [](FaultConfig c) {
        const auto errors = c.validate();
        return errors.empty() ? std::string() : errors.front();
    };

    FaultConfig c = armedConfig();
    c.node_mtbf = 0.0;
    EXPECT_NE(firstError(c).find("node_mtbf"), std::string::npos);

    c = armedConfig();
    c.degrade_factor = 0.0;
    EXPECT_NE(firstError(c).find("degrade_factor"), std::string::npos);
    c.degrade_factor = 1.5;
    EXPECT_NE(firstError(c).find("degrade_factor"), std::string::npos);

    c = armedConfig();
    c.retry_limit = -1;
    EXPECT_NE(firstError(c).find("retry_limit"), std::string::npos);

    c = armedConfig();
    c.checkpoint_interval = 0;
    EXPECT_NE(firstError(c).find("checkpoint_interval"), std::string::npos);

    c = armedConfig();
    c.repair_time = 0.0;
    EXPECT_NE(firstError(c).find("repair_time"), std::string::npos);
    // A crashed node that is never repaired never finishes its job.
    c.repair_time = FaultConfig::kNever;
    EXPECT_NE(firstError(c).find("repair_time"), std::string::npos);

    c = armedConfig();
    c.horizon = 0.0;
    EXPECT_NE(firstError(c).find("horizon"), std::string::npos);
    // An infinite horizon would draw an armed category's events forever.
    c.horizon = FaultConfig::kNever;
    EXPECT_NE(firstError(c).find("horizon"), std::string::npos);
}

} // namespace
} // namespace smartinf::fault
