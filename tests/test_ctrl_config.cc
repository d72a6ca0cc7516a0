/**
 * @file
 * CtrlConfig contracts: validation (including the disabled-plane
 * contradictions and the cross-field couplings), the drawsRandomness()
 * seed-revival predicate, and the fifth derived stream's distinctness from
 * the other four.
 */
#include <gtest/gtest.h>

#include <limits>

#include "ctrl/ctrl_config.h"
#include "fault/fault_schedule.h"
#include "serve/serve_config.h"

namespace smartinf {
namespace {

TEST(CtrlConfig, DefaultIsDisabledAndValid)
{
    const ctrl::CtrlConfig c;
    EXPECT_FALSE(c.enabled);
    EXPECT_TRUE(c.validate().empty());
    EXPECT_FALSE(c.drawsRandomness());
}

TEST(CtrlConfig, DisabledPlaneRejectsArmedFeatures)
{
    ctrl::CtrlConfig c;
    c.slo.admission = ctrl::AdmissionMode::Reject;
    c.slo.target_p99_s = 1.0;
    EXPECT_FALSE(c.validate().empty());

    ctrl::CtrlConfig a;
    a.autoscale.enabled = true;
    EXPECT_FALSE(a.validate().empty());

    ctrl::CtrlConfig p;
    p.priority.high_fraction = 0.5;
    EXPECT_FALSE(p.validate().empty());
}

TEST(CtrlConfig, ValidationCatchesBadKnobs)
{
    ctrl::CtrlConfig c;
    c.enabled = true;
    EXPECT_TRUE(c.validate().empty());

    // Armed admission needs a positive target.
    c.slo.admission = ctrl::AdmissionMode::Reject;
    EXPECT_FALSE(c.validate().empty());
    c.slo.target_p99_s = 2.0;
    EXPECT_TRUE(c.validate().empty());

    // Defer needs a positive delay and at least one round.
    c.slo.admission = ctrl::AdmissionMode::Defer;
    c.slo.defer_delay_s = 0.0;
    EXPECT_FALSE(c.validate().empty());
    c.slo.defer_delay_s = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(c.validate().empty());
    c.slo.defer_delay_s = 0.5;
    c.slo.max_defers = 0;
    EXPECT_FALSE(c.validate().empty());
    c.slo.max_defers = 2;
    EXPECT_TRUE(c.validate().empty());

    // Autoscale needs a hysteretic band and a sane replica range.
    c.autoscale.enabled = true;
    c.autoscale.max_replicas = 0;
    EXPECT_FALSE(c.validate().empty());
    c.autoscale.max_replicas = 3;
    c.autoscale.scale_up_depth = c.autoscale.scale_down_depth;
    EXPECT_FALSE(c.validate().empty());
    c.autoscale.scale_up_depth = 4.0;
    c.autoscale.scale_down_depth = 1.0;
    EXPECT_TRUE(c.validate().empty());

    // min_attainment needs a target to define attainment against.
    ctrl::CtrlConfig att;
    att.enabled = true;
    att.autoscale.enabled = true;
    att.autoscale.max_replicas = 2;
    att.autoscale.min_attainment = 0.9;
    EXPECT_FALSE(att.validate().empty());
    att.slo.target_p99_s = 2.0; // admission still Off: target is allowed
    EXPECT_TRUE(att.validate().empty());

    // Preemption with a single priority class is a contradiction.
    ctrl::CtrlConfig pre;
    pre.enabled = true;
    pre.priority.preempt = true;
    EXPECT_FALSE(pre.validate().empty());
    pre.priority.high_fraction = 0.25;
    EXPECT_TRUE(pre.validate().empty());
}

TEST(CtrlConfig, DrawsRandomnessTracksPolicyAndPriorities)
{
    ctrl::CtrlConfig c;
    c.enabled = true;
    // Plain round-robin consumes no ctrl-stream draw: the policy is a
    // pure function of the request id.
    EXPECT_FALSE(c.drawsRandomness());
    c.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    EXPECT_TRUE(c.drawsRandomness());
    c.policy = ctrl::DispatchPolicy::PowerOfTwoChoices;
    EXPECT_TRUE(c.drawsRandomness());
    // Priority classes draw one uniform per request even under RR.
    c.policy = ctrl::DispatchPolicy::RoundRobin;
    c.priority.high_fraction = 0.5;
    EXPECT_TRUE(c.drawsRandomness());
}

TEST(CtrlConfig, CtrlSeedIsAFifthDistinctStream)
{
    const std::uint64_t seed = 42;
    const std::uint64_t ctrl_seed = ctrl::ctrlSeed(seed);
    EXPECT_NE(ctrl_seed, seed);
    EXPECT_NE(ctrl_seed, seed ^ 0x9e3779b97f4a7c15ull); // length stream
    EXPECT_NE(ctrl_seed, seed ^ 0x7c159e3779b94a7full); // prefix stream
    EXPECT_NE(ctrl_seed, fault::faultSeed(seed));       // fault stream
    // Derivation is deterministic and seed-sensitive.
    EXPECT_EQ(ctrl_seed, ctrl::ctrlSeed(seed));
    EXPECT_NE(ctrl_seed, ctrl::ctrlSeed(seed + 1));
}

TEST(CtrlConfig, ServeConfigValidatesCtrlBlock)
{
    serve::ServeConfig config;
    config.ctrl.enabled = true;
    config.ctrl.slo.admission = ctrl::AdmissionMode::Reject;
    config.ctrl.slo.target_p99_s = 0.0; // invalid: armed without a target
    EXPECT_FALSE(config.validate().empty());
    config.ctrl.slo.target_p99_s = 2.0;
    EXPECT_TRUE(config.validate().empty());
}

} // namespace
} // namespace smartinf
