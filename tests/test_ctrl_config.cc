/**
 * @file
 * CtrlConfig contracts: validation (including the disabled-plane
 * contradictions and the cross-field couplings), the drawsRandomness()
 * seed-revival predicate, the fifth derived stream's distinctness from
 * the other four, and the autoscaler's windowed load rule.
 */
#include <gtest/gtest.h>

#include <limits>

#include "ctrl/autoscaler.h"
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
}

TEST(CtrlConfig, DrawsRandomnessTracksPolicy)
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

TEST(Autoscaler, LoadBandCooldownAndCeiling)
{
    ctrl::AutoscaleConfig config;
    config.enabled = true;
    config.min_replicas = 1;
    config.max_replicas = 3;
    config.cooldown_s = 10.0;
    config.scale_up_depth = 4.0;
    config.scale_down_depth = 1.0;
    ctrl::Autoscaler scaler(config);
    using ctrl::ScaleAction;

    // An empty window reads load 0; the load is the mean of per-replica
    // samples.
    EXPECT_EQ(scaler.windowLoad(), 0.0);
    scaler.sampleLoad(6, 2);
    scaler.sampleLoad(10, 2);
    EXPECT_EQ(scaler.windowLoad(), 4.0);

    // The first window may act, even at t=0, but only above the band:
    // a mean load of exactly scale_up_depth is not pressure.
    EXPECT_EQ(scaler.evaluate(0.0, 1, 0), ScaleAction::None);
    EXPECT_EQ(scaler.windowLoad(), 0.0); // every evaluate resets the window
    scaler.sampleLoad(10, 1);
    EXPECT_EQ(scaler.evaluate(0.0, 1, 0), ScaleAction::ScaleUp);
    EXPECT_EQ(scaler.windowLoad(), 0.0);

    // No action inside the cooldown, however loaded; the window still
    // resets.
    scaler.sampleLoad(20, 1);
    EXPECT_EQ(scaler.evaluate(9.5, 1, 1), ScaleAction::None);
    EXPECT_EQ(scaler.windowLoad(), 0.0);

    // Scale-up is capped: warming replicas count against the ceiling.
    scaler.sampleLoad(20, 1);
    EXPECT_EQ(scaler.evaluate(10.0, 1, 2), ScaleAction::None);
    scaler.sampleLoad(20, 2);
    EXPECT_EQ(scaler.evaluate(10.0, 2, 0), ScaleAction::ScaleUp);

    // Below the band it drains, but never while a replica is warming...
    scaler.sampleLoad(1, 2);
    EXPECT_EQ(scaler.evaluate(20.0, 2, 1), ScaleAction::None);
    scaler.sampleLoad(1, 2);
    EXPECT_EQ(scaler.evaluate(20.0, 2, 0), ScaleAction::ScaleDown);
    // ...and never to or below the floor. An empty window is idle.
    EXPECT_EQ(scaler.evaluate(30.0, 1, 0), ScaleAction::None);
    // Inside the band nothing happens.
    scaler.sampleLoad(4, 2);
    EXPECT_EQ(scaler.evaluate(40.0, 2, 0), ScaleAction::None);

    // A disabled config never acts.
    config.enabled = false;
    ctrl::Autoscaler off(config);
    off.sampleLoad(100, 1);
    EXPECT_EQ(off.evaluate(0.0, 1, 0), ScaleAction::None);
}

} // namespace
} // namespace smartinf
