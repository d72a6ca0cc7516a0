/** @file Tests for the host-side wall-time profiler. */
#include <gtest/gtest.h>

#include <string>

#include "obs/profiler.h"

namespace smartinf::obs {
namespace {

/** RAII: profiling enabled + zeroed for one test, off afterwards. */
class ProfilerOn
{
  public:
    ProfilerOn()
    {
        Profiler::instance().enable(true);
        Profiler::instance().reset();
    }
    ~ProfilerOn() { Profiler::instance().enable(false); }
};

/** Burn a little wall time so a probe's elapsed duration is nonzero. */
void
spin()
{
    volatile double sink = 0.0;
    for (int i = 0; i < 20000; ++i)
        sink = sink + 1.0 / (i + 1);
}

TEST(Profiler, DisabledProbesRecordNothing)
{
    Profiler &p = Profiler::instance();
    p.enable(true);
    p.reset();
    p.enable(false);
    {
        const Profiler::Scoped probe(Section::EventDispatch);
        spin();
    }
    p.countTaskLaunch();
    p.addFlowsTouched(7);
    EXPECT_EQ(p.calls(Section::EventDispatch), 0u);
    EXPECT_DOUBLE_EQ(p.seconds(Section::EventDispatch), 0.0);
    EXPECT_EQ(p.taskLaunches(), 0u);
    EXPECT_EQ(p.flowsTouched(), 0u);
}

TEST(Profiler, EnabledProbesAccumulateSecondsAndCalls)
{
    ProfilerOn on;
    Profiler &p = Profiler::instance();
    for (int i = 0; i < 3; ++i) {
        const Profiler::Scoped probe(Section::FlowRecompute);
        spin();
    }
    EXPECT_EQ(p.calls(Section::FlowRecompute), 3u);
    EXPECT_GT(p.seconds(Section::FlowRecompute), 0.0);
    EXPECT_EQ(p.calls(Section::EventDispatch), 0u);
}

TEST(Profiler, NestedFramesCountOnlyOutermost)
{
    ProfilerOn on;
    Profiler &p = Profiler::instance();
    {
        const Profiler::Scoped outer(Section::TaskComplete);
        {
            const Profiler::Scoped inner(Section::TaskComplete);
            {
                const Profiler::Scoped deeper(Section::TaskComplete);
                spin();
            }
        }
        spin();
    }
    // One outermost frame: one call, and the recorded time is the real
    // elapsed span, not a triple-counted sum.
    EXPECT_EQ(p.calls(Section::TaskComplete), 1u);
    const double once = p.seconds(Section::TaskComplete);
    EXPECT_GT(once, 0.0);

    // A fresh outermost frame accumulates again.
    {
        const Profiler::Scoped again(Section::TaskComplete);
        spin();
    }
    EXPECT_EQ(p.calls(Section::TaskComplete), 2u);
    EXPECT_GT(p.seconds(Section::TaskComplete), once);
}

TEST(Profiler, DistinctSectionsNestIndependently)
{
    ProfilerOn on;
    Profiler &p = Profiler::instance();
    {
        const Profiler::Scoped dispatch(Section::EventDispatch);
        {
            const Profiler::Scoped recompute(Section::FlowRecompute);
            spin();
        }
    }
    EXPECT_EQ(p.calls(Section::EventDispatch), 1u);
    EXPECT_EQ(p.calls(Section::FlowRecompute), 1u);
    // The outer section's span contains the inner one's.
    EXPECT_GE(p.seconds(Section::EventDispatch),
              p.seconds(Section::FlowRecompute));
}

TEST(Profiler, ActivityCountersAccumulateWhileEnabled)
{
    ProfilerOn on;
    Profiler &p = Profiler::instance();
    p.addFlowsTouched(5);
    p.addFlowsTouched(2);
    p.countTaskLaunch();
    p.countTaskLaunch();
    EXPECT_EQ(p.flowsTouched(), 7u);
    EXPECT_EQ(p.taskLaunches(), 2u);
}

TEST(Profiler, ResetZeroesEverything)
{
    ProfilerOn on;
    Profiler &p = Profiler::instance();
    {
        const Profiler::Scoped probe(Section::SchedulerStep);
        spin();
    }
    p.addFlowsTouched(4);
    p.reset();
    EXPECT_EQ(p.calls(Section::SchedulerStep), 0u);
    EXPECT_DOUBLE_EQ(p.seconds(Section::SchedulerStep), 0.0);
    EXPECT_EQ(p.flowsTouched(), 0u);
}

TEST(Profiler, SectionNamesAreStableJsonKeys)
{
    EXPECT_STREQ(sectionName(Section::EventDispatch), "event_dispatch");
    EXPECT_STREQ(sectionName(Section::FlowRecompute), "flow_recompute");
    EXPECT_STREQ(sectionName(Section::FlowCallbacks), "flow_callbacks");
    EXPECT_STREQ(sectionName(Section::TaskComplete), "task_complete");
    EXPECT_STREQ(sectionName(Section::SchedulerStep), "scheduler_step");
}

} // namespace
} // namespace smartinf::obs
