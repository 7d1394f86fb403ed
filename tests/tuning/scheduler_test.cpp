#include "tuning/plan.hpp"

#include <gtest/gtest.h>

#include "io/transit_model.hpp"

namespace lcp::tuning {
namespace {

const power::ChipSpec& bdw() {
  return power::chip(power::ChipId::kBroadwellD1548);
}

std::vector<Stage> typical_jobs() {
  return {
      {"compress-A", power::compression_workload(bdw(), Seconds{10.0}, 0.53, 1.0)},
      {"compress-B", power::compression_workload(bdw(), Seconds{4.0}, 0.50, 0.94)},
      {"write-A", io::transit_workload(bdw(), Bytes::from_gb(2), {}),
       StageRole::kTransit},
  };
}

TEST(SchedulerTest, BaselineRunsEverythingAtFmax) {
  const auto schedule = plan(bdw(), typical_jobs(), MaxClock{}).value();
  ASSERT_EQ(schedule.stages.size(), 3u);
  for (const auto& sj : schedule.stages) {
    EXPECT_DOUBLE_EQ(sj.frequency.ghz(), bdw().f_max.ghz());
  }
  EXPECT_GT(schedule.energy.joules(), 0.0);
  EXPECT_GT(schedule.runtime.seconds(), 0.0);
}

TEST(SchedulerTest, GenerousDeadlineYieldsEnergyOptimalPoints) {
  const auto jobs = typical_jobs();
  const auto baseline = plan(bdw(), jobs, MaxClock{}).value();
  const auto schedule =
      plan(bdw(), jobs, MinEnergy{baseline.runtime * 10.0});
  ASSERT_TRUE(schedule.has_value()) << schedule.status().to_string();
  EXPECT_LT(schedule->energy.joules(), baseline.energy.joules());
  // With slack, no job should sit at f_max (energy optimum is interior).
  for (const auto& sj : schedule->stages) {
    EXPECT_LT(sj.frequency.ghz(), bdw().f_max.ghz()) << sj.name;
  }
}

TEST(SchedulerTest, TightDeadlinePushesJobsTowardFmax) {
  const auto jobs = typical_jobs();
  const auto baseline = plan(bdw(), jobs, MaxClock{}).value();
  const auto schedule =
      plan(bdw(), jobs, MinEnergy{baseline.runtime * 1.001});
  ASSERT_TRUE(schedule.has_value());
  EXPECT_LE(schedule->runtime.seconds(),
            baseline.runtime.seconds() * 1.001 + 1e-9);
}

TEST(SchedulerTest, DeadlineIsRespected) {
  const auto jobs = typical_jobs();
  const auto baseline = plan(bdw(), jobs, MaxClock{}).value();
  for (double slack : {1.02, 1.05, 1.10, 1.5}) {
    const auto schedule = plan(bdw(), jobs, MinEnergy{baseline.runtime * slack});
    ASSERT_TRUE(schedule.has_value()) << slack;
    EXPECT_LE(schedule->runtime.seconds(),
              baseline.runtime.seconds() * slack + 1e-9)
        << slack;
    // Any feasible schedule must beat or match baseline energy.
    EXPECT_LE(schedule->energy.joules(),
              baseline.energy.joules() + 1e-9)
        << slack;
  }
}

TEST(SchedulerTest, MoreSlackNeverCostsMoreEnergy) {
  const auto jobs = typical_jobs();
  const auto baseline = plan(bdw(), jobs, MaxClock{}).value();
  double prev_energy = baseline.energy.joules();
  for (double slack : {1.01, 1.05, 1.10, 1.25, 2.0}) {
    const auto schedule = plan(bdw(), jobs, MinEnergy{baseline.runtime * slack});
    ASSERT_TRUE(schedule.has_value());
    EXPECT_LE(schedule->energy.joules(), prev_energy + 1e-9) << slack;
    prev_energy = schedule->energy.joules();
  }
}

TEST(SchedulerTest, DeadlineOfTheMaxClockRuntimeIsMet) {
  // Every stage at f_max meets this deadline exactly. A runtime total kept
  // by subtracting each step's gain ended a few ulps above the f_max sum
  // here and reported "no moves left"; the plan sums the chosen runtimes
  // in stage order instead.
  const std::vector<Stage> jobs = {
      {"x", power::compression_workload(bdw(), Seconds{0.37}, 0.53, 1.0)},
      {"y", power::compression_workload(bdw(), Seconds{2.6}, 0.53, 1.0)},
      {"z", power::compression_workload(bdw(), Seconds{2.11}, 0.53, 1.0)},
  };
  const auto baseline = plan(bdw(), jobs, MaxClock{}).value();
  const auto schedule = plan(bdw(), jobs, MinEnergy{baseline.runtime});
  ASSERT_TRUE(schedule.has_value()) << schedule.status().to_string();
  EXPECT_LE(schedule->runtime.seconds(), baseline.runtime.seconds());
  EXPECT_LE(schedule->energy.joules(), baseline.energy.joules());
}

TEST(SchedulerTest, InfeasibleDeadlineFails) {
  const auto jobs = typical_jobs();
  const auto baseline = plan(bdw(), jobs, MaxClock{}).value();
  const auto schedule =
      plan(bdw(), jobs, MinEnergy{baseline.runtime * 0.5});
  EXPECT_FALSE(schedule.has_value());
  EXPECT_EQ(schedule.status().code(), ErrorCode::kInvalidArgument);
}

TEST(SchedulerTest, EmptyJobListRejected) {
  EXPECT_FALSE(plan(bdw(), {}, MinEnergy{Seconds{10.0}}).has_value());
  EXPECT_FALSE(plan(bdw(), {}, PowerCap{Watts{20.0}}).has_value());
}

TEST(SchedulerTest, PowerCapPicksFastestCompliantFrequency) {
  const auto jobs = typical_jobs();
  const auto schedule = plan(bdw(), jobs, PowerCap{Watts{10.5}});
  ASSERT_TRUE(schedule.has_value()) << schedule.status().to_string();
  for (const auto& sj : schedule->stages) {
    const auto p = power::workload_power(sj.workload, bdw(), sj.frequency);
    EXPECT_LE(p.watts(), 10.5) << sj.name;
    // The next grid point up must violate the cap (else we weren't fastest)
    // unless the job already sits at f_max.
    if (sj.frequency < bdw().f_max) {
      const GigaHertz next{sj.frequency.ghz() + bdw().f_step.ghz()};
      EXPECT_GT(power::workload_power(sj.workload, bdw(), next).watts(),
                10.5)
          << sj.name;
    }
  }
}

TEST(SchedulerTest, LooseCapRunsAtFmax) {
  const auto jobs = typical_jobs();
  const auto schedule = plan(bdw(), jobs, PowerCap{Watts{100.0}});
  ASSERT_TRUE(schedule.has_value());
  for (const auto& sj : schedule->stages) {
    EXPECT_DOUBLE_EQ(sj.frequency.ghz(), bdw().f_max.ghz());
  }
}

TEST(SchedulerTest, ImpossibleCapFails) {
  const auto jobs = typical_jobs();
  const auto schedule = plan(bdw(), jobs, PowerCap{Watts{1.0}});
  EXPECT_FALSE(schedule.has_value());
}

TEST(SchedulerTest, FloorBoundJobsDoNotWedgeTheGreedyLoop) {
  // A fully floor-bound job gains no runtime from frequency; the deadline
  // loop must still terminate and meet a tight deadline via other jobs.
  std::vector<Stage> jobs = typical_jobs();
  power::Workload floor_job;
  floor_job.cpu_ghz_seconds = 0.1;
  floor_job.floor_seconds = Seconds{30.0};
  floor_job.activity = 0.5;
  jobs.push_back({"floor-bound", floor_job});
  const auto baseline = plan(bdw(), jobs, MaxClock{}).value();
  const auto schedule =
      plan(bdw(), jobs, MinEnergy{baseline.runtime * 1.01});
  ASSERT_TRUE(schedule.has_value()) << schedule.status().to_string();
  EXPECT_LE(schedule->runtime.seconds(),
            baseline.runtime.seconds() * 1.01 + 1e-9);
}

}  // namespace
}  // namespace lcp::tuning
