#include "tuning/io_plan.hpp"

#include <gtest/gtest.h>

#include "io/transit_model.hpp"
#include "tuning/plan.hpp"

namespace lcp::tuning {
namespace {

const power::ChipSpec& bdw() {
  return power::chip(power::ChipId::kBroadwellD1548);
}

power::Workload compress_w() {
  return power::compression_workload(bdw(), Seconds{60.0}, 0.53, 1.0);
}

power::Workload write_w() {
  return io::transit_workload(bdw(), Bytes::from_gb(4), {});
}

std::vector<Stage> dump_stages() {
  return {{"compress", compress_w(), StageRole::kCompute},
          {"write", write_w(), StageRole::kTransit}};
}

PlanComparison dump_plan(const TuningRule& rule) {
  return compare(bdw(), dump_stages(), {rule});
}

/// An incremental dump priced against the full dump it replaces.
struct IncrementalPlan {
  PlanComparison plan;
  PlanComparison full_dump;

  [[nodiscard]] Joules energy_saved_vs_full() const {
    return full_dump.tuned.energy - plan.tuned.energy;
  }
};

IncrementalPlan incremental_plan(const IncrementalDumpSpec& inc) {
  return {compare(bdw(), incremental_dump_stages(compress_w(), write_w(), inc),
                  {paper_rule()}),
          dump_plan(paper_rule())};
}

TEST(IoPlanTest, TotalsAreSumsOverStages) {
  const Plan p = plan(bdw(), dump_stages(), MaxClock{}).value();
  const double t = p.runtime.seconds();
  const double e = p.energy.joules();
  const double t_expected =
      power::workload_runtime(compress_w(), bdw(), bdw().f_max).seconds() +
      power::workload_runtime(write_w(), bdw(), bdw().f_max).seconds();
  EXPECT_NEAR(t, t_expected, 1e-9);
  EXPECT_GT(e, 0.0);
}

TEST(IoPlanTest, EmptyPlanIsZero) {
  const Plan p = plan(bdw(), {}, MaxClock{}).value();
  EXPECT_DOUBLE_EQ(p.runtime.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(p.energy.joules(), 0.0);
}

TEST(PlanComparisonTest, TunedDumpSavesEnergy) {
  const auto cmp =
      dump_plan(paper_rule());
  EXPECT_GT(cmp.energy_savings(), 0.0);
  EXPECT_LT(cmp.energy_savings(), 0.35);
  EXPECT_GT(cmp.runtime_increase(), 0.0);
  EXPECT_LT(cmp.runtime_increase(), 0.2);
  EXPECT_GT(cmp.energy_saved().joules(), 0.0);
}

TEST(PlanComparisonTest, BaseStagesRunAtMaxClock) {
  const auto cmp =
      dump_plan(paper_rule());
  ASSERT_EQ(cmp.base.stages.size(), 2u);
  EXPECT_DOUBLE_EQ(cmp.base.stages[0].frequency.ghz(), bdw().f_max.ghz());
  EXPECT_DOUBLE_EQ(cmp.base.stages[1].frequency.ghz(), bdw().f_max.ghz());
}

TEST(PlanComparisonTest, TunedStagesFollowEqnThree) {
  const auto cmp =
      dump_plan(paper_rule());
  ASSERT_EQ(cmp.tuned.stages.size(), 2u);
  EXPECT_NEAR(cmp.tuned.stages[0].frequency.ghz(), 0.875 * 2.0, 1e-9);
  EXPECT_NEAR(cmp.tuned.stages[1].frequency.ghz(), 0.85 * 2.0, 1e-9);
  EXPECT_EQ(cmp.tuned.stages[0].name, "compress");
  EXPECT_EQ(cmp.tuned.stages[1].name, "write");
}

TEST(PlanComparisonTest, IdentityRuleIsNeutral) {
  const TuningRule identity{1.0, 1.0};
  const auto cmp =
      dump_plan(identity);
  EXPECT_NEAR(cmp.energy_savings(), 0.0, 1e-12);
  EXPECT_NEAR(cmp.runtime_increase(), 0.0, 1e-12);
}

TEST(IoPlanTest, TransitionOverheadCountsOnlyFrequencyChanges) {
  // Eqn 3 on Broadwell: compute at 1.75 GHz, transit at 1.70 GHz.
  const Plan p = plan(bdw(),
                      {{"a", compress_w(), StageRole::kCompute},
                       {"b", write_w(), StageRole::kTransit},
                       {"c", write_w(), StageRole::kTransit},  // no switch
                       {"d", compress_w(), StageRole::kCompute}},
                      RuleClocks{paper_rule()})
                     .value();
  EXPECT_NEAR(p.transition_time(bdw()).seconds(),
              2.0 * bdw().dvfs_transition_latency.seconds(), 1e-12);
  EXPECT_GT(p.transition_energy(bdw()).joules(), 0.0);
}

TEST(IoPlanTest, BaseClockPlanHasNoTransitions) {
  const auto cmp =
      dump_plan(paper_rule());
  EXPECT_DOUBLE_EQ(cmp.base.transition_time(bdw()).seconds(), 0.0);
}

TEST(IoPlanTest, TransitionOverheadIsNegligibleForEqn3Plans) {
  // Validates the paper's implicit assumption: the per-stage frequency
  // switch (tens of microseconds) is noise next to seconds-scale stages.
  const auto cmp =
      dump_plan(paper_rule());
  const double overhead_j = cmp.tuned.transition_energy(bdw()).joules();
  const double plan_j = cmp.tuned.energy.joules();
  EXPECT_GT(overhead_j, 0.0);
  EXPECT_LT(overhead_j / plan_j, 1e-5);
  EXPECT_LT(cmp.tuned.transition_time(bdw()).seconds() /
                cmp.tuned.runtime.seconds(),
            1e-5);
}

TEST(ScaleWorkloadTest, FactorOneIsTheExactIdentity) {
  const auto w = compress_w();
  const auto scaled = scale_workload(w, 1.0);
  // Bit-for-bit, not merely close: the incremental plan's degeneracy to
  // the full two-stage dump depends on it.
  EXPECT_EQ(scaled.cpu_ghz_seconds, w.cpu_ghz_seconds);
  EXPECT_EQ(scaled.stall_seconds.seconds(), w.stall_seconds.seconds());
  EXPECT_EQ(scaled.floor_seconds.seconds(), w.floor_seconds.seconds());
  EXPECT_EQ(scaled.activity, w.activity);
}

TEST(ScaleWorkloadTest, ScalesTimeTermsLinearlyAndKeepsActivity) {
  power::Workload w;
  w.cpu_ghz_seconds = 10.0;
  w.stall_seconds = Seconds{4.0};
  w.floor_seconds = Seconds{2.0};
  w.activity = 0.7;
  const auto half = scale_workload(w, 0.5);
  EXPECT_DOUBLE_EQ(half.cpu_ghz_seconds, 5.0);
  EXPECT_DOUBLE_EQ(half.stall_seconds.seconds(), 2.0);
  EXPECT_DOUBLE_EQ(half.floor_seconds.seconds(), 1.0);
  EXPECT_DOUBLE_EQ(half.activity, 0.7);
}

TEST(DirtySlabFractionTest, ClampsAndDegenerates) {
  EXPECT_DOUBLE_EQ(dirty_slab_fraction(0.0, 1024, 128), 0.0);
  EXPECT_DOUBLE_EQ(dirty_slab_fraction(-1.0, 1024, 128), 0.0);
  // Touching everything dirties everything regardless of run length.
  EXPECT_DOUBLE_EQ(dirty_slab_fraction(1.0, 1024, 128), 1.0);
  // Slab granularity amplifies small scattered writes: 5% touched in
  // short runs straddles far more than 5% of slabs.
  const double scattered = dirty_slab_fraction(0.05, 32768, 4096);
  EXPECT_GT(scattered, 0.05);
  EXPECT_LE(scattered, 1.0);
  // Long runs amortize the straddle penalty away.
  EXPECT_LT(dirty_slab_fraction(0.05, 1024, 1 << 20),
            dirty_slab_fraction(0.05, 1024, 256));
}

TEST(IncrementalPlanTest, DegeneratesToFullDumpBitForBit) {
  IncrementalDumpSpec inc;  // d = 1, R = 1, zero overhead workloads
  const auto plan =
      incremental_plan(inc);
  const auto full =
      dump_plan(paper_rule());
  EXPECT_EQ(plan.plan.tuned.energy.joules(), full.tuned.energy.joules());
  EXPECT_EQ(plan.plan.base.energy.joules(), full.base.energy.joules());
  EXPECT_EQ(plan.plan.tuned.runtime.seconds(), full.tuned.runtime.seconds());
  EXPECT_EQ(plan.plan.base.runtime.seconds(), full.base.runtime.seconds());
  EXPECT_DOUBLE_EQ(plan.energy_saved_vs_full().joules(), 0.0);
}

TEST(IncrementalPlanTest, EnergyIsMonotoneInDirtyFraction) {
  double last = -1.0;
  for (const double d : {0.05, 0.25, 0.5, 0.75, 1.0}) {
    IncrementalDumpSpec inc;
    inc.dirty_fraction = d;
    const auto plan = incremental_plan(inc);
    EXPECT_GT(plan.plan.tuned.energy.joules(), last) << d;
    last = plan.plan.tuned.energy.joules();
  }
}

TEST(IncrementalPlanTest, ReplicationScalesOnlyTheWriteSide) {
  IncrementalDumpSpec one;
  IncrementalDumpSpec three;
  three.replicas = 3;
  const auto p1 =
      incremental_plan(one);
  const auto p3 = incremental_plan(three);
  EXPECT_GT(p3.plan.tuned.energy.joules(), p1.plan.tuned.energy.joules());
  // The full-dump reference does not depend on R.
  EXPECT_EQ(p3.full_dump.tuned.energy.joules(),
            p1.full_dump.tuned.energy.joules());
}

TEST(IncrementalPlanTest, OverheadWorkloadsAddStages) {
  IncrementalDumpSpec inc;
  inc.dirty_fraction = 0.1;
  const auto lean =
      incremental_plan(inc);
  inc.hash_workload = power::compression_workload(bdw(), Seconds{1.0}, 0.5, 1.0);
  inc.journal_workload = io::transit_workload(bdw(), Bytes::from_mb(1), {});
  const auto full =
      incremental_plan(inc);
  EXPECT_EQ(full.plan.tuned.stages.size(), lean.plan.tuned.stages.size() + 2);
  EXPECT_GT(full.plan.tuned.energy.joules(), lean.plan.tuned.energy.joules());
}

TEST(IncrementalPlanTest, SmallDeltaBeatsFullDump) {
  IncrementalDumpSpec inc;
  inc.dirty_fraction = 0.05;
  inc.replicas = 2;
  inc.hash_workload = power::compression_workload(bdw(), Seconds{0.5}, 0.5, 1.0);
  const auto plan =
      incremental_plan(inc);
  EXPECT_GT(plan.energy_saved_vs_full().joules(), 0.0);
}

TEST(FramingTradeoffTest, SurvivalFractionIsAProbability) {
  for (const double p : {0.0, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 2.0}) {
    for (const std::size_t c : {std::size_t{256}, std::size_t{65536}}) {
      const double s = frame_survival_fraction(c, p, 16);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
  EXPECT_EQ(frame_survival_fraction(1024, 0.0, 16), 1.0);
  EXPECT_EQ(frame_survival_fraction(1024, 1.0, 16), 0.0);
  // Bigger chunks expose more bytes: survival decreases with chunk size.
  EXPECT_GT(frame_survival_fraction(256, 1e-5, 16),
            frame_survival_fraction(65536, 1e-5, 16));
}

TEST(FramingTradeoffTest, RecommendedChunkShrinksAsLossRises) {
  const std::size_t clean = recommended_chunk_bytes(0.0);
  const std::size_t low = recommended_chunk_bytes(1e-9);
  const std::size_t mid = recommended_chunk_bytes(1e-6);
  const std::size_t high = recommended_chunk_bytes(1e-3);
  const std::size_t dead = recommended_chunk_bytes(1.0);
  EXPECT_GE(clean, low);
  EXPECT_GE(low, mid);
  EXPECT_GE(mid, high);
  EXPECT_GE(high, dead);
  EXPECT_EQ(clean, std::size_t{256} << 20);  // max clamp
  EXPECT_EQ(dead, 256u);                     // min clamp
  // Closed form at p = 1e-6, h = 16: sqrt(16/1e-6) = 4000.
  EXPECT_NEAR(static_cast<double>(mid), 4000.0, 10.0);
}

TEST(FramingTradeoffTest, EvaluateChunkSizeExposesBothCosts) {
  const auto t = evaluate_chunk_size(4096, 1e-6, 16);
  EXPECT_EQ(t.chunk_bytes, 4096u);
  EXPECT_DOUBLE_EQ(t.overhead_fraction, 16.0 / 4096.0);
  EXPECT_GT(t.expected_recovered_fraction, 0.99);
  EXPECT_LT(t.expected_recovered_fraction, 1.0);
}

}  // namespace
}  // namespace lcp::tuning
