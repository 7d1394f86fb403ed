// Pins of tuning::plan on the tuning test fixtures. Every literal was
// captured, as a hexfloat, from the dedicated entry points plan replaced
// (plan_compressed_dump, plan_compressed_dump_under_faults,
// overlapped_dump_outcome, plan_overlapped_dump, plan_incremental_dump,
// schedule_baseline / _for_deadline / _for_power_cap and
// energy_ / power_ / runtime_optimal_frequency); EXPECT_EQ holds the new
// planner to them bit for bit. The pins marked "tie" record where the
// planner's one tie-break (the highest of the grid points tied on energy)
// differs from an old one: the deadline scheduler started each job at the
// lowest tied point, and the runtime optimizer kept f_max on a runtime
// tie.

#include "tuning/plan.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "io/transit_model.hpp"
#include "tuning/codec_choice.hpp"
#include "tuning/io_plan.hpp"

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

std::vector<Stage> dump_stages(const power::Workload& write) {
  return {{"compress", compress_w(), StageRole::kCompute},
          {"write", write, StageRole::kTransit}};
}

void expect_plan(const Plan& p, double runtime, double energy,
                 std::initializer_list<double> clocks_ghz) {
  EXPECT_EQ(p.runtime.seconds(), runtime);
  EXPECT_EQ(p.energy.joules(), energy);
  ASSERT_EQ(p.stages.size(), clocks_ghz.size());
  std::size_t i = 0;
  for (double f : clocks_ghz) {
    EXPECT_EQ(p.stages[i].frequency.ghz(), f) << p.stages[i].name;
    ++i;
  }
}

struct PinnedStage {
  double ghz;
  double runtime;
  double energy;
};

void expect_stages(const Plan& p, std::initializer_list<PinnedStage> pins) {
  ASSERT_EQ(p.stages.size(), pins.size());
  std::size_t i = 0;
  for (const PinnedStage& pin : pins) {
    EXPECT_EQ(p.stages[i].frequency.ghz(), pin.ghz) << p.stages[i].name;
    EXPECT_EQ(p.stages[i].runtime.seconds(), pin.runtime) << p.stages[i].name;
    EXPECT_EQ(p.stages[i].energy.joules(), pin.energy) << p.stages[i].name;
    ++i;
  }
}

// The base plan of every Eqn 3 comparison on the dump fixture.
constexpr double kBaseRuntime = 0x1.d9e01e4a2ceb2p+6;
constexpr double kBaseEnergy = 0x1.5aa4e24c24cb9p+10;
constexpr double kFmax = 0x1p+1;
constexpr double kFcompress = 0x1.cp+0;           // 0.875 * 2 GHz
constexpr double kFtransit = 0x1.b333333333333p+0;  // 0.85 * 2 GHz

TEST(PlanPinTest, CompressedDump) {
  const auto cmp = compare(bdw(), dump_stages(write_w()), {paper_rule()});
  expect_plan(cmp.base, kBaseRuntime, kBaseEnergy, {kFmax, kFmax});
  expect_plan(cmp.tuned, 0x1.fd0f1100a7292p+6, 0x1.4cc41e84a9b3ep+10,
              {kFcompress, kFtransit});

  const auto identity =
      compare(bdw(), dump_stages(write_w()), {TuningRule{1.0, 1.0}});
  expect_plan(identity.tuned, kBaseRuntime, kBaseEnergy, {kFmax, kFmax});
  expect_plan(plan(bdw(), dump_stages(write_w()), MaxClock{}).value(),
              kBaseRuntime, kBaseEnergy, {kFmax, kFmax});
}

TEST(PlanPinTest, CompressedDumpUnderFaults) {
  io::TransitRetryProfile retry;
  retry.retransmit_fraction = 0.05;
  retry.idle_seconds = Seconds{2.0};
  const auto degraded_w =
      io::transit_workload(bdw(), Bytes::from_gb(4), {}, retry);
  const auto clean = compare(bdw(), dump_stages(write_w()), {paper_rule()});
  const auto degraded =
      compare(bdw(), dump_stages(degraded_w), {paper_rule()});
  expect_plan(degraded.base, 0x1.e21b261ece596p+6, 0x1.603872fcfc40ep+10,
              {kFmax, kFmax});
  expect_plan(degraded.tuned, 0x1.03dd9039beb16p+7, 0x1.5343bac2781bdp+10,
              {kFcompress, kFtransit});
  EXPECT_EQ((degraded.tuned.energy - clean.tuned.energy).joules(),
            0x1.9fe70f7399fcp+4);
  EXPECT_EQ((degraded.tuned.runtime - clean.tuned.runtime).seconds(),
            0x1.5581ee5ac734p+1);
}

TEST(PlanPinTest, OverlappedDumpDepthOne) {
  const auto cmp = compare(bdw(), dump_stages(write_w()), {paper_rule(), 1});
  expect_plan(cmp.base, kBaseRuntime, kBaseEnergy, {kFmax, kFmax});
  EXPECT_EQ(cmp.base.serial_runtime().seconds(), kBaseRuntime);
  EXPECT_EQ(cmp.base.serial_energy().joules(), kBaseEnergy);
  // The one-clock pipeline runs at the transit clock: it costs less.
  expect_plan(cmp.tuned, 0x1.024d5297dd227p+7, 0x1.4c297b8328bd1p+10,
              {kFtransit, kFtransit});
  EXPECT_EQ(cmp.tuned.serial_runtime().seconds(), 0x1.024d5297dd227p+7);
  EXPECT_EQ(cmp.tuned.serial_energy().joules(), 0x1.4c297b8328bd1p+10);
  EXPECT_EQ(cmp.energy_saved().joules(), 0x1.cf6cd91f81dp+5);
  EXPECT_EQ(cmp.energy_savings(), 0x1.563e7553e8ep-5);
}

TEST(PlanPinTest, OverlappedDumpDepthEight) {
  const auto cmp = compare(bdw(), dump_stages(write_w()), {paper_rule(), 8});
  expect_plan(cmp.base, 0x1.add29a5fdc34p+6, 0x1.41dd481857649p+10,
              {kFmax, kFmax});
  EXPECT_EQ(cmp.base.serial_runtime().seconds(), kBaseRuntime);
  EXPECT_EQ(cmp.base.serial_energy().joules(), kBaseEnergy);
  expect_plan(cmp.tuned, 0x1.d5d31bf4cda69p+6, 0x1.31d93e5203a4p+10,
              {kFtransit, kFtransit});
  EXPECT_EQ(cmp.tuned.serial_runtime().seconds(), 0x1.024d5297dd227p+7);
  EXPECT_EQ(cmp.tuned.serial_energy().joules(), 0x1.4c297b8328bd1p+10);
  EXPECT_EQ(cmp.energy_saved().joules(), 0x1.00409c653c09p+6);
  EXPECT_EQ(cmp.energy_savings(), 0x1.97a0ff3585dap-5);
  EXPECT_EQ(cmp.tuned.pipeline_depth, 8u);
}

PlanComparison incremental(const IncrementalDumpSpec& inc) {
  return compare(bdw(), incremental_dump_stages(compress_w(), write_w(), inc),
                 {paper_rule()});
}

constexpr double kFullTunedEnergy = 0x1.4cc41e84a9b3ep+10;

TEST(PlanPinTest, IncrementalDumpDegenerateSpec) {
  const auto cmp = incremental(IncrementalDumpSpec{});
  expect_plan(cmp.base, kBaseRuntime, kBaseEnergy, {kFmax, kFmax});
  expect_plan(cmp.tuned, 0x1.fd0f1100a7292p+6, kFullTunedEnergy,
              {kFcompress, kFtransit});
}

TEST(PlanPinTest, IncrementalDumpWithOverheadStages) {
  IncrementalDumpSpec inc;
  inc.dirty_fraction = 0.1;
  inc.hash_workload = power::compression_workload(bdw(), Seconds{1.0}, 0.5, 1.0);
  inc.journal_workload = io::transit_workload(bdw(), Bytes::from_mb(1), {});
  const auto cmp = incremental(inc);
  expect_plan(cmp.base, 0x1.b3d4e46601f2dp+3, 0x1.3f50f634d40ap+7,
              {kFmax, kFmax, kFmax, kFmax});
  expect_plan(cmp.tuned, 0x1.d404a6b38a40dp+3, 0x1.323e808ad4275p+7,
              {kFcompress, kFcompress, kFtransit, kFtransit});
  EXPECT_EQ((kFullTunedEnergy - cmp.tuned.energy.joules()),
            0x1.267c4e734f2efp+10);
}

TEST(PlanPinTest, IncrementalDumpReplicatedDelta) {
  IncrementalDumpSpec inc;
  inc.dirty_fraction = 0.05;
  inc.replicas = 2;
  inc.hash_workload = power::compression_workload(bdw(), Seconds{0.5}, 0.5, 1.0);
  const auto cmp = incremental(inc);
  expect_plan(cmp.base, 0x1.dbd9094f871dep+2, 0x1.597a42ec46eb6p+6,
              {kFmax, kFmax, kFmax});
  expect_plan(cmp.tuned, 0x1.fe8563eaabf0ep+2, 0x1.4c2004ab7d98dp+6,
              {kFcompress, kFcompress, kFtransit});
  EXPECT_EQ((kFullTunedEnergy - cmp.tuned.energy.joules()),
            0x1.38021e39f1da5p+10);

  IncrementalDumpSpec three;
  three.replicas = 3;
  const auto r3 = incremental(three);
  expect_plan(r3.base, 0x1.1f48a5e7bbd92p+7, 0x1.9c79316ef8ed3p+10,
              {kFmax, kFmax});
  expect_plan(r3.tuned, 0x1.33fddc3162006p+7, 0x1.8ddfeabfcd2d5p+10,
              {kFcompress, kFtransit});
}

std::vector<Stage> typical_jobs() {
  return {
      {"compress-A", power::compression_workload(bdw(), Seconds{10.0}, 0.53, 1.0)},
      {"compress-B", power::compression_workload(bdw(), Seconds{4.0}, 0.50, 0.94)},
      {"write-A", io::transit_workload(bdw(), Bytes::from_gb(2), {}),
       StageRole::kTransit},
  };
}

constexpr double kScheduleBaseRuntime = 0x1.f006b64139e98p+4;

TEST(PlanPinTest, ScheduleBaseline) {
  const Plan p = plan(bdw(), typical_jobs(), MaxClock{}).value();
  expect_stages(p, {{kFmax, 0x1.1a5a5a5a5a5a6p+4, 0x1.a24e4e4e4e4e6p+7},
                    {kFmax, 0x1.c3c3c3c3c3c3cp+2, 0x1.49d0262a42d65p+6},
                    {kFmax, 0x1.92edabd7ba78ap+2, 0x1.076c03ce00cb2p+6}});
  EXPECT_EQ(p.runtime.seconds(), kScheduleBaseRuntime);
  EXPECT_EQ(p.energy.joules(), 0x1.657631a5380f8p+8);
}

TEST(PlanPinTest, ScheduleForDeadlineSlack105) {
  const Plan p =
      plan(bdw(), typical_jobs(),
           MinEnergy{Seconds{kScheduleBaseRuntime} * 1.05})
          .value();
  expect_stages(
      p, {{0x1.ccccccccccccdp+0, 0x1.2afafafafafbp+4, 0x1.920018e169d98p+7},
          {0x1.ccccccccccccdp+0, 0x1.dcdcdcdcdcdcep+2, 0x1.3d725f12d74c4p+6},
          {0x1.ccccccccccccdp+0, 0x1.9627c15af48e2p+2, 0x1.f9f942c6b8d09p+5}});
  EXPECT_EQ(p.runtime.seconds(), 0x1.03de114477aaep+5);
  EXPECT_EQ(p.energy.joules(), 0x1.579bcc8e41d9ep+8);
}

TEST(PlanPinTest, ScheduleForGenerousDeadline) {
  const Plan p =
      plan(bdw(), typical_jobs(),
           MinEnergy{Seconds{kScheduleBaseRuntime} * 10.0})
          .value();
  expect_stages(
      p, {{0x1.b333333333334p+0, 0x1.34c2e0ff1d3b6p+4, 0x1.8f7a1c8774009p+7},
          {0x1.b333333333334p+0, 0x1.eba05509be732p+2, 0x1.3b8b733d65f95p+6},
          {0x1.ccccccccccccdp+0, 0x1.9627c15af48e2p+2, 0x1.f9f942c6b8d09p+5}});
  EXPECT_EQ(p.runtime.seconds(), 0x1.0a9a734c24fddp+5);
  EXPECT_EQ(p.energy.joules(), 0x1.55df136bea98bp+8);
  // Without a deadline the plan is the same per-stage energy optimum.
  const Plan free = plan(bdw(), typical_jobs(), MinEnergy{}).value();
  EXPECT_EQ(free.energy.joules(), 0x1.55df136bea98bp+8);
}

TEST(PlanPinTest, ScheduleForPowerCap) {
  const Plan p = plan(bdw(), typical_jobs(), PowerCap{Watts{10.5}}).value();
  expect_stages(
      p, {{0x1.b333333333334p+0, 0x1.34c2e0ff1d3b6p+4, 0x1.8f7a1c8774009p+7},
          {0x1.cp+0, 0x1.e4089ae4089aep+2, 0x1.3c2634eaa923cp+6},
          {kFmax, 0x1.92edabd7ba78ap+2, 0x1.076c03ce00cb2p+6}});
  EXPECT_EQ(p.runtime.seconds(), 0x1.0940395707002p+5);
  EXPECT_EQ(p.energy.joules(), 0x1.58a19c71e47cp+8);
}

GigaHertz chosen(const power::Workload& w, const Objective& objective) {
  return plan(bdw(), {{"w", w}}, objective).value().stages[0].frequency;
}

constexpr double kFmin = 0x1.999999999999ap-1;  // 0.8 GHz

TEST(PlanPinTest, OptimalFrequencies) {
  const auto w = power::compression_workload(bdw(), Seconds{10.0}, 0.53, 1.0);
  EXPECT_EQ(chosen(w, MinEnergy{}).ghz(), 0x1.b333333333334p+0);
  EXPECT_EQ(chosen(w, PowerCap{power::workload_power(w, bdw(), bdw().f_min)})
                .ghz(),
            kFmin);
  EXPECT_EQ(
      chosen(w, MinEnergy{power::workload_runtime(w, bdw(), bdw().f_max)})
          .ghz(),
      kFmax);

  power::Workload floor;
  floor.cpu_ghz_seconds = 0.5;
  floor.floor_seconds = Seconds{10.0};
  floor.activity = 0.5;
  EXPECT_EQ(chosen(floor, MinEnergy{}).ghz(), kFmin);
  // Tie: every clock runs this workload in its 10 s floor. The old runtime
  // optimizer kept f_max; the planner meets the f_max runtime at the
  // energy optimum, which already does.
  EXPECT_EQ(chosen(floor, MinEnergy{Seconds{10.0}}).ghz(), kFmin);

  // A memory-bound stage (beta = 0) runs equally long at every clock but
  // draws full dynamic power (the beta -> 0+ limit), so its energy optimum
  // is f_min, with or without a deadline it meets everywhere. A stage with
  // no work costs the same (zero) joules at every clock; the old energy
  // optimizer returned f_max for it, as the planner does.
  const auto flat = power::compression_workload(bdw(), Seconds{10.0}, 0.0, 1.0);
  EXPECT_EQ(chosen(flat, MinEnergy{}).ghz(), kFmin);
  EXPECT_EQ(chosen(power::Workload{}, MinEnergy{}).ghz(), kFmax);
  // Tie: the old deadline scheduler started the empty stage at f_min
  // (0x1.999999999999ap-1) and, with the deadline already met, left it
  // there.
  EXPECT_EQ(chosen(flat, MinEnergy{Seconds{100.0}}).ghz(), kFmin);
  EXPECT_EQ(chosen(power::Workload{}, MinEnergy{Seconds{1.0}}).ghz(), kFmax);
}

CodecCostProfile profile(double gbps, double ratio) {
  CodecCostProfile p;
  p.name = "test";
  p.gigabytes_per_second = gbps;
  p.ratio = ratio;
  return p;
}

constexpr std::uint64_t kDump = std::uint64_t{4} << 30;

TEST(PlanPinTest, CodecChoiceCrossovers) {
  const auto& sky = power::chip(power::ChipId::kSkylake4114);
  const auto crossover = [&](double gbps, double ratio) {
    return crossover_bandwidth_gbps(sky, profile(gbps, ratio), Bytes{kDump},
                                    {}, paper_rule());
  };
  EXPECT_EQ(crossover(0.1, 0.35), 0x1.525c718900aep-2);
  EXPECT_EQ(crossover(0.4, 0.35), 0x1.5c3350c8109f6p+0);
  EXPECT_EQ(crossover(0.2, 0.6), 0x1.a1589ec158fdcp-2);
  EXPECT_EQ(crossover(0.2, 0.15), 0x1.c149a4744df3dp-1);
  EXPECT_EQ(crossover(1e-4, 0.999), 0x1.47ae147ae147bp-7);
  EXPECT_EQ(crossover(100.0, 0.01), 0x1.f4p+9);
  const double bstar = crossover(0.25, 0.35);
  EXPECT_EQ(bstar, 0x1.acfe1cdf7b18fp-1);

  io::TransitModelConfig transit;
  transit.link.gigabits_per_second = bstar * 0.5;
  const auto below = compress_or_raw(sky, profile(0.25, 0.35), Bytes{kDump},
                                     transit, paper_rule());
  EXPECT_EQ(below.energy_raw.joules(), 0x1.66e87de6cce9bp+10);
  EXPECT_EQ(below.energy_compressed.joules(), 0x1.e748ec54aff9cp+9);
  transit.link.gigabits_per_second = bstar * 2.0;
  const auto above = compress_or_raw(sky, profile(0.25, 0.35), Bytes{kDump},
                                     transit, paper_rule());
  EXPECT_EQ(above.energy_raw.joules(), 0x1.73b56582b3d55p+8);
  EXPECT_EQ(above.energy_compressed.joules(), 0x1.2d19344426c58p+9);

  transit.link.gigabits_per_second = 1.0;
  const auto a = compress_or_raw(sky, profile(0.1, 0.5), Bytes{kDump},
                                 transit, paper_rule());
  const auto b = compress_or_raw(sky, profile(0.9, 0.2), Bytes{kDump},
                                 transit, paper_rule());
  EXPECT_EQ(a.energy_raw.joules(), 0x1.31a88522be712p+9);
  EXPECT_EQ(a.energy_compressed.joules(), 0x1.7373fdb0ed1a6p+10);
  EXPECT_EQ(b.energy_raw.joules(), 0x1.31a88522be712p+9);
  EXPECT_EQ(b.energy_compressed.joules(), 0x1.fae7c0f1444e4p+7);
}

}  // namespace
}  // namespace lcp::tuning
