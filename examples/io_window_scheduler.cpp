// I/O-window scheduler: a nightly checkpoint window holds several
// compression and write jobs; the operator grants a wall-clock budget
// relative to the all-at-max-clock baseline, and the scheduler picks a
// per-job DVFS point minimizing energy inside that budget — the per-
// workload generalization of Eqn 3 the paper's conclusion anticipates.
//
// Build & run:  ./build/examples/io_window_scheduler [slack_percent]

#include <cstdio>
#include <cstdlib>

#include "io/transit_model.hpp"
#include "tuning/plan.hpp"

int main(int argc, char** argv) {
  using namespace lcp;
  const double slack_percent = argc > 1 ? std::atof(argv[1]) : 8.0;
  if (slack_percent < 0.0 || slack_percent > 500.0) {
    std::fprintf(stderr, "usage: %s [slack_percent 0..500]\n", argv[0]);
    return 2;
  }

  const auto& spec = power::chip(power::ChipId::kBroadwellD1548);

  // A plausible checkpoint window: three field compressions of different
  // sizes/codecs and two NFS writes.
  using tuning::StageRole;
  const std::vector<tuning::Stage> jobs = {
      {"sz  CESM 674MB",
       power::compression_workload(spec, Seconds{18.0}, 0.53, 1.0),
       StageRole::kCompute},
      {"sz  NYX 537MB",
       power::compression_workload(spec, Seconds{14.0}, 0.53, 1.0),
       StageRole::kCompute},
      {"zfp HACC 1047MB",
       power::compression_workload(spec, Seconds{25.0}, 0.50, 0.94),
       StageRole::kCompute},
      {"nfs write 4GB", io::transit_workload(spec, Bytes::from_gb(4), {}),
       StageRole::kTransit},
      {"nfs write 9GB", io::transit_workload(spec, Bytes::from_gb(9), {}),
       StageRole::kTransit},
  };

  const auto baseline = tuning::plan(spec, jobs, tuning::MaxClock{}).value();
  const Seconds deadline = baseline.runtime * (1.0 + slack_percent / 100.0);
  const auto tuned = tuning::plan(spec, jobs, tuning::MinEnergy{deadline});
  if (!tuned) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 tuned.status().to_string().c_str());
    return 1;
  }

  std::printf(
      "I/O window on %s — %.1f%% wall-clock slack granted\n\n"
      "%-18s %10s %10s %10s %10s\n",
      spec.cpu_name.c_str(), slack_percent, "job", "base f", "tuned f",
      "t (s)", "E (J)");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& b = baseline.stages[j];
    const auto& t = tuned->stages[j];
    std::printf("%-18s %7.2fGHz %7.2fGHz %10.2f %10.1f\n", t.name.c_str(),
                b.frequency.ghz(), t.frequency.ghz(), t.runtime.seconds(),
                t.energy.joules());
  }
  std::printf(
      "\nwindow totals:\n"
      "  baseline : %8.1f J in %7.2f s\n"
      "  scheduled: %8.1f J in %7.2f s (deadline %.2f s)\n"
      "  saved    : %8.1f J (%.1f%%)\n",
      baseline.energy.joules(), baseline.runtime.seconds(),
      tuned->energy.joules(), tuned->runtime.seconds(), deadline.seconds(),
      (baseline.energy - tuned->energy).joules(),
      100.0 * (1.0 - tuned->energy / baseline.energy));

  // Compare against the paper's one-size Eqn 3 rule applied blindly.
  const auto eqn3 =
      tuning::plan(spec, jobs, tuning::RuleClocks{tuning::paper_rule()})
          .value();
  std::printf(
      "\nEqn 3 fixed rule for reference: %8.1f J in %7.2f s\n"
      "(the scheduler matches or beats it whenever the deadline allows)\n",
      eqn3.energy.joules(), eqn3.runtime.seconds());
  return 0;
}
