#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "core/compression_study.hpp"
#include "io/transit_model.hpp"
#include "power/workload.hpp"
#include "tuning/rule.hpp"

namespace ckptbench {

double wall_now() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

Tail tail(const std::vector<double>& values) {
  Tail t;
  t.samples = values.size();
  t.median = median(values);
  if (values.size() <= kTailBeyond) {
    return t;
  }
  const std::size_t n = values.size();
  t.blocks = std::clamp<std::size_t>(n / kTailBlockMin, 1, kTailBlocks);
  std::vector<double> block_tails;
  for (std::size_t b = 0; b < t.blocks; ++b) {
    std::vector<double> block(values.begin() + b * n / t.blocks,
                              values.begin() + (b + 1) * n / t.blocks);
    std::sort(block.begin(), block.end());
    const std::size_t at = block.size() - 1 - kTailBeyond;
    block_tails.push_back(block[at]);
    t.percentile += 100.0 * static_cast<double>(at + 1) /
                    static_cast<double>(block.size()) /
                    static_cast<double>(t.blocks);
  }
  t.value = median(block_tails);
  return t;
}

Tracer::Span::Span(Tracer& tracer, const char* name, const char* layer) {
  if (!tracer.on_) {
    return;
  }
  tracer_ = &tracer;
  index_ = tracer.spans_.size();
  tracer.spans_.push_back({name, layer, tracer.op_, tracer.open_, wall_now()});
  tracer.open_ = static_cast<std::ptrdiff_t>(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) {
    return;
  }
  Record& r = tracer_->spans_[index_];
  r.end = wall_now();
  tracer_->open_ = r.parent;
}

lcp::Status Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return lcp::Status::unavailable("cannot open trace file " + path);
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%zu,\"parent\":%td}}\n",
                 i == 0 ? "" : ",", r.name, r.layer, (r.start - origin) * 1e6,
                 (std::max(r.end, r.start) - r.start) * 1e6,
                 static_cast<unsigned long long>(r.op), i, r.parent);
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) {
    return lcp::Status::unavailable("cannot write trace file " + path);
  }
  return lcp::Status::ok();
}

EnergyModel::EnergyModel(const std::string& codec)
    : spec_(lcp::power::chip(lcp::power::ChipId::kBroadwellD1548)) {
  const auto id = codec.rfind("zfp", 0) == 0 ? lcp::compress::CodecId::kZfp
                                              : lcp::compress::CodecId::kSz;
  const lcp::core::CodecProfile profile = lcp::core::codec_profile(id);
  cpu_fraction_ = profile.cpu_fraction;
  activity_ = profile.activity;
}

double EnergyModel::compute_joules(double cpu_seconds) const {
  const auto w = lcp::power::compression_workload(
      spec_, lcp::Seconds{cpu_seconds}, cpu_fraction_, activity_);
  const auto f = lcp::tuning::paper_rule().compression_frequency(spec_.f_max);
  return lcp::power::workload_energy(w, spec_, f).joules();
}

double EnergyModel::transit_joules(std::uint64_t payload_bytes,
                                   const lcp::io::RetryStats& retry) const {
  if (payload_bytes == 0) {
    return 0.0;
  }
  const lcp::Bytes n{payload_bytes};
  const auto profile = lcp::io::retry_profile_from_stats(retry, n, n);
  const auto w = lcp::io::transit_workload(spec_, n, lcp::io::TransitModelConfig{},
                                           profile);
  const auto f = lcp::tuning::paper_rule().transit_frequency(spec_.f_max);
  return lcp::power::workload_energy(w, spec_, f).joules();
}

}  // namespace ckptbench
