#include "data/field.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lcp::data {

Dims::Dims(std::vector<std::size_t> extents) : extents_(std::move(extents)) {
  LCP_REQUIRE(!extents_.empty() && extents_.size() <= 4,
              "field rank must be 1..4");
  for (std::size_t e : extents_) {
    LCP_REQUIRE(e > 0, "field extents must be positive");
  }
}

std::size_t Dims::extent(std::size_t axis) const {
  LCP_REQUIRE(axis < extents_.size(), "axis out of range");
  return extents_[axis];
}

std::size_t Dims::element_count() const noexcept {
  std::size_t n = 1;
  for (std::size_t e : extents_) {
    n *= e;
  }
  return extents_.empty() ? 0 : n;
}

std::size_t Dims::offset(std::span<const std::size_t> index) const {
  LCP_REQUIRE(index.size() == extents_.size(), "index arity != rank");
  std::size_t off = 0;
  for (std::size_t axis = 0; axis < extents_.size(); ++axis) {
    LCP_REQUIRE(index[axis] < extents_[axis], "index out of bounds");
    off = off * extents_[axis] + index[axis];
  }
  return off;
}

std::string Dims::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < extents_.size(); ++i) {
    if (i != 0) {
      out += 'x';
    }
    out += std::to_string(extents_[i]);
  }
  return out;
}

Field::Field(std::string name, Dims dims)
    : name_(std::move(name)),
      dims_(std::move(dims)),
      values_(dims_.element_count(), 0.0F) {}

Field::Field(std::string name, Dims dims, std::vector<float> values)
    : name_(std::move(name)),
      dims_(std::move(dims)),
      values_(values.begin(), values.end()) {
  LCP_REQUIRE(values_.size() == dims_.element_count(),
              "value count must match dims");
}

Field Field::for_overwrite(std::string name, Dims dims) {
  Field field;
  field.name_ = std::move(name);
  field.dims_ = std::move(dims);
  field.values_.resize(field.dims_.element_count());
  return field;
}

Field::Range Field::value_range() const noexcept {
  if (values_.empty()) {
    return {};
  }
  auto [lo, hi] = std::minmax_element(values_.begin(), values_.end());
  return {*lo, *hi};
}

Expected<FieldErrorStats> compare_fields(const Field& original,
                                         const Field& decoded) {
  if (original.element_count() != decoded.element_count()) {
    return Status::invalid_argument("field sizes differ in compare_fields");
  }
  FieldErrorStats stats;
  if (original.element_count() == 0) {
    stats.psnr_db = std::numeric_limits<double>::infinity();
    return stats;
  }
  const auto a = original.values();
  const auto b = decoded.values();
  double sum_abs = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(static_cast<double>(a[i]) - b[i]);
    stats.max_abs_error = std::max(stats.max_abs_error, d);
    sum_abs += d;
    sum_sq += d * d;
    if (a[i] != 0.0F) {
      stats.max_rel_error =
          std::max(stats.max_rel_error, d / std::abs(static_cast<double>(a[i])));
    } else if (d > 0.0) {
      stats.max_rel_error = std::numeric_limits<double>::infinity();
    }
  }
  const auto n = static_cast<double>(a.size());
  stats.mean_abs_error = sum_abs / n;
  stats.rmse = std::sqrt(sum_sq / n);
  const auto range = original.value_range();
  if (stats.rmse == 0.0) {
    stats.psnr_db = std::numeric_limits<double>::infinity();
  } else {
    const double r = std::max(static_cast<double>(range.span()),
                              std::numeric_limits<double>::min());
    stats.psnr_db = 20.0 * std::log10(r / stats.rmse);
  }
  return stats;
}

}  // namespace lcp::data
