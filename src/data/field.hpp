#pragma once
// Field: an n-dimensional array of float32 scientific data, the unit of
// compression throughout lcpower (mirrors one SDRBench field file).

#include <cstddef>
#include <memory>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/status.hpp"
#include "support/units.hpp"

namespace lcp::data {

/// Extents of an n-D field, slowest-varying dimension first (C order).
/// 1 <= rank <= 4 to match the paper's datasets (HACC 1-D ... CESM 3-D,
/// with a slot for 4-D time-series variants).
class Dims {
 public:
  Dims() = default;
  explicit Dims(std::vector<std::size_t> extents);

  [[nodiscard]] static Dims d1(std::size_t n) { return Dims{{n}}; }
  [[nodiscard]] static Dims d2(std::size_t n0, std::size_t n1) {
    return Dims{{n0, n1}};
  }
  [[nodiscard]] static Dims d3(std::size_t n0, std::size_t n1, std::size_t n2) {
    return Dims{{n0, n1, n2}};
  }

  [[nodiscard]] std::size_t rank() const noexcept { return extents_.size(); }
  [[nodiscard]] std::size_t extent(std::size_t axis) const;
  [[nodiscard]] std::size_t element_count() const noexcept;
  [[nodiscard]] const std::vector<std::size_t>& extents() const noexcept {
    return extents_;
  }

  /// Row-major linear offset of (i0, i1, ...) — arity must equal rank.
  [[nodiscard]] std::size_t offset(std::span<const std::size_t> index) const;

  /// "26x1800x3600"-style rendering.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const Dims&) const = default;

 private:
  std::vector<std::size_t> extents_;
};

/// std::allocator, except that a value-less construct() default-initializes:
/// a vector sized through it leaves trivial elements unwritten, so the
/// pages of a fresh buffer are touched only when something stores to them.
template <typename T>
struct DefaultInitAllocator {
  using value_type = T;

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(  // NOLINT(google-explicit-constructor)
      const DefaultInitAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>{}.deallocate(p, n);
  }
  /// The only construct() it has: a construction with arguments goes
  /// through std::allocator_traits' default, std::construct_at.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const DefaultInitAllocator&,
                         const DefaultInitAllocator&) noexcept {
    return true;
  }
};

/// Owning float32 n-D array plus a name for reporting.
class Field {
 public:
  Field() = default;
  /// Zero-filled.
  Field(std::string name, Dims dims);
  /// Takes `values` (copied into the field's storage); the count must
  /// match `dims`.
  Field(std::string name, Dims dims, std::vector<float> values);

  /// A field whose values are left uninitialized, for a caller that
  /// writes every element before anyone reads one (a decoder). No page is
  /// touched until it is written.
  [[nodiscard]] static Field for_overwrite(std::string name, Dims dims);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Dims& dims() const noexcept { return dims_; }
  [[nodiscard]] std::size_t element_count() const noexcept {
    return values_.size();
  }
  [[nodiscard]] Bytes size_bytes() const noexcept {
    return Bytes{values_.size() * sizeof(float)};
  }

  [[nodiscard]] std::span<const float> values() const noexcept {
    return values_;
  }
  [[nodiscard]] std::span<float> mutable_values() noexcept { return values_; }

  [[nodiscard]] float at(std::span<const std::size_t> index) const {
    return values_[dims_.offset(index)];
  }
  float& at(std::span<const std::size_t> index) {
    return values_[dims_.offset(index)];
  }

  /// Value range of the field; {0,0} when empty.
  struct Range {
    float lo = 0.0F;
    float hi = 0.0F;
    [[nodiscard]] float span() const noexcept { return hi - lo; }
  };
  [[nodiscard]] Range value_range() const noexcept;

 private:
  std::string name_;
  Dims dims_;
  std::vector<float, DefaultInitAllocator<float>> values_;
};

/// Elementwise quality metrics between an original and its reconstruction.
struct FieldErrorStats {
  double max_abs_error = 0.0;
  double mean_abs_error = 0.0;
  double rmse = 0.0;
  double psnr_db = 0.0;  ///< vs the original's value range; inf if exact
  /// max |x - x'| / |x| over nonzero originals; infinity if any zero
  /// original was reconstructed inexactly.
  double max_rel_error = 0.0;
};

/// Computes error stats; fields must have equal element counts.
[[nodiscard]] Expected<FieldErrorStats> compare_fields(const Field& original,
                                                       const Field& decoded);

}  // namespace lcp::data
