// tracked<T>: a scalar wrapper whose reads and writes are automatically
// annotated for the detectors.
//
// The paper's Rader instruments every load and store via the compiler; here,
// programs under test either call shadow_read/shadow_write explicitly or
// declare their shared scalars as tracked<T> so ordinary-looking code
// (`x = y + 1;`) produces the access events.
#pragma once

#include <cstddef>

#include "runtime/api.hpp"

namespace rader {

template <typename T>
class tracked {
 public:
  tracked() = default;
  tracked(T v) : value_(v) {}  // NOLINT(google-explicit-constructor)

  /// Annotated load.
  operator T() const {  // NOLINT(google-explicit-constructor)
    shadow_read(&value_, sizeof(T));
    return value_;
  }

  /// Annotated store.
  tracked& operator=(T v) {
    shadow_write(&value_, sizeof(T));
    value_ = v;
    return *this;
  }

  tracked(const tracked& other) : value_(static_cast<T>(other)) {}
  tracked& operator=(const tracked& other) { return *this = static_cast<T>(other); }

  /// Annotated load with an explicit source tag for race reports.
  T load(SrcTag tag) const {
    shadow_read(&value_, sizeof(T), tag);
    return value_;
  }

  /// Annotated store with an explicit source tag for race reports.
  void store(T v, SrcTag tag) {
    shadow_write(&value_, sizeof(T), tag);
    value_ = v;
  }

  tracked& operator+=(T v) { return *this = static_cast<T>(*this) + v; }
  tracked& operator-=(T v) { return *this = static_cast<T>(*this) - v; }
  tracked& operator*=(T v) { return *this = static_cast<T>(*this) * v; }
  tracked& operator++() { return *this += T{1}; }
  tracked& operator--() { return *this -= T{1}; }

  /// Unannotated access (for initialization/verification outside the run).
  T raw() const { return value_; }

 private:
  T value_{};
};

}  // namespace rader
