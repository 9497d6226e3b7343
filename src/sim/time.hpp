// Simulated time as a strong type.
//
// The unit is the picosecond: at the modelled bandwidths (up to ~1 GB/s per
// byte-stream) one byte takes ~1000 ps, so integer arithmetic never loses
// sub-nanosecond serialization times, and int64 picoseconds still spans
// ~106 days of simulated time — far beyond any run here.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace mns::sim {

class Time {
 public:
  constexpr Time() = default;

  static constexpr Time zero() { return Time{0}; }
  static constexpr Time ps(std::int64_t v) { return Time{v}; }
  static constexpr Time ns(std::int64_t v) { return Time{v * 1'000}; }
  static constexpr Time us(std::int64_t v) { return Time{v * 1'000'000}; }
  static constexpr Time ms(std::int64_t v) { return Time{v * 1'000'000'000}; }
  /// From floating-point seconds/microseconds (rounded to nearest ps).
  static constexpr Time seconds(double v) {
    return Time{static_cast<std::int64_t>(v * 1e12 + (v >= 0 ? 0.5 : -0.5))};
  }
  static constexpr Time usec(double v) { return seconds(v * 1e-6); }
  static constexpr Time nsec(double v) { return seconds(v * 1e-9); }

  constexpr std::int64_t count_ps() const { return ps_; }
  constexpr double to_seconds() const { return static_cast<double>(ps_) * 1e-12; }
  constexpr double to_us() const { return static_cast<double>(ps_) * 1e-6; }
  constexpr double to_ns() const { return static_cast<double>(ps_) * 1e-3; }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ps_ + b.ps_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ps_ - b.ps_}; }
  constexpr Time& operator+=(Time o) { ps_ += o.ps_; return *this; }
  constexpr Time& operator-=(Time o) { ps_ -= o.ps_; return *this; }
  friend constexpr Time operator*(Time a, std::int64_t k) { return Time{a.ps_ * k}; }
  friend constexpr Time operator*(std::int64_t k, Time a) { return Time{a.ps_ * k}; }
  /// Scale by a floating-point factor (named to avoid int/double overload
  /// ambiguity at call sites with literal multipliers).
  constexpr Time scaled(double k) const {
    return Time{static_cast<std::int64_t>(static_cast<double>(ps_) * k + 0.5)};
  }
  friend constexpr Time operator/(Time a, std::int64_t k) { return Time{a.ps_ / k}; }
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.ps_) / static_cast<double>(b.ps_);
  }

  friend constexpr auto operator<=>(Time, Time) = default;

  /// "12.34us" style rendering for logs and tables.
  std::string str() const;

 private:
  explicit constexpr Time(std::int64_t ps) : ps_(ps) {}
  std::int64_t ps_ = 0;
};

/// Time to move `bytes` at `bytes_per_second`, rounded to the nearest
/// whole ps like Time::seconds (37 B at 3e8 B/s is 123,333 ps).
constexpr Time transfer_time(std::uint64_t bytes, double bytes_per_second) {
  const double sec = static_cast<double>(bytes) / bytes_per_second;
  return Time::seconds(sec);
}

}  // namespace mns::sim
