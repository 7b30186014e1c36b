#pragma once
/// \file aligned.h
/// \brief 64-byte-aligned, grow-only numeric buffers for hot-path kernels.
///
/// The sample kernels (direct FIR, matched filter, block quantizer) stream
/// megabytes of doubles per packet. std::vector's allocator only guarantees
/// alignof(double); AlignedVec guarantees cache-line (64-byte) alignment so
/// vectorized loads never straddle lines, and its resize() never shrinks
/// capacity -- a workspace reused across packets reaches zero steady-state
/// allocations after the first.

#include <cstddef>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

namespace uwb::dsp {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal owning buffer of trivially-copyable T with 64-byte alignment.
/// Grow-only: resize() reallocates only when the request exceeds capacity,
/// and never value-initializes on growth within capacity (callers of the
/// hot kernels always overwrite the full span they asked for).
template <typename T>
class AlignedVec {
 public:
  AlignedVec() noexcept = default;
  explicit AlignedVec(std::size_t n) { resize(n); }

  AlignedVec(const AlignedVec&) = delete;
  AlignedVec& operator=(const AlignedVec&) = delete;

  AlignedVec(AlignedVec&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}

  AlignedVec& operator=(AlignedVec&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }

  ~AlignedVec() { release(); }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

  /// Grow-only resize; contents are unspecified after growth (hot-path
  /// callers overwrite everything they read).
  void resize(std::size_t n) {
    if (n > capacity_) {
      T* fresh = static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
      release();
      data_ = fresh;
      capacity_ = n;
    }
    size_ = n;
  }

  /// resize() followed by zero-fill.
  void assign_zero(std::size_t n) {
    resize(n);
    std::memset(static_cast<void*>(data_), 0, n * sizeof(T));
  }

 private:
  void release() noexcept {
    if (data_ != nullptr) {
      ::operator delete(static_cast<void*>(data_), std::align_val_t{kCacheLineBytes});
      data_ = nullptr;
    }
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Per-call copy of real taps in a gather kernel's tap type, optionally
/// reversed. Up to 256 taps live on the stack, so the hot path's pulse
/// templates and anti-alias filters cost no allocation; longer kernels go
/// to the heap. Not copyable: data() points into the object itself.
template <typename T>
class TapScratch {
 public:
  TapScratch(const double* h, std::size_t n, bool reversed) {
    if (n > kStackTaps) {
      heap_.resize(n);
      data_ = heap_.data();
    }
    for (std::size_t m = 0; m < n; ++m) {
      data_[m] = static_cast<T>(reversed ? h[n - 1 - m] : h[m]);
    }
  }
  TapScratch(const TapScratch&) = delete;
  TapScratch& operator=(const TapScratch&) = delete;

  [[nodiscard]] const T* data() const noexcept { return data_; }

 private:
  static constexpr std::size_t kStackTaps = 256;
  T stack_[kStackTaps] = {};
  std::vector<T> heap_;
  T* data_ = stack_;
};

}  // namespace uwb::dsp
