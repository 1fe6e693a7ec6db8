/// \file small_vec.hpp
/// Fixed-inline-capacity vector for hot-path scratch data.
///
/// The exact combine ranks each packet's port and protocol label lists
/// (almost always 1-3 entries) into scratch lists; as std::vector they
/// would cost heap allocations per packet. SmallVec keeps up to N
/// elements inline on the stack and only touches the heap in the (rare)
/// overflow case, so steady-state classification allocates nothing.
///
/// The inline buffer is left uninitialised (an array in an anonymous
/// union, which no constructor initialises): a SmallVec costs nothing to
/// construct however large N is, and a slot is written only by
/// push_back. As a plain member array, Label's default constructor would
/// write the invalid label into all 48 inline slots of the combine's
/// three lists on every packet, slots the lookup never reads. This is
/// sound because elements must be trivially copyable (trivial
/// assignment and destruction) and only indices below size() are ever
/// read.
///
/// Deliberately minimal: trivially-copyable element types only, no
/// erase/insert — exactly what scratch label lists need.
#pragma once

#include <algorithm>
#include <memory>
#include <type_traits>

#include "common/types.hpp"

namespace pclass {

template <typename T, usize N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is for trivially-copyable scratch data");
  static_assert(N > 0);

 public:
  SmallVec() : data_(inline_) {}
  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;

  void push_back(const T& v) {
    if (size_ == capacity_) grow();
    data_[size_++] = v;
  }

  void clear() { size_ = 0; }

  [[nodiscard]] usize size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// True when the contents spilled past the inline capacity.
  [[nodiscard]] bool on_heap() const { return data_ != inline_; }

  [[nodiscard]] T& operator[](usize i) { return data_[i]; }
  [[nodiscard]] const T& operator[](usize i) const { return data_[i]; }
  [[nodiscard]] T& front() { return data_[0]; }
  [[nodiscard]] const T& front() const { return data_[0]; }

  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

 private:
  void grow() {
    const usize new_cap = capacity_ * 2;
    auto bigger = std::make_unique<T[]>(new_cap);
    std::copy(data_, data_ + size_, bigger.get());
    heap_ = std::move(bigger);
    data_ = heap_.get();
    capacity_ = new_cap;
  }

  // A variant member that no constructor names is left uninitialised.
  union {
    T inline_[N];
  };
  T* data_;
  usize size_ = 0;
  usize capacity_ = N;
  std::unique_ptr<T[]> heap_;
};

}  // namespace pclass
