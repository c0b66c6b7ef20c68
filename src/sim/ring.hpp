/// \file
/// \brief Flat ring-buffer containers for the simulation hot path.
///
/// `std::deque` pays for its generality with 512-byte chunk allocations and
/// a double indirection on every access; the kernel's FIFOs are tiny (link
/// spill registers hold 2 entries, credit-return queues a few dozen) and
/// live on the per-cycle hot path, so they want one contiguous block —
/// inline when the bound is small, allocated once when it is not — and
/// index arithmetic instead of pointer chasing.
#pragma once

#include "sim/check.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace realm::sim {

/// Growable single-ended FIFO over one contiguous power-of-two ring.
///
/// Drop-in replacement for the `push_back`/`pop_front` subset of
/// `std::deque` used by the kernel's queues. Growth is geometric and
/// amortized; `reserve` at construction makes the steady state
/// allocation-free (the credit pool reserves its conservation bound, so it
/// never allocates after construction). `T` must be default-constructible
/// and movable — slots are materialized eagerly so wraparound is plain
/// index masking with no lifetime bookkeeping.
template <typename T>
class FlatRing {
public:
    FlatRing() = default;

    void reserve(std::size_t n) {
        if (n > cap_) { grow(ceil_pow2(n)); }
    }

    void push_back(T value) {
        if (size_ == cap_) { grow(cap_ == 0 ? kMinCapacity : cap_ * 2); }
        buf_[(head_ + size_) & mask_] = std::move(value);
        ++size_;
    }

    [[nodiscard]] T& front() {
        REALM_EXPECTS(size_ > 0, "front of empty ring");
        return buf_[head_];
    }
    [[nodiscard]] const T& front() const {
        REALM_EXPECTS(size_ > 0, "front of empty ring");
        return buf_[head_];
    }

    void pop_front() {
        REALM_EXPECTS(size_ > 0, "pop from empty ring");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /// Entry `i` positions past the head (0 == front).
    [[nodiscard]] const T& operator[](std::size_t i) const {
        REALM_EXPECTS(i < size_, "ring index out of range");
        return buf_[(head_ + i) & mask_];
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

private:
    static constexpr std::size_t kMinCapacity = 4;

    static std::size_t ceil_pow2(std::size_t n) noexcept {
        std::size_t c = kMinCapacity;
        while (c < n) { c *= 2; }
        return c;
    }

    void grow(std::size_t new_cap) {
        auto fresh = std::make_unique<T[]>(new_cap);
        for (std::size_t i = 0; i < size_; ++i) {
            fresh[i] = std::move(buf_[(head_ + i) & mask_]);
        }
        buf_ = std::move(fresh);
        cap_ = new_cap;
        mask_ = new_cap - 1;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace realm::sim
