/// \file
/// \brief Registered point-to-point links: the C++ analog of an AXI channel
///        behind a spill register.
#pragma once

#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/context.hpp"
#include "sim/types.hpp"

#include <array>
#include <memory>
#include <string>
#include <utility>

namespace realm::sim {

/// Typed, allocation-free drain hook: a plain function pointer plus a user
/// pointer and one immediate argument. Replaces the former
/// `std::function<void()>` pop hook, whose captured state (context, pool,
/// delay, mode) exceeded the small-buffer optimization and heap-allocated
/// per link — three times per NI staging channel. The user object must
/// outlive the link, exactly as the captured references had to.
struct PopHook {
    using Fn = void (*)(void* user, std::uint32_t arg);
    Fn fn = nullptr;
    void* user = nullptr;
    std::uint32_t arg = 0;

    explicit operator bool() const noexcept { return fn != nullptr; }
    void operator()() const { fn(user, arg); }
};

/// Typed push observer, allocation-free like `PopHook`: called from inside
/// every `push` with the flit just stored, so it runs on the producer's
/// shard at the producer's cycle. It sees each handshake without holding
/// the flit, which lets a monitor tap a link instead of sitting in it. The
/// user object must outlive the link.
template <typename T>
struct PushObserver {
    using Fn = void (*)(void* user, const T& value);
    Fn fn = nullptr;
    void* user = nullptr;
};

/// Single-producer / single-consumer FIFO with *registered* timing:
/// an element pushed at cycle N becomes poppable at cycle N+1.
///
/// This reproduces the behaviour of a valid/ready channel followed by one
/// register stage. With the default capacity of 2 (a "spill register" /
/// `axi_cut` in RTL terms) the link sustains one transfer per cycle under
/// backpressure-free operation regardless of the order in which producer
/// and consumer are evaluated within the cycle, so simulations are
/// order-independent and deterministic.
///
/// Storage is a fixed-capacity ring buffer, inline for the ubiquitous
/// depth-2 spill register (the whole link lives in one cache-friendly
/// block; deeper links allocate their ring once at construction — never on
/// the push/pop hot path). Entries carry no per-entry cycle stamp: FIFO
/// order makes stamps monotone, so "pushed before the current cycle" is
/// equivalent to "not among the entries pushed at the most recent push
/// cycle", which two counters track exactly.
///
/// Producer protocol:   `if (link.can_push()) link.push(flit);`
/// Consumer protocol:   `if (link.can_pop())  f = link.pop();`
/// A producer must treat a full link as backpressure (AXI `ready` low) and
/// hold the flit; a consumer may `front()` without popping to make
/// combinational decisions (AXI `valid`-gated logic).
template <typename T>
class Link {
public:
    /// Timing discipline of the link.
    enum class Timing {
        kRegistered, ///< push at N -> poppable at N+1 (a register stage)
        kPassthrough ///< push at N -> poppable at N *if the consumer is
                     ///< evaluated after the producer* (combinational wire;
                     ///< construction order fixes evaluation order)
    };

    /// Ring slots stored inside the link object itself; larger capacities
    /// fall back to one heap block allocated at construction.
    static constexpr std::size_t kInlineCapacity = 2;

    /// \param ctx       Simulation context providing the clock.
    /// \param capacity  Buffer depth; >= 2 for full-throughput pipes,
    ///                  1 models an unbuffered register (half throughput
    ///                  under sustained traffic).
    explicit Link(const SimContext& ctx, std::size_t capacity = 2, std::string name = {},
                  Timing timing = Timing::kRegistered)
        : ctx_{&ctx}, capacity_{capacity}, timing_{timing}, name_{std::move(name)} {
        REALM_EXPECTS(capacity_ >= 1, "link capacity must be at least 1");
        if (capacity_ > kInlineCapacity) {
            heap_ = std::make_unique<T[]>(capacity_);
        }
    }

    Link(const Link&) = delete;
    Link& operator=(const Link&) = delete;

    /// True when the producer may push this cycle.
    [[nodiscard]] bool can_push() const noexcept { return size_ < capacity_; }

    /// Pushes a flit; it becomes visible to the consumer next cycle.
    void push(T value) {
        REALM_EXPECTS(can_push(), "push into full link " + name_);
        // Conditional wrap, not `%`: the divisor is a runtime value, and an
        // idiv per push is measurable on contended-mesh runs.
        std::size_t tail = head_ + size_;
        if (tail >= capacity_) { tail -= capacity_; }
        slot(tail) = std::move(value);
        ++size_;
        const Cycle now = ctx_->now();
        if (last_push_cycle_ != now) {
            last_push_cycle_ = now;
            recent_ = 0;
        }
        ++recent_;
        ++total_pushed_;
        if (observer_.fn != nullptr) { observer_.fn(observer_.user, slot(tail)); }
        if (wake_on_push_ != nullptr) {
            // Registered flits are observable one cycle after the push, so
            // that is the earliest the consumer could make progress.
            wake_on_push_->wake(timing_ == Timing::kPassthrough ? now : now + 1);
        }
    }

    /// True when the consumer can pop a flit this cycle (for registered
    /// links: the head entry was pushed in an earlier cycle).
    [[nodiscard]] bool can_pop() const noexcept { return ready_size() > 0; }

    /// Peeks at the head flit without consuming it.
    [[nodiscard]] const T& front() const {
        REALM_EXPECTS(can_pop(), "front of empty/not-ready link " + name_);
        return slot(head_);
    }

    /// Consumes and returns the head flit.
    T pop() {
        REALM_EXPECTS(can_pop(), "pop from empty/not-ready link " + name_);
        T v = std::move(slot(head_));
        if (++head_ == capacity_) { head_ = 0; }
        --size_;
        ++total_popped_;
        if (on_pop_) { on_pop_(); }
        return v;
    }

    /// Scheduler wake-up wiring (activity-aware kernel): component woken
    /// whenever a flit is pushed — wire the consumer here so it may declare
    /// itself idle while the link is empty. (Producers never sleep while
    /// backpressured, so there is no pop-side wake hook.)
    void set_wake_on_push(Component* c) noexcept { wake_on_push_ = c; }

    /// Drain hook: invoked after every successful pop. The NoC's credited
    /// flow control uses this to return end-to-end credits when a staged
    /// flit leaves the network-interface buffer toward its subordinate.
    void set_on_pop(PopHook hook) noexcept { on_pop_ = hook; }

    /// Push observer: invoked after every push (see `PushObserver`). A link
    /// carries at most one; setting a second is a contract violation.
    void set_push_observer(PushObserver<T> observer) {
        REALM_EXPECTS(observer_.fn == nullptr, "second push observer on link " + name_);
        observer_ = observer;
    }

    /// \name Introspection
    ///@{
    [[nodiscard]] std::size_t occupancy() const noexcept { return size_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::uint64_t total_pushed() const noexcept { return total_pushed_; }
    [[nodiscard]] std::uint64_t total_popped() const noexcept { return total_popped_; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    ///@}

private:
    /// Entries poppable this cycle: everything except the entries pushed at
    /// the most recent push cycle when that cycle has not elapsed yet (all
    /// ready entries sit at the head — stamps are monotone in a FIFO).
    /// While the clock sits at `last_push_cycle_`, pops only ever remove
    /// ready entries, and the clock never moves back, so `recent_ <= size_`.
    [[nodiscard]] std::size_t ready_size() const noexcept {
        // Empty first: the single most common outcome across a fabric's
        // links, and the only one that avoids chasing `ctx_` for the clock.
        const std::size_t n = size_;
        if (n == 0 || timing_ == Timing::kPassthrough) { return n; }
        if (last_push_cycle_ < ctx_->now()) { return n; }
        return n - recent_;
    }

    [[nodiscard]] T& slot(std::size_t pos) noexcept {
        return capacity_ <= kInlineCapacity ? inline_[pos] : heap_[pos];
    }
    [[nodiscard]] const T& slot(std::size_t pos) const noexcept {
        return capacity_ <= kInlineCapacity ? inline_[pos] : heap_[pos];
    }

    // Hot scalars first and adjacent — `can_push`/`can_pop` polling across a
    // fabric's links touches exactly these; the name and the lifetime
    // counters stay out of that cache line.
    const SimContext* ctx_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    /// Entries pushed at `last_push_cycle_` (the only ones possibly not yet
    /// poppable); together these replace the former per-entry stamps.
    std::size_t recent_ = 0;
    Cycle last_push_cycle_ = kNoCycle;
    Timing timing_ = Timing::kRegistered;
    Component* wake_on_push_ = nullptr;
    PushObserver<T> observer_{};
    PopHook on_pop_{};
    std::uint64_t total_pushed_ = 0;
    std::uint64_t total_popped_ = 0;
    std::array<T, kInlineCapacity> inline_{};
    std::unique_ptr<T[]> heap_;
    std::string name_;
};

} // namespace realm::sim
