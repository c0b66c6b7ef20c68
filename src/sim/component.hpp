/// \file
/// \brief Base class for all simulated hardware blocks.
#pragma once

#include "sim/context.hpp"
#include "sim/types.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace realm::sim {

/// A clocked hardware block. Each simulation cycle the kernel calls
/// `tick()` exactly once, in construction order.
///
/// Lifecycle: a component is built, with its context and the rest of the
/// topology, before the first step; it then runs and is destroyed. Nothing
/// rewinds it, so the constructor alone defines its reset state (the SoC
/// leaves reset once, as in the paper's boot flow).
///
/// Model style: components are Moore machines communicating through
/// registered `Link`s, so evaluation order between components never changes
/// observable behaviour (only capacity visibility, which is benign and
/// deterministic).
///
/// Activity contract (the idle-aware scheduler): a component may declare,
/// at the end of its `tick()`, that every tick before cycle C would be a
/// no-op — no state change, no statistics, no link traffic — by calling
/// `idle_until(C)` (or `idle_forever()`). The scheduler then skips it until
/// cycle C, or until something calls `wake()` (a flit pushed into a link it
/// consumes, a new job queued, a register write). Components that never
/// declare idle are evaluated every cycle, exactly as before, so opting in
/// is optional per block. Declarations must be *conservative*: waking too
/// early is always safe (the extra tick is the promised no-op); sleeping
/// through work changes behaviour.
class Component {
public:
    Component(SimContext& ctx, std::string name) : ctx_{&ctx}, name_{std::move(name)} {
        ctx_->register_component(*this);
    }
    virtual ~Component() { ctx_->unregister_component(*this); }

    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    /// Block instance name, used in contract and checker messages.
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// The owning simulation context.
    [[nodiscard]] SimContext& ctx() noexcept { return *ctx_; }
    [[nodiscard]] const SimContext& ctx() const noexcept { return *ctx_; }

    /// Current cycle, convenience shorthand.
    [[nodiscard]] Cycle now() const noexcept { return ctx_->now(); }

    /// Evaluates one clock cycle.
    virtual void tick() = 0;

    /// \name Scheduling (activity-aware kernel)
    ///@{
    /// First cycle at which this component needs evaluation. `<= now` means
    /// active this cycle; the default of 0 means always active.
    [[nodiscard]] Cycle wake_cycle() const noexcept { return wake_at_; }

    /// Ensures the component is evaluated no later than `cycle`. Safe to
    /// call from anywhere (links, job queues, register writes); waking an
    /// already-active component is a no-op — and skips the context's
    /// hint CAS entirely: an unchanged `wake_at_` is already folded into
    /// the fast-forward hint every step (the shard walk visits or skips
    /// every component and min-folds its wake cycle), so only a genuine
    /// lowering needs to reach the shared atomic.
    void wake(Cycle cycle) noexcept {
        if (cycle >= wake_at_) { return; }
        wake_at_ = cycle;
        ctx_->note_wake(cycle); // keep the fast-forward hint conservative
    }
    /// Ensures the component is evaluated from the current cycle on.
    void wake() noexcept { wake(ctx_->now()); }
    ///@}

    /// Shard this component is evaluated on, tagged at registration from
    /// the context's build shard (0 unless a topology spatially partitioned
    /// the design; see `SimContext::set_build_shard`).
    [[nodiscard]] unsigned shard() const noexcept { return shard_; }

protected:
    /// Declares that every `tick()` strictly before `cycle` is a no-op.
    /// Call only at the end of `tick()` (or from a state-mutating entry
    /// point that re-establishes the promise).
    void idle_until(Cycle cycle) noexcept { wake_at_ = cycle; }
    /// Declares the component dormant until someone calls `wake()`.
    void idle_forever() noexcept { wake_at_ = kNoCycle; }

private:
    friend class SimContext; // writes shard_ at registration

    SimContext* ctx_;
    std::string name_;
    Cycle wake_at_ = 0;
    unsigned shard_ = 0;
};

} // namespace realm::sim
