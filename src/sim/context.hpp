/// \file
/// \brief Cycle-driven simulation context: clock, component registry, run loop,
///        and the sharded (spatially partitioned) parallel scheduler.
#pragma once

#include "sim/types.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace realm::sim {

class Component;
class Profiler;

/// Scheduling policy of the run loop.
enum class Scheduler {
    kTickAll,  ///< legacy: tick every component every cycle
    kActivity, ///< skip idle components; fast-forward when all are idle
};

/// Cross-shard work staged during a cycle and applied at the cycle edge.
///
/// Objects that carry state between shards (cross-stripe `NocLink`s, credit
/// pools) buffer their producer-side writes in shard-private staging storage
/// during the parallel tick phase and register themselves dirty with the
/// context; after all shards finish the cycle, the kernel calls
/// `flush_edge(now)` on every dirty object from a single thread, in
/// deterministic (shard-major, registration) order. Because every staged
/// effect only becomes observable at cycle N+1 — the registered-`Link`
/// contract — deferring it to the edge is bit-identical to applying it
/// inline, for any shard count including 1.
///
/// An object may be registered more than once per edge (e.g. a link's
/// producer and consumer shards both register it), so `flush_edge` must be
/// idempotent within one edge.
class EdgeFlushable {
public:
    /// Applies the staged work. The kernel advances the clock *before*
    /// flushing, so `now` is the first cycle of the next batch: work staged
    /// during batch [B, B + k) is flushed with `now == B + k`. Staged
    /// effects must carry their own visible-cycle stamps — an effect staged
    /// at cycle N matures at N + L for a channel latency L >= k, which is
    /// at or after this flush, never before (the conservative-lookahead
    /// safety argument). `NocLink` stamps entries with their staging cycle
    /// and exposes them once `stamp + link_latency <= now`; `CreditPool`
    /// stages releases with an explicit ready cycle. With the default
    /// lookahead of 1 this is the historical per-cycle edge flush.
    virtual void flush_edge(Cycle now) = 0;

protected:
    ~EdgeFlushable() = default;
};

/// Owns simulation time and the (non-owning) list of components to evaluate
/// each cycle.
///
/// Timing contract: during `step()` every component observes `now() == N`;
/// values pushed into a `Link` at cycle N become visible to consumers at
/// N+1 (registered semantics). After all components ticked, time advances.
///
/// Components register themselves on construction (in construction order,
/// which fixes the intra-cycle evaluation order and makes runs fully
/// deterministic) and must outlive no longer than the context.
///
/// Lifecycle: build the context, set its shards, scheduler and profiler,
/// build every component, then step or run it, then destroy it. Time only
/// moves forward and nothing rewinds a context or its components: a new
/// run builds a new context.
///
/// With the default `Scheduler::kActivity`, components that declared
/// themselves idle (see `Component::idle_until`) are skipped — still in
/// registration order for the active ones, so runs remain bit-identical to
/// `kTickAll` as long as idle declarations honour their no-op contract.
/// When *every* component is idle until some future cycle, `run` /
/// `run_until` fast-forward the clock to the earliest wake-up instead of
/// stepping cycle by cycle.
///
/// Sharded execution: `set_shards(S)` partitions components into S spatial
/// shards (each component is tagged with the context's *build shard* at
/// registration; topologies set it around per-tile construction). Each
/// cycle, shards tick concurrently on worker threads — components within a
/// shard keep registration order — and cross-shard state (see
/// `EdgeFlushable`) is exchanged at a barrier on the cycle edge. Runs are
/// bit-identical for every shard count because (a) intra-shard relative
/// order equals the single-thread order (stable partition of one
/// construction order) and (b) every cross-shard interaction is
/// edge-registered, hence order-independent within a cycle.
class SimContext {
public:
    SimContext();
    ~SimContext();
    SimContext(const SimContext&) = delete;
    SimContext& operator=(const SimContext&) = delete;

    /// Current simulation time in cycles. During the tick phase of a
    /// lookahead batch this is the *per-thread* batch clock — the cycle the
    /// calling shard walk is evaluating — so components always observe the
    /// cycle they are being ticked at, even while `now_` still holds the
    /// batch base. Guarded by the owning-context check: a bare thread-local
    /// would leak a stale clock across sequentially-used contexts on one
    /// thread.
    [[nodiscard]] Cycle now() const noexcept {
        return this == tl_tick_ctx_ ? tl_tick_now_ : now_;
    }

    /// Adds a component to the per-cycle evaluation list (tagging it with
    /// the current build shard).
    void register_component(Component& c);

    /// Removes a component (called from Component's destructor).
    void unregister_component(Component& c) noexcept;

    /// Advances the simulation by exactly one cycle (no fast-forward; idle
    /// components are still skipped under `kActivity`). A single-cycle
    /// batch: cross-shard state flushes at the cycle edge regardless of the
    /// configured lookahead.
    void step();

    /// Advances the simulation by `cycles` cycles.
    void run(Cycle cycles);

    /// \name Conservative lookahead (barrier batching)
    ///@{
    /// Declares that every cross-shard channel carries at least `k` cycles
    /// of modeled latency (classic conservative PDES lookahead), so `run` /
    /// `run_until` may execute up to `k` consecutive cycles per barrier
    /// epoch: each shard walks the whole batch on its own thread and staged
    /// cross-shard effects commit at the batch edge — exactly when they
    /// would become visible anyway (effects staged at cycle N mature at
    /// N + L >= batch end for k <= L). The flush/snapshot cadence is part of
    /// the modeled semantics (edge-link capacity snapshots refresh at
    /// barriers), so the batch length is a pure function of configuration:
    /// the *same* batching runs at every shard count, including 1, which is
    /// what keeps results bit-identical across shard counts and partitions.
    /// Default 1 reproduces the historical cycle-by-cycle schedule exactly.
    void set_lookahead(Cycle k) noexcept { lookahead_ = k < 1 ? 1 : k; }
    [[nodiscard]] Cycle lookahead() const noexcept { return lookahead_; }
    ///@}

    /// Runs until `done()` returns true or `max_cycles` elapsed.
    /// \returns true iff the predicate fired (i.e. no timeout).
    ///
    /// The predicate must be a function of *component state* only. Under
    /// `kActivity` the clock fast-forwards across fully-idle stretches, so
    /// a predicate reading `now()` directly may first be evaluated past its
    /// trigger cycle; use `run(cycles)` to advance to a specific time.
    bool run_until(const std::function<bool()>& done, Cycle max_cycles);

    /// \name Scheduler selection & introspection
    ///@{
    void set_scheduler(Scheduler s) noexcept {
        scheduler_ = s;
        // Discard any hint computed under the old policy.
        next_active_hint_.store(0, std::memory_order_relaxed);
    }
    [[nodiscard]] Scheduler scheduler() const noexcept { return scheduler_; }
    /// Folds an asynchronous wake-up into the fast-forward hint (called by
    /// `Component::wake`; a lower hint is always safe — it only means less
    /// fast-forwarding). Lock-free so shards can wake components mid-cycle;
    /// const because edge-mode links lower the hint through the const
    /// context references producers hold (the hint is scheduler
    /// bookkeeping, not simulation state).
    void note_wake(Cycle cycle) const noexcept {
        Cycle cur = next_active_hint_.load(std::memory_order_relaxed);
        while (cycle < cur && !next_active_hint_.compare_exchange_weak(
                                  cur, cycle, std::memory_order_relaxed)) {}
    }
    /// Component evaluations actually executed (all shards).
    [[nodiscard]] std::uint64_t ticks_executed() const noexcept;
    /// Component evaluations skipped because the component was idle.
    [[nodiscard]] std::uint64_t ticks_skipped() const noexcept;
    /// Cycles crossed by fast-forward jumps (no component evaluated).
    [[nodiscard]] Cycle fast_forwarded_cycles() const noexcept { return fast_forwarded_; }
    ///@}

    /// \name Sharded execution
    ///@{
    /// Partitions execution into `n` spatial shards (>= 1). Must come
    /// before the first component registers and the first step (a
    /// `ContractViolation` otherwise), so components pick up their shard
    /// tags at construction; the tags themselves come from
    /// `set_build_shard`.
    void set_shards(unsigned n);
    [[nodiscard]] unsigned shards() const noexcept { return shards_; }
    /// Shard tag applied to components registered from now on (clamped to
    /// `shards() - 1`). Topologies bracket per-tile construction with this;
    /// everything else lands on shard 0. Prefer the `ShardScope` guard.
    void set_build_shard(unsigned s) noexcept {
        build_shard_ = shards_ == 0 ? 0 : (s < shards_ ? s : shards_ - 1);
    }
    [[nodiscard]] unsigned build_shard() const noexcept { return build_shard_; }
    /// Overrides the worker-thread count used when `shards() > 1`
    /// (0 = auto: `hardware_concurrency()`). Tests force > 1 to exercise
    /// the concurrent path on single-core hosts; effective workers are
    /// always capped by the shard count.
    void set_shard_workers(unsigned n) noexcept { shard_workers_override_ = n; }
    /// Registers staged cross-shard work for the end-of-cycle flush. Called
    /// from the shard currently ticking (or the main thread outside a
    /// step); each *side* of an object guards its own registration on state
    /// only it mutates during the tick phase (e.g. "my staging was empty"),
    /// so an object may land in two shards' dirty lists in one cycle —
    /// `flush_edge` must be idempotent to absorb that. Const because
    /// producers frequently hold const context references; the dirty lists
    /// are scheduler bookkeeping.
    void note_edge_dirty(EdgeFlushable& e) const;
    /// Per-shard slice of `ticks_executed()` / `ticks_skipped()` — the
    /// parallel-efficiency counters exported into the sweep JSON.
    [[nodiscard]] std::uint64_t shard_ticks_executed(unsigned shard) const noexcept;
    [[nodiscard]] std::uint64_t shard_ticks_skipped(unsigned shard) const noexcept;
    ///@}

    /// \name Profiling
    ///@{
    /// Attaches a tick-attribution profiler (nullptr detaches). With a
    /// profiler armed, every executed tick is timed and charged to a
    /// (component type, shard) bucket — see `sim::Profiler`. With none,
    /// the tick loop takes one predictable branch per shard per cycle and
    /// is otherwise unchanged (the "zero overhead when off" contract).
    /// Buckets are (re)interned at the next partition.
    void set_profiler(Profiler* p) noexcept {
        profiler_ = p;
        partition_dirty_ = true;
    }
    [[nodiscard]] Profiler* profiler() const noexcept { return profiler_; }
    ///@}

    /// Number of registered components (introspection for tests).
    [[nodiscard]] std::size_t component_count() const noexcept { return components_.size(); }

private:
    struct Workers; // worker pool + barrier state (context.cpp)

    /// Fast-forwards to `min(next_active_hint_, limit)` if the hint says no
    /// component needs the current cycle; returns true if time advanced.
    bool try_fast_forward(Cycle limit);

    /// Rebuilds the per-shard component lists (stable partition of
    /// `components_` by shard tag) when stale.
    void ensure_partition();
    /// Advances the simulation by `count` cycles under one barrier epoch:
    /// every shard walks cycles [now_, now_ + count) on its own thread,
    /// then cross-shard state flushes once at the batch edge. `count` must
    /// not exceed the configured lookahead (callers pass
    /// `min(lookahead_, remaining)`).
    void step_batch(Cycle count);
    /// Ticks every component of one shard (registration order) across
    /// `count` consecutive cycles, folding skip logic and counters; runs on
    /// a worker or the main thread. Publishes the per-cycle clock through
    /// the thread-local tick clock (see `now()`); a walk that executes
    /// nothing jumps the local clock to the shard's earliest wake (exact:
    /// within a batch a shard's components are only woken by the shard
    /// itself — cross-shard wakes land at the batch-edge flush). With
    /// `kProfiled` every executed tick is also timed into its `profiler_`
    /// bucket (see sim/profiler.hpp); the unprofiled instantiation carries
    /// no timing code at all.
    template <bool kProfiled>
    void tick_shard_span(unsigned shard, Cycle count);
    /// Picks the instantiation above by whether a profiler is armed.
    void tick_shard_span(unsigned shard, Cycle count);
    /// Applies all staged cross-shard work, single-threaded, in shard-major
    /// registration order. Runs on every cycle edge in every mode.
    void flush_edges();
    void start_workers(unsigned count);
    void stop_workers() noexcept;
    void worker_main(unsigned worker_index, unsigned worker_count);

    Cycle now_ = 0;
    /// Conservative lookahead: max cycles per barrier epoch (see
    /// `set_lookahead`).
    Cycle lookahead_ = 1;
    /// Batch length of the epoch being published to the worker pool;
    /// written by the main thread before the release increment of the epoch
    /// counter, read by workers after its acquire.
    Cycle batch_len_ = 1;
    /// Per-thread tick clock: the cycle the current shard walk is
    /// evaluating, owned by `tl_tick_ctx_`. `inline static thread_local`
    /// with an owner pointer so two contexts used from one thread never see
    /// each other's clock.
    inline static thread_local const SimContext* tl_tick_ctx_ = nullptr;
    inline static thread_local Cycle tl_tick_now_ = 0;
    std::vector<Component*> components_;
    Scheduler scheduler_ = Scheduler::kActivity;
    /// Earliest cycle at which any component may need evaluation, maintained
    /// incrementally by `step()` and `note_wake` so the run loop never has
    /// to rescan the component list; always <= the true next-active cycle.
    /// 0 (always "active now") until the first activity-mode step. Atomic:
    /// concurrently lowered by shards waking components mid-cycle.
    mutable std::atomic<Cycle> next_active_hint_{0};
    Cycle fast_forwarded_ = 0;

    unsigned shards_ = 1;
    unsigned build_shard_ = 0;
    unsigned shard_workers_override_ = 0;
    bool partition_dirty_ = true;
    std::vector<std::vector<Component*>> shard_lists_;
    std::vector<std::uint64_t> shard_ticks_executed_{0};
    std::vector<std::uint64_t> shard_ticks_skipped_{0};
    /// Per-shard dirty lists of staged cross-shard work (mutable: filled
    /// through const references on the producer hot path).
    mutable std::vector<std::vector<EdgeFlushable*>> edge_dirty_{1};
    /// True iff any dirty list is non-empty, so the twice-per-cycle
    /// `flush_edges` walk collapses to one load in the (common) clean
    /// case. Relaxed stores suffice: the flag is only *read* at the cycle
    /// edge, after the join barrier has ordered every shard's writes.
    mutable std::atomic<bool> edge_any_dirty_{false};
    Profiler* profiler_ = nullptr;
    /// Parallel to `shard_lists_`: the profiler bucket of each component
    /// (empty when no profiler is attached).
    std::vector<std::vector<std::uint32_t>> shard_buckets_;
    std::unique_ptr<Workers> workers_;
};

/// RAII build-shard scope: components constructed while alive are tagged
/// with `shard`.
class ShardScope {
public:
    ShardScope(SimContext& ctx, unsigned shard) : ctx_{ctx}, prev_{ctx.build_shard()} {
        ctx_.set_build_shard(shard);
    }
    ~ShardScope() { ctx_.set_build_shard(prev_); }
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;

private:
    SimContext& ctx_;
    unsigned prev_;
};

} // namespace realm::sim
