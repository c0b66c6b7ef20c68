#include "sim/context.hpp"

#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace realm::sim {

namespace {
/// Shard currently ticking on this thread; indexes the context's edge-dirty
/// lists. 0 outside the tick phase (main thread, construction, tests).
thread_local unsigned t_current_shard = 0;

/// One polite busy-wait iteration (PAUSE/YIELD keep the spin off the
/// sibling hyperthread's back and out of the store buffer's way).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Busy-waits up to `iters` relax iterations for `ready`; returns whether it
/// became true. Callers park on a condition variable when this fails — the
/// spin covers the common case (all workers arrive within the cost of a few
/// cache misses) without committing anyone to burning a core.
template <typename Pred>
inline bool spin_briefly(int iters, const Pred& ready) {
    for (int i = 0; i < iters; ++i) {
        if (ready()) { return true; }
        cpu_relax();
    }
    return ready();
}
} // namespace

/// Worker pool + epoch barrier for the parallel tick phase. The main thread
/// acts as worker 0; `threads` handle the rest.
///
/// The previous implementation took a mutex and two condition variables
/// through four lock/notify rounds per cycle — every worker slept and was
/// futex-woken every cycle, pure overhead at mesh scale, where a cycle's
/// worth of shard work is a few microseconds. Now one release/acquire pair
/// each way, with waiters spinning instead of sleeping:
///
///  - **go** (monotone epoch; the generalization of a sense-reversing flag):
///    the main thread pre-sets `pending`, then publishes the new epoch with
///    a release increment. A worker acquire-spins until the epoch moves,
///    which also makes every pre-cycle write (edge flushes, `now_`) visible.
///  - **pending** (arrival counter): each worker retires with a release
///    decrement; the main thread acquire-spins to zero, which makes every
///    shard's writes visible before the edge flush. No ABA: the epoch only
///    advances after `pending` hit zero, and a worker touches `pending`
///    exactly once per observed epoch.
///
/// Spinning is only the fast path. A waiter whose spin budget runs out parks
/// on a condition variable; to keep that provably free of lost wakeups, the
/// epoch publish and the last arrival's notify happen under `mu` (held for
/// nanoseconds — never across shard work — so the multicore fast path only
/// adds an uncontended lock/unlock per cycle and never syscalls). On an
/// oversubscribed host (fewer cores than workers — think a 1-core CI
/// runner) spinning would burn the very core the other side needs: there
/// `spin_budget` is zero and every handoff parks immediately, recovering
/// the blocking behaviour of the old barrier. Measured on a 1-core host,
/// the spin-only variant of this barrier was ~100x slower than parking.
/// `alignas` keeps the two hot lines — publish and arrival — from
/// false-sharing each other or the pool vector.
struct SimContext::Workers {
    unsigned total = 0;  ///< workers including the main thread
    int spin_budget = 0; ///< relax iterations before a waiter parks
    alignas(64) std::atomic<std::uint64_t> go{0};
    alignas(64) std::atomic<unsigned> pending{0};
    alignas(64) std::atomic<bool> stop{false};
    std::mutex mu;                ///< guards epoch publish + arrival notify
    std::condition_variable cv_go;   ///< workers park here awaiting an epoch
    std::condition_variable cv_done; ///< main parks here awaiting arrivals
    std::vector<std::thread> threads;
};

SimContext::SimContext() = default;

SimContext::~SimContext() { stop_workers(); }

void SimContext::register_component(Component& c) {
    c.shard_ = build_shard_;
    components_.push_back(&c);
    partition_dirty_ = true;
    next_active_hint_.store(0, std::memory_order_relaxed); // active immediately
}

void SimContext::unregister_component(Component& c) noexcept {
    const auto it = std::find(components_.begin(), components_.end(), &c);
    if (it != components_.end()) {
        components_.erase(it);
        partition_dirty_ = true;
    }
}

void SimContext::set_shards(unsigned n) {
    // Nothing has ticked, staged or registered yet, so the per-shard state
    // is sized once, here, and never repartitioned under a running design.
    REALM_EXPECTS(components_.empty() && now_ == 0,
                  "set_shards must come before the first component and the first step");
    shards_ = std::max(1U, n);
    build_shard_ = std::min(build_shard_, shards_ - 1);
    shard_ticks_executed_.assign(shards_, 0);
    shard_ticks_skipped_.assign(shards_, 0);
    edge_dirty_.resize(shards_);
    partition_dirty_ = true;
}

std::uint64_t SimContext::ticks_executed() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : shard_ticks_executed_) { sum += v; }
    return sum;
}

std::uint64_t SimContext::ticks_skipped() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : shard_ticks_skipped_) { sum += v; }
    return sum;
}

std::uint64_t SimContext::shard_ticks_executed(unsigned shard) const noexcept {
    return shard < shard_ticks_executed_.size() ? shard_ticks_executed_[shard] : 0;
}

std::uint64_t SimContext::shard_ticks_skipped(unsigned shard) const noexcept {
    return shard < shard_ticks_skipped_.size() ? shard_ticks_skipped_[shard] : 0;
}

void SimContext::note_edge_dirty(EdgeFlushable& e) const {
    edge_dirty_[t_current_shard].push_back(&e);
    // Relaxed: the flag is read single-threaded at the cycle edge, after
    // the join barrier ordered this store.
    edge_any_dirty_.store(true, std::memory_order_relaxed);
}

void SimContext::ensure_partition() {
    if (!partition_dirty_) { return; }
    const unsigned n = shards_;
    shard_lists_.assign(n, {});
    for (Component* c : components_) { shard_lists_[c->shard_].push_back(c); }
    if (profiler_ != nullptr) {
        // Resolve each component's (type, shard) bucket once, here, so the
        // profiled tick loop is a plain indexed increment. Counts rebuild
        // per partition; accumulated samples survive (begin_partition).
        profiler_->begin_partition();
        shard_buckets_.assign(n, {});
        for (unsigned s = 0; s < n; ++s) {
            shard_buckets_[s].reserve(shard_lists_[s].size());
            for (Component* c : shard_lists_[s]) {
                shard_buckets_[s].push_back(profiler_->intern(typeid(*c), s));
            }
        }
    } else {
        shard_buckets_.clear();
    }
    partition_dirty_ = false;
}

void SimContext::tick_shard_span(unsigned shard, Cycle count) {
    if (profiler_ != nullptr) {
        tick_shard_span<true>(shard, count);
    } else {
        tick_shard_span<false>(shard, count);
    }
}

// With kProfiled, chained clock samples charge each executed tick: the end
// stamp of one tick is the start stamp of the next, so attribution costs one
// `steady_clock` call per executed tick (skip-scan time is charged to the
// following executed tick — negligible and documented). Buckets are keyed by
// shard, so concurrent shards never write the same counter.
template <bool kProfiled>
void SimContext::tick_shard_span(unsigned shard, Cycle count) {
    t_current_shard = shard;
    tl_tick_ctx_ = this;
    const std::vector<Component*>& list = shard_lists_[shard];
    const bool activity = scheduler_ == Scheduler::kActivity;
    const Cycle end = now_ + count;
    std::uint64_t executed = 0;
    std::uint64_t skipped = 0;
    Cycle hint = kNoCycle;
    [[maybe_unused]] std::chrono::steady_clock::time_point last{};
    if constexpr (kProfiled) { last = std::chrono::steady_clock::now(); }
    for (Cycle at = now_; at < end;) {
        tl_tick_now_ = at;
        hint = kNoCycle;
        std::uint64_t ran = 0;
        for (std::size_t i = 0; i < list.size(); ++i) {
            Component* c = list[i];
            if (activity) {
                const Cycle wake = c->wake_cycle();
                if (wake > at) {
                    ++skipped;
                    hint = std::min(hint, wake);
                    continue;
                }
            }
            c->tick();
            ++ran;
            if constexpr (kProfiled) {
                const auto stamp = std::chrono::steady_clock::now();
                Profiler::Bucket& b = profiler_->bucket(shard_buckets_[shard][i]);
                ++b.ticks;
                b.nanos += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(stamp - last)
                        .count());
                last = stamp;
            }
            if (activity) {
                const Cycle after = c->wake_cycle();
                hint = std::min(hint, after > at ? after : at + 1);
            }
        }
        executed += ran;
        // Intra-batch fast-forward: a walk that executed nothing proves
        // every component of this shard sleeps until `hint` — exact, since
        // within a batch only the shard itself wakes its components
        // (cross-shard wakes land at the batch-edge flush). Jumping is a
        // per-shard no-op skip, so it never perturbs the simulated state.
        at = (activity && ran == 0 && hint > at + 1) ? std::min(hint, end) : at + 1;
    }
    shard_ticks_executed_[shard] += executed;
    if (activity) {
        shard_ticks_skipped_[shard] += skipped;
        note_wake(hint); // fold the shard-local hint (atomic min)
    }
    tl_tick_ctx_ = nullptr;
    t_current_shard = 0;
}

void SimContext::flush_edges() {
    // Nothing staged — the overwhelmingly common case for the pre-tick
    // flush and, outside cross-shard traffic bursts, the post-tick one.
    if (!edge_any_dirty_.load(std::memory_order_relaxed)) { return; }
    // Single-threaded, shard-major, registration order within each shard:
    // a deterministic total order, though no staged effect depends on it
    // (each edge object has a single staging shard and flushing only makes
    // next-cycle state visible).
    for (std::vector<EdgeFlushable*>& list : edge_dirty_) {
        for (EdgeFlushable* e : list) { e->flush_edge(now_); }
        list.clear();
    }
    edge_any_dirty_.store(false, std::memory_order_relaxed);
}

void SimContext::start_workers(unsigned count) {
    if (workers_ && workers_->total == count) { return; }
    stop_workers();
    workers_ = std::make_unique<Workers>();
    workers_->total = count;
    // Spinning only pays when every participant has a core to spin on;
    // oversubscribed, a spinning waiter starves the thread it is waiting
    // for, so park immediately instead.
    workers_->spin_budget =
        count <= std::max(1U, std::thread::hardware_concurrency()) ? 4096 : 0;
    workers_->threads.reserve(count - 1);
    for (unsigned i = 1; i < count; ++i) {
        workers_->threads.emplace_back([this, i, count] { worker_main(i, count); });
    }
}

void SimContext::stop_workers() noexcept {
    if (!workers_) { return; }
    {
        const std::lock_guard<std::mutex> lk(workers_->mu);
        workers_->stop.store(true, std::memory_order_release);
    }
    workers_->cv_go.notify_all();
    for (std::thread& th : workers_->threads) { th.join(); }
    workers_.reset();
}

void SimContext::worker_main(unsigned worker_index, unsigned worker_count) {
    std::uint64_t seen = 0;
    for (;;) {
        const auto released = [&] {
            return workers_->stop.load(std::memory_order_acquire) ||
                   workers_->go.load(std::memory_order_acquire) != seen;
        };
        if (!spin_briefly(workers_->spin_budget, released)) {
            // Park. The publisher advances `go` under `mu`, so the predicate
            // cannot flip between our check and the wait — no lost wakeup.
            std::unique_lock<std::mutex> lk(workers_->mu);
            workers_->cv_go.wait(lk, released);
        }
        if (workers_->stop.load(std::memory_order_acquire)) { return; }
        // At most one epoch beyond `seen` can be in flight (the main thread
        // waits for full arrival before publishing the next), so the
        // current value is exactly the epoch we were released for.
        seen = workers_->go.load(std::memory_order_relaxed);
        // `batch_len_` (like every pre-epoch write) was published by the
        // release increment of `go` and is stable for the whole epoch.
        const Cycle batch = batch_len_;
        const unsigned n = static_cast<unsigned>(shard_lists_.size());
        for (unsigned s = worker_index; s < n; s += worker_count) {
            tick_shard_span(s, batch);
        }
        if (workers_->pending.fetch_sub(1, std::memory_order_release) == 1) {
            // Last arrival. Taking `mu` (empty critical section) orders this
            // decrement against the main thread's park decision, so either
            // main sees pending==0 before sleeping or the notify lands after
            // it slept — never between.
            { const std::lock_guard<std::mutex> lk(workers_->mu); }
            workers_->cv_done.notify_one();
        }
    }
}

void SimContext::step() { step_batch(1); }

void SimContext::step_batch(Cycle count) {
    ensure_partition();
    // Apply any work staged outside the tick phase (tests pushing into
    // edge-mode links between steps); normally a no-op.
    flush_edges();

    const unsigned nshards = static_cast<unsigned>(shard_lists_.size());
    if (scheduler_ == Scheduler::kActivity) {
        // Rebuild the fast-forward hint while walking the lists anyway.
        // Wakes fired *during* a tick (link pushes, job submissions)
        // re-lower the hint through note_wake, so components earlier in the
        // order that were already passed over this batch are still picked
        // up next batch.
        next_active_hint_.store(kNoCycle, std::memory_order_relaxed);
    }
    if (nshards <= 1) {
        tick_shard_span(0, count);
    } else {
        unsigned workers = shard_workers_override_ != 0
                               ? shard_workers_override_
                               : std::max(1U, std::thread::hardware_concurrency());
        workers = std::min(workers, nshards);
        if (workers <= 1) {
            // Not enough cores to go parallel: multiplex the shards on this
            // thread, each walking the whole batch in turn. Bit-identical
            // to the concurrent path — within a batch shards are
            // independent, so walking them batch-major instead of
            // cycle-major is unobservable.
            for (unsigned s = 0; s < nshards; ++s) { tick_shard_span(s, count); }
        } else {
            start_workers(workers);
            // Pre-set the arrival counter and the batch length, then
            // publish the epoch: the release increment makes `pending`,
            // `batch_len_` (and every pre-batch write) visible to the
            // acquire-spinning workers. Publishing under `mu` pairs with
            // the parked-worker wait; spinning workers never touch the
            // lock. One barrier round trip now covers `count` cycles — the
            // conservative-lookahead batching win.
            batch_len_ = count;
            workers_->pending.store(workers - 1, std::memory_order_relaxed);
            {
                const std::lock_guard<std::mutex> lk(workers_->mu);
                workers_->go.fetch_add(1, std::memory_order_release);
            }
            workers_->cv_go.notify_all();
            for (unsigned s = 0; s < nshards; s += workers) {
                tick_shard_span(s, count);
            }
            // Join: the acquire on zero orders every shard's writes before
            // the edge flush below.
            const auto arrived = [&] {
                return workers_->pending.load(std::memory_order_acquire) == 0;
            };
            if (!spin_briefly(workers_->spin_budget, arrived)) {
                std::unique_lock<std::mutex> lk(workers_->mu);
                workers_->cv_done.wait(lk, arrived);
            }
        }
    }
    now_ += count;
    // Exchange cross-shard state at the batch edge: staged flits/credits
    // mature against the new `now_` (each stamped with its staging cycle),
    // and consumers are woken for their first poppable cycle.
    flush_edges();
}

bool SimContext::try_fast_forward(Cycle limit) {
    if (scheduler_ != Scheduler::kActivity) { return false; }
    const Cycle hint = next_active_hint_.load(std::memory_order_relaxed);
    if (hint <= now_) { return false; } // someone may need this cycle
    const Cycle target = std::min(hint, limit);
    if (target <= now_) { return false; }
    fast_forwarded_ += target - now_;
    now_ = target;
    return true;
}

void SimContext::run(Cycle cycles) {
    const Cycle end = now_ + cycles;
    while (now_ < end) {
        if (try_fast_forward(end)) { continue; }
        step_batch(std::min<Cycle>(lookahead_, end - now_));
    }
}

bool SimContext::run_until(const std::function<bool()>& done, Cycle max_cycles) {
    REALM_EXPECTS(done != nullptr, "run_until requires a predicate");
    // The predicate is evaluated at batch boundaries, so with lookahead k
    // the loop may overshoot the trigger by up to k-1 cycles — benign for
    // component-state predicates (the state it reads is exact) and
    // deterministic for a fixed configuration, hence identical at every
    // shard count.
    const Cycle end = now_ + max_cycles;
    while (now_ < end) {
        if (done()) { return true; }
        if (try_fast_forward(end)) { continue; }
        step_batch(std::min<Cycle>(lookahead_, end - now_));
    }
    return done();
}

} // namespace realm::sim
