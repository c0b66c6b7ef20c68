/// \file
/// \brief Opt-in cycle-attribution profiler: where does the wall time of a
///        simulation go, per component type and per shard?
///
/// The kernel's perf work (sharding, data layout) has so far been steered by
/// whole-run numbers — `sim_cycles_per_sec` and the micro benches. This
/// profiler closes the attribution gap: with `SimContext::set_profiler`
/// armed, every executed tick is timed and charged to a (component type,
/// shard) bucket, so a sweep can report "62% of the wall time is
/// `MeshRouter` ticks on shard 2" instead of a single aggregate.
///
/// Cost model: **zero overhead when off** — one predictable branch per
/// shard per batch selects the unprofiled instantiation of the tick walk.
/// When on, the profiled instantiation chains `steady_clock` samples (one clock call
/// per executed tick, not two: the end of tick N is the start of tick N+1),
/// and buckets are keyed by shard, so concurrent shards never share a
/// counter — no atomics on the sample path.
#pragma once

#include "sim/types.hpp"

#include <cstdint>
#include <string>
#include <typeinfo>
#include <vector>

namespace realm::sim {

/// Tick/wall-time accumulator, attached to a `SimContext` via
/// `set_profiler`. Buckets are interned during partitioning (single
/// threaded); the tick phase only increments pre-resolved bucket counters.
class Profiler {
public:
    /// One (component type, shard) accumulator. `ticks`/`nanos` are written
    /// by exactly one shard's tick loop — disjoint buckets, no sharing.
    struct Bucket {
        std::uint64_t ticks = 0;
        std::uint64_t nanos = 0;
    };

    /// Harvested view of one bucket, with the type name demangled.
    struct Row {
        std::string type;     ///< component type (demangled)
        unsigned shard = 0;
        std::uint64_t components = 0; ///< instances in this bucket
        std::uint64_t ticks = 0;      ///< executed ticks attributed
        std::uint64_t nanos = 0;      ///< wall time attributed
    };

    /// Starts a (re)partition: component counts are rebuilt from the
    /// upcoming `intern` calls, while tick/time counters keep accumulating
    /// across repartitions.
    void begin_partition();

    /// Resolves the bucket index for one component instance (called once
    /// per component per partition, single-threaded). Increments the
    /// bucket's instance count.
    [[nodiscard]] std::uint32_t intern(const std::type_info& type, unsigned shard);

    /// Hot-path accessor for the tick loop. Indices come from `intern` and
    /// stay valid until the next `begin_partition`.
    [[nodiscard]] Bucket& bucket(std::uint32_t index) noexcept {
        return buckets_[index];
    }

    /// Aggregated samples, heaviest (by nanos) first. Demangles type names;
    /// call at harvest time, not on the hot path.
    [[nodiscard]] std::vector<Row> rows() const;

private:
    struct Key {
        std::string raw_type; ///< mangled `type_info::name()`
        unsigned shard = 0;
        std::uint64_t components = 0;
    };

    std::vector<Key> keys_;
    std::vector<Bucket> buckets_;
};

} // namespace realm::sim
