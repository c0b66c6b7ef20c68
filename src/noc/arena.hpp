/// \file
/// \brief Fixed-slot packet arena: the allocation discipline of the sharded
///        kernel's hot path.
///
/// The flattened NoC containers (link VC ring buffers, the NI's indexed
/// per-node arrays) hold packets by value, so the steady-state transport
/// allocates nothing. The one remaining dynamic packet container is the
/// ejection reorder stash, which only multi-path routing policies populate.
/// `PacketArena` backs it with a contiguous slot array plus an O(1)
/// free-list, so stash traffic recycles slots instead of churning the heap,
/// and every stashed packet of one NI lives in one cache-friendly slab.
///
/// Arenas are *per shard* by construction: each NI owns one, and an NI —
/// like every component — is ticked by exactly one shard of the kernel
/// (see sim/context.hpp), so no lock is ever needed. The arena starts empty
/// and grows geometrically to its high-water mark (lazily: single-path
/// policies never touch it); references are never held across `acquire`,
/// only slot indices, so growth is safe.
#pragma once

#include "noc/packet.hpp"
#include "sim/check.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace realm::noc {

class PacketArena {
public:
    using Slot = std::uint32_t;

    PacketArena() = default;
    /// Pre-sizes the slab (optional — the arena also grows on demand).
    explicit PacketArena(Slot capacity) { reserve(capacity); }

    /// Copies `pkt` into a free slot and returns its index.
    [[nodiscard]] Slot acquire(const NocPacket& pkt) {
        if (free_.empty()) { grow(); }
        const Slot slot = free_.back();
        free_.pop_back();
        slots_[slot] = pkt;
        return slot;
    }

    /// Returns the slot to the free list (the packet value stays until the
    /// slot is reused; callers move it out first when they need it).
    void release(Slot slot) {
        REALM_EXPECTS(slot < slots_.size(), "packet arena: slot out of range");
        free_.push_back(slot);
    }

    [[nodiscard]] NocPacket& operator[](Slot slot) { return slots_[slot]; }
    [[nodiscard]] const NocPacket& operator[](Slot slot) const {
        return slots_[slot];
    }

    /// Total slots in the slab (the high-water mark of acquisitions).
    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

    /// Grows the slab so at least `capacity` slots exist.
    void reserve(Slot capacity) {
        while (slots_.size() < capacity) { grow(); }
    }

private:
    void grow() {
        const std::size_t old = slots_.size();
        const std::size_t next = old == 0 ? 8 : old * 2;
        slots_.resize(next);
        for (std::size_t s = next; s > old; --s) {
            free_.push_back(static_cast<Slot>(s - 1));
        }
    }

    std::vector<NocPacket> slots_;
    std::vector<Slot> free_; ///< LIFO: reuse the hottest slot first
};

} // namespace realm::noc
