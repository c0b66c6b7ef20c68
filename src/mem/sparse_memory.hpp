/// \file
/// \brief Sparse byte-addressable backing store (zero-initialized pages).
#pragma once

#include "axi/types.hpp"

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>

namespace realm::mem {

/// A 64-bit byte-addressable memory image backed by 4 KiB pages allocated
/// on first touch. Reads of untouched pages return zeros without allocating.
///
/// Accesses work a page at a time: a span costs one page lookup per page it
/// touches, not one per byte. A write copies each page chunk whole when
/// every strobe bit covering it is set, masks byte by byte when only some
/// are, and leaves a chunk whose bits are all clear alone, allocating no
/// page for it. Memory preconditioning writes each region in one call, and
/// the AXI memory subordinate writes one W beat per call.
class SparseMemory {
public:
    static constexpr std::size_t kPageBytes = 4096;

    /// Copies `out.size()` bytes starting at `addr` into `out`.
    void read(axi::Addr addr, std::span<std::uint8_t> out) const;

    /// Writes `in` starting at `addr`. `strb` bit `i % 64` qualifies byte i
    /// of `in`, so the mask repeats every 64 bytes of a longer span.
    void write(axi::Addr addr, std::span<const std::uint8_t> in, axi::Strb strb = ~axi::Strb{0});

    /// Convenience scalar accessors (little-endian).
    [[nodiscard]] std::uint64_t read_u64(axi::Addr addr) const;
    void write_u64(axi::Addr addr, std::uint64_t value);
    [[nodiscard]] std::uint8_t read_u8(axi::Addr addr) const;

    /// Number of pages currently allocated (introspection).
    [[nodiscard]] std::size_t page_count() const noexcept { return pages_.size(); }

private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    [[nodiscard]] const Page* find_page(axi::Addr page_index) const noexcept;
    Page& touch_page(axi::Addr page_index);

    std::unordered_map<axi::Addr, Page> pages_;
};

} // namespace realm::mem
