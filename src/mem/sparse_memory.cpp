#include "mem/sparse_memory.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace realm::mem {

const SparseMemory::Page* SparseMemory::find_page(axi::Addr page_index) const noexcept {
    const auto it = pages_.find(page_index);
    return it == pages_.end() ? nullptr : &it->second;
}

SparseMemory::Page& SparseMemory::touch_page(axi::Addr page_index) {
    return pages_[page_index]; // value-initialized (zeroed) on first touch
}

void SparseMemory::read(axi::Addr addr, std::span<std::uint8_t> out) const {
    std::size_t done = 0;
    while (done < out.size()) {
        const axi::Addr cur = addr + done;
        const axi::Addr page_index = cur / kPageBytes;
        const std::size_t offset = static_cast<std::size_t>(cur % kPageBytes);
        const std::size_t chunk = std::min(out.size() - done, kPageBytes - offset);
        if (const Page* page = find_page(page_index)) {
            std::memcpy(out.data() + done, page->data() + offset, chunk);
        } else {
            std::memset(out.data() + done, 0, chunk);
        }
        done += chunk;
    }
}

void SparseMemory::write(axi::Addr addr, std::span<const std::uint8_t> in, axi::Strb strb) {
    std::size_t done = 0;
    while (done < in.size()) {
        const axi::Addr cur = addr + done;
        const std::size_t offset = static_cast<std::size_t>(cur % kPageBytes);
        const std::size_t chunk = std::min(in.size() - done, kPageBytes - offset);
        // Bit j % 64 of `lanes` qualifies chunk byte j (input byte done + j);
        // `window` holds the bits the chunk uses, all 64 from 64 bytes up.
        const axi::Strb lanes = std::rotr(strb, static_cast<int>(done % 64));
        const axi::Strb window = chunk >= 64 ? ~axi::Strb{0} : (axi::Strb{1} << chunk) - 1;
        if ((lanes & window) == window) {
            std::memcpy(touch_page(cur / kPageBytes).data() + offset, in.data() + done, chunk);
        } else if ((lanes & window) != 0) {
            Page& page = touch_page(cur / kPageBytes);
            for (std::size_t j = 0; j < chunk; ++j) {
                if ((lanes >> (j % 64U)) & 1U) { page[offset + j] = in[done + j]; }
            }
        }
        done += chunk;
    }
}

std::uint64_t SparseMemory::read_u64(axi::Addr addr) const {
    std::array<std::uint8_t, 8> buf{};
    read(addr, buf);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) { v |= std::uint64_t{buf[i]} << (8 * i); }
    return v;
}

void SparseMemory::write_u64(axi::Addr addr, std::uint64_t value) {
    std::array<std::uint8_t, 8> buf{};
    for (std::size_t i = 0; i < 8; ++i) { buf[i] = static_cast<std::uint8_t>(value >> (8 * i)); }
    write(addr, buf);
}

std::uint8_t SparseMemory::read_u8(axi::Addr addr) const {
    std::uint8_t v = 0;
    read(addr, std::span{&v, 1});
    return v;
}

} // namespace realm::mem
