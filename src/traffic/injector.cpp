#include "traffic/injector.hpp"

#include "axi/builder.hpp"
#include "sim/check.hpp"

#include <algorithm>
#include <utility>

namespace realm::traffic {

InjectorParams decode_genome(const InjectorGenome& g) noexcept {
    const auto gene = [&](InjectorGenome::Gene i) {
        return static_cast<std::uint32_t>(g.genes[i]);
    };
    InjectorParams p;
    p.read_beats = 1 + gene(InjectorGenome::kReadBeats);
    p.write_beats = 1 + gene(InjectorGenome::kWriteBeats);
    p.write_ratio16 = gene(InjectorGenome::kWriteRatio) * 17 / 256;
    p.walk = static_cast<InjectorWalk>(gene(InjectorGenome::kWalk) % 3);
    p.stride_beats = 1U << (gene(InjectorGenome::kStride) % 9);
    p.on_cycles = 64U << (gene(InjectorGenome::kDutyOn) % 5);
    p.off_cycles = (gene(InjectorGenome::kDutyOff) % 8) * 64;
    p.w_stall_cycles = gene(InjectorGenome::kWStall) % 65;
    p.head_delay = (gene(InjectorGenome::kHeadDelay) % 4) * 32;
    p.max_outstanding = 1 + gene(InjectorGenome::kOutstanding) % 4;
    p.ramp_step = gene(InjectorGenome::kRamp) % 32;
    p.span_shift = gene(InjectorGenome::kSpanShift) % 4;
    return p;
}

std::string to_label(const InjectorGenome& g) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string label = "inj:";
    label.reserve(4 + 2 * InjectorGenome::kGenes);
    for (const std::uint8_t b : g.genes) {
        label.push_back(kHex[b >> 4]);
        label.push_back(kHex[b & 0xF]);
    }
    return label;
}

std::optional<InjectorGenome> parse_injector_label(std::string_view label) {
    constexpr std::string_view kPrefix = "inj:";
    if (label.size() != kPrefix.size() + 2 * InjectorGenome::kGenes ||
        label.substr(0, kPrefix.size()) != kPrefix) {
        return std::nullopt;
    }
    const auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') { return c - '0'; }
        if (c >= 'a' && c <= 'f') { return c - 'a' + 10; }
        return -1;
    };
    InjectorGenome g;
    for (std::size_t i = 0; i < InjectorGenome::kGenes; ++i) {
        const int hi = nibble(label[kPrefix.size() + 2 * i]);
        const int lo = nibble(label[kPrefix.size() + 2 * i + 1]);
        if (hi < 0 || lo < 0) { return std::nullopt; }
        g.genes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
    }
    return g;
}

InjectorEngine::InjectorEngine(sim::SimContext& ctx, std::string name,
                               axi::AxiChannel& port, InjectorConfig config)
    : Component{ctx, std::move(name)}, port_{port}, cfg_{config},
      params_{decode_genome(config.genome)}, rng_{config.seed},
      read_left_(params_.max_outstanding, 0),
      write_slot_(params_.max_outstanding, WSlot::kFree) {
    REALM_EXPECTS(cfg_.bus_bytes >= 1 && cfg_.bus_bytes <= axi::kMaxDataBytes,
                  "injector bus width out of range");
    REALM_EXPECTS(cfg_.span_bytes >= cfg_.bus_bytes,
                  "injector span must hold at least one beat");
    REALM_EXPECTS(cfg_.read_base % cfg_.bus_bytes == 0 &&
                      cfg_.write_base % cfg_.bus_bytes == 0 &&
                      cfg_.span_bytes % cfg_.bus_bytes == 0,
                  "injector spans must be bus-aligned");
    cur_read_beats_ = params_.read_beats;
    cur_write_beats_ = params_.write_beats;
    redraw_kind();
}

void InjectorEngine::redraw_kind() {
    next_is_write_ = rng_.chance(params_.write_ratio16, 16);
}

bool InjectorEngine::duty_on() const noexcept {
    if (params_.off_cycles == 0 || start_cycle_ == sim::kNoCycle) { return true; }
    const sim::Cycle period = params_.on_cycles + params_.off_cycles;
    return (now() - start_cycle_) % period < params_.on_cycles;
}

axi::Addr InjectorEngine::next_addr(bool write, std::uint32_t& beats) {
    const std::uint64_t bus = cfg_.bus_bytes;
    std::uint64_t window = cfg_.span_bytes >> params_.span_shift;
    window -= window % bus;
    if (window < bus) { window = bus; }
    const std::uint64_t slots = window / bus;

    std::uint64_t& offset = write ? write_offset_ : read_offset_;
    if (offset >= window) { offset %= window; }
    const axi::Addr base = write ? cfg_.write_base : cfg_.read_base;
    const axi::Addr addr = base + offset;

    // Legality clamps: stay inside the window and never cross a 4 KiB
    // boundary (AXI4 burst rule, enforced by AxiChecker).
    const std::uint64_t window_room = (window - offset) / bus;
    const std::uint64_t page_room = (4096 - (addr & 4095)) / bus;
    beats = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        beats, std::min(window_room, page_room)));
    if (beats == 0) { beats = 1; }

    // Advance the walk for the next burst.
    switch (params_.walk) {
    case InjectorWalk::kStrided:
        offset = (offset + std::uint64_t{params_.stride_beats} * bus) % window;
        break;
    case InjectorWalk::kChase: {
        // Deterministic pseudo-chase: an odd-increment LCG over the beat
        // slots — dependent-looking hops without a stored permutation.
        const std::uint64_t idx = offset / bus;
        offset = ((idx * 5 + (params_.stride_beats | 1)) % slots) * bus;
        break;
    }
    case InjectorWalk::kRandom:
        offset = rng_.uniform(0, slots - 1) * bus;
        break;
    }
    return addr;
}

void InjectorEngine::collect_r() {
    if (!port_.has_r()) { return; }
    const axi::RFlit r = port_.recv_r();
    REALM_ENSURES(r.id < read_left_.size(), name() + ": R beat with foreign ID");
    std::uint32_t& left = read_left_[r.id];
    REALM_ENSURES(left > 0, name() + ": R beat for idle read slot");
    --left;
    bytes_read_ += cfg_.bus_bytes;
    REALM_ENSURES(r.last == (left == 0), name() + ": RLAST out of place");
}

void InjectorEngine::collect_b() {
    if (!port_.has_b()) { return; }
    const axi::BFlit b = port_.recv_b();
    REALM_ENSURES(b.id < write_slot_.size(), name() + ": B with foreign ID");
    REALM_ENSURES(write_slot_[b.id] == WSlot::kAwaitB,
                  name() + ": B for slot not awaiting it");
    write_slot_[b.id] = WSlot::kFree;
}

void InjectorEngine::stream_w() {
    if (w_queue_.empty() || !port_.can_send_w()) { return; }
    PendingWrite& pw = w_queue_.front();
    if (now() < pw.first_w_at || now() < next_w_at_) { return; }

    axi::WFlit w;
    // Synthesized payload: a cheap per-beat pattern (the fabric never
    // inspects interference data; determinism is what matters).
    const std::uint64_t stamp = bytes_written_ ^ cfg_.seed;
    for (std::uint32_t i = 0; i < cfg_.bus_bytes; ++i) {
        w.data.bytes[i] = static_cast<std::uint8_t>(stamp + i);
    }
    ++pw.sent;
    w.last = pw.sent == pw.beats;
    port_.send_w(w);
    bytes_written_ += cfg_.bus_bytes;
    next_w_at_ = now() + 1 + params_.w_stall_cycles;
    if (w.last) {
        write_slot_[pw.id] = WSlot::kAwaitB;
        w_queue_.pop_front();
    }
}

void InjectorEngine::issue() {
    if (!duty_on()) { return; }
    if (next_is_write_) {
        if (!port_.can_send_aw()) { return; }
        const auto it = std::find(write_slot_.begin(), write_slot_.end(), WSlot::kFree);
        if (it == write_slot_.end()) { return; }
        const auto id = static_cast<std::uint32_t>(it - write_slot_.begin());
        std::uint32_t beats = cur_write_beats_;
        const axi::Addr addr = next_addr(true, beats);
        port_.send_aw(axi::make_aw(id, addr, beats, axi::size_of_bus(cfg_.bus_bytes), now()));
        *it = WSlot::kStreaming;
        w_queue_.push_back({id, beats, 0, now() + params_.head_delay});
        ++writes_issued_;
        cur_write_beats_ =
            1 + (cur_write_beats_ - 1 + params_.ramp_step) % axi::kMaxBurstBeats;
    } else {
        if (!port_.can_send_ar()) { return; }
        const auto it = std::find(read_left_.begin(), read_left_.end(), 0U);
        if (it == read_left_.end()) { return; }
        const auto id = static_cast<std::uint32_t>(it - read_left_.begin());
        std::uint32_t beats = cur_read_beats_;
        const axi::Addr addr = next_addr(false, beats);
        port_.send_ar(axi::make_ar(id, addr, beats, axi::size_of_bus(cfg_.bus_bytes), now()));
        *it = beats;
        ++reads_issued_;
        cur_read_beats_ =
            1 + (cur_read_beats_ - 1 + params_.ramp_step) % axi::kMaxBurstBeats;
    }
    redraw_kind();
}

void InjectorEngine::tick() {
    if (start_cycle_ == sim::kNoCycle) { start_cycle_ = now(); }
    collect_r();
    collect_b();
    stream_w();
    issue();

    // Off-phase with nothing in flight: sleep until the next on-phase (the
    // activity kernel then fast-forwards the quiet stretch). Conservative:
    // any response or W beat still owed keeps the engine ticking.
    if (!duty_on() && w_queue_.empty() &&
        std::all_of(read_left_.begin(), read_left_.end(),
                    [](std::uint32_t n) { return n == 0; }) &&
        std::all_of(write_slot_.begin(), write_slot_.end(),
                    [](WSlot s) { return s == WSlot::kFree; })) {
        const sim::Cycle period = params_.on_cycles + params_.off_cycles;
        const sim::Cycle pos = (now() - start_cycle_) % period;
        idle_until(now() + (period - pos));
    }
}

} // namespace realm::traffic
