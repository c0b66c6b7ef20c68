#include "traffic/dma.hpp"

#include "axi/builder.hpp"
#include "sim/check.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace realm::traffic {

DmaEngine::DmaEngine(sim::SimContext& ctx, std::string name, axi::AxiChannel& port,
                     DmaConfig config)
    : Component{ctx, std::move(name)}, port_{port}, cfg_{config}, slots_(config.num_buffers) {
    REALM_EXPECTS(cfg_.burst_beats >= 1 && cfg_.burst_beats <= axi::kMaxBurstBeats,
                  "DMA burst length out of [1,256]");
    REALM_EXPECTS(cfg_.num_buffers >= 1, "DMA needs at least one buffer");
    for (Slot& s : slots_) {
        s.data.resize(std::size_t{cfg_.burst_beats} * cfg_.bus_bytes);
    }
}

void DmaEngine::push_job(const DmaJob& job) {
    REALM_EXPECTS(job.bytes > 0, "DMA job must move at least one byte");
    REALM_EXPECTS(job.bytes % cfg_.bus_bytes == 0, "DMA job must be bus-aligned in size");
    jobs_.push_back(job);
    wake(); // the engine may have declared itself idle with an empty queue
}

std::uint32_t DmaEngine::reads_in_flight() const noexcept {
    std::uint32_t n = 0;
    for (const Slot& s : slots_) { n += s.state == SlotState::kReading ? 1 : 0; }
    return n;
}

std::uint32_t DmaEngine::writes_in_flight() const noexcept {
    std::uint32_t n = 0;
    for (const Slot& s : slots_) {
        n += (s.state == SlotState::kWriting || s.state == SlotState::kAwaitB) ? 1 : 0;
    }
    return n;
}

bool DmaEngine::idle() const noexcept {
    if (!jobs_.empty()) { return false; }
    return std::all_of(slots_.begin(), slots_.end(),
                       [](const Slot& s) { return s.state == SlotState::kFree; });
}

void DmaEngine::issue_reads() {
    if (jobs_.empty() || reads_in_flight() >= cfg_.max_outstanding_reads ||
        !port_.can_send_ar()) {
        return;
    }
    // Find a free slot.
    auto it = std::find_if(slots_.begin(), slots_.end(),
                           [](const Slot& s) { return s.state == SlotState::kFree; });
    if (it == slots_.end()) { return; }
    const auto slot_idx = static_cast<std::uint32_t>(it - slots_.begin());
    DmaJob& job = jobs_.front();

    const std::uint64_t chunk_bytes =
        std::min<std::uint64_t>(std::uint64_t{cfg_.burst_beats} * cfg_.bus_bytes,
                                job.bytes - job_offset_);
    const auto beats = static_cast<std::uint32_t>(chunk_bytes / cfg_.bus_bytes);

    Slot& slot = *it;
    slot.state = SlotState::kReading;
    slot.src = job.src + job_offset_;
    slot.dst = job.dst + job_offset_;
    slot.beats = beats;
    slot.beats_read = 0;
    slot.beats_written = 0;
    slot.aw_sent = false;
    slot.read_issued_at = now();
    if (first_activity_ == sim::kNoCycle) { first_activity_ = now(); }

    port_.send_ar(
        axi::make_ar(slot_idx, slot.src, beats, axi::size_of_bus(cfg_.bus_bytes), now()));

    if (cfg_.reserve_before_data && port_.can_send_aw()) {
        // Malicious/cut-through mode: claim write bandwidth before the data
        // exists. With `w_stall_cycles` this starves the interconnect.
        port_.send_aw(
            axi::make_aw(slot_idx, slot.dst, beats, axi::size_of_bus(cfg_.bus_bytes), now()));
        slot.aw_sent = true;
        slot.write_issued_at = now();
        write_order_.push_back(slot_idx);
    }

    job_offset_ += chunk_bytes;
    if (job_offset_ >= job.bytes) {
        job_offset_ = 0;
        if (!job.loop || stop_requested_) { jobs_.pop_front(); }
    }
}

void DmaEngine::collect_reads() {
    if (!port_.has_r()) { return; }
    const axi::RFlit r = port_.recv_r();
    REALM_ENSURES(r.id < slots_.size(), name() + ": R beat with foreign ID");
    Slot& slot = slots_[r.id];
    REALM_ENSURES(slot.state == SlotState::kReading, name() + ": R beat for idle slot");
    std::memcpy(slot.data.data() + std::size_t{slot.beats_read} * cfg_.bus_bytes,
                r.data.bytes.data(), cfg_.bus_bytes);
    ++slot.beats_read;
    bytes_read_ += cfg_.bus_bytes;
    if (r.last) {
        REALM_ENSURES(slot.beats_read == slot.beats, name() + ": short read burst");
        read_lat_.record(now() - slot.read_issued_at);
        slot.state = slot.aw_sent ? SlotState::kWriting : SlotState::kFull;
    }
}

void DmaEngine::issue_writes() {
    if (cfg_.reserve_before_data) { return; } // AW already went with the AR
    if (writes_in_flight() >= cfg_.max_outstanding_writes || !port_.can_send_aw()) { return; }
    auto it = std::find_if(slots_.begin(), slots_.end(),
                           [](const Slot& s) { return s.state == SlotState::kFull; });
    if (it == slots_.end()) { return; }
    const auto slot_idx = static_cast<std::uint32_t>(it - slots_.begin());
    Slot& slot = *it;
    port_.send_aw(
        axi::make_aw(slot_idx, slot.dst, slot.beats, axi::size_of_bus(cfg_.bus_bytes), now()));
    slot.aw_sent = true;
    slot.write_issued_at = now();
    slot.state = SlotState::kWriting;
    slot.next_w_at = now() + 1;
    write_order_.push_back(slot_idx);
}

void DmaEngine::stream_w_beats() {
    if (write_order_.empty() || !port_.can_send_w()) { return; }
    Slot& slot = slots_[write_order_.front()];
    const bool cut_through = slot.aw_sent && slot.state == SlotState::kReading;
    if (slot.state != SlotState::kWriting && !cut_through) { return; }
    if (slot.beats_written >= slot.beats_read) { return; } // cut-through: data lag
    if (now() < slot.next_w_at) { return; }                // stalling behaviour

    axi::WFlit w;
    std::memcpy(w.data.bytes.data(),
                slot.data.data() + std::size_t{slot.beats_written} * cfg_.bus_bytes,
                cfg_.bus_bytes);
    ++slot.beats_written;
    w.last = slot.beats_written == slot.beats;
    port_.send_w(w);
    bytes_written_ += cfg_.bus_bytes;
    slot.next_w_at = now() + 1 + cfg_.w_stall_cycles;
    if (w.last) {
        slot.state = SlotState::kAwaitB;
        write_order_.pop_front(); // next burst's W may start immediately
    }
}

void DmaEngine::collect_b() {
    if (!port_.has_b()) { return; }
    const axi::BFlit b = port_.recv_b();
    REALM_ENSURES(b.id < slots_.size(), name() + ": B with foreign ID");
    Slot& slot = slots_[b.id];
    REALM_ENSURES(slot.state == SlotState::kAwaitB, name() + ": B for slot not awaiting it");
    write_lat_.record(now() - slot.write_issued_at);
    slot.state = SlotState::kFree;
    slot.aw_sent = false;
    ++chunks_done_;
}

double DmaEngine::bandwidth() const noexcept {
    if (first_activity_ == sim::kNoCycle || now() <= first_activity_) { return 0.0; }
    return static_cast<double>(bytes_read_ + bytes_written_) /
           static_cast<double>(now() - first_activity_);
}

void DmaEngine::tick() {
    collect_reads();
    collect_b();
    stream_w_beats();
    issue_writes();
    issue_reads();
    // No queued jobs and no chunk in flight: no response can arrive and
    // nothing can be issued until push_job() wakes us.
    if (idle()) { idle_forever(); }
}

} // namespace realm::traffic
