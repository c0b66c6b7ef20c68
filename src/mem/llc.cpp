#include "mem/llc.hpp"

#include "axi/builder.hpp"
#include "axi/burst.hpp"
#include "sim/check.hpp"

#include <algorithm>
#include <cstring>

namespace realm::mem {

Llc::Llc(sim::SimContext& ctx, std::string name, axi::AxiChannel& upstream,
         axi::AxiChannel& downstream, LlcConfig config)
    : Component{ctx, std::move(name)},
      up_{upstream},
      down_{downstream},
      config_{config},
      tags_(std::size_t{config.sets} * config.ways),
      data_{std::make_unique_for_overwrite<std::uint8_t[]>(
          std::size_t{config.sets} * config.ways * config.line_bytes)} {
    REALM_EXPECTS(config_.line_bytes % config_.bus_bytes == 0,
                  "LLC line must be a whole number of bus beats");
    REALM_EXPECTS((config_.sets & (config_.sets - 1)) == 0, "LLC sets must be a power of two");
    upstream.wake_subordinate_on_request(*this);
    downstream.wake_manager_on_response(*this);
}

int Llc::find_way(std::uint32_t set, std::uint64_t tag) const noexcept {
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        const WayState& ws = tags_[std::size_t{set} * config_.ways + w];
        if (ws.valid && ws.tag == tag) { return static_cast<int>(w); }
    }
    return -1;
}

std::uint32_t Llc::victim_way(std::uint32_t set) const noexcept {
    std::uint32_t victim = 0;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        const WayState& ws = tags_[std::size_t{set} * config_.ways + w];
        if (!ws.valid) { return w; }
        if (ws.last_use < oldest) {
            oldest = ws.last_use;
            victim = w;
        }
    }
    return victim;
}

std::uint8_t* Llc::line_data(std::uint32_t set, std::uint32_t way) noexcept {
    return data_.get() + (std::size_t{set} * config_.ways + way) * config_.line_bytes;
}

bool Llc::contains(axi::Addr addr) const noexcept {
    const std::uint64_t line = line_index(addr);
    return find_way(set_of(line), tag_of(line)) >= 0;
}

void Llc::warm_range(axi::Addr base, std::uint64_t bytes, const SparseMemory& image) {
    if (bytes == 0) { return; } // an empty range covers no line
    const axi::Addr first_line = base / config_.line_bytes;
    const axi::Addr last_line = (base + bytes - 1) / config_.line_bytes;
    for (axi::Addr line = first_line; line <= last_line; ++line) {
        const std::uint32_t set = set_of(line);
        const std::uint64_t tag = tag_of(line);
        int way = find_way(set, tag);
        if (way < 0) {
            way = static_cast<int>(victim_way(set));
            WayState& ws =
                tags_[std::size_t{set} * config_.ways + static_cast<std::uint32_t>(way)];
            REALM_EXPECTS(!(ws.valid && ws.dirty),
                          "warm_range would evict a dirty line; warm a cold cache");
            ws.valid = true;
            ws.dirty = false;
            ws.tag = tag;
        }
        WayState& ws = tags_[std::size_t{set} * config_.ways + static_cast<std::uint32_t>(way)];
        ws.last_use = ++use_tick_;
        image.read(line * config_.line_bytes,
                   std::span{line_data(set, static_cast<std::uint32_t>(way)),
                             config_.line_bytes});
    }
}

void Llc::accept_requests() {
    if (up_.has_ar() && read_jobs_.size() < config_.max_outstanding) {
        ReadJob job;
        job.ar = up_.recv_ar();
        job.accepted_at = now();
        read_jobs_.push_back(job);
    }
    if (up_.has_aw() && write_jobs_.size() < config_.max_outstanding) {
        WriteJob job;
        job.aw = up_.recv_aw();
        job.accepted_at = now();
        write_jobs_.push_back(job);
    }
}

bool Llc::start_miss(axi::Addr addr) {
    if (miss_state_ != MissState::kIdle) { return false; }
    ++misses_;
    miss_line_ = line_index(addr);
    miss_set_ = set_of(miss_line_);
    miss_way_ = victim_way(miss_set_);
    const WayState& victim = tags_[std::size_t{miss_set_} * config_.ways + miss_way_];
    if (victim.valid && victim.dirty) {
        wb_addr_ = (victim.tag * config_.sets + miss_set_) * config_.line_bytes;
        wb_beats_sent_ = 0;
        miss_state_ = MissState::kWbAw;
    } else {
        miss_state_ = MissState::kRefillAr;
    }
    return true;
}

void Llc::advance_miss_engine() {
    switch (miss_state_) {
    case MissState::kIdle: return;
    case MissState::kWbAw: {
        if (!down_.can_send_aw()) { return; }
        down_.send_aw(axi::make_aw(/*id=*/0, wb_addr_, config_.line_beats(),
                                   axi::size_of_bus(config_.bus_bytes), now()));
        miss_state_ = MissState::kWbW;
        return;
    }
    case MissState::kWbW: {
        if (!down_.can_send_w()) { return; }
        axi::WFlit w;
        std::memcpy(w.data.bytes.data(),
                    line_data(miss_set_, miss_way_) +
                        std::size_t{wb_beats_sent_} * config_.bus_bytes,
                    config_.bus_bytes);
        ++wb_beats_sent_;
        w.last = wb_beats_sent_ == config_.line_beats();
        down_.send_w(w);
        if (w.last) {
            ++writebacks_;
            miss_state_ = MissState::kWbB;
        }
        return;
    }
    case MissState::kWbB: {
        if (!down_.has_b()) { return; }
        down_.recv_b();
        miss_state_ = MissState::kRefillAr;
        return;
    }
    case MissState::kRefillAr: {
        if (!down_.can_send_ar()) { return; }
        down_.send_ar(axi::make_ar(/*id=*/0, miss_line_ * config_.line_bytes,
                                   config_.line_beats(), axi::size_of_bus(config_.bus_bytes),
                                   now()));
        refill_beats_seen_ = 0;
        miss_state_ = MissState::kRefillR;
        return;
    }
    case MissState::kRefillR: {
        if (!down_.has_r()) { return; }
        const axi::RFlit r = down_.recv_r();
        std::memcpy(line_data(miss_set_, miss_way_) +
                        std::size_t{refill_beats_seen_} * config_.bus_bytes,
                    r.data.bytes.data(), config_.bus_bytes);
        ++refill_beats_seen_;
        if (r.last) {
            REALM_ENSURES(refill_beats_seen_ == config_.line_beats(),
                          name() + ": refill burst length mismatch");
            WayState& ws = tags_[std::size_t{miss_set_} * config_.ways + miss_way_];
            ws.valid = true;
            ws.dirty = false;
            ws.tag = tag_of(miss_line_);
            ws.last_use = ++use_tick_;
            miss_state_ = MissState::kIdle;
        }
        return;
    }
    }
}

void Llc::serve_read() {
    if (read_jobs_.empty()) { return; }
    ReadJob& job = read_jobs_.front();
    if (job.first_beat_at == sim::kNoCycle) {
        // Initiate the request: descriptor processing is rate-limited, then
        // the hit pipeline delivers the first beat; the R stream is a single
        // port shared across bursts.
        const sim::Cycle init = std::max(job.accepted_at, next_init_at_);
        next_init_at_ = init + config_.request_interval;
        job.first_beat_at = std::max(init + config_.hit_latency, read_stream_free_at_);
    }
    if (now() < job.first_beat_at || !up_.can_send_r()) { return; }

    const axi::BurstDescriptor desc = job.ar.descriptor();
    const axi::Addr addr = axi::beat_address(desc, job.next_beat);
    const std::uint64_t line = line_index(addr);
    const std::uint32_t set = set_of(line);
    const int way = find_way(set, tag_of(line));
    if (way < 0) {
        start_miss(addr); // retry this beat once the line is resident
        return;
    }
    ++hits_;
    WayState& ws = tags_[std::size_t{set} * config_.ways + static_cast<std::uint32_t>(way)];
    ws.last_use = ++use_tick_;

    axi::RFlit beat;
    beat.id = job.ar.id;
    beat.resp = axi::Resp::kOkay;
    const std::size_t offset = static_cast<std::size_t>(addr % config_.line_bytes);
    std::memcpy(beat.data.bytes.data(),
                line_data(set, static_cast<std::uint32_t>(way)) + offset, desc.beat_bytes());
    beat.last = job.next_beat + 1 == desc.beats();
    up_.send_r(beat);
    read_stream_free_at_ = now() + 1;
    ++job.next_beat;
    if (beat.last) {
        ++reads_served_;
        read_jobs_.pop_front();
    }
}

void Llc::serve_write() {
    if (write_jobs_.empty()) { return; }
    WriteJob& job = write_jobs_.front();
    if (job.ready_at == sim::kNoCycle) {
        const sim::Cycle init = std::max(job.accepted_at, next_init_at_);
        next_init_at_ = init + config_.request_interval;
        job.ready_at = init + config_.hit_latency;
    }
    if (now() < job.ready_at || !up_.has_w()) { return; }
    const axi::BurstDescriptor desc = job.aw.descriptor();
    const axi::Addr addr = axi::beat_address(desc, job.beats_seen);
    const std::uint64_t line = line_index(addr);
    const std::uint32_t set = set_of(line);
    const int way = find_way(set, tag_of(line));
    if (way < 0) {
        start_miss(addr); // write-allocate: fetch, then apply the beat
        return;
    }
    ++hits_;
    WayState& ws = tags_[std::size_t{set} * config_.ways + static_cast<std::uint32_t>(way)];
    const axi::WFlit beat = up_.recv_w();
    const std::size_t offset = static_cast<std::size_t>(addr % config_.line_bytes);
    std::uint8_t* dst = line_data(set, static_cast<std::uint32_t>(way)) + offset;
    for (std::uint32_t i = 0; i < desc.beat_bytes(); ++i) {
        if ((beat.strb >> (i % 64U)) & 1U) { dst[i] = beat.data.bytes[i]; }
    }
    ws.dirty = true;
    ws.last_use = ++use_tick_;
    ++job.beats_seen;
    if (job.beats_seen == desc.beats()) {
        REALM_ENSURES(beat.last, name() + ": W burst longer than AWLEN");
        b_queue_.push_back(PendingB{job.aw.id, now() + config_.hit_latency});
        write_jobs_.pop_front();
    } else {
        REALM_ENSURES(!beat.last, name() + ": premature WLAST");
    }
}

void Llc::send_b() {
    if (b_queue_.empty() || !up_.can_send_b()) { return; }
    const PendingB& pb = b_queue_.front();
    if (now() < pb.ready_at) { return; }
    axi::BFlit b;
    b.id = pb.id;
    b.resp = axi::Resp::kOkay;
    up_.send_b(b);
    b_queue_.pop_front();
    ++writes_served_;
}

void Llc::tick() {
    accept_requests();
    advance_miss_engine();
    if (miss_state_ == MissState::kIdle) {
        serve_read();
        serve_write();
    }
    send_b();
    update_activity();
}

void Llc::update_activity() {
    // Request flits upstream or response flits from DRAM demand evaluation,
    // and the miss engine holds output toward DRAM while mid-flight.
    if (!up_.channel().requests_empty() || !down_.channel().responses_empty() ||
        miss_state_ != MissState::kIdle) {
        return;
    }
    sim::Cycle next = sim::kNoCycle;
    if (!read_jobs_.empty()) {
        const ReadJob& job = read_jobs_.front();
        // Not yet initiated, streaming, or backpressured on R: stay awake.
        if (job.first_beat_at == sim::kNoCycle || now() >= job.first_beat_at) { return; }
        next = std::min(next, job.first_beat_at);
    }
    if (!write_jobs_.empty()) {
        const WriteJob& job = write_jobs_.front();
        if (job.ready_at == sim::kNoCycle) { return; } // initiation pending
        // Once ready, progress needs a W beat; the W link push wakes us.
        if (now() < job.ready_at) { next = std::min(next, job.ready_at); }
    }
    if (!b_queue_.empty()) {
        const PendingB& pb = b_queue_.front();
        if (now() >= pb.ready_at) { return; } // sendable (or backpressured on B)
        next = std::min(next, pb.ready_at);
    }
    idle_until(next);
}

} // namespace realm::mem
