#include "mem/axi_mem_slave.hpp"

#include "axi/burst.hpp"
#include "sim/check.hpp"

#include <algorithm>
#include <span>
#include <utility>

namespace realm::mem {

AxiMemSlave::AxiMemSlave(sim::SimContext& ctx, std::string name, axi::AxiChannel& channel,
                         std::unique_ptr<MemoryBackend> backend, AxiMemSlaveConfig config)
    : Component{ctx, std::move(name)},
      port_{channel},
      backend_{std::move(backend)},
      config_{config} {
    REALM_EXPECTS(backend_ != nullptr, "AxiMemSlave needs a backend");
    REALM_EXPECTS(config_.max_outstanding_reads >= 1 && config_.max_outstanding_writes >= 1,
                  "outstanding limits must be at least 1");
    channel.wake_subordinate_on_request(*this);
}

void AxiMemSlave::accept_requests() {
    if (port_.has_ar() && read_jobs_.size() < config_.max_outstanding_reads) {
        ReadJob job;
        job.ar = port_.recv_ar();
        job.ready_at =
            now() + backend_->access_latency(job.ar.addr - config_.base, job.ar.beats(),
                                             /*is_write=*/false, now());
        read_jobs_.push_back(job);
    }
    if (port_.has_aw() && write_jobs_.size() < config_.max_outstanding_writes) {
        WriteJob job;
        job.aw = port_.recv_aw();
        write_jobs_.push_back(job);
    }
}

void AxiMemSlave::serve_reads() {
    if (read_jobs_.empty()) { return; }
    ReadJob& job = read_jobs_.front();
    if (now() < job.ready_at || !port_.can_send_r()) { return; }

    const axi::BurstDescriptor desc = job.ar.descriptor();
    axi::RFlit beat;
    beat.id = job.ar.id;
    const axi::Addr addr = axi::beat_address(desc, job.next_beat) - config_.base;
    backend_->read(addr, std::span{beat.data.bytes.data(), desc.beat_bytes()});
    beat.last = job.next_beat + 1 == desc.beats();
    beat.resp = axi::Resp::kOkay;
    port_.send_r(beat);
    ++job.next_beat;
    if (beat.last) {
        ++reads_served_;
        read_jobs_.pop_front();
    }
}

void AxiMemSlave::serve_writes() {
    // Apply at most one W beat per cycle to the oldest data-incomplete job.
    for (auto& job : write_jobs_) {
        if (job.data_complete) { continue; }
        if (!port_.has_w()) { break; }
        const axi::BurstDescriptor desc = job.aw.descriptor();
        axi::WFlit beat = port_.recv_w();
        const axi::Addr addr = axi::beat_address(desc, job.beats_seen) - config_.base;
        backend_->write(addr, std::span{beat.data.bytes.data(), desc.beat_bytes()}, beat.strb);
        ++job.beats_seen;
        if (job.beats_seen == desc.beats()) {
            REALM_ENSURES(beat.last, name() + ": W burst longer than AWLEN");
            job.data_complete = true;
            job.resp_ready_at = now() + backend_->access_latency(job.aw.addr - config_.base,
                                                                 desc.beats(),
                                                                 /*is_write=*/true, now());
        } else {
            REALM_ENSURES(!beat.last, name() + ": premature WLAST");
        }
        break;
    }
    // Responses complete in acceptance order.
    if (!write_jobs_.empty()) {
        WriteJob& job = write_jobs_.front();
        if (job.data_complete && now() >= job.resp_ready_at && port_.can_send_b()) {
            axi::BFlit resp;
            resp.id = job.aw.id;
            resp.resp = axi::Resp::kOkay;
            port_.send_b(resp);
            ++writes_served_;
            write_jobs_.pop_front();
        }
    }
}

void AxiMemSlave::tick() {
    accept_requests();
    serve_reads();
    serve_writes();
    update_activity();
}

void AxiMemSlave::update_activity() {
    // Buffered request flits always demand evaluation (acceptance happens
    // the cycle they become poppable).
    if (!port_.channel().requests_empty()) { return; }
    sim::Cycle next = sim::kNoCycle;
    if (!read_jobs_.empty()) {
        const ReadJob& job = read_jobs_.front();
        // Ready to stream (or backpressured on R): stay awake.
        if (now() >= job.ready_at) { return; }
        next = std::min(next, job.ready_at);
    }
    if (!write_jobs_.empty()) {
        const WriteJob& job = write_jobs_.front();
        if (job.data_complete) {
            if (now() >= job.resp_ready_at) { return; }
            next = std::min(next, job.resp_ready_at);
        }
        // Data-incomplete jobs progress only on W beats; the W link push
        // wakes us.
    }
    idle_until(next);
}

} // namespace realm::mem
