#include "axi/trace.hpp"

#include <ostream>
#include <utility>

namespace realm::axi {

AxiTracer::AxiTracer(sim::SimContext& ctx, std::string name, AxiChannel& upstream,
                     AxiChannel& downstream, std::size_t capacity)
    : Component{ctx, std::move(name)}, up_{upstream}, down_{downstream},
      capacity_{capacity} {
    records_.reserve(capacity_ < 4096 ? capacity_ : 4096);
    upstream.wake_subordinate_on_request(*this);
    downstream.wake_manager_on_response(*this);
}

void AxiTracer::record(TraceRecord r) {
    ++total_;
    if (records_.size() >= capacity_) {
        // Ring-buffer semantics without memmove: drop the oldest half once
        // full (keeps the tail, which is what post-mortem debugging wants).
        dropped_ += records_.size() / 2;
        records_.erase(records_.begin(),
                       records_.begin() + static_cast<std::ptrdiff_t>(records_.size() / 2));
    }
    records_.push_back(r);
}

void AxiTracer::tick() {
    if (up_.has_aw() && down_.can_send_aw()) {
        const AwFlit f = up_.recv_aw();
        record(TraceRecord{now(), TraceRecord::Channel::kAw, f.id, f.addr, f.len, false,
                           Resp::kOkay});
        down_.send_aw(f);
    }
    if (up_.has_w() && down_.can_send_w()) {
        const WFlit f = up_.recv_w();
        record(TraceRecord{now(), TraceRecord::Channel::kW, 0, 0, 0, f.last, Resp::kOkay});
        down_.send_w(f);
    }
    if (up_.has_ar() && down_.can_send_ar()) {
        const ArFlit f = up_.recv_ar();
        record(TraceRecord{now(), TraceRecord::Channel::kAr, f.id, f.addr, f.len, false,
                           Resp::kOkay});
        down_.send_ar(f);
    }
    if (down_.channel().b.can_pop() && up_.channel().b.can_push()) {
        const BFlit f = down_.channel().b.pop();
        record(TraceRecord{now(), TraceRecord::Channel::kB, f.id, 0, 0, false, f.resp});
        up_.channel().b.push(f);
    }
    if (down_.channel().r.can_pop() && up_.channel().r.can_push()) {
        const RFlit f = down_.channel().r.pop();
        record(TraceRecord{now(), TraceRecord::Channel::kR, f.id, 0, 0, f.last, f.resp});
        up_.channel().r.push(f);
    }
    update_activity();
}

void AxiTracer::update_activity() {
    // Conservative idle contract: only buffered flits create work, and the
    // push hooks wake us; a held flit (backpressure) forbids sleeping
    // because draining raises no wake.
    if (!up_.channel().requests_empty()) { return; }
    if (!down_.channel().responses_empty()) { return; }
    idle_forever();
}

void AxiTracer::write_csv(std::ostream& os) const {
    os << "cycle,channel,id,addr,len,last,resp\n";
    for (const TraceRecord& r : records_) {
        os << r.cycle << ',' << to_string(r.channel) << ',' << r.id << ',' << r.addr << ','
           << int{r.len} << ',' << (r.last ? 1 : 0) << ',' << to_string(r.resp) << '\n';
    }
}

} // namespace realm::axi
