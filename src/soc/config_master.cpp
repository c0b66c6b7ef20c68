#include "soc/config_master.hpp"

#include "axi/builder.hpp"

#include <cstring>
#include <utility>

namespace realm::soc {

ConfigMaster::ConfigMaster(sim::SimContext& ctx, std::string name, axi::AxiChannel& port,
                           axi::IdT tid)
    : Component{ctx, std::move(name)}, port_{port}, tid_{tid} {}

void ConfigMaster::tick() {
    switch (phase_) {
    case Phase::kIdle: {
        if (script_.empty()) {
            idle_forever(); // woken by push()
            return;
        }
        current_ = script_.front();
        if (current_.write) {
            if (!port_.can_send_aw()) { return; }
            port_.send_aw(axi::make_aw(tid_, current_.addr, 1, /*size=*/3, now()));
            script_.pop_front();
            in_flight_ = true;
            phase_ = Phase::kAwaitW;
        } else {
            if (!port_.can_send_ar()) { return; }
            port_.send_ar(axi::make_ar(tid_, current_.addr, 1, /*size=*/3, now()));
            script_.pop_front();
            in_flight_ = true;
            phase_ = Phase::kAwaitR;
        }
        return;
    }
    case Phase::kAwaitW: {
        if (!port_.can_send_w()) { return; }
        axi::WFlit w;
        // Registers are 32-bit on the 64-bit bus; replicate into both lanes
        // so the addressed lane always carries the value.
        std::memcpy(w.data.bytes.data(), &current_.wdata, sizeof current_.wdata);
        std::memcpy(w.data.bytes.data() + 4, &current_.wdata, sizeof current_.wdata);
        w.last = true;
        port_.send_w(w);
        phase_ = Phase::kAwaitB;
        return;
    }
    case Phase::kAwaitB: {
        if (!port_.has_b()) { return; }
        const axi::BFlit b = port_.recv_b();
        ConfigResult res;
        res.op = current_;
        res.error = b.resp != axi::Resp::kOkay;
        if (res.error != current_.expect_error) { ++unexpected_; }
        results_.push_back(res);
        in_flight_ = false;
        phase_ = Phase::kIdle;
        return;
    }
    case Phase::kAwaitR: {
        if (!port_.has_r()) { return; }
        const axi::RFlit r = port_.recv_r();
        if (!r.last) { return; } // burst error responses: wait for the tail
        ConfigResult res;
        res.op = current_;
        res.error = r.resp != axi::Resp::kOkay;
        const std::size_t lane = static_cast<std::size_t>(current_.addr % 8) & 4U;
        std::memcpy(&res.rdata, r.data.bytes.data() + lane, sizeof res.rdata);
        if (res.error != current_.expect_error) { ++unexpected_; }
        results_.push_back(res);
        in_flight_ = false;
        phase_ = Phase::kIdle;
        return;
    }
    }
}

} // namespace realm::soc
