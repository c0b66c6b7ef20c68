#include "realm/realm_unit.hpp"

#include "sim/check.hpp"

#include <utility>

namespace realm::rt {

std::unique_ptr<axi::AxiChannel> make_downstream_channel(const sim::SimContext& ctx,
                                                         std::string name) {
    return std::make_unique<axi::AxiChannel>(ctx, std::move(name), 2,
                                             /*resp_passthrough=*/true);
}

RealmUnit::RealmUnit(sim::SimContext& ctx, std::string name, axi::AxiChannel& upstream,
                     axi::AxiChannel& downstream, RealmUnitConfig config)
    : Component{ctx, std::move(name)},
      up_{upstream},
      down_{downstream},
      cfg_{config},
      splitter_{config.fragment_beats, config.max_pending},
      wbuf_{config.write_buffer_depth, config.write_buffer_enabled},
      mr_{config.num_regions} {
    mr_.set_throttle_enabled(config.throttle_enabled);
    upstream.wake_subordinate_on_request(*this);
    downstream.wake_manager_on_response(*this);
}

RealmState RealmUnit::state() const noexcept {
    if (!cfg_.enabled) { return RealmState::kBypass; }
    if (iso_.cause_active(IsolationCause::kUser)) {
        return iso_.outstanding() > 0 ? RealmState::kDraining : RealmState::kIsolatedUser;
    }
    if (iso_.cause_active(IsolationCause::kReconfig)) { return RealmState::kDraining; }
    if (iso_.cause_active(IsolationCause::kBudget)) { return RealmState::kIsolatedBudget; }
    return RealmState::kReady;
}

bool RealmUnit::set_fragmentation(std::uint32_t beats) {
    REALM_EXPECTS(beats >= 1 && beats <= axi::kMaxBurstBeats,
                  "fragmentation out of [1,256]");
    wake();
    if (iso_.outstanding() == 0 && wbuf_.empty()) {
        splitter_.set_granularity(beats);
        cfg_.fragment_beats = beats;
        return true;
    }
    // Intrusive while busy: isolate, drain, then apply (paper Section III-A).
    pending_fragmentation_ = beats;
    iso_.raise(IsolationCause::kReconfig);
    return false;
}

bool RealmUnit::set_enabled(bool enabled) {
    wake();
    if (enabled == cfg_.enabled) { return true; }
    if (iso_.outstanding() == 0 && wbuf_.empty()) {
        cfg_.enabled = enabled;
        return true;
    }
    pending_enabled_ = enabled;
    iso_.raise(IsolationCause::kReconfig);
    return false;
}

void RealmUnit::set_region(std::uint32_t index, const RegionConfig& region) {
    mr_.configure_region(index, region, now());
    wake(); // a fresh period/budget changes the unit's next timed event
}

void RealmUnit::set_user_isolation(bool isolate) {
    wake();
    if (isolate) {
        iso_.raise(IsolationCause::kUser);
    } else {
        iso_.clear(IsolationCause::kUser);
    }
}

void RealmUnit::apply_pending_config() {
    if (!pending_fragmentation_ && !pending_enabled_) { return; }
    if (iso_.outstanding() != 0 || !wbuf_.empty()) { return; }
    if (pending_fragmentation_) {
        splitter_.set_granularity(*pending_fragmentation_);
        cfg_.fragment_beats = *pending_fragmentation_;
        pending_fragmentation_.reset();
    }
    if (pending_enabled_) {
        cfg_.enabled = *pending_enabled_;
        pending_enabled_.reset();
    }
    iso_.clear(IsolationCause::kReconfig);
}

void RealmUnit::update_budget_isolation() {
    if (mr_.budget_exhausted()) {
        iso_.raise(IsolationCause::kBudget);
    } else {
        iso_.clear(IsolationCause::kBudget);
    }
}

void RealmUnit::bypass_tick() {
    if (up_.has_aw() && down_.can_send_aw()) { down_.send_aw(up_.recv_aw()); }
    if (up_.has_w() && down_.can_send_w()) { down_.send_w(up_.recv_w()); }
    if (up_.has_ar() && down_.can_send_ar()) { down_.send_ar(up_.recv_ar()); }
    if (down_.has_b() && up_.can_send_b()) { up_.send_b(down_.recv_b()); }
    if (down_.has_r() && up_.can_send_r()) { up_.send_r(down_.recv_r()); }
}

void RealmUnit::process_responses() {
    if (down_.has_b() && up_.can_send_b()) {
        const axi::BFlit child = down_.recv_b();
        if (const auto parent = splitter_.process_b(child)) {
            auto it = write_meta_.find(parent->id);
            REALM_ENSURES(it != write_meta_.end() && !it->second.empty(),
                          name() + ": B completion with no metadata");
            const TxnMeta meta = it->second.front();
            it->second.pop_front();
            if (it->second.empty()) { write_meta_.erase(it); }
            mr_.record_completion(meta.region, now() - meta.accepted_at, /*is_write=*/true);
            iso_.on_write_completed();
            up_.send_b(*parent);
        }
    }
    if (down_.has_r() && up_.can_send_r()) {
        const axi::RFlit beat = down_.recv_r();
        const auto processed = splitter_.process_r(beat);
        if (processed.parent_completed) {
            auto it = read_meta_.find(beat.id);
            REALM_ENSURES(it != read_meta_.end() && !it->second.empty(),
                          name() + ": R completion with no metadata");
            const TxnMeta meta = it->second.front();
            it->second.pop_front();
            if (it->second.empty()) { read_meta_.erase(it); }
            mr_.record_completion(meta.region, now() - meta.accepted_at, /*is_write=*/false);
            iso_.on_read_completed();
        }
        up_.send_r(processed.flit);
    }
}

void RealmUnit::emit_requests() {
    if (splitter_.has_child_ar() && down_.can_send_ar()) {
        down_.send_ar(splitter_.pop_child_ar());
    }
    if (wbuf_.has_aw_to_send() && down_.can_send_aw()) { down_.send_aw(wbuf_.pop_aw()); }
    if (wbuf_.has_w_to_send() && down_.can_send_w()) { down_.send_w(wbuf_.pop_w()); }
}

void RealmUnit::accept_requests() {
    // Count at most one isolated-stall per cycle even if both AR and AW wait.
    if (!iso_.may_accept() && (up_.has_ar() || up_.has_aw())) {
        ++isolation_stalls_;
        mr_.note_isolated_cycle();
    }
    // AR path.
    if (up_.has_ar()) {
        if (!iso_.may_accept()) {
            // counted above
        } else if (iso_.outstanding() >= mr_.allowed_outstanding(cfg_.max_pending)) {
            ++throttle_stalls_;
        } else if (splitter_.can_accept_read()) {
            const axi::ArFlit f = up_.recv_ar();
            const auto region = mr_.region_of(f.addr);
            mr_.charge(f.addr, f.descriptor().total_bytes());
            splitter_.accept_read(f);
            read_meta_[f.id].push_back(TxnMeta{now(), region});
            iso_.on_read_accepted();
            ++reads_accepted_;
        }
    }
    // AW path.
    if (up_.has_aw()) {
        if (!iso_.may_accept()) {
            // counted above
        } else if (iso_.outstanding() >= mr_.allowed_outstanding(cfg_.max_pending)) {
            ++throttle_stalls_;
        } else if (splitter_.can_accept_write()) {
            const axi::AwFlit f = up_.recv_aw();
            const auto region = mr_.region_of(f.addr);
            mr_.charge(f.addr, f.descriptor().total_bytes());
            const auto children = splitter_.accept_write(f);
            wbuf_.queue_children(f, children);
            write_meta_[f.id].push_back(TxnMeta{now(), region});
            iso_.on_write_accepted();
            ++writes_accepted_;
        }
    }
    // W data follows accepted AWs regardless of isolation state (outstanding
    // transactions are allowed to complete).
    if (up_.has_w() && wbuf_.can_accept_beat()) { wbuf_.accept_beat(up_.recv_w()); }
}

void RealmUnit::tick() {
    apply_pending_config();
    if (!cfg_.enabled) {
        bypass_tick();
        update_activity();
        return;
    }
    mr_.tick(now());
    process_responses();
    update_budget_isolation();
    // Accept before emit so a request admitted this cycle leaves this cycle:
    // the unit then adds exactly one cycle (its ingress register).
    accept_requests();
    emit_requests();
    update_activity();
}

void RealmUnit::update_activity() {
    // Flits on the upstream request side or downstream response side always
    // demand evaluation (acceptance, forwarding, isolation-stall counting).
    if (!up_.channel().requests_empty() || !down_.channel().responses_empty()) { return; }
    if (!cfg_.enabled) {
        idle_forever(); // bypass over empty channels is a pure no-op
        return;
    }
    // Un-emitted child requests are backpressured downstream; pending
    // intrusive reconfiguration polls the drain condition each cycle.
    if (pending_fragmentation_ || pending_enabled_) { return; }
    if (splitter_.has_child_ar() || wbuf_.has_aw_to_send() || wbuf_.has_w_to_send()) {
        return;
    }
    // A budget state change from this cycle's charges is applied by
    // update_budget_isolation() on the *next* tick — not yet a no-op.
    if (mr_.budget_exhausted() != iso_.cause_active(IsolationCause::kBudget)) { return; }
    // The only remaining timed event is the M&R credit replenishment. Never
    // sleep past the earliest period boundary, so `period_start` advances
    // exactly as it would under tick-all (one boundary per evaluation).
    idle_until(mr_.next_replenish_cycle());
}

} // namespace realm::rt
