#include "realm/splitter.hpp"

#include "sim/check.hpp"

namespace realm::rt {

GranularBurstSplitter::GranularBurstSplitter(std::uint32_t granularity_beats,
                                             std::uint32_t max_parents)
    : granularity_{granularity_beats}, max_parents_{max_parents} {
    REALM_EXPECTS(granularity_ >= 1 && granularity_ <= axi::kMaxBurstBeats,
                  "splitter granularity out of [1,256]");
    REALM_EXPECTS(max_parents_ >= 1, "splitter needs at least one parent slot");
}

void GranularBurstSplitter::set_granularity(std::uint32_t beats) {
    REALM_EXPECTS(beats >= 1 && beats <= axi::kMaxBurstBeats,
                  "splitter granularity out of [1,256]");
    REALM_EXPECTS(reads_in_flight_ == 0 && writes_in_flight_ == 0,
                  "granularity is an intrusive parameter: drain before reconfiguring");
    granularity_ = beats;
}

std::vector<axi::BurstDescriptor> GranularBurstSplitter::fragment(
    const axi::BurstDescriptor& desc, std::uint8_t cache, bool lock) {
    if (!axi::is_fragmentable(desc, cache, lock) || desc.beats() <= granularity_) {
        ++passed_intact_;
        return {desc};
    }
    auto children = axi::fragment_burst(desc, granularity_);
    fragments_created_ += children.size();
    return children;
}

bool GranularBurstSplitter::can_accept_read() const noexcept {
    return reads_in_flight_ < max_parents_;
}

void GranularBurstSplitter::accept_read(const axi::ArFlit& parent) {
    REALM_EXPECTS(can_accept_read(), "splitter read parent table full");
    ParentRead pr;
    pr.parent = parent;
    pr.children = fragment(parent.descriptor(), parent.cache, parent.lock);
    for (const axi::BurstDescriptor& child : pr.children) {
        axi::ArFlit f = parent;
        f.addr = child.addr;
        f.len = child.len;
        child_ar_queue_.push_back(f);
    }
    reads_[parent.id].push_back(std::move(pr));
    ++reads_in_flight_;
}

axi::ArFlit GranularBurstSplitter::pop_child_ar() {
    REALM_EXPECTS(!child_ar_queue_.empty(), "no child AR pending");
    axi::ArFlit f = child_ar_queue_.front();
    child_ar_queue_.pop_front();
    return f;
}

GranularBurstSplitter::ProcessedR GranularBurstSplitter::process_r(const axi::RFlit& beat) {
    auto it = reads_.find(beat.id);
    REALM_EXPECTS(it != reads_.end() && !it->second.empty(),
                  "R beat for unknown parent read");
    ParentRead& pr = it->second.front();
    const axi::BurstDescriptor& child = pr.children[pr.child_index];
    ++pr.beat_in_child;
    const bool child_last = pr.beat_in_child == child.beats();
    REALM_ENSURES(beat.last == child_last, "child RLAST out of position");
    bool parent_done = false;
    if (child_last) {
        pr.beat_in_child = 0;
        ++pr.child_index;
        parent_done = pr.child_index == pr.children.size();
    }
    ProcessedR out;
    out.flit = beat;
    out.flit.last = parent_done; // gate child last flags, keep only the final one
    out.parent_completed = parent_done;
    if (parent_done) {
        it->second.pop_front();
        if (it->second.empty()) { reads_.erase(it); }
        --reads_in_flight_;
    }
    return out;
}

bool GranularBurstSplitter::can_accept_write() const noexcept {
    return writes_in_flight_ < max_parents_;
}

std::vector<axi::BurstDescriptor> GranularBurstSplitter::accept_write(
    const axi::AwFlit& parent) {
    REALM_EXPECTS(can_accept_write(), "splitter write parent table full");
    auto children = fragment(parent.descriptor(), parent.cache, parent.lock);
    ParentWrite pw;
    pw.parent = parent;
    pw.children_total = static_cast<std::uint32_t>(children.size());
    writes_[parent.id].push_back(pw);
    ++writes_in_flight_;
    return children;
}

std::optional<axi::BFlit> GranularBurstSplitter::process_b(const axi::BFlit& child) {
    auto it = writes_.find(child.id);
    REALM_EXPECTS(it != writes_.end() && !it->second.empty(),
                  "B for unknown parent write");
    ParentWrite& pw = it->second.front();
    ++pw.children_done;
    pw.merged = axi::merge_resp(pw.merged, child.resp);
    if (pw.children_done < pw.children_total) { return std::nullopt; }
    axi::BFlit parent_b;
    parent_b.id = pw.parent.id;
    parent_b.resp = pw.merged;
    parent_b.user = pw.parent.user;
    it->second.pop_front();
    if (it->second.empty()) { writes_.erase(it); }
    --writes_in_flight_;
    return parent_b;
}

} // namespace realm::rt
