#include "realm/write_buffer.hpp"

#include "sim/check.hpp"

namespace realm::rt {

WriteBuffer::WriteBuffer(std::uint32_t depth_beats, bool enabled)
    : depth_{depth_beats}, enabled_{enabled} {
    REALM_EXPECTS(depth_ >= 1, "write buffer depth must be at least one beat");
}

void WriteBuffer::queue_children(const axi::AwFlit& parent,
                                 std::span<const axi::BurstDescriptor> children) {
    REALM_EXPECTS(!children.empty(), "write must have at least one child");
    for (std::size_t i = 0; i < children.size(); ++i) {
        Entry e;
        e.aw = parent;
        e.aw.addr = children[i].addr;
        e.aw.len = children[i].len;
        e.beats_total = children[i].beats();
        e.parent_last = i + 1 == children.size();
        // A burst that cannot fit must stream through: the buffer cannot
        // provide stall protection for it.
        e.cut_through = !enabled_ || e.beats_total > depth_;
        if (e.cut_through) { ++cut_through_; }
        entries_.push_back(std::move(e));
    }
}

WriteBuffer::Entry* WriteBuffer::fill_target() noexcept {
    for (Entry& e : entries_) {
        if (e.beats_buffered < e.beats_total) { return &e; }
    }
    return nullptr;
}

bool WriteBuffer::can_accept_beat() const noexcept {
    // Find the entry the next beat belongs to.
    for (const Entry& e : entries_) {
        if (e.beats_buffered < e.beats_total) {
            if (e.cut_through) { return true; } // data flows straight through
            return buffered_beats() < depth_;
        }
    }
    return false; // no entry expecting data (W would lead AW)
}

void WriteBuffer::accept_beat(const axi::WFlit& beat) {
    Entry* e = fill_target();
    REALM_EXPECTS(e != nullptr, "W beat with no queued write burst");
    REALM_EXPECTS(e->cut_through || buffered_beats() < depth_, "write buffer overflow");
    axi::WFlit stored = beat;
    ++e->beats_buffered;
    // Re-gate last at the child boundary; verify the parent's last beat
    // lands on the final child's final beat.
    const bool child_last = e->beats_buffered == e->beats_total;
    REALM_ENSURES(beat.last == (child_last && e->parent_last),
                  "parent WLAST out of position");
    stored.last = child_last;
    beats_.push_back(stored);
}

bool WriteBuffer::has_aw_to_send() const noexcept {
    for (const Entry& e : entries_) {
        if (e.aw_sent) { continue; }
        if (e.cut_through) {
            // Forward the AW immediately: without buffering we cannot (and
            // need not) delay the address phase.
            return true;
        }
        return e.beats_buffered == e.beats_total;
    }
    return false;
}

axi::AwFlit WriteBuffer::pop_aw() {
    for (Entry& e : entries_) {
        if (e.aw_sent) { continue; }
        REALM_EXPECTS(e.cut_through || e.beats_buffered == e.beats_total,
                      "AW released before its data is complete");
        e.aw_sent = true;
        return e.aw;
    }
    REALM_UNREACHABLE("pop_aw with nothing to send");
}

bool WriteBuffer::has_w_to_send() const noexcept {
    if (entries_.empty()) { return false; }
    const Entry& e = entries_.front();
    return e.aw_sent && e.beats_sent < e.beats_buffered;
}

axi::WFlit WriteBuffer::pop_w() {
    REALM_EXPECTS(has_w_to_send(), "no W beat ready");
    Entry& e = entries_.front();
    axi::WFlit f = beats_.front();
    beats_.pop_front();
    ++e.beats_sent;
    if (e.beats_sent == e.beats_total) {
        REALM_ENSURES(f.last, "entry drained without child WLAST");
        entries_.pop_front();
    }
    return f;
}

} // namespace realm::rt
