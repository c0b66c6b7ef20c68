#include "traffic/workload.hpp"

namespace realm::traffic {

std::optional<MemOp> StreamWorkload::next() {
    if (iteration_ >= cfg_.repeat) { return std::nullopt; }
    MemOp op;
    op.addr = cfg_.base + offset_;
    op.bytes = cfg_.op_bytes;
    op.compute_cycles = cfg_.compute_cycles;
    op.kind = (op_index_ % 16) < cfg_.store_ratio16 ? MemOp::Kind::kStore : MemOp::Kind::kLoad;
    ++op_index_;
    offset_ += cfg_.stride_bytes;
    if (offset_ + cfg_.op_bytes > cfg_.bytes) {
        offset_ = 0;
        ++iteration_;
    }
    return op;
}

std::optional<MemOp> RandomWorkload::next() {
    if (issued_ >= cfg_.num_ops) { return std::nullopt; }
    ++issued_;
    MemOp op;
    const std::uint64_t span = cfg_.bytes / cfg_.op_bytes;
    op.addr = cfg_.base + rng_.uniform(0, span - 1) * cfg_.op_bytes;
    op.bytes = cfg_.op_bytes;
    op.compute_cycles = cfg_.compute_cycles;
    op.kind = rng_.chance(cfg_.store_ratio16, 16) ? MemOp::Kind::kStore : MemOp::Kind::kLoad;
    return op;
}

} // namespace realm::traffic
