#include "noc/routing.hpp"

namespace realm::noc {

std::optional<RoutingPolicy> parse_routing_policy(std::string_view s) {
    if (s == "xy") { return RoutingPolicy::kXY; }
    if (s == "yx") { return RoutingPolicy::kYX; }
    if (s == "o1turn") { return RoutingPolicy::kO1Turn; }
    if (s == "west-first") { return RoutingPolicy::kWestFirst; }
    return std::nullopt;
}

std::uint8_t route_class(RoutingPolicy p, NodeId src, NodeId dest,
                         std::uint16_t seq) noexcept {
    if (p != RoutingPolicy::kO1Turn) { return 0; }
    // splitmix64 finalizer over the packet identity: a cheap, well-mixed
    // bit that is stable across replays because it depends on nothing but
    // the packet itself.
    std::uint64_t x = (static_cast<std::uint64_t>(src) << 32) ^
                      (static_cast<std::uint64_t>(dest) << 16) ^ seq;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::uint8_t>(x & 1U);
}

std::optional<MeshDir> xy_next_hop(NodeId cols, NodeId cur,
                                   NodeId dest) noexcept {
    if (cur == dest) { return std::nullopt; }
    const NodeId cur_col = static_cast<NodeId>(cur % cols);
    const NodeId dest_col = static_cast<NodeId>(dest % cols);
    if (dest_col > cur_col) { return MeshDir::kEast; }
    if (dest_col < cur_col) { return MeshDir::kWest; }
    return dest / cols > cur / cols ? MeshDir::kSouth : MeshDir::kNorth;
}

std::optional<MeshDir> yx_next_hop(NodeId cols, NodeId cur,
                                   NodeId dest) noexcept {
    if (cur == dest) { return std::nullopt; }
    const NodeId cur_row = static_cast<NodeId>(cur / cols);
    const NodeId dest_row = static_cast<NodeId>(dest / cols);
    if (dest_row > cur_row) { return MeshDir::kSouth; }
    if (dest_row < cur_row) { return MeshDir::kNorth; }
    return dest % cols > cur % cols ? MeshDir::kEast : MeshDir::kWest;
}

HopSet permitted_hops(RoutingPolicy p, NodeId cols, NodeId cur,
                      NodeId dest, std::uint8_t vc_class) noexcept {
    HopSet hops;
    if (cur == dest) { return hops; }
    switch (p) {
    case RoutingPolicy::kXY:
        hops.add(*xy_next_hop(cols, cur, dest));
        return hops;
    case RoutingPolicy::kYX:
        hops.add(*yx_next_hop(cols, cur, dest));
        return hops;
    case RoutingPolicy::kO1Turn:
        // Route class 0 rides the XY rails, route class 1 the YX rails.
        hops.add(vc_class == 0 ? *xy_next_hop(cols, cur, dest)
                               : *yx_next_hop(cols, cur, dest));
        return hops;
    case RoutingPolicy::kWestFirst: {
        const int dcol = static_cast<int>(dest % cols) - static_cast<int>(cur % cols);
        const int drow = static_cast<int>(dest / cols) - static_cast<int>(cur / cols);
        if (dcol < 0) {
            // Turns *into* west are prohibited, so every west hop must come
            // before any vertical hop: deterministic while west of target.
            hops.add(MeshDir::kWest);
            return hops;
        }
        // East of (or aligned with) the target column: fully adaptive among
        // the productive directions — all remaining turns are legal.
        if (dcol > 0) { hops.add(MeshDir::kEast); }
        if (drow > 0) {
            hops.add(MeshDir::kSouth);
        } else if (drow < 0) {
            hops.add(MeshDir::kNorth);
        }
        return hops;
    }
    }
    return hops;
}

} // namespace realm::noc
