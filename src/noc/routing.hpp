/// \file
/// \brief Pluggable mesh routing policies: the routing decision of a 2D
///        mesh, extracted from the router so one fabric can be measured
///        under four different routing functions.
///
/// The DoS matrix used to measure worst-case victim latency under exactly
/// one routing function (XY), which concentrates all attacker traffic on
/// the memory columns. A `RoutingPolicy` turns the routing function into a
/// knob, so every existing DoS cell becomes four comparable scenarios —
/// quantifying how much fabric freedom buys the victim under the same
/// regulation budget:
///
///  - **`kXY`** — deterministic dimension order, column first. Minimal.
///    Deadlock-free because the prohibited turns (vertical -> horizontal)
///    break every cycle in the channel-dependency graph.
///  - **`kYX`** — deterministic dimension order, row first. The mirror
///    image of XY: same argument with the dimensions swapped, but attacker
///    traffic merges along rows instead of columns, moving the contention
///    hotspot away from the memory columns.
///  - **`kO1Turn`** — each worm picks X-first or Y-first pseudo-randomly
///    (O1TURN, Seo et al.). The choice is a pure function of the packet's
///    (src, dest, seq) identity, so replays are bit-for-bit deterministic.
///    Deadlock freedom needs the classic two-route-class argument: XY worms
///    ride route class 0, YX worms route class 1 (`route_num_vcs` returns
///    2), each class is dimension-ordered within its own private buffers,
///    and the classes share only the physical channel's serialization
///    window, which always expires after `flits` cycles — a time bound, not
///    a held resource, so no cross-class dependency cycle exists.
///  - **`kWestFirst`** — turn-model adaptive (Glass & Ni): a packet with
///    westward distance travels *all* its west hops first; everywhere else
///    it may choose among the productive directions (east / vertical),
///    picked by per-VC occupancy of the candidate links. Deadlock-free on a
///    single route class because the only prohibited turns are the two *into* west,
///    which removes every cycle from the turn graph; minimal (only
///    productive hops are permitted), hence also livelock-free.
///
/// Message classes (all policies). Every route class is split once more by
/// message class, reads (AR, R) against writes (AW, W, B), so a link
/// carries `link_num_vcs` = route classes x 2 VCs and a read never queues
/// behind a write worm blocked on another output, as the crossbar's
/// independent AR and AW channels never make it. The classes share no
/// buffer, and neither waits on the other inside the network: request
/// ejection is credited and response ejection waits only on the local
/// manager, so each class's deadlock argument holds on its own VCs.
///
/// Ordering note (all policies). Multi-path routing can reorder packets of
/// one (source, destination) pair in flight, which would break the AXI
/// same-ID rules and the AW-before-data lane discipline at the ejecting NI.
/// The NI therefore tags every worm with a per-(pair, network, message
/// class) sequence number and the ejection side restores each class's
/// injection order (see `NocNi`), so every policy — adaptive ones included
/// — preserves the request/response split and the same-ID ordering rules
/// end to end. Reads and writes are ordered apart, as AXI orders them.
#pragma once

#include "noc/node_id.hpp"

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace realm::noc {

/// Mesh port directions. Node ids are row-major: node = row * cols + col;
/// kSouth increases the row, kEast increases the column.
enum class MeshDir : std::uint8_t { kNorth = 0, kEast = 1, kSouth = 2, kWest = 3 };
inline constexpr std::size_t kMeshDirs = 4;

[[nodiscard]] constexpr MeshDir opposite(MeshDir d) noexcept {
    return static_cast<MeshDir>((static_cast<std::uint8_t>(d) + 2) % kMeshDirs);
}

[[nodiscard]] constexpr const char* to_string(MeshDir d) noexcept {
    switch (d) {
    case MeshDir::kNorth: return "N";
    case MeshDir::kEast: return "E";
    case MeshDir::kSouth: return "S";
    case MeshDir::kWest: return "W";
    }
    return "?";
}

/// The routing function of a 2D mesh (see the file comment for the
/// per-policy deadlock-freedom arguments).
enum class RoutingPolicy : std::uint8_t {
    kXY,        ///< deterministic dimension order, column first
    kYX,        ///< deterministic dimension order, row first
    kO1Turn,    ///< per-worm random XY/YX, one route class per rail
    kWestFirst, ///< turn-model adaptive, west hops first
};

inline constexpr std::size_t kNumRoutingPolicies = 4;

/// Every policy, in canonical order — the single list the sweeps, the
/// fabric-comparison example, and the invariant tests iterate, so a new
/// policy cannot silently drop out of any of them.
inline constexpr std::array<RoutingPolicy, kNumRoutingPolicies> kAllRoutingPolicies{
    RoutingPolicy::kXY, RoutingPolicy::kYX, RoutingPolicy::kO1Turn,
    RoutingPolicy::kWestFirst};

[[nodiscard]] constexpr const char* to_string(RoutingPolicy p) noexcept {
    switch (p) {
    case RoutingPolicy::kXY: return "xy";
    case RoutingPolicy::kYX: return "yx";
    case RoutingPolicy::kO1Turn: return "o1turn";
    case RoutingPolicy::kWestFirst: return "west-first";
    }
    return "?";
}

/// Parses a policy name (`xy` / `yx` / `o1turn` / `west-first`); nullopt on
/// anything else. Shared by the CLI `--routing` flag and the DoS-matrix
/// cell-label parser.
[[nodiscard]] std::optional<RoutingPolicy> parse_routing_policy(std::string_view s);

/// Route classes under `p`: 2 for `kO1Turn` (XY and YX rails — the classic
/// deadlock-freedom requirement), 1 otherwise.
[[nodiscard]] constexpr std::uint8_t route_num_vcs(RoutingPolicy p) noexcept {
    return p == RoutingPolicy::kO1Turn ? 2 : 1;
}

/// Message classes: writes (AW, W, B) and reads (AR, R) (see
/// `NocPacket::message_class`).
inline constexpr std::uint8_t kWriteClass = 0;
inline constexpr std::uint8_t kReadClass = 1;
inline constexpr std::uint8_t kMessageClasses = 2;

/// Virtual channels per link under `p`: one per route class and message
/// class, so 4 under `kO1Turn` and 2 on every other policy and the ring.
[[nodiscard]] constexpr std::uint8_t link_num_vcs(RoutingPolicy p) noexcept {
    return static_cast<std::uint8_t>(route_num_vcs(p) * kMessageClasses);
}

/// The VC a worm of route class `route` and message class `message` rides.
[[nodiscard]] constexpr std::uint8_t packet_vc(std::uint8_t route,
                                               std::uint8_t message) noexcept {
    return static_cast<std::uint8_t>(route * kMessageClasses + message);
}

/// The route class a worm on VC `vc` follows.
[[nodiscard]] constexpr std::uint8_t vc_route_class(std::uint8_t vc) noexcept {
    return static_cast<std::uint8_t>(vc / kMessageClasses);
}

/// Route class of a worm at injection. For `kO1Turn` a pseudo-random bit
/// derived *only* from the packet identity (src, dest, per-pair-and-class
/// seq) — no global RNG state, so replays and `--resume` re-runs are
/// bit-for-bit deterministic. Every other policy uses class 0.
[[nodiscard]] std::uint8_t route_class(RoutingPolicy p, NodeId src,
                                       NodeId dest, std::uint16_t seq) noexcept;

/// Next hop of the XY dimension-ordered route from `cur` toward `dest` on a
/// `cols`-wide row-major mesh: correct the column first (E/W), then the row
/// (S/N). Returns nullopt when `cur == dest` (eject locally). Pure function
/// of (cols, cur, dest) — paths are deterministic by construction, which the
/// routing-invariant tests assert hop by hop.
[[nodiscard]] std::optional<MeshDir> xy_next_hop(NodeId cols, NodeId cur,
                                                 NodeId dest) noexcept;

/// The YX mirror: correct the row first (S/N), then the column (E/W).
[[nodiscard]] std::optional<MeshDir> yx_next_hop(NodeId cols, NodeId cur,
                                                 NodeId dest) noexcept;

/// The permitted next hops of one packet at one router: empty means "eject
/// here", one entry is a deterministic route, two entries (west-first only)
/// are an adaptive choice the router resolves by per-VC link occupancy.
/// Every permitted hop is productive (reduces Manhattan distance), so all
/// four policies are minimal and can never take a 180-degree turn.
struct HopSet {
    std::array<MeshDir, 2> dir{};
    std::uint8_t count = 0;

    void add(MeshDir d) noexcept { dir[count++] = d; }
    [[nodiscard]] bool empty() const noexcept { return count == 0; }
};

/// Permitted hops of a packet of route class `vc_class` at node `cur`
/// heading for `dest` under policy `p`. Pure function — the invariant tests
/// enumerate it exhaustively.
[[nodiscard]] HopSet permitted_hops(RoutingPolicy p, NodeId cols,
                                    NodeId cur, NodeId dest,
                                    std::uint8_t vc_class) noexcept;

} // namespace realm::noc
