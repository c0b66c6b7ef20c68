/// \file
/// \brief Packet format of the AXI-carrying ring NoC (Figure 1b of the
///        paper shows REALM units in front of a NoC with AXI4 interfaces).
#pragma once

#include "axi/flit.hpp"
#include "noc/node_id.hpp"

#include <cstdint>
#include <variant>

namespace realm::noc {

/// One AXI channel beat in flight on the network. Request packets (AW/W/AR)
/// travel on the request network, response packets (B/R) on the response
/// network; the two-network split makes the request-response protocol
/// deadlock-free under backpressure.
///
/// A packet is a wormhole *worm* of `flits` flits: data-carrying beats
/// (W / R) serialize into `NocFlowConfig::flits_per_packet` flits (header +
/// payload sized from the AXI beat width), address/response beats
/// (AW / AR / B) are single-flit headers. A link transmits one flit per
/// cycle, so `flits` is also the channel occupancy of the packet.
///
/// `seq` numbers the worms of one (src, dest) pair per network in injection
/// order; the ejecting NI restores that order, so multi-path routing
/// policies (O1TURN, west-first) cannot reorder a pair's stream in a way
/// the AXI same-ID rules or the AW-before-data lane discipline would
/// observe. `vc` is the route class assigned at injection (O1TURN: 0 = XY
/// rails, 1 = YX rails; every other policy uses 0) and selects the link
/// virtual channel the worm rides end to end.
struct NocPacket {
    NodeId src = 0;         ///< injecting node
    NodeId dest = 0;        ///< ejecting node
    std::uint8_t flits = 1; ///< worm length in flits (1 = bare header)
    std::uint8_t vc = 0;    ///< route class == link virtual channel
    std::uint16_t seq = 0;  ///< per-(src, dest, network) injection order
    std::variant<axi::AwFlit, axi::WFlit, axi::BFlit, axi::ArFlit, axi::RFlit> flit;

    /// True for the beats that carry bus data (and therefore serialize into
    /// multi-flit worms under credited flow control).
    [[nodiscard]] bool data_carrying() const noexcept {
        return std::holds_alternative<axi::WFlit>(flit) ||
               std::holds_alternative<axi::RFlit>(flit);
    }
};

} // namespace realm::noc
