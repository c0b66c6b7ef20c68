/// \file
/// \brief Packet format of the AXI-carrying ring NoC (Figure 1b of the
///        paper shows REALM units in front of a NoC with AXI4 interfaces).
#pragma once

#include "axi/flit.hpp"
#include "noc/node_id.hpp"
#include "noc/routing.hpp"

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
/// Every packet belongs to one message class, writes (AW, W, B) or reads
/// (AR, R). `seq` numbers the worms of one (src, dest)
/// pair per network and class in injection order; the ejecting NI restores
/// that order, so multi-path routing policies (O1TURN, west-first) cannot
/// reorder a class's stream in a way the AXI same-ID rules or the
/// AW-before-data lane discipline would observe, while a read may pass its
/// pair's writes as it may on the crossbar. `vc` is the link virtual
/// channel the worm rides end to end, `route class x kMessageClasses +
/// message class`: the route class is assigned at injection (O1TURN: 0 =
/// XY rails, 1 = YX rails; every other policy uses 0), so reads and writes
/// never share a VC.
struct NocPacket {
    NodeId src = 0;         ///< injecting node
    NodeId dest = 0;        ///< ejecting node
    std::uint8_t flits = 1; ///< worm length in flits (1 = bare header)
    std::uint8_t vc = 0;    ///< link virtual channel (route and message class)
    std::uint16_t seq = 0;  ///< per-(src, dest, network, class) injection order
    std::variant<axi::AwFlit, axi::WFlit, axi::BFlit, axi::ArFlit, axi::RFlit> flit;

    /// True for the beats that carry bus data (and therefore serialize into
    /// multi-flit worms under credited flow control).
    [[nodiscard]] bool data_carrying() const noexcept {
        return std::holds_alternative<axi::WFlit>(flit) ||
               std::holds_alternative<axi::RFlit>(flit);
    }
    /// Message class: `kReadClass` for a read's beats (AR, R),
    /// `kWriteClass` for a write's.
    [[nodiscard]] std::uint8_t message_class() const noexcept {
        return std::holds_alternative<axi::ArFlit>(flit) ||
                       std::holds_alternative<axi::RFlit>(flit)
                   ? kReadClass
                   : kWriteClass;
    }
};

} // namespace realm::noc
