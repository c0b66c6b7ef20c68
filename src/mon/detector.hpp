/// \file
/// \brief Online DoS-attacker detection: signals, per-manager verdicts and
/// scoring against scenario ground truth.
///
/// Each TxnMonitor evaluates four IMS-style threshold signals online:
///
///  - kBandwidth:    windowed bytes/cycle at or above a threshold -- the
///                   classic bandwidth hog running unopposed;
///  - kBackpressure: the manager's requests sat valid and not ready at its
///                   port, while it had two or more bursts in demand, for at
///                   least a fraction of a window -- demand exceeding what
///                   the fabric grants, which is how both contended hogs and
///                   isolation-throttled overdrafters look from the port. A
///                   blocking core with one burst held is waiting on the
///                   fabric, not pushing past it, so it never counts;
///  - kWGap:         an accepted write burst whose manager stopped producing
///                   W beats while its port held none -- the W-stall
///                   protocol attack, defended or not;
///  - kOccupancy:    windowed mean in-demand bursts (reads AR..R-last, writes
///                   AW..W-last) at or above a threshold -- the
///                   contention-independent signature of a closed-loop hog,
///                   whose boundary *rate* collapses as the fabric saturates
///                   while its pipeline stays pinned full. Waiting on a late
///                   B response is excluded, so a victim queueing behind an
///                   attack is not blamed, and a blocking core can never
///                   average above 1.
///
/// A manager is flagged as soon as any signal fires; the flag cycle is a
/// deterministic function of simulated history (never of host scheduling), so
/// verdicts are bit-identical across schedulers and shard counts. Verdicts
/// are scored against `InterferenceConfig::hostile` ground truth per cell.
#pragma once

#include "sim/types.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace realm::mon {

/// Detection signal bitmask values.
enum Signal : std::uint8_t {
    kSignalNone = 0,
    kSignalBandwidth = 1,    ///< windowed bytes/cycle over threshold
    kSignalBackpressure = 2, ///< windowed held fraction over threshold
    kSignalWGap = 4,         ///< W-channel production gap inside an open burst
    kSignalOccupancy = 8,    ///< windowed mean outstanding bursts over threshold
};

/// Human-readable "+"-joined signal list, e.g. "bw+wgap"; "-" when none.
std::string signal_names(std::uint8_t mask);

/// One manager's detector outcome, paired with ground truth.
struct Verdict {
    bool hostile = false; ///< ground truth: configured as an attacker
    bool flagged = false; ///< detector verdict: flagged as an attacker
    std::uint8_t signals = kSignalNone;
    /// Cycles from monitor attach to the first firing signal (0 if never).
    sim::Cycle time_to_detect = 0;
};

/// Confusion counts over one scenario's managers.
struct DetectionScore {
    std::uint64_t true_positives = 0;  ///< hostile and flagged
    std::uint64_t false_positives = 0; ///< benign but flagged
    std::uint64_t false_negatives = 0; ///< hostile but never flagged
    /// Fastest time-to-detect over the true positives (0 when there are none).
    sim::Cycle first_detect = 0;
};

DetectionScore score_verdicts(const std::vector<Verdict>& verdicts);

} // namespace realm::mon
