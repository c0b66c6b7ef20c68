/// \file
/// \brief Adversarial interference search: random + (μ+λ) evolutionary
///        optimization over `InjectorGenome`s against one scenario cell.
///
/// The DoS matrix enumerates hand-written aggressors; this module *searches*
/// the attacker space instead, maximizing the victim's P99 load latency (the
/// sketch-backed `ScenarioResult::load_lat_p99`) for a fixed (fabric,
/// routing, defense) cell. Every candidate genome becomes an ordinary
/// scenario point — labelled `inj:<hex>`, hashed by `config_hash` — so the
/// sweep runner's JSON dump doubles as the search checkpoint: killing a
/// search and re-running with `--resume` replays cached evaluations from the
/// per-point hash and simulates only the tail. The whole search is a pure
/// function of (base config, options, checkpoint contents): fixed seed ⇒
/// identical generation history and winner, regardless of thread count.
#pragma once

#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "traffic/injector.hpp"

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace realm::scenario {

struct SearchOptions {
    /// Total genomes scored (cached checkpoint hits included), so a resumed
    /// search converges to the same history a straight-through run produces.
    std::size_t budget = 32;
    std::size_t population = 8; ///< λ: candidates per generation
    std::size_t parents = 4;    ///< μ: elite pool offspring are bred from
    std::uint64_t seed = 1;     ///< search-RNG seed (mutation / crossover)
    unsigned threads = 1;       ///< sweep-runner workers per generation
    /// `write_json` dump reused as the checkpoint: evaluations whose
    /// `config_hash` already appears there are replayed, not re-simulated,
    /// and the file is rewritten after every generation. A checkpoint cut
    /// mid-write replays its complete points; a malformed one throws
    /// `MalformedDump`. Empty = no checkpointing.
    std::string checkpoint_path;
};

/// One scored genome, in evaluation order.
struct SearchEval {
    traffic::InjectorGenome genome;
    ScenarioResult result;
    std::uint64_t objective = 0; ///< `search_objective(result)`
    bool reused = false;         ///< replayed from the checkpoint
};

/// Everything one search run produced.
struct SearchOutcome {
    std::vector<SearchEval> history; ///< evaluation order, `budget` entries
    std::size_t best = 0;            ///< index into `history`
    std::size_t fresh = 0;           ///< evaluations actually simulated
    std::size_t reused = 0;          ///< evaluations replayed from checkpoint

    [[nodiscard]] const SearchEval& winner() const { return history[best]; }
};

/// The scalar the search maximizes: victim P99 load latency, read from the
/// monitors' merged quantile sketches (exact u64; ranks identically whether
/// a result was simulated or parsed back from a checkpoint).
[[nodiscard]] inline std::uint64_t search_objective(const ScenarioResult& r) noexcept {
    return r.load_lat_p99;
}

/// The enumerated grid's worst attack cell, where a search starts and the
/// bar it must reach: the first point of `sweep` with interference whose
/// result in `grid` (one per point) has the highest `search_objective`.
/// Baselines never qualify; returns `sweep.points.size()` when every point
/// is one.
[[nodiscard]] std::size_t worst_attack_cell(const Sweep& sweep,
                                            const std::vector<ScenarioResult>& grid);

/// Rebinds one matrix cell to a searched attacker: every interference entry
/// of `base` keeps its port, windows, and `hostile` flag but swaps its DMA
/// program for `g`; the point is renamed to the genome's replayable label.
/// Seeds and shard counts are untouched, so re-running the returned config
/// reproduces the searched evaluation bit for bit.
[[nodiscard]] ScenarioConfig genome_scenario(const ScenarioConfig& base,
                                             const traffic::InjectorGenome& g);

/// Hand-seeded starting population: genome transcriptions of the enumerated
/// hog / overdraft / wstall aggressors, so generation 0 already matches the
/// grid's attack repertoire and search can only improve on it.
[[nodiscard]] std::vector<traffic::InjectorGenome> attack_seed_genomes();

/// Runs the search against one cell. Generation 0 is `attack_seed_genomes`
/// plus random fill; later generations breed from the top-μ of all history
/// (crossover + per-gene mutation), truncated so the final generation lands
/// exactly on `budget`. Ranking is (objective desc, load_lat_max desc,
/// label asc) — exact integer keys only, so cached and fresh evaluations
/// order identically.
[[nodiscard]] SearchOutcome search_worst_case(const ScenarioConfig& base,
                                              const SearchOptions& options);

/// Inputs of the search-report section that are not in the outcome itself.
struct SearchSummary {
    std::string sweep;        ///< enumerated sweep the base cell came from
    std::string base_label;   ///< label of the searched cell
    std::string worst_enumerated_label; ///< grid's worst cell by objective
    std::uint64_t worst_enumerated_p99 = 0;
    std::uint64_t budget = 0;
    std::uint64_t seed = 0;
};

/// Writes the "worst found vs worst enumerated" markdown section: the two
/// P99s side by side, the winning genome's label (replayable) and decoded
/// parameters, and the top evaluations. Pure function of its arguments —
/// golden-tested like `write_report`, but deliberately a separate writer so
/// existing reports stay byte-identical when search is off.
void write_search_report(std::ostream& os, const SearchSummary& summary,
                         const SearchOutcome& outcome);

} // namespace realm::scenario
