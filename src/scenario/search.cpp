#include "scenario/search.hpp"

#include "scenario/report.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

namespace realm::scenario {

namespace {

/// Ranking key: exact integer fields only, so evaluations parsed back from
/// a checkpoint rank identically to freshly simulated ones.
bool better(const SearchEval& a, const SearchEval& b) {
    if (a.objective != b.objective) { return a.objective > b.objective; }
    if (a.result.load_lat_max != b.result.load_lat_max) {
        return a.result.load_lat_max > b.result.load_lat_max;
    }
    return traffic::to_label(a.genome) < traffic::to_label(b.genome);
}

/// Indices of `history` from best to worst under `better`.
std::vector<std::size_t> rank(const std::vector<SearchEval>& history) {
    std::vector<std::size_t> order(history.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return better(history[a], history[b]);
    });
    return order;
}

} // namespace

std::size_t worst_attack_cell(const Sweep& sweep, const std::vector<ScenarioResult>& grid) {
    REALM_EXPECTS(grid.size() == sweep.points.size(),
                  "worst_attack_cell: one result per sweep point required");
    std::size_t worst = sweep.points.size();
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        if (sweep.points[i].config.interference.empty()) { continue; }
        if (worst == sweep.points.size() ||
            search_objective(grid[i]) > search_objective(grid[worst])) {
            worst = i;
        }
    }
    return worst;
}

ScenarioConfig genome_scenario(const ScenarioConfig& base,
                               const traffic::InjectorGenome& g) {
    REALM_EXPECTS(!base.interference.empty(),
                  "genome_scenario: base cell has no interference ports");
    ScenarioConfig cfg = base;
    cfg.name = traffic::to_label(g);
    for (InterferenceConfig& irq : cfg.interference) { irq.genome = g; }
    return cfg;
}

std::vector<traffic::InjectorGenome> attack_seed_genomes() {
    using G = traffic::InjectorGenome;
    // Transcriptions of the enumerated aggressors (registry.cpp dos_point):
    // search starts from the grid's own repertoire and mutates outward.
    G hog;       // 256-beat read storms, a little write traffic, wide strides
    hog.genes[G::kReadBeats] = 255;
    hog.genes[G::kWriteBeats] = 255;
    hog.genes[G::kWriteRatio] = 68; // 4 writes per 16 bursts
    hog.genes[G::kStride] = 8;      // 256 bus-widths: new window region per burst
    hog.genes[G::kOutstanding] = 1; // 2 in flight
    G overdraft; // many short bursts, maximum outstanding
    overdraft.genes[G::kReadBeats] = 63;
    overdraft.genes[G::kWriteBeats] = 63;
    overdraft.genes[G::kWriteRatio] = 68;
    overdraft.genes[G::kOutstanding] = 3; // 4 in flight
    G wstall;    // write-only, AW reserved early, W data trickled
    wstall.genes[G::kWriteBeats] = 7; // 8-beat writes
    wstall.genes[G::kWriteRatio] = 255; // 16/16: all writes
    wstall.genes[G::kWStall] = 64;      // 64 idle cycles between W beats
    wstall.genes[G::kHeadDelay] = 3;    // AW 96 cycles before data
    wstall.genes[G::kOutstanding] = 3;
    return {hog, overdraft, wstall};
}

SearchOutcome search_worst_case(const ScenarioConfig& base,
                                const SearchOptions& options) {
    REALM_EXPECTS(options.budget > 0, "search budget must be positive");
    REALM_EXPECTS(options.population > 0 && options.parents > 0,
                  "search population and parent pool must be positive");

    const std::unordered_map<std::uint64_t, ScenarioResult> cache =
        options.checkpoint_path.empty()
            ? std::unordered_map<std::uint64_t, ScenarioResult>{}
            : load_json_results(options.checkpoint_path);

    sim::Rng rng{sim::derive_seed("scenario-search", options.seed)};
    const std::vector<traffic::InjectorGenome> seeds = attack_seed_genomes();
    SearchOutcome out;
    std::unordered_set<std::string> tried; // genome labels already scheduled

    const auto random_genome = [&rng] {
        traffic::InjectorGenome g;
        for (std::uint8_t& gene : g.genes) {
            gene = static_cast<std::uint8_t>(rng.uniform(0, 255));
        }
        return g;
    };

    // Breeds one offspring from the current elite pool. Draws depend only on
    // the seed and on (exact-integer) objectives of prior evaluations, so a
    // resumed search replays the very same candidate sequence.
    const auto breed = [&](const std::vector<std::size_t>& order) {
        const std::size_t pool = std::min(options.parents, order.size());
        traffic::InjectorGenome g =
            out.history[order[rng.uniform(0, pool - 1)]].genome;
        if (rng.chance(1, 2)) { // uniform crossover with a second parent
            const traffic::InjectorGenome& mate =
                out.history[order[rng.uniform(0, pool - 1)]].genome;
            for (std::size_t i = 0; i < traffic::InjectorGenome::kGenes; ++i) {
                if (rng.chance(1, 2)) { g.genes[i] = mate.genes[i]; }
            }
        }
        for (std::uint8_t& gene : g.genes) { // point mutation
            if (rng.chance(1, 4)) {
                gene = static_cast<std::uint8_t>(rng.uniform(0, 255));
            }
        }
        return g;
    };

    ScenarioRunner runner{RunnerOptions{options.threads}};
    std::size_t seeded = 0; // attack-seed genomes consumed (generation 0)

    while (out.history.size() < options.budget) {
        const std::size_t want =
            std::min(options.population, options.budget - out.history.size());
        const std::vector<std::size_t> order = rank(out.history);

        // Generate `want` distinct candidates, one at a time, so a run cut
        // short by the budget is an exact prefix of a longer run.
        std::vector<traffic::InjectorGenome> generation;
        while (generation.size() < want) {
            traffic::InjectorGenome g;
            if (seeded < seeds.size()) {
                g = seeds[seeded++];
            } else if (out.history.empty()) {
                g = random_genome();
            } else {
                g = breed(order);
                for (int retry = 0; retry < 16 && tried.count(traffic::to_label(g));
                     ++retry) {
                    g = breed(order);
                }
            }
            for (int retry = 0; retry < 64 && tried.count(traffic::to_label(g));
                 ++retry) {
                g = random_genome();
            }
            tried.insert(traffic::to_label(g));
            generation.push_back(g);
        }

        // Score the generation: checkpoint hits replay, the rest simulate
        // on the runner pool (order-preserving, thread-count invariant).
        std::vector<SearchEval> evals(generation.size());
        std::vector<ScenarioConfig> to_run;
        std::vector<std::size_t> to_run_at;
        for (std::size_t i = 0; i < generation.size(); ++i) {
            evals[i].genome = generation[i];
            const ScenarioConfig cfg = genome_scenario(base, generation[i]);
            const auto hit = cache.find(config_hash(cfg));
            if (hit != cache.end()) {
                evals[i].result = hit->second;
                evals[i].result.label = cfg.name;
                evals[i].reused = true;
            } else {
                to_run.push_back(cfg);
                to_run_at.push_back(i);
            }
        }
        const std::vector<ScenarioResult> fresh = runner.run(to_run);
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            evals[to_run_at[i]].result = fresh[i];
        }
        for (SearchEval& e : evals) {
            e.objective = search_objective(e.result);
            (e.reused ? out.reused : out.fresh) += 1;
            out.history.push_back(std::move(e));
        }

        if (!options.checkpoint_path.empty()) {
            Sweep ck;
            ck.name = "search";
            ck.title = "adversarial search checkpoint: " + base.name;
            std::vector<ScenarioResult> results;
            ck.points.reserve(out.history.size());
            results.reserve(out.history.size());
            for (const SearchEval& e : out.history) {
                ck.points.push_back(
                    {traffic::to_label(e.genome), genome_scenario(base, e.genome)});
                results.push_back(e.result);
            }
            write_json_file(options.checkpoint_path, ck, results);
        }
    }

    out.best = rank(out.history).front();
    REALM_ENSURES(out.history.size() == options.budget &&
                      out.fresh + out.reused == options.budget,
                  "search bookkeeping out of balance");
    return out;
}

void write_search_report(std::ostream& os, const SearchSummary& summary,
                         const SearchOutcome& outcome) {
    const SearchEval& win = outcome.winner();
    const std::string win_label = traffic::to_label(win.genome);

    os << "## Adversarial search: " << summary.base_label << "\n\n";
    os << "Sweep `" << summary.sweep << "`, budget " << summary.budget
       << " evaluations (" << outcome.reused << " replayed from checkpoint), "
       << "search seed " << summary.seed << ". Objective: victim P99 load "
       << "latency.\n\n";

    os << "| attacker | victim P99 (cycles) | worst case (cycles) | point |\n";
    os << "|---|---:|---:|---|\n";
    os << "| worst enumerated | " << summary.worst_enumerated_p99 << " | - | `"
       << summary.worst_enumerated_label << "` |\n";
    os << "| **worst found** | **" << win.objective << "** | "
       << worst_case_victim_latency(win.result) << " | `" << win_label
       << "` |\n\n";

    const traffic::InjectorParams p = traffic::decode_genome(win.genome);
    os << "Winning genome `" << win_label << "` decodes to: " << p.read_beats
       << "-beat reads / " << p.write_beats << "-beat writes, "
       << p.write_ratio16 << "/16 writes, " << to_string(p.walk)
       << " walk (stride " << p.stride_beats << "), duty " << p.on_cycles << "/"
       << p.off_cycles << ", W stall " << p.w_stall_cycles << ", head delay "
       << p.head_delay << ", outstanding " << p.max_outstanding << ", ramp "
       << p.ramp_step << ", window span>>" << p.span_shift
       << ". Replay: rerun the cell with this label as the genome.\n\n";

    os << "| rank | genome | victim P99 | worst case | source |\n";
    os << "|---:|---|---:|---:|---|\n";
    const std::vector<std::size_t> order = rank(outcome.history);
    const std::size_t top = std::min<std::size_t>(order.size(), 8);
    for (std::size_t i = 0; i < top; ++i) {
        const SearchEval& e = outcome.history[order[i]];
        os << "| " << (i + 1) << " | `" << traffic::to_label(e.genome) << "` | "
           << e.objective << " | " << worst_case_victim_latency(e.result)
           << " | " << (e.reused ? "checkpoint" : "simulated") << " |\n";
    }
    os << "\n";
}

} // namespace realm::scenario
