#include "scenario/report.hpp"

#include "mon/detector.hpp"
#include "noc/routing.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

namespace realm::scenario {

bool parse_dos_cell_label(const std::string& label, DosCellLabel& out) {
    // <N>atk/<attack>/<defense>[/<policy>], e.g. "3atk/hog/budget" or
    // "3atk/hog/budget/o1turn".
    const char* s = label.c_str();
    char* end = nullptr;
    const unsigned long n = std::strtoul(s, &end, 10);
    if (end == s || std::string_view{end}.substr(0, 4) != "atk/") { return false; }
    const std::string rest{end + 4};
    const std::size_t slash = rest.find('/');
    if (slash == std::string::npos || slash == 0 || slash + 1 >= rest.size()) {
        return false;
    }
    std::string defense = rest.substr(slash + 1);
    std::string policy;
    if (const std::size_t slash2 = defense.find('/'); slash2 != std::string::npos) {
        policy = defense.substr(slash2 + 1);
        defense.resize(slash2);
        // Only a registered routing policy makes a fourth segment valid —
        // anything else is not a matrix label.
        if (defense.empty() || !noc::parse_routing_policy(policy).has_value()) {
            return false;
        }
    }
    out.attackers = static_cast<unsigned>(n);
    out.attack = rest.substr(0, slash);
    out.defense = std::move(defense);
    out.policy = std::move(policy);
    return true;
}

namespace {

/// Row cap of the per-manager distribution table: the victim plus the
/// loudest managers of each point.
constexpr std::size_t kReportManagers = 8;

/// Appends `v` to `order` unless already present (first-appearance order).
template <typename T>
void note_order(std::vector<T>& order, const T& v) {
    if (std::find(order.begin(), order.end(), v) == order.end()) {
        order.push_back(v);
    }
}

std::string format_count(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return buf;
}

/// Cell text: the worst-case victim latency in cycles, flagged when the
/// point produced no trustworthy number.
std::string cell_text(const ScenarioResult& r) {
    if (!r.boot_ok) { return "boot failed"; }
    std::string text = std::to_string(worst_case_victim_latency(r));
    if (r.timed_out) { text += " (timed out)"; }
    return text;
}

void write_matrix_report(std::ostream& os, const Sweep& sweep,
                         const std::vector<ScenarioResult>& results,
                         const std::vector<DosCellLabel>& cells) {
    std::vector<unsigned> attacker_counts;
    std::vector<std::string> attacks;
    std::vector<std::string> defenses;
    std::vector<std::string> policies;
    for (const DosCellLabel& c : cells) {
        note_order(attacker_counts, c.attackers);
        note_order(attacks, c.attack);
        note_order(defenses, c.defense);
        note_order(policies, c.policy);
    }
    std::sort(attacker_counts.begin(), attacker_counts.end());
    // Sweeps without a routing axis carry one empty policy; keep the row
    // dimension collapsed (and the rendered format byte-identical) there.
    const bool has_policy = policies.size() > 1 || !policies.front().empty();

    os << "Cells report the worst-case victim latency in cycles "
          "(max of load / store latency); the worst cell per defense is "
          "**bold**.\n";

    for (const std::string& defense : defenses) {
        // Locate the worst (defined) cell of this defense's table.
        std::size_t worst_index = results.size();
        std::uint64_t worst = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].defense != defense || !results[i].boot_ok) { continue; }
            const std::uint64_t v = worst_case_victim_latency(results[i]);
            if (worst_index == results.size() || v > worst) {
                worst_index = i;
                worst = v;
            }
        }

        os << "\n## Defense: `" << defense << "`\n\n";
        os << "| " << (has_policy ? "attackers · routing" : "attackers") << " |";
        for (const std::string& a : attacks) { os << ' ' << a << " |"; }
        os << "\n|---|";
        for (std::size_t i = 0; i < attacks.size(); ++i) { os << "---|"; }
        os << '\n';
        for (const unsigned n : attacker_counts) {
            for (const std::string& policy : policies) {
                os << "| " << n;
                if (has_policy) { os << " · " << policy; }
                os << " |";
                for (const std::string& a : attacks) {
                    std::size_t found = results.size();
                    for (std::size_t i = 0; i < cells.size(); ++i) {
                        if (cells[i].defense == defense && cells[i].attack == a &&
                            cells[i].attackers == n && cells[i].policy == policy) {
                            found = i;
                            break;
                        }
                    }
                    if (found == results.size()) {
                        os << " – |";
                    } else if (found == worst_index) {
                        os << " **" << cell_text(results[found]) << "** |";
                    } else {
                        os << ' ' << cell_text(results[found]) << " |";
                    }
                }
                os << '\n';
            }
        }
        if (worst_index < results.size()) {
            os << "\nWorst cell: `" << sweep.points[worst_index].label << "` at "
               << worst << " cycles.\n";
        }
    }
}

void write_flat_report(std::ostream& os, const Sweep& sweep,
                       const std::vector<ScenarioResult>& results) {
    const ScenarioResult* baseline =
        sweep.baseline_index && *sweep.baseline_index < results.size()
            ? &results[*sweep.baseline_index]
            : nullptr;
    // The host-speed column only renders when some point actually measured
    // wall time, so reports built from synthetic results (tests, replayed
    // dumps) stay byte-identical to the pre-speed format.
    bool any_speed = false;
    for (const ScenarioResult& r : results) {
        any_speed = any_speed || r.wall_seconds > 0.0;
    }
    os << "| point | run cycles | ops | load lat mean | load lat max "
          "| store lat max | attackers' total B/cyc | hops |";
    if (any_speed) { os << " sim c/s |"; }
    if (baseline != nullptr) { os << " perf vs baseline |"; }
    os << "\n|---|---|---|---|---|---|---|---|";
    if (any_speed) { os << "---|"; }
    if (baseline != nullptr) { os << "---|"; }
    os << '\n';
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult& r = results[i];
        os << "| " << r.label << " | " << r.run_cycles << " | " << r.ops << " | "
           << format_count(r.load_lat_mean) << " | " << r.load_lat_max << " | "
           << r.store_lat_max << " | " << format_count(r.dma_read_bw) << " | "
           << r.fabric_hops << " |";
        if (any_speed) {
            if (r.wall_seconds > 0.0) {
                char buf[32];
                std::snprintf(buf, sizeof buf, " %.0f |", r.sim_cycles_per_sec());
                os << buf;
            } else {
                os << " – |";
            }
        }
        if (baseline != nullptr) {
            if (r.run_cycles == 0) {
                os << " – |";
            } else {
                const double pct = 100.0 * static_cast<double>(baseline->run_cycles) /
                                   static_cast<double>(r.run_cycles);
                char buf[32];
                std::snprintf(buf, sizeof buf, " %.1f %% |", pct);
                os << buf;
            }
        }
        os << '\n';
    }
}

/// Monitoring-plane sections: rendered only when at least one point carries
/// monitor telemetry, so reports of unmonitored sweeps stay byte-identical.
void write_monitor_report(std::ostream& os,
                          const std::vector<ScenarioResult>& results) {
    bool any = false;
    for (const ScenarioResult& r : results) { any = any || r.mon_enabled; }
    if (!any) { return; }

    // --- Detection coverage ----------------------------------------------
    std::size_t attack_cells = 0;
    std::size_t detected_cells = 0;
    std::size_t clean_cells = 0;
    std::uint64_t fp_attack = 0;
    std::uint64_t fp_clean = 0;
    os << "\n## Detection coverage\n\n";
    os << "| cell | hostile | detected | false pos | missed | first detect "
          "[cyc] | signals |\n";
    os << "|---|---|---|---|---|---|---|\n";
    for (const ScenarioResult& r : results) {
        if (!r.mon_enabled) { continue; }
        std::uint64_t hostile = 0;
        for (const std::uint64_t h : r.mgr_hostile) { hostile += h; }
        std::uint8_t signals = 0;
        for (std::size_t m = 0;
             m < r.mgr_flagged.size() && m < r.mgr_signals.size() &&
             m < r.mgr_hostile.size();
             ++m) {
            if (r.mgr_flagged[m] != 0 && r.mgr_hostile[m] != 0) {
                signals |= static_cast<std::uint8_t>(r.mgr_signals[m]);
            }
        }
        if (hostile > 0) {
            ++attack_cells;
            if (r.mon_true_positives > 0) { ++detected_cells; }
            fp_attack += r.mon_false_positives;
        } else {
            ++clean_cells;
            fp_clean += r.mon_false_positives;
        }
        os << "| `" << r.label << "` | " << hostile << " | "
           << r.mon_true_positives << " | " << r.mon_false_positives << " | "
           << r.mon_false_negatives << " | ";
        if (r.mon_first_detect > 0) {
            os << r.mon_first_detect;
        } else {
            os << "–";
        }
        os << " | " << mon::signal_names(signals) << " |\n";
    }
    os << "\nDetected " << detected_cells << "/" << attack_cells
       << " attack cells";
    if (attack_cells > 0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " (%.1f %%)",
                      100.0 * static_cast<double>(detected_cells) /
                          static_cast<double>(attack_cells));
        os << buf;
    }
    os << "; false positives: " << fp_attack << " on attack cells, " << fp_clean
       << " on " << clean_cells << " no-attack points.\n";

    // --- Per-manager latency distributions -------------------------------
    os << "\n## Per-manager latency distributions\n\n";
    os << "| point | manager | p50 | p99 | p99.9 | occ | flagged | signals | "
          "ttd [cyc] |\n";
    os << "|---|---|---|---|---|---|---|---|---|\n";
    std::size_t omitted = 0;
    for (const ScenarioResult& r : results) {
        if (!r.mon_enabled) { continue; }
        const std::size_t managers = r.mgr_p99.size();
        // Victim first, then the loudest managers by P99 (stable by index).
        std::vector<std::size_t> order;
        for (std::size_t m = 1; m < managers; ++m) { order.push_back(m); }
        std::stable_sort(order.begin(), order.end(),
                         [&r](std::size_t a, std::size_t b) {
                             return r.mgr_p99[a] > r.mgr_p99[b];
                         });
        order.insert(order.begin(), 0);
        if (order.size() > kReportManagers) {
            omitted += order.size() - kReportManagers;
            order.resize(kReportManagers);
        }
        for (const std::size_t m : order) {
            if (m >= managers) { continue; }
            os << "| `" << r.label << "` | "
               << (m == 0 ? std::string{"core"}
                          : "dma" + std::to_string(m - 1))
               << " | " << r.mgr_p50[m] << " | " << r.mgr_p99[m] << " | "
               << r.mgr_p999[m] << " | ";
            if (m < r.mgr_occ_milli.size()) {
                char occ[16];
                std::snprintf(occ, sizeof occ, "%.2f",
                              static_cast<double>(r.mgr_occ_milli[m]) / 1000.0);
                os << occ;
            } else {
                os << "–";
            }
            os << " | "
               << (m < r.mgr_flagged.size() && r.mgr_flagged[m] != 0 ? "yes"
                                                                     : "no")
               << " | "
               << mon::signal_names(m < r.mgr_signals.size()
                                        ? static_cast<std::uint8_t>(
                                              r.mgr_signals[m])
                                        : 0)
               << " | ";
            if (m < r.mgr_detect.size() && r.mgr_detect[m] > 0) {
                os << r.mgr_detect[m];
            } else {
                os << "–";
            }
            os << " |\n";
        }
    }
    if (omitted > 0) {
        os << "\nShowing the victim plus the highest-P99 managers per point (row cap "
           << kReportManagers << "); " << omitted << " manager rows omitted.\n";
    }
}

/// Partition-balance section: per-shard share of executed ticks (and, when
/// profiled, of attributed wall time) — the load-balance picture of the
/// sharded kernel next to the cycle-attribution table. Rendered only when at
/// least one point ran with more than one shard, so unsharded reports stay
/// byte-identical.
void write_partition_report(std::ostream& os,
                            const std::vector<ScenarioResult>& results) {
    bool any = false;
    for (const ScenarioResult& r : results) {
        any = any || r.shard_ticks_executed.size() > 1;
    }
    if (!any) { return; }

    os << "\n## Partition balance\n\n";
    os << "Per-shard share of executed ticks (and, when profiled, of "
          "attributed wall time) within each sharded point — the slowest "
          "shard paces every barrier epoch, so an imbalanced column is "
          "wall-clock lost.\n\n";
    os << "| point | shard | ticks | tick share | wall share |\n";
    os << "|---|---|---|---|---|\n";
    for (const ScenarioResult& r : results) {
        if (r.shard_ticks_executed.size() <= 1) { continue; }
        std::uint64_t total_ticks = 0;
        for (const std::uint64_t t : r.shard_ticks_executed) { total_ticks += t; }
        std::vector<std::uint64_t> shard_nanos(r.shard_ticks_executed.size(), 0);
        std::uint64_t total_nanos = 0;
        for (const ProfileRow& row : r.profile) {
            if (row.shard < shard_nanos.size()) {
                shard_nanos[row.shard] += row.nanos;
                total_nanos += row.nanos;
            }
        }
        for (std::size_t s = 0; s < r.shard_ticks_executed.size(); ++s) {
            char tick_share[32];
            std::snprintf(tick_share, sizeof tick_share, "%.1f %%",
                          total_ticks == 0
                              ? 0.0
                              : 100.0 *
                                    static_cast<double>(r.shard_ticks_executed[s]) /
                                    static_cast<double>(total_ticks));
            os << "| `" << r.label << "` | " << s << " | "
               << r.shard_ticks_executed[s] << " | " << tick_share << " | ";
            if (total_nanos > 0) {
                char wall_share[32];
                std::snprintf(wall_share, sizeof wall_share, "%.1f %%",
                              100.0 * static_cast<double>(shard_nanos[s]) /
                                  static_cast<double>(total_nanos));
                os << wall_share;
            } else {
                os << "–";
            }
            os << " |\n";
        }
    }
}

/// Cycle-attribution section: rendered only when at least one point ran with
/// `--profile`, so reports of unprofiled sweeps stay byte-identical.
void write_profile_report(std::ostream& os,
                          const std::vector<ScenarioResult>& results) {
    bool any = false;
    for (const ScenarioResult& r : results) { any = any || !r.profile.empty(); }
    if (!any) { return; }

    os << "\n## Cycle attribution\n\n";
    os << "Wall-time share of each (component type, shard) bucket within its "
          "point, heaviest first (`--profile`).\n\n";
    os << "| point | component type | shard | components | ticks | wall [ms] "
          "| share |\n";
    os << "|---|---|---|---|---|---|---|\n";
    for (const ScenarioResult& r : results) {
        if (r.profile.empty()) { continue; }
        std::uint64_t total_nanos = 0;
        for (const ProfileRow& row : r.profile) { total_nanos += row.nanos; }
        for (const ProfileRow& row : r.profile) {
            char ms[32];
            std::snprintf(ms, sizeof ms, "%.2f",
                          static_cast<double>(row.nanos) / 1e6);
            char share[32];
            std::snprintf(share, sizeof share, "%.1f %%",
                          total_nanos == 0
                              ? 0.0
                              : 100.0 * static_cast<double>(row.nanos) /
                                    static_cast<double>(total_nanos));
            os << "| `" << r.label << "` | " << row.type << " | " << row.shard
               << " | " << row.components << " | " << row.ticks << " | " << ms
               << " | " << share << " |\n";
        }
    }
}

} // namespace

void write_report(std::ostream& os, const Sweep& sweep,
                  const std::vector<ScenarioResult>& results) {
    os << "# " << sweep.title << "\n\n";
    os << "Sweep `" << sweep.name << "`, " << results.size() << " points.\n";
    for (const std::string& note : sweep.notes) { os << "> " << note << '\n'; }
    os << '\n';

    // Matrix mode only when every point follows the cell-label convention.
    std::vector<DosCellLabel> cells(results.size());
    bool matrix = !results.empty() && results.size() == sweep.points.size();
    for (std::size_t i = 0; matrix && i < results.size(); ++i) {
        matrix = parse_dos_cell_label(results[i].label, cells[i]);
    }
    if (matrix) {
        write_matrix_report(os, sweep, results, cells);
    } else {
        write_flat_report(os, sweep, results);
    }
    write_monitor_report(os, results);
    write_partition_report(os, results);
    write_profile_report(os, results);

    // Flag degenerate points loudly; a green CI job must not hide them.
    bool flagged = false;
    for (const ScenarioResult& r : results) {
        if (r.boot_ok && !r.timed_out) { continue; }
        if (!flagged) {
            os << "\n**Flagged points:**\n";
            flagged = true;
        }
        os << "- `" << r.label << "`: "
           << (!r.boot_ok ? "boot script did not complete" : "timed out") << '\n';
    }
}

bool write_report_file(const std::string& path, const Sweep& sweep,
                       const std::vector<ScenarioResult>& results) {
    std::ofstream out{path};
    if (!out) { return false; }
    write_report(out, sweep, results);
    return out.good();
}

} // namespace realm::scenario
