/// Tests for the sweep dump: `write_json` and the one reader behind
/// `--resume`, `--diff` and the search checkpoint.
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

#include "same_result.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace realm::scenario {
namespace {

std::string dump(const Sweep& sweep, const std::vector<ScenarioResult>& results) {
    std::ostringstream os;
    write_json(os, sweep, results);
    return std::move(os).str();
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream{path, std::ios::binary} << text;
}

/// Re-indents compact JSON the way `python3 -m json.tool` does: every
/// value on its own line.
std::string pretty(const std::string& json) {
    std::string out;
    int depth = 0;
    bool in_string = false;
    const auto newline = [&] {
        out += '\n';
        out.append(static_cast<std::size_t>(4 * depth), ' ');
    };
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            out += c;
            if (c == '\\') {
                out += json[++i];
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        switch (c) {
        case '"': in_string = true; out += c; break;
        case '{':
        case '[': out += c; ++depth; newline(); break;
        case '}':
        case ']': --depth; newline(); out += c; break;
        case ',': out += c; newline(); break;
        case ':': out += ": "; break;
        case ' ':
        case '\n': break;
        default: out += c;
        }
    }
    return out;
}

/// The ring smoke sweep, simulated once for the whole suite.
const std::vector<ScenarioResult>& ring_smoke() {
    static const std::vector<ScenarioResult> results =
        ScenarioRunner{RunnerOptions{.threads = 2}}.run(make_sweep("ring-dos-smoke"));
    return results;
}

/// `results` with host timing cleared. A rewrite recomputes
/// `sim_cycles_per_sec` from the dump's 6-digit `wall_seconds`, so host
/// timing is the one thing it may change in the last digit.
std::vector<ScenarioResult> without_host(std::vector<ScenarioResult> results) {
    for (ScenarioResult& r : results) { test::clear_from(r, FieldKind::kHost); }
    return results;
}

/// Writes `results`, loads them back through both keyed loaders, and
/// expects every loaded point to equal the written one and the rewrite of
/// what was loaded to reproduce the dump byte for byte.
void expect_rewrite_identical(const std::string& path, const Sweep& sweep,
                              const std::vector<ScenarioResult>& results) {
    const std::string first = dump(sweep, without_host(results));
    write_file(path, first);
    const auto by_hash = load_json_results(path);
    const auto by_label = load_json_results_by_label(path);
    ASSERT_EQ(by_hash.size(), sweep.points.size());
    ASSERT_EQ(by_label.size(), sweep.points.size());
    std::vector<ScenarioResult> loaded;
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        const SweepPoint& p = sweep.points[i];
        loaded.push_back(by_hash.at(config_hash(p.config)));
        EXPECT_TRUE(test::same_result(loaded.back(), test::as_dumped(results[i]), FieldKind::kHost))
            << p.label;
        const auto it = by_label.find(p.label);
        ASSERT_NE(it, by_label.end()) << p.label;
        EXPECT_TRUE(it->second == loaded.back()) << p.label;
    }
    EXPECT_EQ(dump(sweep, loaded), first);
}

class DumpFixture : public ::testing::Test {
protected:
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_ = test::scratch_path("dump_test.json");
};

TEST_F(DumpFixture, PrettyPrintedDumpResumesEveryPoint) {
    const Sweep sweep = make_sweep("ring-dos-smoke");
    const std::string compact = dump(sweep, ring_smoke());
    write_file(path_, compact);
    const auto from_compact = load_json_results(path_);
    const std::string reformatted = pretty(compact);
    ASSERT_GT(std::count(reformatted.begin(), reformatted.end(), '\n'),
              static_cast<long>(30 * sweep.points.size()))
        << "one key per line";
    write_file(path_, reformatted);

    std::size_t reused = 0;
    const auto resumed = ScenarioRunner{}.run_resumed(sweep, path_, &reused);
    EXPECT_EQ(reused, sweep.points.size());
    ASSERT_EQ(resumed.size(), sweep.points.size());
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        SCOPED_TRACE(sweep.points[i].label);
        // Exactly what the compact dump holds, in every field, which is the
        // fresh run to the dump's precision.
        EXPECT_TRUE(resumed[i] == from_compact.at(config_hash(sweep.points[i].config)));
        EXPECT_TRUE(test::same_result(resumed[i], test::as_dumped(ring_smoke()[i]), FieldKind::kHost));
    }
    EXPECT_GT(resumed[0].dma_mr_bytes_total, 0U);
}

TEST_F(DumpFixture, EveryCutKeepsExactlyTheCompletePointsBeforeIt) {
    const Sweep sweep = make_sweep("ring-dos-smoke");
    const std::string text = dump(sweep, ring_smoke());
    write_file(path_, text);
    const auto full = load_json_results(path_);
    ASSERT_EQ(full.size(), sweep.points.size());

    // One point per line: a point is complete once the cut passes its `}`.
    std::vector<std::size_t> ends;
    for (std::size_t at = text.find("\n    {"); at != std::string::npos;
         at = text.find("\n    {", at + 1)) {
        ends.push_back(text.rfind('}', text.find('\n', at + 1)) + 1);
    }
    ASSERT_EQ(ends.size(), sweep.points.size());

    for (std::size_t cut = 0; cut < text.size(); ++cut) {
        write_file(path_, text.substr(0, cut));
        const auto got = load_json_results(path_);
        const auto complete = static_cast<std::size_t>(
            std::count_if(ends.begin(), ends.end(), [cut](std::size_t e) { return e <= cut; }));
        ASSERT_EQ(got.size(), complete) << "cut at byte " << cut;
        for (std::size_t i = 0; i < complete; ++i) {
            const std::uint64_t hash = config_hash(sweep.points[i].config);
            ASSERT_TRUE(got.count(hash) == 1 && got.at(hash) == full.at(hash))
                << "point " << i << ", cut at byte " << cut;
        }
    }
}

TEST_F(DumpFixture, WriteLoadWriteIsByteIdentical) {
    Sweep sweep = make_sweep("ring-dos-smoke");
    std::vector<ScenarioResult> results = ring_smoke();
    // The label-keyed loader must key a label with a quote and a newline.
    sweep.points[0].label = results[0].label = "weird \"label\"\nline two";
    expect_rewrite_identical(path_, sweep, results);

    Sweep monitored = make_sweep("ring-dos-smoke");
    monitored.points.resize(4);
    for (SweepPoint& p : monitored.points) { p.config.monitors.enabled = true; }
    const auto telemetry = ScenarioRunner{RunnerOptions{.threads = 2}}.run(monitored);
    ASSERT_TRUE(telemetry[0].mon_enabled);
    ASSERT_FALSE(telemetry[0].mgr_p99.empty());
    expect_rewrite_identical(path_, monitored, telemetry);
}

TEST_F(DumpFixture, CorruptTokenFailsWithFileAndOffset) {
    const Sweep sweep = make_sweep("ring-dos-smoke");
    const std::string text = dump(sweep, ring_smoke());
    struct Corruption {
        std::string needle;      ///< first occurrence is replaced ...
        std::string bad;         ///< ... by this
        std::size_t token_at;    ///< offset of the bad token within `bad`
    };
    const std::vector<Corruption> cases = {
        {"\"boot_ok\": true", "\"boot_ok\": xrue", 11},
        {"\"run_cycles\": ", "\"run_cycles\": -", 14},
        {"\"ops\": ", "\"ops\": \"1\", \"x\": ", 7},
        {"\"config_hash\": \"0x", "\"config_hash\": \"0y", 15},
        {", \"seed\"", " \"seed\"", 1},
        {"\"load_lat_mean\": ", "\"load_lat_mean\": 1e", 17},
        {"\"label\": \"", "\"label\": \"\\q", 11},
        // A renamed key is unknown; it used to load as a missing key.
        {"\"load_lat_max\"", "\"load_lat_mzx\"", 0},
        {"\"ops\": ", "\"seed\": 1, \"ops\": ", 0},
        // Renamed, the points array used to load as a dump without points.
        {"\"points\"", "\"poi6ts\"", 0},
        {"\"sweep\": \"ring-dos-smoke\"", "\"sweep\": 1", 9},
        {"\"baseline_index\": ", "\"baseline_index\": \"0\", \"x\": ", 18},
        {"\"title\": ", "\"title\": \"t\", \"title\": ", 14},
    };
    for (const Corruption& c : cases) {
        SCOPED_TRACE(c.bad);
        const std::size_t at = text.find(c.needle);
        ASSERT_NE(at, std::string::npos);
        write_file(path_, text.substr(0, at) + c.bad + text.substr(at + c.needle.size()));
        const std::string want = path_ + ": byte " + std::to_string(at + c.token_at) + ": ";
        try {
            (void)load_json_results(path_);
            ADD_FAILURE() << "no error for a corrupt dump";
        } catch (const MalformedDump& e) {
            EXPECT_EQ(std::string{e.what()}.rfind(want, 0), 0U) << e.what();
        }
    }
    // Text after the document is an error too, not a truncation.
    write_file(path_, text + "x");
    EXPECT_THROW((void)load_json_results_by_label(path_), MalformedDump);
    // A resume from a corrupt dump fails before simulating anything.
    EXPECT_THROW((void)ScenarioRunner{}.run_resumed(sweep, path_), MalformedDump);
}

TEST_F(DumpFixture, RandomEditsEitherLoadOrFailAsMalformed) {
    // Seeded one-character edits of a real dump: a byte replaced by, or an
    // insertion of, a JSON-significant character, or a short deletion. The
    // reader either loads the result (an edit it reads leniently, or a
    // truncation that keeps the complete points) or throws `MalformedDump`;
    // any other exception, or a crash, is a reader bug.
    const std::string text = dump(make_sweep("ring-dos-smoke"), ring_smoke());
    constexpr std::string_view kSignificant = "{}[]\":,.-+eE019tfnx\\ \n";
    constexpr int kEdits = 2000;
    std::mt19937 rng{20261018U};
    std::uniform_int_distribution<std::size_t> offset{0, text.size() - 1};
    std::uniform_int_distribution<std::size_t> pick{0, kSignificant.size() - 1};
    std::uniform_int_distribution<int> kind{0, 2};
    std::uniform_int_distribution<std::size_t> span{1, 4};
    int loads = 0;
    int malformed = 0;
    for (int i = 0; i < kEdits; ++i) {
        std::string edited = text;
        const std::size_t at = offset(rng);
        switch (kind(rng)) {
        case 0: edited[at] = kSignificant[pick(rng)]; break;
        case 1: edited.insert(at, 1, kSignificant[pick(rng)]); break;
        default: edited.erase(at, span(rng)); break;
        }
        write_file(path_, edited);
        try {
            (void)load_json_results(path_);
            ++loads;
        } catch (const MalformedDump&) {
            ++malformed;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "edit " << i << " at byte " << at << ": " << e.what();
        } catch (...) {
            ADD_FAILURE() << "edit " << i << " at byte " << at << ": unknown exception";
        }
    }
    // Both outcomes occur, so the edits reach past the first token.
    EXPECT_GT(loads, 0);
    EXPECT_GT(malformed, 0);

    // Renaming any key always fails, naming the new key or the old one: the
    // new key is unknown or repeats another, and the old one goes missing.
    std::vector<std::pair<std::size_t, std::size_t>> keys; // [first, end) of each name
    for (std::size_t end = text.find("\": "); end != std::string::npos;
         end = text.find("\": ", end + 1)) {
        keys.emplace_back(text.rfind('"', end - 1) + 1, end);
    }
    constexpr std::string_view kKeyChars = "abcdefghijklmnopqrstuvwxyz_0123456789";
    std::uniform_int_distribution<std::size_t> which{0, keys.size() - 1};
    std::uniform_int_distribution<std::size_t> letter{0, kKeyChars.size() - 1};
    for (int i = 0; i < 500; ++i) {
        const auto [first, end] = keys[which(rng)];
        std::string edited = text;
        const std::size_t at = first + offset(rng) % (end - first);
        while (edited[at] == text[at]) { edited[at] = kKeyChars[letter(rng)]; }
        write_file(path_, edited);
        const std::string old_key = text.substr(first, end - first);
        const std::string new_key = edited.substr(first, end - first);
        SCOPED_TRACE(old_key + " -> " + new_key);
        try {
            (void)load_json_results(path_);
            ADD_FAILURE() << "a renamed key loaded";
        } catch (const MalformedDump& e) {
            const std::string what = e.what();
            EXPECT_TRUE(what.find('"' + new_key + '"') != std::string::npos ||
                        what.find('"' + old_key + '"') != std::string::npos)
                << what;
        }
    }
}

TEST_F(DumpFixture, MissingKeysFailAtTheirPoint) {
    // A point must hold every key the writer writes for it, and so must the
    // dump. A missing key fails at its object's opening brace; a point's
    // `config_hash` and `profile` are optional.
    const Sweep sweep = make_sweep("ring-dos-smoke");
    const std::string text = dump(sweep, ring_smoke());
    const std::size_t point = text.find("{\"label\"");
    const auto erase = [&](const std::string& t, std::string_view from, std::string_view to) {
        const std::size_t at = t.find(from, point);
        return t.substr(0, at) + t.substr(t.find(to, at + from.size()));
    };
    const auto expect_error = [&](const std::string& edited, std::size_t at,
                                  const std::string& what) {
        write_file(path_, edited);
        try {
            (void)load_json_results(path_);
            ADD_FAILURE() << "no error for " << what;
        } catch (const MalformedDump& e) {
            EXPECT_EQ(e.what(), path_ + ": byte " + std::to_string(at) + ": " + what);
        }
    };
    expect_error(erase(text, ", \"load_lat_max\"", ", \"load_lat_p99\""), point,
                 "missing key \"load_lat_max\"");
    expect_error(erase(text, "\"label\"", "\"config_hash\""), point,
                 "missing key \"label\"");
    const std::size_t title = text.find("\"title\"");
    expect_error(text.substr(0, title) + text.substr(text.find("\"baseline_index\"")), 0,
                 "missing key \"title\"");

    // Without its config hash a point still loads by label.
    write_file(path_, erase(text, "\"config_hash\"", "\"seed\""));
    EXPECT_EQ(load_json_results_by_label(path_).size(), sweep.points.size());

    // The monitor keys come all together with `"mon_enabled": true`, or
    // not at all.
    std::vector<ScenarioResult> results = ring_smoke();
    results[0].mon_enabled = true;
    const std::string monitored = dump(sweep, results);
    write_file(path_, monitored);
    EXPECT_EQ(load_json_results(path_).size(), sweep.points.size());
    expect_error(erase(monitored, ", \"mgr_p99\"", ", \"mgr_p999\""), point,
                 "missing key \"mgr_p99\"");
    const std::string unflagged = erase(monitored, ", \"mon_enabled\"", ", \"mon_lat_p50\"");
    expect_error(unflagged, unflagged.find("\"mon_lat_p50\""),
                 "key \"mon_lat_p50\" is not written for this point");
}

TEST_F(DumpFixture, ProfileRowsLoadBack) {
    Sweep sweep = make_sweep("ring-dos-smoke");
    sweep.points.resize(2);
    for (SweepPoint& p : sweep.points) { p.config.profile = true; }
    const auto results = ScenarioRunner{}.run(sweep);
    write_file(path_, dump(sweep, results));
    const auto loaded = load_json_results(path_);
    ASSERT_EQ(loaded.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_FALSE(results[i].profile.empty());
        const auto it = loaded.find(config_hash(sweep.points[i].config));
        ASSERT_NE(it, loaded.end()) << results[i].label;
        EXPECT_TRUE(it->second.profile == results[i].profile) << results[i].label;
    }
}

TEST(SameResult, ClearsOnlyTheKindsItIsTold) {
    ScenarioResult a;
    a.load_lat_mean = 1.5;
    a.ticks_executed = 7;
    a.wall_seconds = 0.25;
    ScenarioResult b = a;
    b.ticks_executed += 1;
    b.wall_seconds += 1;
    EXPECT_TRUE(test::same_result(a, b, FieldKind::kKernel));
    EXPECT_FALSE(test::same_result(a, b, FieldKind::kHost));
    b = a;
    b.load_lat_mean += 0.5;
    EXPECT_FALSE(test::same_result(a, b, FieldKind::kKernel));
    b = a;
    b.label = "renamed";
    EXPECT_FALSE(test::same_result(a, b, FieldKind::kKernel))
        << "a member outside the table is still compared";
}

} // namespace
} // namespace realm::scenario
