/// Tests for the scenario engine: registry integrity (every registered point
/// builds and boots), malformed preload spans and NoC boot plans, seed
/// derivation, thread-count-invariant parallel sweeps, the crossbar, ring
/// and mesh DoS smokes, and the JSON emitter.
#include "scenario/cli.hpp"
#include "scenario/config_fields.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/rng.hpp"

#include "same_result.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace realm::scenario {
namespace {

// --- Seed derivation (reproducible parallel runs) ----------------------------

TEST(DeriveSeed, StableAndDistinct) {
    EXPECT_EQ(sim::derive_seed("fig6a", 0), sim::derive_seed("fig6a", 0));
    EXPECT_NE(sim::derive_seed("fig6a", 0), sim::derive_seed("fig6a", 1));
    EXPECT_NE(sim::derive_seed("fig6a", 0), sim::derive_seed("fig6b", 0));
    // No degenerate zero seeds for the registered sweeps.
    for (const std::string& name : sweep_names()) {
        for (std::uint64_t i = 0; i < 16; ++i) {
            EXPECT_NE(sim::derive_seed(name, i), 0U);
        }
    }
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, KnowsTheFigureAndAblationSweeps) {
    for (const char* name : {"fig6a", "fig6b", "ablation-period", "ablation-throttle",
                             "ablation-dos", "random-mix", "idle-tail"}) {
        EXPECT_TRUE(has_sweep(name)) << name;
    }
    EXPECT_FALSE(has_sweep("nope"));
}

TEST(Registry, KnowsTheRingSweeps) {
    for (const char* name : {"ring-contention", "ring-dos-matrix", "ring-dos-smoke"}) {
        ASSERT_TRUE(has_sweep(name)) << name;
        const Sweep sweep = make_sweep(name);
        EXPECT_FALSE(sweep.points.empty());
        for (const SweepPoint& p : sweep.points) {
            EXPECT_TRUE(std::holds_alternative<RingTopologyConfig>(p.config.fabric)) << p.label;
        }
    }
    // The DoS matrix crosses 3 attacker counts x 3 modes x 4 defenses on a
    // 24-node ring, plus one no-attack baseline per defense for detector
    // false-positive scoring.
    const Sweep matrix = make_sweep("ring-dos-matrix");
    EXPECT_EQ(matrix.points.size(), 40U);
    for (const SweepPoint& p : matrix.points) {
        EXPECT_EQ(std::get<RingTopologyConfig>(p.config.fabric).num_nodes, 24U);
    }
}

TEST(Registry, SweepPointsCarryDerivedSeeds) {
    const Sweep sweep = make_sweep("fig6b");
    ASSERT_EQ(sweep.points.size(), 6U);
    ASSERT_TRUE(sweep.baseline_index.has_value());
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        EXPECT_EQ(sweep.points[i].config.seed, sim::derive_seed("fig6b", i));
    }
    // Budget points: fragmentation 1, short period, decreasing budgets.
    EXPECT_EQ(sweep.points[1].config.boot_plans[1].fragment_beats, 1U);
    EXPECT_GT(sweep.points[1].config.boot_plans[1].budget_bytes,
              sweep.points[5].config.boot_plans[1].budget_bytes);
}

TEST(Registry, EveryPointBuildsAndBoots) {
    // The set-up pass perfbench times, over every point of every sweep:
    // build, preload, boot and harvest with no simulated budget. A point
    // that throws here throws in any run of its sweep.
    std::size_t points = 0;
    for (const std::string& name : sweep_names()) {
        for (const SweepPoint& p : make_sweep(name).points) {
            SCOPED_TRACE(name + ": " + p.label);
            ScenarioConfig cfg = p.config;
            cfg.warmup_cycles = 0;
            cfg.max_cycles = 0;
            ScenarioResult res;
            ASSERT_NO_THROW(res = run_scenario(cfg, p.label));
            EXPECT_TRUE(res.boot_ok);
            ++points;
        }
    }
    RecordProperty("points", std::to_string(points));
}

// --- Malformed preload ------------------------------------------------------

/// The message of the contract violation `run_scenario` throws on `cfg`'s
/// set-up, or "" when it throws none.
std::string setup_violation(ScenarioConfig cfg) {
    cfg.warmup_cycles = 0;
    cfg.max_cycles = 0;
    try {
        (void)run_scenario(cfg);
    } catch (const sim::ContractViolation& e) {
        return e.what();
    }
    return "";
}

TEST(Preload, SpanOfPartialWordsFailsNamingTheSpan) {
    ScenarioConfig cfg = make_sweep("mesh-dos-smoke").points[0].config;
    cfg.preload.push_back(PreloadSpan{0x1000, 12, 1, false});
    const std::string what = setup_violation(cfg);
    EXPECT_NE(what.find("preload span at 0x1000 of 12 bytes"), std::string::npos) << what;
}

TEST(Preload, SpanRunningPastAMeshMemoryNodeFailsNamingTheSpan) {
    // The last word starts inside the node's 128 KiB and ends 4 bytes past
    // it, in store bytes no bus address reaches.
    ScenarioConfig cfg = make_sweep("mesh-dos-smoke").points[0].config;
    const auto& mesh = std::get<MeshTopologyConfig>(cfg.fabric);
    const axi::Addr end = mesh.mem_base + mesh.mem_span_bytes;
    cfg.preload.push_back(PreloadSpan{end - 0x1004, 0x1008, 1, false});
    const std::string what = setup_violation(cfg);
    EXPECT_NE(what.find("write of 4104 bytes at " + sim::hex(end - 0x1004)), std::string::npos)
        << what;
    EXPECT_NE(what.find("[" + sim::hex(mesh.mem_base) + ", " + sim::hex(end) + ")"),
              std::string::npos)
        << what;
}

TEST(NocBoot, PlanListOfTheWrongLengthFailsNamingBothCounts) {
    // A ring with one attacker hosts two managers, so it takes two plans.
    // A third plan used to be dropped and a single plan left the attacker
    // unregulated, both silently; the crossbar rejects either list too.
    ScenarioConfig cfg = make_sweep("ring-dos-smoke").points[0].config;
    const auto& nodes = std::get<RingTopologyConfig>(cfg.fabric).nodes;
    ASSERT_EQ(std::count_if(nodes.begin(), nodes.end(),
                            [](const RingNodeSpec& n) { return n.role == RingRole::kInterference; }),
              1);
    cfg.boot_plans.assign(3, RegionPlan{});
    std::string what = setup_violation(cfg);
    EXPECT_NE(what.find("got 3 plans for 2 managers"), std::string::npos) << what;
    cfg.boot_plans.assign(1, RegionPlan{});
    what = setup_violation(cfg);
    EXPECT_NE(what.find("got 1 plans for 2 managers"), std::string::npos) << what;
    cfg.boot_plans.assign(2, RegionPlan{});
    EXPECT_EQ(setup_violation(cfg), "");
}

// --- End-to-end scenario run -------------------------------------------------

ScenarioConfig tiny_scenario() {
    Sweep sweep = make_sweep("random-mix");
    ScenarioConfig cfg = sweep.points[1].config; // frag 16, budgeted DMA
    cfg.victim.random.num_ops = 500;
    return cfg;
}

TEST(RunScenario, CompletesAndReportsVictimMetrics) {
    ScenarioConfig cfg = tiny_scenario();
    const ScenarioResult res = run_scenario(cfg, "tiny");
    EXPECT_EQ(res.label, "tiny");
    EXPECT_TRUE(res.boot_ok);
    EXPECT_FALSE(res.timed_out);
    EXPECT_EQ(res.ops, 500U);
    EXPECT_GT(res.run_cycles, 0U);
    EXPECT_GT(res.load_lat_mean, 0.0);
    EXPECT_GT(res.dma_bytes, 0U);
}

TEST(RunScenario, SeedSelectsTheRandomWorkload) {
    ScenarioConfig cfg = tiny_scenario();
    const ScenarioResult a = run_scenario(cfg);
    cfg.seed ^= 0xDEADBEEF;
    const ScenarioResult b = run_scenario(cfg);
    EXPECT_NE(a.run_cycles, b.run_cycles)
        << "different derived seeds must produce different random traffic";
    cfg.seed ^= 0xDEADBEEF;
    const ScenarioResult c = run_scenario(cfg);
    EXPECT_EQ(a.run_cycles, c.run_cycles) << "same seed must reproduce exactly";
}

// --- Parallel runner ---------------------------------------------------------

TEST(ScenarioRunner, ThreadCountDoesNotChangeResults) {
    Sweep sweep = make_sweep("random-mix");
    for (SweepPoint& p : sweep.points) {
        p.config.victim.random.num_ops = 500; // keep the test quick
    }
    const std::vector<ScenarioResult> serial =
        ScenarioRunner{RunnerOptions{.threads = 1}}.run(sweep);
    const std::vector<ScenarioResult> parallel =
        ScenarioRunner{RunnerOptions{.threads = 4}}.run(sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(sweep.points[i].label);
        // Same scheduler on both sides: even the kernel's tick counters
        // must line up, or the runs were not bit-identical.
        EXPECT_TRUE(test::same_result(serial[i], parallel[i], FieldKind::kHost));
    }
}

TEST(ScenarioRunner, ResultsKeepPointOrder) {
    Sweep sweep = make_sweep("random-mix");
    for (SweepPoint& p : sweep.points) { p.config.victim.random.num_ops = 200; }
    const auto results = ScenarioRunner{RunnerOptions{.threads = 3}}.run(sweep);
    ASSERT_EQ(results.size(), sweep.points.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].label, sweep.points[i].label);
        EXPECT_EQ(results[i].seed, sweep.points[i].config.seed);
    }
}

TEST(Fig6bSweep, EveryPointFinishesAtAnyThreadCount) {
    // The paper's budget sweep through the runner on one thread and on
    // four: every point boots and finishes, and the thread count changes no
    // result, tick counters included.
    const Sweep sweep = make_sweep("fig6b");
    const std::vector<ScenarioResult> serial =
        ScenarioRunner{RunnerOptions{.threads = 1}}.run(sweep);
    const std::vector<ScenarioResult> parallel =
        ScenarioRunner{RunnerOptions{.threads = 4}}.run(sweep);
    ASSERT_EQ(serial.size(), 6U) << "the baseline plus five budget ratios";
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(sweep.points[i].label);
        EXPECT_TRUE(serial[i].boot_ok);
        EXPECT_FALSE(serial[i].timed_out);
        EXPECT_TRUE(test::same_result(serial[i], parallel[i], FieldKind::kHost));
    }
}

// --- Shared Susan trace ------------------------------------------------------

TEST(SharedSusanTrace, AnotherConfigInBetweenChangesNoResult) {
    // One thread runs a fig6b budget point (shrunk as `small_fig6_point` in
    // test_scheduler.cpp does), then the same point over a wider image, then
    // the first again. The per-thread trace memo must rebuild on each
    // change: the repeat matches the first run exactly, and the middle run
    // replays its own trace.
    ScenarioConfig point = make_sweep("fig6b").points.back().config;
    point.victim.susan.width = 32;
    point.victim.susan.height = 24;
    ScenarioConfig wider = point;
    wider.victim.susan.width = 40;
    const ScenarioResult first = run_scenario(point);
    const ScenarioResult middle = run_scenario(wider);
    const ScenarioResult again = run_scenario(point);
    ASSERT_TRUE(first.boot_ok);
    ASSERT_FALSE(first.timed_out);
    EXPECT_TRUE(test::same_result(first, again, FieldKind::kHost));
    EXPECT_NE(middle.ops, first.ops);
}

// --- Config field tables (config_hash) --------------------------------------

/// `at` as code spells it: `fabric.xbar.llc.ways`, `interference[0].genome.genes[3]`.
std::string dotted(const FieldPath& at) {
    const std::string head = at.parent == nullptr ? "" : dotted(*at.parent);
    if (at.key == nullptr) { return head + '[' + std::to_string(at.index) + ']'; }
    return head.empty() ? at.key : head + '.' + at.key;
}

/// Makes alternative `i` of `v` the active one, default-constructed.
template <typename Variant>
void emplace_alternative(Variant& v, std::size_t i) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        ((I == i ? (void)v.template emplace<I>() : void()), ...);
    }(std::make_index_sequence<std::variant_size_v<Variant>>{});
}

/// Sets `v` from its path: a vector to two elements, an optional to a
/// value, a string to the path, anything else but a variant to a number
/// drawn from it. With `other`: one element, no value, a longer string,
/// the next number, a variant's next alternative.
template <typename V>
void fill(const FieldPath& at, V& v, bool other) {
    std::uint64_t x = 0;
    for (const char c : dotted(at)) { x = x * 131 + static_cast<unsigned char>(c); }
    x += other ? 1 : 0;
    if constexpr (detail::kIsVariant<V>) {
        if (other) { emplace_alternative(v, (v.index() + 1) % std::variant_size_v<V>); }
    } else if constexpr (detail::kIsVector<V>) {
        v.resize(other ? 1 : 2);
    } else if constexpr (detail::kIsOptional<V>) {
        v = other ? V{} : V{std::in_place};
    } else if constexpr (std::is_same_v<V, std::string>) {
        v = dotted(at) + (other ? "~" : "");
    } else if constexpr (std::is_floating_point_v<V>) {
        v = static_cast<double>(x % 1000) / 8;
    } else if constexpr (std::is_same_v<V, bool>) {
        v = (x & 1) != 0;
    } else {
        v = static_cast<V>(x % 251); // enum or integer
    }
}

/// The config that builds alternative `fabric` of `FabricConfig`, every
/// vector of which holds two elements and every optional a value, and every
/// other field a number drawn from its path, so that the pinned digests
/// below move when a field is dropped, moved or retyped.
ScenarioConfig full_config(std::size_t fabric) {
    ScenarioConfig cfg;
    emplace_alternative(cfg.fabric, fabric);
    walk_config(cfg, [](const FieldPath& at, auto& v, ConfigKind) { fill(at, v, false); });
    return cfg;
}

TEST(ConfigFields, EverySemanticFieldMovesTheHashAndNoHostOnlyFieldDoes) {
    // One case per field the walk visits on each fabric, vector sizes,
    // optional presence and the fabric's alternative included; a member
    // without a table entry does not build.
    for (std::size_t fabric = 0; fabric < std::variant_size_v<FabricConfig>; ++fabric) {
        const std::string key = kAlternativeKeys<FabricConfig>[fabric];
        SCOPED_TRACE(key);
        const ScenarioConfig base = full_config(fabric);
        const std::uint64_t hash = config_hash(base);
        std::vector<std::string> host_only;
        for (std::size_t k = 0;; ++k) {
            ScenarioConfig c = base;
            std::size_t seen = 0;
            std::string path;
            ConfigKind kind{};
            walk_config(c, [&](const FieldPath& at, auto& v, ConfigKind field_kind) {
                if (seen++ != k) { return; }
                fill(at, v, true);
                path = dotted(at);
                kind = field_kind;
            });
            if (path.empty()) { break; } // past the last field
            if (kind == ConfigKind::kSemantic && path == "fabric.mesh.credit_return_delay") {
                // The mesh runs a delay below max(link_latency, 1) at that
                // floor and hashes the delay it runs (`noc::NocMesh::shard_safe`).
                // This config's delay sits below its link latency, so the
                // mutation leaves the hash; a delay past the floor moves it.
                auto& mesh = std::get<MeshTopologyConfig>(c.fabric);
                ASSERT_LT(mesh.credit_return_delay, mesh.link_latency);
                EXPECT_EQ(config_hash(c), hash) << path << " below the mesh's floor moves the hash";
                mesh.credit_return_delay = mesh.link_latency + 1;
                EXPECT_NE(config_hash(c), hash) << path << " past the mesh's floor leaves the hash";
            } else if (kind == ConfigKind::kSemantic) {
                EXPECT_NE(config_hash(c), hash) << path << " is semantic but leaves the hash";
            } else {
                host_only.push_back(path);
                EXPECT_EQ(config_hash(c), hash) << path << " is host-only but moves the hash";
            }
        }
        // Tagging a field host-only claims every value runs bit-identically;
        // the list is spelled out so that claim is never made in passing.
        std::vector<std::string> expected{"name"};
        if (key == "mesh") {
            for (const char* tail : {"", "[0]", "[1]"}) {
                expected.push_back(std::string{"fabric.mesh.tile_shards"} + tail);
            }
        }
        expected.insert(expected.end(), {"victim.random.seed", "shard_workers", "profile"});
        EXPECT_EQ(host_only, expected);
    }
}

TEST(ConfigFields, HashesStayPut) {
    // Goldens and `--resume` caches are keyed by `config_hash`. These
    // digests move whenever a field is added, dropped, reordered or
    // retagged, or `kVersion` is bumped, and so do those keys: change them
    // with the goldens, on purpose.
    EXPECT_EQ(config_hash(ScenarioConfig{}), 0x8bccd3eaf728d513ULL);
    EXPECT_EQ(config_hash(full_config(0)), 0xbc2294bf140a27adULL);
    EXPECT_EQ(config_hash(full_config(1)), 0x5bec4d47110c57a6ULL);
    EXPECT_EQ(config_hash(full_config(2)), 0x66fbd9e7f8f393bbULL);
}

TEST(ConfigFields, ShapesAndPoliciesNeverAlias) {
    // Changes no single-field mutation makes.
    ScenarioConfig mesh = make_sweep("mesh-dos-smoke").points[0].config;
    std::set<std::uint64_t> hashes;
    for (const noc::RoutingPolicy policy : noc::kAllRoutingPolicies) {
        std::get<MeshTopologyConfig>(mesh.fabric).routing = policy;
        hashes.insert(config_hash(mesh));
    }
    EXPECT_EQ(hashes.size(), noc::kAllRoutingPolicies.size()) << "routing policies alias";
    ScenarioConfig transposed = mesh;
    auto& shape = std::get<MeshTopologyConfig>(transposed.fabric);
    std::swap(shape.rows, shape.cols);
    EXPECT_NE(config_hash(transposed), config_hash(mesh)) << "same node count, other shape";
    ScenarioConfig ring = make_sweep("ring-dos-smoke").points[0].config;
    const std::uint64_t ring_hash = config_hash(ring);
    auto& resized = std::get<RingTopologyConfig>(ring.fabric);
    resized.num_nodes = 12;
    resized.nodes = make_ring_roles(12, 1, 2);
    EXPECT_NE(config_hash(ring), ring_hash) << "ring resized with its roles";
}

// --- Resume ------------------------------------------------------------------

Sweep quick_smoke_sweep() {
    Sweep sweep = make_sweep("ring-dos-smoke");
    sweep.points.resize(4); // the 1-attacker cells keep the test fast
    return sweep;
}

TEST(Resume, RunResumedSkipsMatchingPointsAndRerunsChangedOnes) {
    Sweep sweep = quick_smoke_sweep();
    const ScenarioRunner runner{RunnerOptions{.threads = 2}};
    const auto first = runner.run(sweep);
    const std::string path = test::scratch_path("scenario_resume_skip.json");
    ASSERT_TRUE(write_json_file(path, sweep, first));

    // Unchanged sweep: every point is served from the dump.
    std::size_t reused = 0;
    const auto resumed = runner.run_resumed(sweep, path, &reused);
    EXPECT_EQ(reused, sweep.points.size());
    ASSERT_EQ(resumed.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(resumed[i].run_cycles, first[i].run_cycles);
        EXPECT_EQ(resumed[i].label, sweep.points[i].label);
    }

    // Changing one point's semantics re-runs exactly that point.
    sweep.points[1].config.seed ^= 0xBEEF;
    const auto partial = runner.run_resumed(sweep, path, &reused);
    EXPECT_EQ(reused, sweep.points.size() - 1);
    EXPECT_EQ(partial[0].run_cycles, first[0].run_cycles);
    // A missing file degrades to a full run, never an error.
    const auto cold = runner.run_resumed(sweep, "does_not_exist.json", &reused);
    EXPECT_EQ(reused, 0U);
    EXPECT_EQ(cold.size(), sweep.points.size());
    std::remove(path.c_str());
}

TEST(Resume, MonitoredPointsNeverAliasUnmonitoredCaches) {
    // A dump written without --monitors must not satisfy a monitored resume:
    // the cached line has no telemetry.
    Sweep sweep = quick_smoke_sweep();
    sweep.points.resize(2);
    const ScenarioRunner runner{RunnerOptions{.threads = 2}};
    const auto plain = runner.run(sweep);
    const std::string path = test::scratch_path("scenario_resume_monitored.json");
    ASSERT_TRUE(write_json_file(path, sweep, plain));

    Sweep monitored = sweep;
    for (SweepPoint& p : monitored.points) { p.config.monitors.enabled = true; }
    std::size_t reused = 0;
    const auto results = runner.run_resumed(monitored, path, &reused);
    EXPECT_EQ(reused, 0U) << "monitored configs must re-run, not reuse";
    ASSERT_EQ(results.size(), monitored.points.size());
    for (const ScenarioResult& r : results) { EXPECT_TRUE(r.mon_enabled); }

    // And the monitored dump round-trips: a second monitored pass is all hits.
    ASSERT_TRUE(write_json_file(path, monitored, results));
    const auto again = runner.run_resumed(monitored, path, &reused);
    EXPECT_EQ(reused, monitored.points.size());
    std::remove(path.c_str());
}

TEST(Resume, AMeshPointBelowItsDelayFloorResumesFromOneAtIt) {
    // At link latency 1 the mesh runs credit_return_delay 0 as 1
    // (`noc::NocMesh::shard_safe`), so the two share a resume entry; the
    // ring runs delay 0 as 0, so a dump written at 1 does not serve it.
    const ScenarioRunner runner{RunnerOptions{.threads = 1}};
    for (const bool mesh : {true, false}) {
        SCOPED_TRACE(mesh ? "mesh" : "ring");
        Sweep at_one = make_sweep(mesh ? "mesh-dos-smoke" : "ring-dos-smoke");
        at_one.points.resize(1);
        ASSERT_EQ(noc_config(at_one.points[0].config.fabric)->link_latency, 1U);
        noc_config(at_one.points[0].config.fabric)->credit_return_delay = 1;
        const std::string path = test::scratch_path("scenario_resume_delay_floor.json");
        ASSERT_TRUE(write_json_file(path, at_one, runner.run(at_one)));
        Sweep at_zero = at_one;
        noc_config(at_zero.points[0].config.fabric)->credit_return_delay = 0;
        std::size_t reused = 0;
        (void)runner.run_resumed(at_zero, path, &reused);
        EXPECT_EQ(reused, mesh ? 1U : 0U);
        std::remove(path.c_str());
    }
}

// --- 24-node DoS-matrix point through the parallel runner --------------------

TEST(ScenarioRunner, RingMatrixPointThreadInvariant) {
    // Acceptance gate: a 24-node ring DoS-matrix point must produce
    // identical results through the runner at --threads 1 and --threads N.
    Sweep matrix = make_sweep("ring-dos-matrix");
    Sweep sweep;
    sweep.name = matrix.name;
    sweep.points = {matrix.points[0], matrix.points[2]}; // hog: none + budget
    for (SweepPoint& p : sweep.points) {
        p.config.victim.stream.repeat = 1; // keep the test quick
    }
    const auto serial = ScenarioRunner{RunnerOptions{.threads = 1}}.run(sweep);
    const auto parallel = ScenarioRunner{RunnerOptions{.threads = 4}}.run(sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(sweep.points[i].label);
        EXPECT_TRUE(test::same_result(serial[i], parallel[i], FieldKind::kHost));
        EXPECT_GT(serial[i].fabric_hops, 0U);
    }
}

// --- JSON emitter ------------------------------------------------------------

TEST(XbarDosSmoke, RunsTheMeshSmokeCellsAndEveryPointFinishes) {
    // The crossbar runs the same ten DoS cells as the mesh smoke, so the
    // three fabrics compare one regulation story; every cell, the
    // zero-attacker defended ones included, boots and finishes.
    const Sweep mesh = make_sweep("mesh-dos-smoke");
    const Sweep xbar = make_sweep("xbar-dos-smoke");
    const std::vector<ScenarioResult> results =
        ScenarioRunner{RunnerOptions{.threads = 4}}.run(xbar);
    ASSERT_EQ(results.size(), 10U);
    ASSERT_EQ(mesh.points.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].label, mesh.points[i].label)
            << "the three fabrics must run identical cells";
        EXPECT_TRUE(results[i].boot_ok) << results[i].label;
        EXPECT_FALSE(results[i].timed_out) << results[i].label;
    }
}

/// The result labelled `label` (a failure, and an empty result, if none is).
ScenarioResult cell_result(const std::vector<ScenarioResult>& results,
                           const std::string& label) {
    const auto it = std::find_if(results.begin(), results.end(),
                                 [&](const ScenarioResult& r) { return r.label == label; });
    EXPECT_NE(it, results.end()) << "no cell " << label;
    return it == results.end() ? ScenarioResult{} : *it;
}

/// The gates of a ten-cell DoS smoke: every cell boots, finishes, hops the
/// fabric and reports a simulation speed, and the budget defense beats no
/// defense on the two cells the matrix exists for.
void expect_dos_smoke_gates(const std::vector<ScenarioResult>& results) {
    ASSERT_EQ(results.size(), 10U) << "8 attack cells plus one baseline per defense";
    for (const ScenarioResult& r : results) {
        EXPECT_TRUE(r.boot_ok) << r.label;
        EXPECT_FALSE(r.timed_out) << r.label;
        EXPECT_GT(r.fabric_hops, 0U) << r.label;
        EXPECT_GT(r.sim_cycles_per_sec(), 0.0) << r.label;
    }
    const auto cell = [&](const std::string& label) { return cell_result(results, label); };
    EXPECT_LT(cell("2atk/hog/budget").load_lat_mean, cell("2atk/hog/none").load_lat_mean);
    EXPECT_LT(cell("2atk/wstall/budget").store_lat_max, cell("2atk/wstall/none").store_lat_max);
}

TEST(RingDosSmoke, EveryCellFinishesAndTheBudgetBeatsNoDefense) {
    expect_dos_smoke_gates(
        ScenarioRunner{RunnerOptions{.threads = 4}}.run(make_sweep("ring-dos-smoke")));
}

TEST(MeshDosSmoke, EveryCellFinishesAndTheBudgetBeatsNoDefense) {
    expect_dos_smoke_gates(
        ScenarioRunner{RunnerOptions{.threads = 4}}.run(make_sweep("mesh-dos-smoke")));
}

TEST(MeshDosSmoke, TickAllMatchesTheActivitySchedulerWithMoreTicks) {
    const Sweep sweep = make_sweep("mesh-dos-smoke");
    Sweep naive = sweep;
    for (SweepPoint& p : naive.points) { p.config.scheduler = sim::Scheduler::kTickAll; }
    const ScenarioRunner runner{RunnerOptions{.threads = 4}};
    const std::vector<ScenarioResult> activity = runner.run(sweep);
    const std::vector<ScenarioResult> tick_all = runner.run(naive);
    ASSERT_EQ(activity.size(), tick_all.size());
    for (std::size_t i = 0; i < activity.size(); ++i) {
        EXPECT_TRUE(test::same_result(activity[i], tick_all[i], FieldKind::kKernel));
        EXPECT_LT(activity[i].ticks_executed, tick_all[i].ticks_executed) << activity[i].label;
    }
}

TEST(MeshDosSmoke, ProfiledRunMatchesAndAttributesEveryPoint) {
    // The profiler is host-side observability: a profiled run simulates
    // exactly what the plain run does, tick counts included. Every point
    // must carry non-trivial attribution rows that name the router, the
    // memory slave, the egress mux, the REALM unit and a manager, so a type
    // the profiler stops attributing fails here.
    const Sweep sweep = make_sweep("mesh-dos-smoke");
    Sweep profiled = sweep;
    for (SweepPoint& p : profiled.points) { p.config.profile = true; }
    const ScenarioRunner runner{RunnerOptions{.threads = 4}};
    const std::vector<ScenarioResult> plain = runner.run(sweep);
    const std::vector<ScenarioResult> traced = runner.run(profiled);
    ASSERT_EQ(plain.size(), traced.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const ScenarioResult& r = traced[i];
        EXPECT_TRUE(test::same_result(plain[i], r, FieldKind::kHost)) << r.label;
        ASSERT_FALSE(r.profile.empty()) << r.label;
        std::uint64_t nanos = 0;
        std::string types;
        for (const ProfileRow& row : r.profile) {
            EXPECT_GT(row.ticks, 0U) << r.label << ": " << row.type;
            EXPECT_GT(row.components, 0U) << r.label << ": " << row.type;
            nanos += row.nanos;
            types += row.type + " ";
        }
        EXPECT_GT(nanos, 0U) << r.label;
        const auto has = [&](const char* type) { return types.find(type) != std::string::npos; };
        for (const char* weighed : {"Router", "MemSlave", "AxiMux", "RealmUnit"}) {
            EXPECT_TRUE(has(weighed)) << r.label << ": no " << weighed << " in " << types;
        }
        EXPECT_TRUE(has("DmaEngine") || has("InjectorEngine") || has("CoreModel"))
            << r.label << ": no manager in " << types;
    }
}

TEST(MeshRoutingDosSmoke, EveryPointFinishesAndTheBudgetBeatsNoDefenseUnderEveryPolicy) {
    // The ten smoke cells under each of the four routing policies: every
    // point boots, finishes and hops the fabric, and under every policy the
    // budget defense beats no defense on the hog cell.
    const std::vector<ScenarioResult> results =
        ScenarioRunner{RunnerOptions{.threads = 4}}.run(make_sweep("mesh-routing-dos-smoke"));
    ASSERT_EQ(results.size(), 40U);
    for (const ScenarioResult& r : results) {
        EXPECT_TRUE(r.boot_ok) << r.label;
        EXPECT_FALSE(r.timed_out) << r.label;
        EXPECT_GT(r.fabric_hops, 0U) << r.label;
    }
    for (const std::string policy : {"xy", "yx", "o1turn", "west-first"}) {
        EXPECT_LT(cell_result(results, "2atk/hog/budget/" + policy).load_lat_mean,
                  cell_result(results, "2atk/hog/none/" + policy).load_lat_mean)
            << policy;
    }
}

/// `parse_bench_args` over `args`, the program name first.
BenchOptions parse_args(std::vector<std::string> args, bool accept_positional = false) {
    std::vector<char*> argv;
    for (std::string& a : args) { argv.push_back(a.data()); }
    return parse_bench_args(static_cast<int>(argv.size()), argv.data(), accept_positional);
}

TEST(RoutingOverride, ForcedPolicyKeepsEveryLabelAndChangesEveryConfigHash) {
    // `--routing yx` re-routes every point through the CLI path the sweep
    // binaries take: the labels stay, and every config hash changes (the
    // policy is semantic), so a `--resume` cache never serves one policy's
    // result for another.
    const Sweep base = make_sweep("mesh-dos-smoke");
    Sweep forced = base;
    apply_overrides(parse_args({"scenario_sweep", "mesh-dos-smoke", "--routing", "yx"},
                               /*accept_positional=*/true),
                    forced);
    ASSERT_EQ(forced.points.size(), base.points.size());
    for (std::size_t i = 0; i < base.points.size(); ++i) {
        EXPECT_EQ(forced.points[i].label, base.points[i].label);
        EXPECT_NE(config_hash(forced.points[i].config), config_hash(base.points[i].config))
            << base.points[i].label;
    }
}

TEST(FabricOverride, FlagsForAFieldTheFabricLacksLeaveEveryConfigHash) {
    // `--routing` sets only a mesh's policy, `--link-latency` only a NoC's
    // links and `--shards` only a mesh's stripes. A point whose fabric has
    // no such field runs unchanged, so its hash stays and a `--resume`
    // cache serves it.
    const auto expect_unchanged = [](const std::string& name, const std::string& flag,
                                     const std::string& value) {
        const Sweep base = make_sweep(name);
        Sweep forced = base;
        apply_overrides(parse_args({"scenario_sweep", name, flag, value},
                                   /*accept_positional=*/true),
                        forced);
        ASSERT_EQ(forced.points.size(), base.points.size());
        for (std::size_t i = 0; i < base.points.size(); ++i) {
            EXPECT_EQ(config_hash(forced.points[i].config), config_hash(base.points[i].config))
                << name << ' ' << flag << ' ' << value << ": " << base.points[i].label;
        }
    };
    expect_unchanged("ring-dos-smoke", "--routing", "yx");
    expect_unchanged("xbar-dos-smoke", "--routing", "yx");
    expect_unchanged("xbar-dos-smoke", "--link-latency", "4");
    expect_unchanged("ring-dos-smoke", "--shards", "4");
    expect_unchanged("xbar-dos-smoke", "--shards", "4");
}

TEST(FabricOverride, ShardsLeaveACrossbarSweepAsItWas) {
    // `scenario_sweep xbar-dos-smoke --shards 4` runs what `--shards 1`
    // runs: every simulated field and tick counter, per-shard slices
    // included, and every hash.
    const auto run = [](const std::string& shards) {
        Sweep sweep = make_sweep("xbar-dos-smoke");
        apply_overrides(parse_args({"scenario_sweep", "xbar-dos-smoke", "--shards", shards},
                                   /*accept_positional=*/true),
                        sweep);
        return std::pair{sweep, ScenarioRunner{RunnerOptions{.threads = 4}}.run(sweep)};
    };
    const auto [one, one_results] = run("1");
    const auto [four, four_results] = run("4");
    ASSERT_EQ(four_results.size(), one_results.size());
    for (std::size_t i = 0; i < one_results.size(); ++i) {
        EXPECT_EQ(config_hash(four.points[i].config), config_hash(one.points[i].config));
        EXPECT_TRUE(test::same_result(four_results[i], one_results[i], FieldKind::kHost));
    }
}

TEST(FabricOverride, OnlyAMeshRunsOnMoreThanOneShard) {
    // The crossbar and the ring place every component on shard 0, so more
    // shards would only add a barrier with idle workers.
    ScenarioConfig xbar = make_sweep("xbar-dos-smoke").points.front().config;
    xbar.shards = 2;
    ScenarioConfig ring = make_sweep("ring-dos-smoke").points.front().config;
    ring.shards = 2;
    for (const auto& [cfg, fabric] : {std::pair{xbar, "crossbar"}, std::pair{ring, "ring"}}) {
        try {
            (void)run_scenario(cfg, "point");
            ADD_FAILURE() << fabric << " ran on 2 shards";
        } catch (const sim::ContractViolation& e) {
            EXPECT_NE(std::string{e.what()}.find(std::string{"a "} + fabric + " runs on one"),
                      std::string::npos)
                << e.what();
        }
    }
    ScenarioConfig mesh = make_sweep("mesh-dos-smoke").points.front().config;
    mesh.shards = 2;
    mesh.max_cycles = 0;
    EXPECT_NO_THROW((void)run_scenario(mesh));
}

TEST(BenchArgsDeathTest, UnsignedFlagsRejectASignAndValuesOutOfRange) {
    // A sign is not part of an unsigned value: `-1` must not wrap to
    // 2^64 - 1. Each flag also keeps its own range.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"--threads", "-1"},        {"--diff-slack", "-1"},
        {"--link-latency", "0"},    {"--shards", "65"},
        {"--threads", "4294967296"}, {"--link-latency", "+4"},
        {"--diff-slack", "18446744073709551616"},
    };
    for (const auto& [flag, value] : bad) {
        EXPECT_EXIT(parse_args({"bench", flag, value}), ::testing::ExitedWithCode(2),
                    flag + " expects")
            << flag << ' ' << value;
    }
}

TEST(BenchArgsDeathTest, RealFlagsRejectNanInfAndHex) {
    // NaN fails every range check, so `strtod` let `--diff-threshold nan`
    // switch the regression gate off. Infinities, overflow to infinity and
    // hex are rejected too, as is each flag's own range.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"--diff-threshold", "nan"},  {"--diff-threshold", "inf"},
        {"--diff-threshold", "1e400"}, {"--diff-threshold", "0x10"},
        {"--diff-threshold", "-0.1"}, {"--speed-threshold", "nan"},
        {"--speed-threshold", "1"},   {"--speed-slack", "nan"},
        {"--speed-slack", "inf"},     {"--speed-slack", "-nan"},
        {"--diff-threshold", "infinity"}, {"--speed-slack", "0x1p3"},
        {"--diff-threshold", "1.5x"}, {"--speed-slack", ""},
    };
    for (const auto& [flag, value] : bad) {
        EXPECT_EXIT(parse_args({"bench", flag, value}), ::testing::ExitedWithCode(2),
                    flag + " expects .*, got '" + value + "'")
            << flag << ' ' << value;
    }
}

TEST(BenchArgs, RealFlagsKeepTheirRanges) {
    EXPECT_EQ(parse_args({"bench", "--diff-threshold", "0"}).diff_threshold, 0.0);
    EXPECT_EQ(parse_args({"bench", "--diff-threshold", "2.5"}).diff_threshold, 2.5);
    EXPECT_EQ(parse_args({"bench", "--speed-threshold", "0.9"}).speed_threshold, 0.9);
    EXPECT_EQ(parse_args({"bench", "--speed-slack", "1e5"}).speed_slack, 100000.0);
}

TEST(BenchArgs, UnsignedFlagsKeepTheirRanges) {
    EXPECT_EQ(parse_args({"bench", "--threads", "0"}).runner.threads, 0U)
        << "--threads 0 still means autodetect";
    EXPECT_EQ(parse_args({"bench", "--diff-slack", "0"}).diff_slack, 0U);
    EXPECT_EQ(parse_args({"bench", "--diff-slack", "18446744073709551615"}).diff_slack,
              18446744073709551615ULL);
    EXPECT_EQ(parse_args({"bench", "--shards", "64"}).shards, 64U);
}

TEST(JsonOutput, EmitsOnePointPerResultWithEscaping) {
    Sweep sweep = make_sweep("random-mix");
    for (SweepPoint& p : sweep.points) { p.config.victim.random.num_ops = 100; }
    sweep.points[0].label = "weird \"label\"\n";
    const auto results = ScenarioRunner{}.run(sweep);
    std::ostringstream os;
    write_json(os, sweep, results);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"sweep\": \"random-mix\""), std::string::npos);
    EXPECT_NE(json.find("\\\"label\\\"\\n"), std::string::npos);
    EXPECT_NE(json.find("\"run_cycles\""), std::string::npos);
    std::size_t points = 0;
    for (std::size_t pos = json.find("\"label\""); pos != std::string::npos;
         pos = json.find("\"label\"", pos + 1)) {
        ++points;
    }
    EXPECT_EQ(points, results.size());
    // Balanced braces/brackets: a cheap structural sanity check (the CI
    // smoke run validates against a real JSON parser).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

} // namespace
} // namespace realm::scenario
