/// \file
/// \brief Declarative scenario engine: one struct describes a whole
///        experiment on the Cheshire-like SoC — topology, REALM regulation,
///        memory preload, traffic mix, and run length — and `run_scenario`
///        executes it in a private `SimContext`.
///
/// This replaces the hand-built setup previously duplicated across
/// `bench/fig6_common.hpp`, the ablation benches, and the examples. Every
/// field maps to a knob one of those harnesses used; sweeps are just
/// vectors of configs (see registry.hpp) and are embarrassingly parallel
/// because a scenario owns all of its simulation state.
#pragma once

#include "mon/txn_monitor.hpp"
#include "scenario/topology.hpp"
#include "sim/context.hpp"
#include "soc/cheshire_soc.hpp"
#include "traffic/core.hpp"
#include "traffic/dma.hpp"
#include "traffic/injector.hpp"
#include "traffic/susan.hpp"
#include "traffic/workload.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace realm::scenario {

/// Per-REALM-unit regulation programmed through the guarded register file
/// by the boot master (order: core unit first, then DSA units).
struct RegionPlan {
    std::uint64_t budget_bytes = 1ULL << 30;
    std::uint64_t period_cycles = 1ULL << 20;
    std::uint32_t fragment_beats = axi::kMaxBurstBeats;
};

/// The latency-sensitive workload replayed on the core port.
struct VictimConfig {
    enum class Kind : std::uint8_t {
        kSusan,  ///< MiBench Susan trace (the paper's Figure 6 victim)
        kStream, ///< sequential stream kernel
        kRandom, ///< uniform-random accesses, seeded from the derived seed
    };
    Kind kind = Kind::kSusan;
    traffic::SusanConfig susan{};
    traffic::StreamWorkload::Config stream{};
    traffic::RandomWorkload::Config random{};
};

/// One interference DMA engine, attached to a DSA port.
struct InterferenceConfig {
    traffic::DmaConfig dma{};
    axi::Addr src = 0x8010'0000;
    axi::Addr dst = 0x7000'0000; ///< SPM by default
    std::uint64_t bytes = 0x4000;
    bool loop = true;
    /// Ground truth for the monitoring plane: marks this engine as a DoS
    /// attacker so detector verdicts can be scored (see mon/detector.hpp).
    /// Result-affecting only through the hash (keeps attack/benign cells
    /// from aliasing in a resume cache); the engine itself ignores it.
    bool hostile = false;
    /// When set, the port drives a programmable `InjectorEngine` decoded
    /// from this genome instead of the DMA engine: `src`/`dst`/`bytes`
    /// become the read/write walk windows, `dma`/`loop` are ignored, and
    /// the engine's RNG is seeded from the scenario seed and the
    /// interference index.
    std::optional<traffic::InjectorGenome> genome;
};

/// Online transaction-monitoring & telemetry plane (src/mon/). When enabled,
/// a `mon::TxnMonitor` taps every manager port — the victim core's and each
/// interference DMA's — through the port links' push observers. It holds no
/// flit, so a monitored run simulates exactly the unmonitored one; the flag
/// is hashed because a monitored result carries the `mon_*` and `mgr_*`
/// telemetry an unmonitored one lacks.
struct MonitorConfig {
    bool enabled = false;
    /// Detection/pathology thresholds.
    mon::TxnMonitorConfig thresholds{};
};

/// DRAM span seeded with `value(offset) = offset * multiplier` (u64 every
/// 8 bytes) and optionally installed hot in the LLC.
struct PreloadSpan {
    axi::Addr base = 0;
    std::uint64_t bytes = 0; ///< a multiple of 8; `run_scenario` throws otherwise
    std::uint64_t multiplier = 1;
    bool warm = true;
};

/// One row of the cycle-attribution profile (`ScenarioConfig::profile`):
/// wall time and executed ticks charged to one (component type, shard).
struct ProfileRow {
    std::string type;  ///< demangled component type
    unsigned shard = 0;
    std::uint64_t components = 0; ///< instances in the bucket
    std::uint64_t ticks = 0;      ///< executed ticks attributed
    std::uint64_t nanos = 0;      ///< wall time attributed

    bool operator==(const ProfileRow&) const = default;
};

/// A complete experiment description.
struct ScenarioConfig {
    std::string name = "scenario";

    /// The fabric the scenario builds: the Cheshire crossbar SoC (default),
    /// or a ring or mesh NoC with per-node roles and REALM placement (see
    /// topology.hpp).
    FabricConfig fabric{};
    /// Boot-flow regulation; empty skips the boot script entirely.
    std::vector<RegionPlan> boot_plans;
    /// Enables the throttling unit on every DSA-side REALM unit after boot.
    bool throttle_dsa = false;
    /// Programs a monitor-only (unregulated) region over the LLC span on
    /// the core-side REALM unit — free observability without any budget.
    bool monitor_llc_on_core = false;

    VictimConfig victim{};
    /// Interference DMAs, attached to the fabric's interference ports
    /// 0..n-1 (the crossbar's DSA ports, n <= `num_dsa`).
    std::vector<InterferenceConfig> interference;
    /// Monitoring & telemetry plane (per-manager monitors + detection).
    MonitorConfig monitors{};
    std::vector<PreloadSpan> preload;

    /// Interference spin-up before the victim starts (applied only when
    /// there is interference), reproducing the "steady-state disturbance"
    /// precondition of the Figure 6 runs.
    sim::Cycle warmup_cycles = 3000;
    sim::Cycle max_cycles = 60'000'000;
    /// Extra cycles simulated after the victim finishes — an idle-heavy
    /// tail that showcases (and tests) the activity-aware kernel.
    sim::Cycle cooldown_cycles = 0;

    sim::Scheduler scheduler = sim::Scheduler::kActivity;
    /// Spatial shards the simulation kernel partitions a mesh into (column
    /// stripes). Shards tick concurrently and exchange cross-shard flits at
    /// the cycle edge; results are bit-identical for every value (see
    /// sim/context.hpp). The crossbar and the ring place nothing on another
    /// shard, so `run_scenario` refuses them more than one.
    unsigned shards = 1;
    /// Worker-thread override for the sharded kernel (0 = autodetect from
    /// `hardware_concurrency()`). Tests force > 1 to exercise the concurrent
    /// barrier path on single-core hosts.
    unsigned shard_workers = 0;
    /// Per-point RNG seed; sweep factories fill this via `sim::derive_seed`
    /// so parallel runs are reproducible regardless of thread count.
    std::uint64_t seed = 0;
    /// Arms the cycle-attribution profiler (`sim::Profiler`): the run's wall
    /// time is charged to (component type, shard) buckets and returned in
    /// `ScenarioResult::profile`. The profiled loop ticks bit-identically to
    /// the plain one.
    bool profile = false;
};

/// Everything the benches and examples report, from one scenario run.
struct ScenarioResult {
    std::string label;
    std::uint64_t seed = 0;
    bool boot_ok = true;
    bool timed_out = false;

    /// \name Victim-observed performance
    ///@{
    std::uint64_t run_cycles = 0; ///< victim start -> victim done
    std::uint64_t ops = 0;
    double load_lat_mean = 0;
    sim::Cycle load_lat_min = 0;
    sim::Cycle load_lat_max = 0;
    sim::Cycle load_lat_p99 = 0;
    double store_lat_mean = 0;
    sim::Cycle store_lat_max = 0;
    ///@}

    /// \name Interference-side observability
    ///
    /// `dma_bytes` and `dma_read_bw` total every interference engine (DMA or
    /// injector); the `dma_` unit counters and the DSA-side M&R fields
    /// describe the REALM unit in front of interference port 0 only.
    ///@{
    std::uint64_t dma_bytes = 0;  ///< read by every attacker during the victim window
    double dma_read_bw = 0;       ///< all attackers' bytes/cycle over the victim window
    std::uint64_t dma_depletions = 0;       ///< unit 0
    std::uint64_t dma_isolation_cycles = 0; ///< unit 0
    std::uint64_t dma_throttle_stalls = 0;  ///< unit 0
    std::uint64_t dma_cut_through = 0; ///< unit 0: write-buffer cut-through bursts
    std::uint64_t xbar_w_stalls = 0;   ///< fabric W-channel starvation (crossbar:
                                       ///< LLC port; ring: memory-node muxes)
    std::uint64_t fabric_hops = 0;     ///< ring packets forwarded (0 on crossbar)
    std::uint64_t dma_mr_bytes_total = 0;  ///< unit 0's M&R: bytes moved
    double dma_mr_read_lat_mean = 0;       ///< unit 0's M&R: read latency
    ///@}

    /// \name Core-side M&R observability (with `monitor_llc_on_core`)
    ///@{
    double core_mr_read_lat_mean = 0;
    sim::Cycle core_mr_write_lat_max = 0;
    ///@}

    /// \name Monitoring & telemetry plane (with `cfg.monitors.enabled`)
    ///
    /// All values are integers so a `--json` dump round-trips exactly; the
    /// `mgr_*` vectors are columnar per-manager telemetry with manager 0 the
    /// victim core and manager 1+i interference DMA i. Latency quantiles come
    /// from the monitors' merged read+write QuantileSketches (per-shard by
    /// construction, merged single-threaded at harvest — bit-identical for
    /// every shard count).
    ///@{
    bool mon_enabled = false;
    std::uint64_t mon_lat_p50 = 0;  ///< fabric-wide merged P50
    std::uint64_t mon_lat_p99 = 0;  ///< fabric-wide merged P99
    std::uint64_t mon_lat_p999 = 0; ///< fabric-wide merged P99.9
    std::uint64_t mon_timeouts = 0;
    std::uint64_t mon_orphan_rsp = 0;
    std::uint64_t mon_orphan_req = 0;
    std::uint64_t mon_stall_events = 0;
    std::uint64_t mon_wgap_events = 0;
    std::uint64_t mon_true_positives = 0;  ///< hostile managers flagged
    std::uint64_t mon_false_positives = 0; ///< benign managers flagged
    std::uint64_t mon_false_negatives = 0; ///< hostile managers missed
    std::uint64_t mon_first_detect = 0;    ///< fastest time-to-detect (cycles; 0 = none)
    std::vector<std::uint64_t> mgr_p50;
    std::vector<std::uint64_t> mgr_p99;
    std::vector<std::uint64_t> mgr_p999;
    std::vector<std::uint64_t> mgr_flagged; ///< 0/1 detector verdict
    std::vector<std::uint64_t> mgr_signals; ///< mon::Signal bitmask
    std::vector<std::uint64_t> mgr_hostile; ///< 0/1 ground truth
    std::vector<std::uint64_t> mgr_detect;  ///< per-manager time-to-detect (0 = none)
    std::vector<std::uint64_t> mgr_occ_milli; ///< mean outstanding bursts x1000
    ///@}

    /// \name Host-side simulation performance
    ///@{
    std::uint64_t ticks_executed = 0;
    std::uint64_t ticks_skipped = 0;
    sim::Cycle fast_forwarded_cycles = 0;
    sim::Cycle simulated_cycles = 0;
    double wall_seconds = 0;
    /// Per-shard slices of the tick counters (size == cfg.shards) — the
    /// load-balance picture of the sharded kernel.
    std::vector<std::uint64_t> shard_ticks_executed;
    std::vector<std::uint64_t> shard_ticks_skipped;
    /// Cycle-attribution profile, heaviest bucket first (empty unless
    /// `cfg.profile`).
    std::vector<ProfileRow> profile;
    ///@}

    /// Host-side simulation speed in simulated cycles per wall second (0
    /// when no wall time was measured) — the number CI tracks.
    [[nodiscard]] double sim_cycles_per_sec() const noexcept {
        return wall_seconds > 0.0 ? static_cast<double>(simulated_cycles) / wall_seconds
                                  : 0.0;
    }

    bool operator==(const ScenarioResult&) const = default;
};

/// How a result field behaves across runs of one config, i.e. what an
/// equivalence check may ignore. Ordered: each kind depends on more of the
/// host than the one before.
enum class FieldKind : std::uint8_t {
    kSimulated, ///< the simulated outcome: identical for every scheduler,
                ///< shard count, partition, thread count and `profile` flag
    kKernel,    ///< tick counters, which depend on scheduler and shard count
    kHost,      ///< wall time and profile, which differ on every run
};

/// When `write_json` emits a key.
enum class FieldWhen : std::uint8_t {
    kAlways,
    kMonitored, ///< only for points with `mon_enabled`
    kProfiled,  ///< only for points carrying profile rows
};

/// One key of the sweep dump: its JSON name, the member it mirrors, its
/// kind, and when it is written. A derived key names a member function
/// instead; loaders accept it and drop it, `write_json` recomputes it.
template <typename S>
struct Field {
    const char* key;
    std::variant<bool S::*, unsigned S::*, std::uint64_t S::*, double S::*,
                 std::string S::*, std::vector<std::uint64_t> S::*,
                 std::vector<ProfileRow> S::*, double (S::*)() const noexcept>
        member;
    FieldKind kind = FieldKind::kSimulated;
    FieldWhen when = FieldWhen::kAlways;
};

/// The keys of one `"profile"` row object.
inline constexpr auto kProfileRowFields = std::to_array<Field<ProfileRow>>({
    {"type", &ProfileRow::type},
    {"shard", &ProfileRow::shard},
    {"components", &ProfileRow::components},
    {"ticks", &ProfileRow::ticks},
    {"nanos", &ProfileRow::nanos, FieldKind::kHost},
});

using ResultField = Field<ScenarioResult>;

/// The sweep dump's schema: every `ScenarioResult` key in `--json` order.
/// `write_json`, the dump loader and the tests' result comparator iterate
/// this table, so a field is declared here and nowhere else. Each point
/// starts with its `label` and `config_hash`, which identify the point
/// rather than describe its outcome.
inline constexpr auto kResultFields = [] {
    using R = ScenarioResult;
    constexpr FieldKind sim = FieldKind::kSimulated;
    constexpr FieldKind kernel = FieldKind::kKernel;
    constexpr FieldKind host = FieldKind::kHost;
    constexpr FieldWhen mon = FieldWhen::kMonitored;
    return std::to_array<ResultField>({
        {"seed", &R::seed},
        {"boot_ok", &R::boot_ok},
        {"timed_out", &R::timed_out},
        {"run_cycles", &R::run_cycles},
        {"ops", &R::ops},
        {"load_lat_mean", &R::load_lat_mean},
        {"load_lat_min", &R::load_lat_min},
        {"load_lat_max", &R::load_lat_max},
        {"load_lat_p99", &R::load_lat_p99},
        {"store_lat_mean", &R::store_lat_mean},
        {"store_lat_max", &R::store_lat_max},
        {"dma_bytes", &R::dma_bytes},
        {"dma_read_bw", &R::dma_read_bw},
        {"dma_depletions", &R::dma_depletions},
        {"dma_isolation_cycles", &R::dma_isolation_cycles},
        {"dma_throttle_stalls", &R::dma_throttle_stalls},
        {"dma_cut_through", &R::dma_cut_through},
        {"xbar_w_stalls", &R::xbar_w_stalls},
        {"fabric_hops", &R::fabric_hops},
        {"dma_mr_bytes_total", &R::dma_mr_bytes_total},
        {"dma_mr_read_lat_mean", &R::dma_mr_read_lat_mean},
        {"core_mr_read_lat_mean", &R::core_mr_read_lat_mean},
        {"core_mr_write_lat_max", &R::core_mr_write_lat_max},
        {"mon_enabled", &R::mon_enabled, sim, mon},
        {"mon_lat_p50", &R::mon_lat_p50, sim, mon},
        {"mon_lat_p99", &R::mon_lat_p99, sim, mon},
        {"mon_lat_p999", &R::mon_lat_p999, sim, mon},
        {"mon_timeouts", &R::mon_timeouts, sim, mon},
        {"mon_orphan_rsp", &R::mon_orphan_rsp, sim, mon},
        {"mon_orphan_req", &R::mon_orphan_req, sim, mon},
        {"mon_stall_events", &R::mon_stall_events, sim, mon},
        {"mon_wgap_events", &R::mon_wgap_events, sim, mon},
        {"mon_true_positives", &R::mon_true_positives, sim, mon},
        {"mon_false_positives", &R::mon_false_positives, sim, mon},
        {"mon_false_negatives", &R::mon_false_negatives, sim, mon},
        {"mon_first_detect", &R::mon_first_detect, sim, mon},
        {"mgr_p50", &R::mgr_p50, sim, mon},
        {"mgr_p99", &R::mgr_p99, sim, mon},
        {"mgr_p999", &R::mgr_p999, sim, mon},
        {"mgr_flagged", &R::mgr_flagged, sim, mon},
        {"mgr_signals", &R::mgr_signals, sim, mon},
        {"mgr_hostile", &R::mgr_hostile, sim, mon},
        {"mgr_detect", &R::mgr_detect, sim, mon},
        {"mgr_occ_milli", &R::mgr_occ_milli, sim, mon},
        {"ticks_executed", &R::ticks_executed, kernel},
        {"ticks_skipped", &R::ticks_skipped, kernel},
        {"shard_ticks_executed", &R::shard_ticks_executed, kernel},
        {"shard_ticks_skipped", &R::shard_ticks_skipped, kernel},
        {"fast_forwarded_cycles", &R::fast_forwarded_cycles, kernel},
        {"simulated_cycles", &R::simulated_cycles},
        {"wall_seconds", &R::wall_seconds, host},
        {"sim_cycles_per_sec", &R::sim_cycles_per_sec, host},
        {"profile", &R::profile, host, FieldWhen::kProfiled},
    });
}();

/// Runs one scenario end to end in a fresh simulation context.
/// \param label  Result label (defaults to `cfg.name`).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& cfg,
                                          std::string label = {});

/// Stable 64-bit digest of every semantic field of a config, as the
/// `kConfigFields` tables (config_fields.hpp) declare them. Two configs hash
/// equal iff a run of one reproduces the other bit for bit, so sweep runners
/// can skip points whose hash is already present in a previous `--json` dump
/// (sweep-level resume).
[[nodiscard]] std::uint64_t config_hash(const ScenarioConfig& cfg);

} // namespace realm::scenario
