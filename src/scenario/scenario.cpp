#include "scenario/scenario.hpp"

#include "noc/mesh.hpp"
#include "scenario/config_fields.hpp"
#include "sim/check.hpp"
#include "sim/profiler.hpp"

#include <bit>
#include <chrono>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>

namespace realm::scenario {

namespace {

/// Builds the victim workload; for Susan this also seeds the fabric's
/// memory with the generator's input image and warms any cache over it.
std::unique_ptr<traffic::Workload> make_victim(const VictimConfig& cfg,
                                               std::uint64_t seed,
                                               TopologyHandle& topo) {
    switch (cfg.kind) {
    case VictimConfig::Kind::kSusan: {
        const std::shared_ptr<const traffic::SusanTraceGenerator> gen =
            traffic::shared_susan_trace(cfg.susan);
        const auto& img = gen->input_image();
        topo.write(cfg.susan.image_base, img);
        topo.warm(cfg.susan.image_base, img.size());
        topo.warm(cfg.susan.out_base, img.size());
        topo.warm(cfg.susan.lut_base, 4096);
        // The workload's ops pointer keeps the shared generator alive.
        return std::make_unique<traffic::TraceWorkload>(
            std::shared_ptr<const std::vector<traffic::MemOp>>{gen, &gen->ops()});
    }
    case VictimConfig::Kind::kStream:
        return std::make_unique<traffic::StreamWorkload>(cfg.stream);
    case VictimConfig::Kind::kRandom: {
        traffic::RandomWorkload::Config rnd = cfg.random;
        rnd.seed = seed; // the derived per-point seed, not a shared default
        return std::make_unique<traffic::RandomWorkload>(rnd);
    }
    }
    REALM_EXPECTS(false, "unknown victim kind");
    return nullptr;
}

/// The span's contents: little-endian 8-byte words, `off * multiplier` at
/// each word offset `off`.
std::vector<std::uint8_t> preload_bytes(const PreloadSpan& span) {
    REALM_EXPECTS(span.bytes % 8 == 0,
                  "preload span at " + sim::hex(span.base) + " of " +
                      std::to_string(span.bytes) + " bytes is not a whole number of words");
    std::vector<std::uint8_t> bytes(span.bytes);
    for (std::uint64_t off = 0; off < span.bytes; off += 8) {
        const std::uint64_t word = off * span.multiplier;
        for (std::size_t i = 0; i < 8; ++i) {
            bytes[off + i] = static_cast<std::uint8_t>(word >> (8 * i));
        }
    }
    return bytes;
}

} // namespace

ScenarioResult run_scenario(const ScenarioConfig& cfg, std::string label) {
    const auto wall_start = std::chrono::steady_clock::now();

    ScenarioResult res;
    res.label = label.empty() ? cfg.name : std::move(label);
    res.seed = cfg.seed;

    // Only the mesh stripes its tiles; any other fabric would tick on shard
    // 0 behind a barrier with idle workers.
    const bool crossbar = std::holds_alternative<soc::SocConfig>(cfg.fabric);
    REALM_EXPECTS(cfg.shards <= 1 || std::holds_alternative<MeshTopologyConfig>(cfg.fabric),
                  res.label + ": a " + (crossbar ? "crossbar" : "ring") + " runs on one shard, " +
                      "not " + std::to_string(cfg.shards) + "; only a mesh is sharded");

    sim::SimContext ctx;
    ctx.set_scheduler(cfg.scheduler);
    // Shards must be set before the topology is built: fabrics read the
    // shard count to stripe their tiles, and components pick up the build
    // shard at registration.
    ctx.set_shards(cfg.shards == 0 ? 1 : cfg.shards);
    ctx.set_shard_workers(cfg.shard_workers);
    std::unique_ptr<sim::Profiler> profiler;
    if (cfg.profile) {
        profiler = std::make_unique<sim::Profiler>();
        ctx.set_profiler(profiler.get());
    }
    std::unique_ptr<TopologyHandle> topo = make_topology(ctx, cfg);
    // Lookahead batching: with every cross-shard effect carrying at least
    // `lookahead()` cycles of modeled latency, the kernel runs that many
    // cycles per barrier epoch. Set for every shard count (including 1) so
    // the flush cadence — which is semantic, see sim/context.hpp — is a pure
    // function of the config and results stay bit-identical across shards.
    ctx.set_lookahead(topo->lookahead());
    REALM_EXPECTS(cfg.interference.size() <= topo->num_interference_ports(),
                  "more interference DMAs than fabric manager ports");

    // --- Memory preconditioning -----------------------------------------
    auto victim_workload = make_victim(cfg.victim, cfg.seed, *topo);
    for (const PreloadSpan& span : cfg.preload) {
        topo->write(span.base, preload_bytes(span));
        if (span.warm) { topo->warm(span.base, span.bytes); }
    }

    // --- Boot-flow / fabric regulation ----------------------------------
    res.boot_ok = topo->boot(cfg.boot_plans);
    if (!res.boot_ok) { return res; }
    if (cfg.throttle_dsa) { topo->set_interference_throttle(true); }
    if (cfg.monitor_llc_on_core) { topo->set_victim_monitor(); }

    // --- Interference ----------------------------------------------------
    // With monitors enabled a TxnMonitor taps each manager's fabric port; the
    // manager still drives the port itself. The monitor is built after the
    // topology, so it ticks after the port's consumer, and on the manager's
    // shard, where the port's producers run its observers.
    const bool monitored = cfg.monitors.enabled;
    std::vector<std::unique_ptr<mon::TxnMonitor>> monitors;
    const auto tap = [&](axi::AxiChannel& port, const std::string& name) {
        if (monitored) {
            monitors.push_back(
                std::make_unique<mon::TxnMonitor>(ctx, name, port, cfg.monitors.thresholds));
        }
    };

    std::vector<std::unique_ptr<traffic::DmaEngine>> dmas;
    std::vector<std::unique_ptr<traffic::InjectorEngine>> injectors;
    for (std::size_t i = 0; i < cfg.interference.size(); ++i) {
        const InterferenceConfig& irq = cfg.interference[i];
        // The engine talks to its port through plain registered channels, so
        // it must tick on the same shard as the tile behind the port.
        const sim::ShardScope scope{ctx, topo->interference_shard(i)};
        axi::AxiChannel& port = topo->interference_port(i);
        tap(port, "mon_dsa" + std::to_string(i));
        if (irq.genome) {
            // Genome-driven programmable injector (adversarial search plane).
            traffic::InjectorConfig icfg;
            icfg.bus_bytes = irq.dma.bus_bytes;
            icfg.genome = *irq.genome;
            icfg.read_base = irq.src;
            icfg.write_base = irq.dst;
            icfg.span_bytes = irq.bytes;
            // Per-engine seed derived from the point seed and the index, so
            // multi-attacker cells decorrelate deterministically.
            icfg.seed = sim::derive_seed("injector", cfg.seed + i);
            injectors.push_back(std::make_unique<traffic::InjectorEngine>(
                ctx, "dsa_inj" + std::to_string(i), port, icfg));
            continue;
        }
        dmas.push_back(std::make_unique<traffic::DmaEngine>(
            ctx, "dsa_dma" + std::to_string(i), port, irq.dma));
        dmas.back()->push_job(traffic::DmaJob{irq.src, irq.dst, irq.bytes, irq.loop});
    }
    if (!cfg.interference.empty() && cfg.warmup_cycles > 0) {
        ctx.run(cfg.warmup_cycles);
    }

    // --- Victim ----------------------------------------------------------
    const sim::ShardScope victim_scope{ctx, topo->victim_shard()};
    tap(topo->victim_port(), "mon_core");
    const std::size_t victim_mon = monitored ? monitors.size() - 1 : 0;
    traffic::CoreModel core{ctx, "core", topo->victim_port(), *victim_workload};
    const sim::Cycle start = ctx.now();
    // Bytes read by every interference engine, DMA or injector, for the
    // victim-window bandwidth metric.
    const auto interference_bytes_read = [&]() -> std::uint64_t {
        std::uint64_t total = 0;
        for (const auto& dma : dmas) { total += dma->bytes_read(); }
        for (const auto& injector : injectors) { total += injector->bytes_read(); }
        return total;
    };
    const std::uint64_t dma_bytes_before = interference_bytes_read();
    res.timed_out = !ctx.run_until([&] { return core.done(); }, cfg.max_cycles);
    // On timeout the victim never finished; charge the whole window instead
    // of underflowing against a zero finish_cycle.
    const sim::Cycle victim_end = res.timed_out ? ctx.now() : core.finish_cycle();
    if (cfg.cooldown_cycles > 0) { ctx.run(cfg.cooldown_cycles); }

    // --- Harvest ---------------------------------------------------------
    res.run_cycles = victim_end - start;
    res.ops = core.loads_retired() + core.stores_retired();
    res.load_lat_mean = core.load_latency().mean();
    res.load_lat_min = core.load_latency().min();
    res.load_lat_max = core.load_latency().max();
    // <= 3.125% overestimate (QuantileSketch::kRelativeErrorBound).
    res.load_lat_p99 = core.load_latency().quantile(0.99);
    res.store_lat_mean = core.store_latency().mean();
    res.store_lat_max = core.store_latency().max();

    if (!dmas.empty() || !injectors.empty()) {
        res.dma_bytes = interference_bytes_read() - dma_bytes_before;
        res.dma_read_bw = res.run_cycles == 0
                              ? 0.0
                              : static_cast<double>(res.dma_bytes) /
                                    static_cast<double>(res.run_cycles);
        if (const rt::RealmUnit* unit = topo->interference_realm(0)) {
            res.dma_depletions = unit->mr().region(0).depletion_events;
            res.dma_isolation_cycles = unit->mr().isolation_cycles();
            res.dma_throttle_stalls = unit->throttle_stalls();
            res.dma_cut_through = unit->write_buffer().cut_through_bursts();
            res.dma_mr_bytes_total = unit->mr().region(0).bytes_total;
            res.dma_mr_read_lat_mean = unit->mr().region(0).read_latency.mean();
        }
    }
    if (const rt::RealmUnit* unit = topo->victim_realm()) {
        res.core_mr_read_lat_mean = unit->mr().region(0).read_latency.mean();
        res.core_mr_write_lat_max = unit->mr().region(0).write_latency.max();
    }
    res.xbar_w_stalls = topo->fabric_w_stalls();
    res.fabric_hops = topo->fabric_hops();

    if (monitored) {
        res.mon_enabled = true;
        // Merge order is fixed (victim, then DMA 0..n-1) and single-threaded,
        // so the fabric-wide sketch is bit-identical for every shard count.
        mon::QuantileSketch fabric;
        std::vector<mon::Verdict> verdicts;
        const auto harvest_monitor = [&](mon::TxnMonitor& m, bool hostile) {
            m.finalize();
            const mon::QuantileSketch combined = m.combined_sketch();
            fabric.merge(combined);
            res.mgr_p50.push_back(combined.quantile(0.50));
            res.mgr_p99.push_back(combined.quantile(0.99));
            res.mgr_p999.push_back(combined.quantile(0.999));
            res.mgr_flagged.push_back(m.flagged() ? 1 : 0);
            res.mgr_signals.push_back(m.signals());
            res.mgr_hostile.push_back(hostile ? 1 : 0);
            res.mgr_detect.push_back(m.time_to_detect());
            res.mgr_occ_milli.push_back(m.occupancy_milli());
            res.mon_timeouts += m.timeouts();
            res.mon_orphan_rsp += m.orphan_responses();
            res.mon_orphan_req += m.orphan_requests();
            res.mon_stall_events += m.stall_events();
            res.mon_wgap_events += m.w_gap_events();
            verdicts.push_back(
                {hostile, m.flagged(), m.signals(), m.time_to_detect()});
        };
        harvest_monitor(*monitors[victim_mon], false);
        for (std::size_t i = 0; i < cfg.interference.size(); ++i) {
            harvest_monitor(*monitors[i], cfg.interference[i].hostile);
        }
        res.mon_lat_p50 = fabric.quantile(0.50);
        res.mon_lat_p99 = fabric.quantile(0.99);
        res.mon_lat_p999 = fabric.quantile(0.999);
        const mon::DetectionScore score = mon::score_verdicts(verdicts);
        res.mon_true_positives = score.true_positives;
        res.mon_false_positives = score.false_positives;
        res.mon_false_negatives = score.false_negatives;
        res.mon_first_detect = score.first_detect;
    }

    res.ticks_executed = ctx.ticks_executed();
    res.ticks_skipped = ctx.ticks_skipped();
    for (unsigned s = 0; s < ctx.shards(); ++s) {
        res.shard_ticks_executed.push_back(ctx.shard_ticks_executed(s));
        res.shard_ticks_skipped.push_back(ctx.shard_ticks_skipped(s));
    }
    res.fast_forwarded_cycles = ctx.fast_forwarded_cycles();
    res.simulated_cycles = ctx.now();
    if (profiler) {
        ctx.set_profiler(nullptr); // detach before the context outlives it
        for (const sim::Profiler::Row& row : profiler->rows()) {
            res.profile.push_back(
                ProfileRow{row.type, row.shard, row.components, row.ticks, row.nanos});
        }
    }
    res.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
    return res;
}

// ---------------------------------------------------------------------------
// Config digest (sweep-level resume).
// ---------------------------------------------------------------------------

namespace {

/// FNV-1a over the semantic fields `walk_config` visits, each as one
/// little-endian u64: a vector's size, an optional's presence, a variant's
/// index, a double's bits, and any other value cast. `kVersion` is bumped
/// only when run semantics change under an unchanged field layout; a new
/// field already changes every hash.
class ConfigDigest {
public:
    /// v12: NoC reads and writes ride separate VCs with per-class sequence
    /// numbers, and a subordinate NI arbitrates B and R as separate
    /// requesters; a mesh point mixes the credit-return delay it runs.
    static constexpr std::uint64_t kVersion = 12;

    ConfigDigest() { mix(kVersion); }

    template <typename V>
    void operator()(const FieldPath& /*at*/, const V& v, ConfigKind kind) {
        if (kind == ConfigKind::kHostOnly) { return; }
        if constexpr (detail::kIsVector<V>) {
            mix(v.size());
        } else if constexpr (detail::kIsOptional<V>) {
            mix(v.has_value());
        } else if constexpr (detail::kIsVariant<V>) {
            mix(v.index());
        } else if constexpr (std::is_floating_point_v<V>) {
            mix(std::bit_cast<std::uint64_t>(v));
        } else if constexpr (std::is_same_v<V, std::string>) {
            REALM_EXPECTS(false, "a string config field names something, so it is host-only");
        } else {
            mix(static_cast<std::uint64_t>(v)); // bool, enum or integer
        }
    }

    void operator()(const RetiredField& /*gone*/) noexcept { mix(0); }

    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    void mix(std::uint64_t word) noexcept {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (word >> (8 * i)) & 0xFF;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace

std::uint64_t config_hash(const ScenarioConfig& cfg) {
    // The mesh raises a credit-return delay below its floor, so a point
    // hashes the delay it runs (see `noc::NocMesh::shard_safe`).
    ScenarioConfig run = cfg;
    if (auto* mesh = std::get_if<MeshTopologyConfig>(&run.fabric)) {
        mesh->credit_return_delay = noc::NocMesh::shard_safe(mesh->flow()).credit_return_delay;
    }
    ConfigDigest d;
    walk_config(run, d);
    return d.value();
}

} // namespace realm::scenario
