/// \file
/// \brief Scenario: a malicious accelerator mounts a write-stall
///        denial-of-service attack; AXI-REALM detects and mitigates it.
///
/// Three acts:
///   1. the attack — the rogue DMA reserves write bandwidth at AW time and
///      trickles its data, starving a victim's writes (write buffer off);
///   2. detection — the victim-side M&R unit's latency statistics expose
///      the interference without any bus analyzer;
///   3. mitigation — the write buffer withholds AWs until data is complete,
///      and, for a persistently hostile manager, user-commanded isolation
///      cuts it off entirely.
///
/// Acts 1 and 2 are declarative scenario runs; act 3 drives the register
/// interface by hand (isolation is a runtime intervention, not a config).
/// Exits 1 unless the write buffer lowers the victim's worst store latency
/// with no crossbar W-stall cycles left, and the isolated attacker moves no
/// data.
#include "scenario/scenario.hpp"
#include "soc/cheshire_soc.hpp"
#include "traffic/dma.hpp"

#include <cstdint>
#include <cstdio>
#include <variant>

using namespace realm;
using namespace realm::scenario;

namespace {
constexpr axi::Addr kDram = 0x8000'0000;

traffic::DmaConfig attacker_config() {
    traffic::DmaConfig cfg;
    cfg.burst_beats = 8;
    cfg.reserve_before_data = true; // claim W bandwidth before data exists
    cfg.w_stall_cycles = 64;        // ...then trickle one beat per 64 cycles
    return cfg;
}

ScenarioConfig attack_scenario(bool write_buffer_enabled) {
    ScenarioConfig cfg;
    cfg.name = write_buffer_enabled ? "dos/wbuf-on" : "dos/wbuf-off";
    std::get<soc::SocConfig>(cfg.fabric).realm.write_buffer_enabled = write_buffer_enabled;
    cfg.preload.push_back(PreloadSpan{kDram, 0x10000, 1, /*warm=*/true});
    // Victim-side monitoring needs a region over the LLC span.
    cfg.monitor_llc_on_core = true;

    InterferenceConfig attacker;
    attacker.dma = attacker_config();
    attacker.src = kDram + 0x8000;
    attacker.dst = kDram + 0xC000;
    attacker.bytes = 0x4000;
    cfg.interference.push_back(attacker);

    cfg.victim.kind = VictimConfig::Kind::kStream;
    cfg.victim.stream = {.base = kDram, .bytes = 0x2000, .op_bytes = 8,
                         .stride_bytes = 8, .store_ratio16 = 16};
    cfg.warmup_cycles = 500;
    cfg.max_cycles = 10'000'000;
    return cfg;
}
} // namespace

int main() {
    std::puts("=== Act 1: the attack (write buffer disabled) ===");
    const ScenarioResult attack = run_scenario(attack_scenario(false));
    std::printf("  victim store latency: mean %.1f, max %llu cycles "
                "(M&R write-latency max: %llu)\n",
                attack.store_lat_mean,
                static_cast<unsigned long long>(attack.store_lat_max),
                static_cast<unsigned long long>(attack.core_mr_write_lat_max));
    std::printf("  -> interconnect W channel starved; victim crawls at %.0fx the\n"
                "     unloaded store latency\n\n",
                attack.store_lat_mean / 6.0);

    std::puts("=== Act 2 & 3: write buffer on; then isolate the rogue manager ===");
    const ScenarioResult guarded = run_scenario(attack_scenario(true));
    std::printf("  victim store latency: mean %.1f, max %llu cycles "
                "(M&R write-latency max: %llu)\n",
                guarded.store_lat_mean,
                static_cast<unsigned long long>(guarded.store_lat_max),
                static_cast<unsigned long long>(guarded.core_mr_write_lat_max));
    std::printf("  -> the write buffer holds the attacker's AWs until data is\n"
                "     complete: xbar W-stall cycles = %llu\n\n",
                static_cast<unsigned long long>(guarded.xbar_w_stalls));

    // Act 3: the supervisor decides the manager is hostile and cuts it off.
    // This is a runtime intervention on a live SoC, so we drive it by hand.
    std::puts("  supervisor: isolating the rogue manager...");
    sim::SimContext ctx;
    soc::CheshireSoc soc{ctx, soc::SocConfig{}};
    for (axi::Addr a = 0; a < 0x10000; a += 8) {
        soc.dram_image().write_u64(kDram + a, a);
    }
    soc.warm_llc(kDram, 0x10000);
    traffic::DmaEngine attacker{ctx, "attacker", soc.dsa_port(0), attacker_config()};
    attacker.push_job(traffic::DmaJob{kDram + 0x8000, kDram + 0xC000, 0x4000, true});
    ctx.run(500);
    soc.dsa_realm(0).set_user_isolation(true);
    ctx.run_until([&] { return soc.dsa_realm(0).fully_isolated(); }, 1'000'000);
    std::printf("  DSA unit state: %s (outstanding drained, new traffic blocked)\n",
                rt::to_string(soc.dsa_realm(0).state()));
    const std::uint64_t before = attacker.bytes_read() + attacker.bytes_written();
    ctx.run(5000);
    const std::uint64_t moved = attacker.bytes_read() + attacker.bytes_written() - before;
    std::printf("  attacker progress while isolated: %llu bytes\n",
                static_cast<unsigned long long>(moved));

    const bool mitigated = guarded.store_lat_max < attack.store_lat_max &&
                           guarded.xbar_w_stalls == 0 && moved == 0;
    if (!mitigated) {
        std::fputs("error: the write buffer or isolation failed to contain the attacker\n",
                   stderr);
    }
    return mitigated ? 0 : 1;
}
