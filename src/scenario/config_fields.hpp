/// \file
/// \brief Every config struct `ScenarioConfig` reaches, declared once: one
///        field table per struct, in declaration order, and the walk over
///        them that `config_hash` folds and the `ConfigFields.*` tests
///        mutate. The walk does not build for a struct whose table names
///        fewer or more members than it has, or one member twice.
#pragma once

#include "scenario/scenario.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

namespace realm::scenario {

/// Whether a config field joins `config_hash`.
enum class ConfigKind : std::uint8_t {
    kSemantic, ///< mixed in: two values may run differently
    kHostOnly, ///< left out: every value runs bit-identically
};

/// One member of a config struct.
template <typename S, typename M>
struct ConfigField {
    const char* key;
    M S::*member;
    ConfigKind kind = ConfigKind::kSemantic;
};

/// The members of base class `B`, walked in place: their keys join the
/// derived struct's path without one of their own.
template <typename B>
struct ConfigBase : std::type_identity<B> {};

/// A deleted member whose place in the digest is kept: it mixes a zero, so
/// the hashes of configs written before its deletion stay put.
struct RetiredField {
    const char* key;
};

/// The table of struct `S`, specialised below for every walked struct.
template <typename S>
inline constexpr auto kConfigFields = std::tuple<>{};

template <> inline constexpr auto kConfigFields<rt::RealmUnitConfig> = std::tuple{
    ConfigField{"enabled", &rt::RealmUnitConfig::enabled},
    ConfigField{"fragment_beats", &rt::RealmUnitConfig::fragment_beats},
    ConfigField{"max_pending", &rt::RealmUnitConfig::max_pending},
    ConfigField{"write_buffer_depth", &rt::RealmUnitConfig::write_buffer_depth},
    ConfigField{"write_buffer_enabled", &rt::RealmUnitConfig::write_buffer_enabled},
    ConfigField{"throttle_enabled", &rt::RealmUnitConfig::throttle_enabled},
    ConfigField{"num_regions", &rt::RealmUnitConfig::num_regions},
};
template <> inline constexpr auto kConfigFields<RingNodeSpec> = std::tuple{
    ConfigField{"role", &RingNodeSpec::role},
    ConfigField{"realm", &RingNodeSpec::realm},
    ConfigField{"realm_config", &RingNodeSpec::realm_config},
};
template <> inline constexpr auto kConfigFields<NocTopologyConfig> = std::tuple{
    ConfigField{"nodes", &NocTopologyConfig::nodes},
    ConfigField{"mem_base", &NocTopologyConfig::mem_base},
    ConfigField{"mem_span_bytes", &NocTopologyConfig::mem_span_bytes},
    ConfigField{"mem_stride", &NocTopologyConfig::mem_stride},
    ConfigField{"mem_access_latency", &NocTopologyConfig::mem_access_latency},
    ConfigField{"mem_max_outstanding", &NocTopologyConfig::mem_max_outstanding},
    ConfigField{"flits_per_packet", &NocTopologyConfig::flits_per_packet},
    ConfigField{"vc_depth", &NocTopologyConfig::vc_depth},
    ConfigField{"e2e_credits", &NocTopologyConfig::e2e_credits},
    ConfigField{"credit_return_delay", &NocTopologyConfig::credit_return_delay},
    ConfigField{"link_latency", &NocTopologyConfig::link_latency},
    ConfigField{"realm", &NocTopologyConfig::realm},
};
template <> inline constexpr auto kConfigFields<RingTopologyConfig> = std::tuple{
    ConfigField{"num_nodes", &RingTopologyConfig::num_nodes},
    ConfigBase<NocTopologyConfig>{},
};
template <> inline constexpr auto kConfigFields<MeshTopologyConfig> = std::tuple{
    ConfigField{"rows", &MeshTopologyConfig::rows},
    ConfigField{"cols", &MeshTopologyConfig::cols},
    ConfigField{"routing", &MeshTopologyConfig::routing},
    // Every map runs the same (see `noc::NocMesh::shard_of_node`).
    ConfigField{"tile_shards", &MeshTopologyConfig::tile_shards, ConfigKind::kHostOnly},
    ConfigBase<NocTopologyConfig>{},
};
template <> inline constexpr auto kConfigFields<mem::LlcConfig> = std::tuple{
    ConfigField{"line_bytes", &mem::LlcConfig::line_bytes},
    ConfigField{"ways", &mem::LlcConfig::ways},
    ConfigField{"sets", &mem::LlcConfig::sets},
    ConfigField{"bus_bytes", &mem::LlcConfig::bus_bytes},
    ConfigField{"hit_latency", &mem::LlcConfig::hit_latency},
    ConfigField{"request_interval", &mem::LlcConfig::request_interval},
    ConfigField{"max_outstanding", &mem::LlcConfig::max_outstanding},
};
template <> inline constexpr auto kConfigFields<mem::DramTiming> = std::tuple{
    ConfigField{"row_hit", &mem::DramTiming::row_hit},
    ConfigField{"row_miss", &mem::DramTiming::row_miss},
    ConfigField{"banks", &mem::DramTiming::banks},
    ConfigField{"row_bytes", &mem::DramTiming::row_bytes},
};
template <> inline constexpr auto kConfigFields<soc::SocConfig> = std::tuple{
    ConfigField{"bus_bytes", &soc::SocConfig::bus_bytes},
    ConfigField{"num_dsa", &soc::SocConfig::num_dsa},
    ConfigField{"realm_present", &soc::SocConfig::realm_present},
    ConfigField{"cfg_base", &soc::SocConfig::cfg_base},
    ConfigField{"cfg_size", &soc::SocConfig::cfg_size},
    ConfigField{"spm_base", &soc::SocConfig::spm_base},
    ConfigField{"spm_size", &soc::SocConfig::spm_size},
    ConfigField{"dram_base", &soc::SocConfig::dram_base},
    ConfigField{"dram_size", &soc::SocConfig::dram_size},
    ConfigField{"llc", &soc::SocConfig::llc},
    ConfigField{"dram", &soc::SocConfig::dram},
    ConfigField{"realm", &soc::SocConfig::realm},
    RetiredField{"arbitration"}, // the crossbar's arbitration policy
};
template <> inline constexpr auto kConfigFields<RegionPlan> = std::tuple{
    ConfigField{"budget_bytes", &RegionPlan::budget_bytes},
    ConfigField{"period_cycles", &RegionPlan::period_cycles},
    ConfigField{"fragment_beats", &RegionPlan::fragment_beats},
};
template <> inline constexpr auto kConfigFields<traffic::SusanConfig> = std::tuple{
    ConfigField{"width", &traffic::SusanConfig::width},
    ConfigField{"height", &traffic::SusanConfig::height},
    ConfigField{"mask_radius", &traffic::SusanConfig::mask_radius},
    ConfigField{"threshold", &traffic::SusanConfig::threshold},
    ConfigField{"image_base", &traffic::SusanConfig::image_base},
    ConfigField{"out_base", &traffic::SusanConfig::out_base},
    ConfigField{"lut_base", &traffic::SusanConfig::lut_base},
    ConfigField{"filter_cache_bytes", &traffic::SusanConfig::filter_cache_bytes},
    ConfigField{"filter_line_bytes", &traffic::SusanConfig::filter_line_bytes},
    ConfigField{"compute_quarter_cycles_per_tap",
                &traffic::SusanConfig::compute_quarter_cycles_per_tap},
    ConfigField{"filtered_load_quarter_cycles",
                &traffic::SusanConfig::filtered_load_quarter_cycles},
    ConfigField{"image_seed", &traffic::SusanConfig::image_seed},
    ConfigField{"max_ops", &traffic::SusanConfig::max_ops},
};
template <> inline constexpr auto kConfigFields<traffic::StreamWorkload::Config> = std::tuple{
    ConfigField{"base", &traffic::StreamWorkload::Config::base},
    ConfigField{"bytes", &traffic::StreamWorkload::Config::bytes},
    ConfigField{"op_bytes", &traffic::StreamWorkload::Config::op_bytes},
    ConfigField{"stride_bytes", &traffic::StreamWorkload::Config::stride_bytes},
    ConfigField{"compute_cycles", &traffic::StreamWorkload::Config::compute_cycles},
    ConfigField{"store_ratio16", &traffic::StreamWorkload::Config::store_ratio16},
    ConfigField{"repeat", &traffic::StreamWorkload::Config::repeat},
};
template <> inline constexpr auto kConfigFields<traffic::RandomWorkload::Config> = std::tuple{
    ConfigField{"base", &traffic::RandomWorkload::Config::base},
    ConfigField{"bytes", &traffic::RandomWorkload::Config::bytes},
    ConfigField{"op_bytes", &traffic::RandomWorkload::Config::op_bytes},
    ConfigField{"compute_cycles", &traffic::RandomWorkload::Config::compute_cycles},
    ConfigField{"store_ratio16", &traffic::RandomWorkload::Config::store_ratio16},
    ConfigField{"num_ops", &traffic::RandomWorkload::Config::num_ops},
    // `run_scenario` overwrites it with `ScenarioConfig::seed`, which is mixed.
    ConfigField{"seed", &traffic::RandomWorkload::Config::seed, ConfigKind::kHostOnly},
};
template <> inline constexpr auto kConfigFields<VictimConfig> = std::tuple{
    ConfigField{"kind", &VictimConfig::kind},
    ConfigField{"susan", &VictimConfig::susan},
    ConfigField{"stream", &VictimConfig::stream},
    ConfigField{"random", &VictimConfig::random},
};
template <> inline constexpr auto kConfigFields<traffic::DmaConfig> = std::tuple{
    ConfigField{"bus_bytes", &traffic::DmaConfig::bus_bytes},
    ConfigField{"burst_beats", &traffic::DmaConfig::burst_beats},
    ConfigField{"num_buffers", &traffic::DmaConfig::num_buffers},
    ConfigField{"max_outstanding_reads", &traffic::DmaConfig::max_outstanding_reads},
    ConfigField{"max_outstanding_writes", &traffic::DmaConfig::max_outstanding_writes},
    ConfigField{"w_stall_cycles", &traffic::DmaConfig::w_stall_cycles},
    ConfigField{"reserve_before_data", &traffic::DmaConfig::reserve_before_data},
    RetiredField{"qos"}, // the engine's AxQOS
};
template <> inline constexpr auto kConfigFields<traffic::InjectorGenome> = std::tuple{
    ConfigField{"genes", &traffic::InjectorGenome::genes},
};
template <> inline constexpr auto kConfigFields<InterferenceConfig> = std::tuple{
    ConfigField{"dma", &InterferenceConfig::dma},
    ConfigField{"src", &InterferenceConfig::src},
    ConfigField{"dst", &InterferenceConfig::dst},
    ConfigField{"bytes", &InterferenceConfig::bytes},
    ConfigField{"loop", &InterferenceConfig::loop},
    ConfigField{"hostile", &InterferenceConfig::hostile},
    ConfigField{"genome", &InterferenceConfig::genome},
};
template <> inline constexpr auto kConfigFields<mon::TxnMonitorConfig> = std::tuple{
    ConfigField{"timeout_cycles", &mon::TxnMonitorConfig::timeout_cycles},
    ConfigField{"stall_cycles", &mon::TxnMonitorConfig::stall_cycles},
    ConfigField{"window_cycles", &mon::TxnMonitorConfig::window_cycles},
    ConfigField{"bw_threshold", &mon::TxnMonitorConfig::bw_threshold},
    ConfigField{"held_threshold", &mon::TxnMonitorConfig::held_threshold},
    ConfigField{"occ_threshold", &mon::TxnMonitorConfig::occ_threshold},
};
template <> inline constexpr auto kConfigFields<MonitorConfig> = std::tuple{
    ConfigField{"enabled", &MonitorConfig::enabled},
    ConfigField{"thresholds", &MonitorConfig::thresholds},
};
template <> inline constexpr auto kConfigFields<PreloadSpan> = std::tuple{
    ConfigField{"base", &PreloadSpan::base},
    ConfigField{"bytes", &PreloadSpan::bytes},
    ConfigField{"multiplier", &PreloadSpan::multiplier},
    ConfigField{"warm", &PreloadSpan::warm},
};
template <> inline constexpr auto kConfigFields<ScenarioConfig> = [] {
    using S = ScenarioConfig;
    constexpr ConfigKind host = ConfigKind::kHostOnly;
    return std::tuple{
        ConfigField{"name", &S::name, host}, // a label: results carry it, runs ignore it
        ConfigField{"fabric", &S::fabric},
        ConfigField{"boot_plans", &S::boot_plans},
        ConfigField{"throttle_dsa", &S::throttle_dsa},
        ConfigField{"monitor_llc_on_core", &S::monitor_llc_on_core},
        ConfigField{"victim", &S::victim},
        ConfigField{"interference", &S::interference},
        ConfigField{"monitors", &S::monitors},
        ConfigField{"preload", &S::preload},
        ConfigField{"warmup_cycles", &S::warmup_cycles},
        ConfigField{"max_cycles", &S::max_cycles},
        ConfigField{"cooldown_cycles", &S::cooldown_cycles},
        ConfigField{"scheduler", &S::scheduler},
        // Results are bit-identical for every shard count, but a shard-scaling
        // sweep's points must not share one resume-cache entry.
        ConfigField{"shards", &S::shards},
        ConfigField{"shard_workers", &S::shard_workers, host}, // every count runs the same
        ConfigField{"seed", &S::seed},
        ConfigField{"profile", &S::profile, host}, // times the ticks, changes none
    };
}();

/// The key of each alternative of a walked variant, in index order: the
/// walk puts the active alternative's fields under it.
template <typename V>
inline constexpr auto kAlternativeKeys = std::array<const char*, 0>{};

template <>
inline constexpr auto kAlternativeKeys<FabricConfig> = std::array{"xbar", "ring", "mesh"};

/// Where a visited field sits: its key (or, where `key` is null, its index
/// in the enclosing vector or array) under its parent's place.
struct FieldPath {
    const FieldPath* parent = nullptr;
    const char* key = nullptr;
    std::size_t index = 0;
};

namespace detail {

template <typename T> inline constexpr bool kIsVector = false;
template <typename T> inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T> inline constexpr bool kIsOptional = false;
template <typename T> inline constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T> inline constexpr bool kIsArray = false;
template <typename T, std::size_t N> inline constexpr bool kIsArray<std::array<T, N>> = true;
template <typename T> inline constexpr bool kIsVariant = false;
template <typename... T> inline constexpr bool kIsVariant<std::variant<T...>> = true;

/// Converts to any member type, so `S{AnyMember{}...}` compiles for as many
/// of them as `S` has members (a base class counts as one).
struct AnyMember {
    template <typename T>
    operator T() const; // used unevaluated only
};

template <typename S, typename... A>
constexpr std::size_t member_count() {
    if constexpr (requires { S{A{}..., AnyMember{}}; }) {
        return member_count<S, A..., AnyMember>();
    }
    return sizeof...(A);
}

/// The entries of `S`'s table that stand for a member: all but retired ones.
template <typename S>
inline constexpr std::size_t kTabled = std::apply(
    [](const auto&... e) {
        return (std::size_t{0} + ... + !std::is_same_v<decltype(e), const RetiredField&>);
    },
    kConfigFields<S>);

/// Whether table entries `a` and `b` stand for one member (or one base).
template <typename A, typename B>
constexpr bool same_member(const A& a, const B& b) {
    if constexpr (std::is_same_v<A, B> && !std::is_same_v<A, RetiredField>) {
        if constexpr (requires { a.member; }) { return a.member == b.member; }
        return true;
    }
    return false;
}

/// Ordered pairs of `S`'s entries that stand for one member: `kTabled<S>`,
/// each entry with itself, exactly when no member is named twice.
template <typename S>
inline constexpr std::size_t kSameMemberPairs = std::apply(
    [](const auto&... a) {
        const auto named_like = [](const auto& x) {
            return std::apply(
                [&](const auto&... b) { return (std::size_t{0} + ... + same_member(x, b)); },
                kConfigFields<S>);
        };
        return (std::size_t{0} + ... + named_like(a));
    },
    kConfigFields<S>);

} // namespace detail

/// Walks `v`, a struct with a `kConfigFields` table or, under its path `at`,
/// any field of one, in table order. `visit(path, value, kind)` sees each
/// number, bool, enum and string, each vector before its elements, each
/// optional before its value and each variant before its active
/// alternative, which the walk puts under that alternative's key; structs
/// and arrays are walked through. A field under a host-only one is
/// host-only too. A visitor that takes a `RetiredField` sees those.
template <typename V, typename Visit>
void walk_config(V& v, Visit&& visit, const FieldPath* at = nullptr,
                 ConfigKind kind = ConfigKind::kSemantic) {
    using namespace detail;
    using U = std::remove_const_t<V>;
    if constexpr (std::is_class_v<U> && !kIsVector<U> && !kIsOptional<U> && !kIsArray<U> &&
                  !kIsVariant<U> && !std::is_same_v<U, std::string>) {
        static_assert(member_count<U>() == kTabled<U> && kSameMemberPairs<U> == kTabled<U>,
                      "each member of a walked config struct needs exactly one table entry");
        const auto walk_entry = [&]<typename E>(const E& e) {
            if constexpr (std::is_same_v<E, RetiredField>) {
                if constexpr (std::is_invocable_v<Visit&, const RetiredField&>) { visit(e); }
            } else if constexpr (requires { typename E::type; }) {
                using B = std::conditional_t<std::is_const_v<V>, const typename E::type,
                                             typename E::type>;
                walk_config(static_cast<B&>(v), visit, at, kind);
            } else {
                const FieldPath field{at, e.key};
                walk_config(v.*e.member, visit, &field,
                            kind == ConfigKind::kHostOnly ? kind : e.kind);
            }
        };
        std::apply([&](const auto&... e) { (walk_entry(e), ...); }, kConfigFields<U>);
    } else {
        if constexpr (!kIsArray<U>) { visit(*at, v, kind); } // an array has no size to mix
        if constexpr (kIsVector<U> || kIsArray<U>) {
            for (std::size_t i = 0; i < v.size(); ++i) {
                const FieldPath item{at, nullptr, i};
                walk_config(v[i], visit, &item, kind);
            }
        } else if constexpr (kIsOptional<U>) {
            if (v) { walk_config(*v, visit, at, kind); }
        } else if constexpr (kIsVariant<U>) {
            static_assert(kAlternativeKeys<U>.size() == std::variant_size_v<U>,
                          "each alternative of a walked variant needs one key");
            const FieldPath alternative{at, kAlternativeKeys<U>[v.index()]};
            std::visit([&](auto& a) { walk_config(a, visit, &alternative, kind); }, v);
        }
    }
}

} // namespace realm::scenario
