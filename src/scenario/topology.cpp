#include "scenario/topology.hpp"

#include "scenario/scenario.hpp"
#include "sim/check.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

namespace realm::scenario {

std::vector<RingNodeSpec> make_ring_roles(noc::NodeId num_nodes,
                                          noc::NodeId num_attackers,
                                          noc::NodeId num_memories) {
    REALM_EXPECTS(num_memories >= 1, "a NoC needs at least one memory node");
    REALM_EXPECTS(num_nodes >= 2 + num_memories + num_attackers,
                  "fabric too small for the requested roles");
    std::vector<RingNodeSpec> specs(num_nodes);
    specs[0] = RingNodeSpec{RingRole::kVictim, true, {}};
    // Memories spread evenly over the node order (never node 0): memory k
    // sits at (k+1) * N / (M+1), nudged forward past any collision.
    for (noc::NodeId k = 0; k < num_memories; ++k) {
        noc::NodeId pos = static_cast<noc::NodeId>(
            (static_cast<std::uint32_t>(k + 1) * num_nodes) / (num_memories + 1U));
        while (pos == 0 || specs[pos].role != RingRole::kPassthrough) {
            pos = static_cast<noc::NodeId>((pos + 1) % num_nodes);
        }
        specs[pos] = RingNodeSpec{RingRole::kMemory, false, {}};
    }
    // Attackers fill the lowest free positions (interleaved with the
    // memories on larger fabrics, like DSAs scattered across a real die).
    noc::NodeId placed = 0;
    for (noc::NodeId i = 1; i < num_nodes && placed < num_attackers; ++i) {
        if (specs[i].role != RingRole::kPassthrough) { continue; }
        specs[i] = RingNodeSpec{RingRole::kInterference, true, {}};
        ++placed;
    }
    REALM_ENSURES(placed == num_attackers, "attacker placement failed");
    return specs;
}

std::vector<RingNodeSpec> make_mesh_roles(noc::NodeId rows, noc::NodeId cols,
                                          noc::NodeId num_attackers,
                                          noc::NodeId num_memories) {
    REALM_EXPECTS(static_cast<std::uint32_t>(rows) * cols <= 65535,
                  "node ids are 16-bit: rows * cols must not exceed 65535");
    // Same linear spread as the ring over the row-major order: identical
    // role-to-node-index assignment keeps DoS cells comparable across
    // fabrics while XY routing maps the indices onto 2D paths.
    return make_ring_roles(static_cast<noc::NodeId>(rows * cols), num_attackers,
                           num_memories);
}

namespace {

// ---------------------------------------------------------------------------
// Cheshire crossbar SoC (the legacy — and still default — fabric).
// ---------------------------------------------------------------------------

class CheshireTopology final : public TopologyHandle {
public:
    CheshireTopology(sim::SimContext& ctx, const soc::SocConfig& cfg)
        : ctx_{&ctx}, soc_cfg_{cfg}, soc_{ctx, cfg} {}

    axi::AxiChannel& victim_port() override { return soc_.core_port(); }
    std::size_t num_interference_ports() const override { return soc_cfg_.num_dsa; }
    axi::AxiChannel& interference_port(std::size_t i) override {
        return soc_.dsa_port(i);
    }

    void write(axi::Addr addr, std::span<const std::uint8_t> bytes) override {
        soc_.dram_image().write(addr, bytes);
    }
    void warm(axi::Addr base, std::uint64_t bytes) override {
        soc_.warm_llc(base, bytes);
    }

    bool boot(const std::vector<RegionPlan>& plans) override {
        if (plans.empty()) { return true; }
        std::vector<soc::CheshireSoc::BootRegionPlan> boot_plans;
        boot_plans.reserve(plans.size());
        for (const RegionPlan& p : plans) {
            boot_plans.push_back({p.budget_bytes, p.period_cycles, p.fragment_beats});
        }
        soc_.queue_boot_script(boot_plans);
        return ctx_->run_until([&] { return soc_.boot_master().done(); }, 10000);
    }
    void set_interference_throttle(bool enabled) override {
        if (!soc_.realm_present()) { return; }
        for (std::uint32_t i = 0; i < soc_cfg_.num_dsa; ++i) {
            soc_.dsa_realm(i).set_throttle(enabled);
        }
    }
    void set_victim_monitor() override {
        if (!soc_.realm_present()) { return; }
        soc_.core_realm().set_region(
            0, rt::RegionConfig{soc_cfg_.dram_base, soc_cfg_.dram_base + soc_cfg_.dram_size,
                                /*budget=*/0, /*period=*/0});
    }

    const rt::RealmUnit* victim_realm() const override {
        return soc_.realm_present() ? &soc_.core_realm() : nullptr;
    }
    const rt::RealmUnit* interference_realm(std::size_t i) const override {
        return soc_.realm_present() ? &soc_.dsa_realm(i) : nullptr;
    }
    std::uint64_t fabric_w_stalls() const override {
        return soc_.xbar().w_stall_cycles(0);
    }
    std::uint64_t fabric_hops() const override { return 0; }

private:
    sim::SimContext* ctx_;
    soc::SocConfig soc_cfg_;
    /// `CheshireSoc` exposes its units non-const only.
    mutable soc::CheshireSoc soc_;
};

// ---------------------------------------------------------------------------
// NoC fabrics (ring of Figure 1b, 2D mesh) at scenario scale. Everything
// except fabric construction is shared: role resolution, the node-level
// address map, memory-slave attachment, REALM placement, and the direct
// config path; every fabric is a `noc::NocFabric`.
// ---------------------------------------------------------------------------

class NocTopologyBase : public TopologyHandle {
protected:
    /// Builds the fabric from (ctx, node_map, subordinate_nodes,
    /// manager_nodes, realm_nodes).
    using MakeFabric = std::function<std::unique_ptr<noc::NocFabric>(
        sim::SimContext&, ic::AddrMap, std::vector<noc::NodeId>, std::vector<noc::NodeId>,
        const std::vector<noc::NodeId>&)>;

    NocTopologyBase(sim::SimContext& ctx, const NocTopologyConfig& cfg,
                    std::vector<RingNodeSpec> specs, const MakeFabric& make_fabric)
        : cfg_{cfg}, specs_{std::move(specs)} {
        cfg_.nodes.clear(); // `specs_` is the resolved list; keep one copy
        const auto num_nodes = static_cast<noc::NodeId>(specs_.size());

        // Resolve roles and build the node-level address map: memory node k
        // serves [mem_base + k*stride, + span).
        ic::AddrMap map;
        std::size_t mem_count = 0;
        bool victim_seen = false;
        for (noc::NodeId n = 0; n < num_nodes; ++n) {
            switch (specs_[n].role) {
            case RingRole::kVictim:
                REALM_EXPECTS(!victim_seen, "a NoC hosts exactly one victim node");
                victim_seen = true;
                victim_node_ = n;
                break;
            case RingRole::kInterference: interference_nodes_.push_back(n); break;
            case RingRole::kMemory: {
                const axi::Addr base =
                    cfg_.mem_base + static_cast<axi::Addr>(mem_count) * cfg_.mem_stride;
                map.add(base, cfg_.mem_span_bytes, n, "mem" + std::to_string(n));
                spans_.push_back(Span{base, cfg_.mem_span_bytes, n});
                ++mem_count;
                break;
            }
            case RingRole::kPassthrough: break;
            }
        }
        REALM_EXPECTS(victim_seen, "NoC topology needs a victim node");
        REALM_EXPECTS(mem_count > 0, "NoC topology needs a memory node");
        mem_lo_ = spans_.front().base;
        mem_hi_ = spans_.back().base + spans_.back().bytes;

        std::vector<noc::NodeId> sub_nodes;
        for (const Span& s : spans_) { sub_nodes.push_back(s.node); }
        std::vector<noc::NodeId> mgr_nodes{victim_node_};
        mgr_nodes.insert(mgr_nodes.end(), interference_nodes_.begin(),
                         interference_nodes_.end());
        std::vector<noc::NodeId> realm_nodes; // in node order, which builds the units
        for (noc::NodeId n = 0; n < num_nodes; ++n) {
            const bool manager = specs_[n].role == RingRole::kVictim ||
                                 specs_[n].role == RingRole::kInterference;
            if (manager && specs_[n].realm) { realm_nodes.push_back(n); }
        }
        fabric_ = make_fabric(ctx, std::move(map), std::move(sub_nodes),
                              std::move(mgr_nodes), realm_nodes);
        // Tile-local models co-shard with their tile: the memory slave talks
        // to its egress mux (and the REALM unit to its router NI) through
        // plain channels, registered or pass-through, which are only
        // race-free within one shard. The fabric decides the spatial
        // partition.
        for (Span& s : spans_) {
            const sim::ShardScope scope{ctx, fabric_->shard_of_node(s.node)};
            mems_.push_back(std::make_unique<mem::AxiMemSlave>(
                ctx, "mem" + std::to_string(s.node), fabric_->subordinate_port(s.node),
                std::make_unique<mem::SramBackend>(cfg_.mem_access_latency,
                                                   cfg_.mem_access_latency),
                mem::AxiMemSlaveConfig{cfg_.mem_max_outstanding,
                                       cfg_.mem_max_outstanding, s.base}));
            s.store = &static_cast<mem::SramBackend&>(mems_.back()->backend()).store();
        }

        // REALM units last: the fabric built each unit's manager port with
        // pass-through B/R, so a unit must tick after the router that pushes
        // its responses, on the router's shard (construction order fixes
        // evaluation order, as in the crossbar SoC).
        realm_of_node_.assign(num_nodes, -1);
        for (const noc::NodeId n : realm_nodes) {
            const sim::ShardScope scope{ctx, fabric_->shard_of_node(n)};
            realm_of_node_[n] = static_cast<int>(realms_.size());
            realm_up_.push_back(std::make_unique<axi::AxiChannel>(
                ctx, "noc.up" + std::to_string(n)));
            realms_.push_back(std::make_unique<rt::RealmUnit>(
                ctx, "noc.realm" + std::to_string(n), *realm_up_.back(),
                fabric_->manager_port(n), specs_[n].realm_config.value_or(cfg_.realm)));
        }
    }

public:
    axi::AxiChannel& victim_port() override { return manager_attach(victim_node_); }
    std::size_t num_interference_ports() const override {
        return interference_nodes_.size();
    }
    axi::AxiChannel& interference_port(std::size_t i) override {
        return manager_attach(interference_nodes_.at(i));
    }
    unsigned victim_shard() const override {
        return fabric_->shard_of_node(victim_node_);
    }
    unsigned interference_shard(std::size_t i) const override {
        return fabric_->shard_of_node(interference_nodes_.at(i));
    }

    void write(axi::Addr addr, std::span<const std::uint8_t> bytes) override {
        if (bytes.empty()) { return; } // places nothing, so `addr` may be unmapped
        const Span& s = span_for(addr);
        REALM_EXPECTS(bytes.size() <= s.base + s.bytes - addr,
                      "write of " + std::to_string(bytes.size()) + " bytes at " +
                          sim::hex(addr) + " runs past the end of memory node " +
                          std::to_string(s.node) + "'s span [" + sim::hex(s.base) + ", " +
                          sim::hex(s.base + s.bytes) + ")");
        s.store->write(addr - s.base, bytes);
    }
    void warm(axi::Addr, std::uint64_t) override {} // flat SRAM nodes: no cache

    bool boot(const std::vector<RegionPlan>& plans) override {
        // The NoC fabrics have no HWRoT boot master (yet); the config path
        // programs the placed units directly, covering the whole mapped
        // memory span. A plan for a manager without a unit is a no-op.
        if (plans.empty()) { return true; }
        const std::size_t managers = 1 + interference_nodes_.size();
        REALM_EXPECTS(plans.size() == managers,
                      "one boot plan per NoC manager required: got " +
                          std::to_string(plans.size()) + " plans for " +
                          std::to_string(managers) + " managers");
        for (std::size_t p = 0; p < plans.size(); ++p) {
            rt::RealmUnit* unit = unit_at(p == 0 ? victim_node_ : interference_nodes_[p - 1]);
            if (unit == nullptr) { continue; }
            unit->set_fragmentation(plans[p].fragment_beats);
            unit->set_region(0, rt::RegionConfig{mem_lo_, mem_hi_, plans[p].budget_bytes,
                                                 plans[p].period_cycles});
        }
        return true;
    }
    void set_interference_throttle(bool enabled) override {
        for (const noc::NodeId n : interference_nodes_) {
            if (realm_of_node_[n] >= 0) { realms_[realm_of_node_[n]]->set_throttle(enabled); }
        }
    }
    void set_victim_monitor() override {
        if (realm_of_node_[victim_node_] < 0) { return; }
        realms_[realm_of_node_[victim_node_]]->set_region(
            0, rt::RegionConfig{mem_lo_, mem_hi_, /*budget=*/0, /*period=*/0});
    }

    const rt::RealmUnit* victim_realm() const override { return unit_at(victim_node_); }
    const rt::RealmUnit* interference_realm(std::size_t i) const override {
        return i < interference_nodes_.size() ? unit_at(interference_nodes_[i]) : nullptr;
    }
    std::uint64_t fabric_w_stalls() const override {
        return fabric_->total_mux_w_stalls();
    }
    std::uint64_t fabric_hops() const override { return fabric_->total_forwarded(); }
    std::uint64_t fabric_rsp_holds() const override { return fabric_->total_mux_rsp_holds(); }
    void check_flow_invariants() const override { fabric_->check_flow_invariants(); }

private:
    struct Span {
        axi::Addr base = 0;
        std::uint64_t bytes = 0;
        noc::NodeId node = 0;
        mem::SparseMemory* store = nullptr;
    };

    [[nodiscard]] const Span& span_for(axi::Addr addr) const {
        for (const Span& s : spans_) {
            if (addr >= s.base && addr < s.base + s.bytes) { return s; }
        }
        REALM_EXPECTS(false, "address outside every NoC memory span");
        return spans_.front();
    }
    [[nodiscard]] axi::AxiChannel& manager_attach(noc::NodeId node) {
        return realm_of_node_[node] >= 0 ? *realm_up_[realm_of_node_[node]]
                                         : fabric_->manager_port(node);
    }
    [[nodiscard]] rt::RealmUnit* unit_at(noc::NodeId node) const {
        return realm_of_node_[node] >= 0 ? realms_[realm_of_node_[node]].get() : nullptr;
    }

    NocTopologyConfig cfg_;
    std::vector<RingNodeSpec> specs_;
    std::unique_ptr<noc::NocFabric> fabric_;
    std::vector<std::unique_ptr<mem::AxiMemSlave>> mems_;
    std::vector<Span> spans_;
    std::vector<std::unique_ptr<axi::AxiChannel>> realm_up_;
    std::vector<std::unique_ptr<rt::RealmUnit>> realms_;
    std::vector<int> realm_of_node_;
    noc::NodeId victim_node_ = 0;
    std::vector<noc::NodeId> interference_nodes_;
    axi::Addr mem_lo_ = 0;
    axi::Addr mem_hi_ = 0;
};

class RingTopology final : public NocTopologyBase {
public:
    RingTopology(sim::SimContext& ctx, const RingTopologyConfig& cfg)
        : NocTopologyBase{ctx, cfg, resolve(cfg),
                          [&cfg](sim::SimContext& c, ic::AddrMap map,
                                 std::vector<noc::NodeId> subs,
                                 std::vector<noc::NodeId> mgrs,
                                 const std::vector<noc::NodeId>& realms) {
                              return std::make_unique<noc::NocRing>(
                                  c, "ring", cfg.num_nodes, std::move(map),
                                  std::move(subs), std::move(mgrs), realms, cfg.flow());
                          }} {}

private:
    static std::vector<RingNodeSpec> resolve(const RingTopologyConfig& cfg) {
        std::vector<RingNodeSpec> specs =
            cfg.nodes.empty() ? make_ring_roles(cfg.num_nodes, 1, 2) : cfg.nodes;
        REALM_EXPECTS(specs.size() == cfg.num_nodes,
                      "ring node spec count must equal num_nodes");
        return specs;
    }
};

class MeshTopology final : public NocTopologyBase {
public:
    MeshTopology(sim::SimContext& ctx, const MeshTopologyConfig& cfg)
        : NocTopologyBase{ctx, cfg, resolve(cfg),
                          [&cfg](sim::SimContext& c, ic::AddrMap map,
                                 std::vector<noc::NodeId> subs,
                                 std::vector<noc::NodeId> mgrs,
                                 const std::vector<noc::NodeId>& realms) {
                              return std::make_unique<noc::NocMesh>(
                                  c, "mesh", cfg.rows, cfg.cols, std::move(map),
                                  std::move(subs), std::move(mgrs), realms, cfg.flow(),
                                  cfg.routing, cfg.tile_shards);
                          }},
          lookahead_{cfg.link_latency} {}

    // The mesh guarantees `link_latency` cycles on every cross-shard path:
    // neighbor links pipeline flits and wakes by exactly that much, and the
    // fabric forces `credit_return_delay >= link_latency` (see NocMesh), so
    // deferred end-to-end credit releases mature no earlier either.
    [[nodiscard]] sim::Cycle lookahead() const override { return lookahead_; }

private:
    sim::Cycle lookahead_ = 1;

    static std::vector<RingNodeSpec> resolve(const MeshTopologyConfig& cfg) {
        std::vector<RingNodeSpec> specs =
            cfg.nodes.empty() ? make_mesh_roles(cfg.rows, cfg.cols, 1, 2) : cfg.nodes;
        REALM_EXPECTS(specs.size() == cfg.num_nodes(),
                      "mesh node spec count must equal rows * cols");
        return specs;
    }
};

} // namespace

std::unique_ptr<TopologyHandle> make_topology(sim::SimContext& ctx,
                                              const ScenarioConfig& cfg) {
    return std::visit(
        [&]<typename F>(const F& fabric) -> std::unique_ptr<TopologyHandle> {
            if constexpr (std::is_same_v<F, soc::SocConfig>) {
                return std::make_unique<CheshireTopology>(ctx, fabric);
            } else if constexpr (std::is_same_v<F, RingTopologyConfig>) {
                return std::make_unique<RingTopology>(ctx, fabric);
            } else {
                return std::make_unique<MeshTopology>(ctx, fabric);
            }
        },
        cfg.fabric);
}

} // namespace realm::scenario
