/// \file
/// \brief Reproduces **Table I**: area decomposition of the Cheshire SoC
///        with the AXI-REALM extension (kGE, GF 12 nm, 1 GHz).
///
/// The non-REALM rows are the paper's synthesis results (we cannot run a
/// 12 nm flow here; see DESIGN.md's substitution table). The REALM rows are
/// additionally *recomputed* from the Table II analytical model at the
/// paper's configuration, so the model and the reported decomposition can
/// be compared directly.
#include "area/area_model.hpp"

#include <cstdio>

int main() {
    using namespace realm::area;

    std::puts("== Table I: area decomposition of the Cheshire SoC ==\n");
    std::printf("%-14s %10s %8s\n", "unit", "area[kGE]", "share%");
    for (const CheshireBlock& b : kTable1) {
        std::printf("%-14s %10.1f %8.2f\n", b.name, b.kge, b.percent);
    }

    RealmParams p; // the paper's configuration (Table I footnote b)
    p.addr_width_bits = 64;
    p.data_width_bits = 64;
    p.num_pending = 8;
    p.buffer_depth = 16;
    p.num_regions = 2;
    p.num_units = 3;

    const double unit_kge = realm_unit_ge(p) / 1000.0;
    const double units3_kge = 3 * unit_kge;
    const double cfg_kge = config_file_ge(p) / 1000.0;

    std::puts("\n-- AXI-REALM rows recomputed from the Table II model --");
    std::printf("%-22s %12s %12s %9s\n", "block", "model[kGE]", "paper[kGE]", "delta%");
    std::printf("%-22s %12.1f %12.1f %+9.1f\n", "3 RT units", units3_kge, 83.6,
                100.0 * (units3_kge - 83.6) / 83.6);
    std::printf("%-22s %12.1f %12.1f %+9.1f\n", "RT CFG", cfg_kge, 9.8,
                100.0 * (cfg_kge - 9.8) / 9.8);

    std::printf("\npaper overhead:  %.2f %% of the SoC (paper reports 2.45 %%)\n",
                paper_overhead_percent());
    std::printf("model overhead:  %.2f %% (Table II model on the Cheshire base area)\n",
                model_overhead_percent(p));
    std::puts("\nNote: the per-unit model matches the reported RT-unit area within a few");
    std::puts("percent; the config-file row overshoots because Table II's per-unit-and-");
    std::puts("region register constants do not reconcile exactly with Table I's 9.8 kGE.");
    return 0;
}
