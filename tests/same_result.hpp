/// \file
/// \brief The result comparator every test shares: two `ScenarioResult`s
///        agree when they are equal after clearing the field kinds the
///        check may ignore (see `scenario::kResultFields`); `as_dumped`
///        rounds a fresh result the way a sweep dump stores it.
#pragma once

#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <variant>

namespace realm::test {

/// Resets every field that `drop(field)` selects to its default value.
template <typename Drop>
void clear_fields(scenario::ScenarioResult& r, Drop drop) {
    const scenario::ScenarioResult blank{};
    for (const scenario::ResultField& f : scenario::kResultFields) {
        if (!drop(f)) { continue; }
        std::visit(
            [&](auto member) {
                if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
                    r.*member = blank.*member;
                }
            },
            f.member);
    }
}

/// Resets every field of kind `from` or later to its default value.
inline void clear_from(scenario::ScenarioResult& r, scenario::FieldKind from) {
    clear_fields(r, [from](const scenario::ResultField& f) { return f.kind >= from; });
}

/// `r` as a dump holds it: doubles at the writer's six significant digits.
/// A member missing from `kResultFields` keeps its full value here while
/// the loaded copy has the default, so comparing against this catches it.
inline scenario::ScenarioResult as_dumped(scenario::ScenarioResult r) {
    for (const scenario::ResultField& f : scenario::kResultFields) {
        std::visit(
            [&r](auto member) {
                if constexpr (std::is_same_v<decltype(member),
                                             double scenario::ScenarioResult::*>) {
                    char buf[32];
                    std::snprintf(buf, sizeof buf, "%.6g", r.*member);
                    r.*member = std::strtod(buf, nullptr);
                }
            },
            f.member);
    }
    return r;
}

/// Succeeds when `a == b` once the fields of kind `ignore_from` or later
/// are cleared on both: `kKernel` for runs under different schedulers,
/// shard counts, partitions or profiler settings, `kHost` for repeats of one
/// kernel configuration.
/// The comparison is the defaulted `operator==`, so a member the field
/// table forgets is still compared; a failure names every differing key.
inline ::testing::AssertionResult same_result(scenario::ScenarioResult a,
                                              scenario::ScenarioResult b,
                                              scenario::FieldKind ignore_from) {
    clear_from(a, ignore_from);
    clear_from(b, ignore_from);
    if (a == b) { return ::testing::AssertionSuccess(); }
    ::testing::AssertionResult failure = ::testing::AssertionFailure();
    bool named = false;
    const auto differs = [&](const char* key, const auto& x, const auto& y) {
        if (x == y) { return; }
        failure << "\n  " << key << ": " << ::testing::PrintToString(x) << " vs "
                << ::testing::PrintToString(y);
        named = true;
    };
    differs("label", a.label, b.label);
    for (const scenario::ResultField& f : scenario::kResultFields) {
        std::visit(
            [&](auto member) {
                if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
                    differs(f.key, a.*member, b.*member);
                }
            },
            f.member);
    }
    if (!named) { failure << "\n  a member missing from kResultFields differs"; }
    return failure;
}

} // namespace realm::test
