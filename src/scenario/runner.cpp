#include "scenario/runner.hpp"

#include "scenario/report.hpp" // worst_case_victim_latency

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>

namespace realm::scenario {

std::vector<ScenarioResult> ScenarioRunner::run(const Sweep& sweep) const {
    std::vector<const ScenarioConfig*> configs;
    std::vector<std::string> labels;
    configs.reserve(sweep.points.size());
    labels.reserve(sweep.points.size());
    for (const SweepPoint& p : sweep.points) {
        configs.push_back(&p.config);
        labels.push_back(p.label);
    }
    return run_points(configs, labels);
}

std::vector<ScenarioResult>
ScenarioRunner::run(const std::vector<ScenarioConfig>& configs) const {
    std::vector<const ScenarioConfig*> ptrs;
    std::vector<std::string> labels;
    ptrs.reserve(configs.size());
    labels.reserve(configs.size());
    for (const ScenarioConfig& cfg : configs) {
        ptrs.push_back(&cfg);
        labels.push_back(cfg.name);
    }
    return run_points(ptrs, labels);
}

std::vector<ScenarioResult>
ScenarioRunner::run_points(const std::vector<const ScenarioConfig*>& configs,
                           const std::vector<std::string>& labels) const {
    std::vector<ScenarioResult> results(configs.size());
    if (configs.empty()) { return results; }

    unsigned threads = options_.threads;
    if (threads == 0) {
        // Each point's context spins up `cfg.shards` workers of its own, so
        // bound `threads x shards` by the hardware: autodetect divides the
        // core count by the widest shard request instead of stacking both
        // levels of parallelism onto every core.
        unsigned max_shards = 1;
        for (const ScenarioConfig* cfg : configs) {
            max_shards = std::max(max_shards, std::max(1U, cfg->shards));
        }
        const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
        threads = std::max(1U, hw / max_shards);
    }
    threads = std::min<unsigned>(threads, static_cast<unsigned>(configs.size()));

    if (threads <= 1) {
        for (std::size_t i = 0; i < configs.size(); ++i) {
            results[i] = run_scenario(*configs[i], labels[i]);
        }
        return results;
    }

    // Work-stealing over an atomic index: points differ wildly in cost
    // (baseline vs fully-contended), so static partitioning wastes workers.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < configs.size();
                 i = next.fetch_add(1)) {
                results[i] = run_scenario(*configs[i], labels[i]);
            }
        });
    }
    for (std::thread& th : pool) { th.join(); }
    return results;
}

std::vector<ScenarioResult>
ScenarioRunner::run_resumed(const Sweep& sweep, const std::string& resume_path,
                            std::size_t* reused_out) const {
    const std::unordered_map<std::uint64_t, ScenarioResult> cache =
        load_json_results(resume_path);

    std::vector<ScenarioResult> results(sweep.points.size());
    std::vector<const ScenarioConfig*> to_run;
    std::vector<std::string> labels;
    std::vector<std::size_t> slots;
    std::size_t reused = 0;
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        const SweepPoint& p = sweep.points[i];
        if (const auto it = cache.find(config_hash(p.config)); it != cache.end()) {
            results[i] = it->second;
            // The hash covers everything result-affecting; the label is
            // presentational and may have been renamed since the dump.
            results[i].label = p.label;
            ++reused;
            continue;
        }
        to_run.push_back(&p.config);
        labels.push_back(p.label);
        slots.push_back(i);
    }
    const std::vector<ScenarioResult> fresh = run_points(to_run, labels);
    for (std::size_t k = 0; k < fresh.size(); ++k) { results[slots[k]] = fresh[k]; }
    if (reused_out != nullptr) { *reused_out = reused; }
    return results;
}

namespace {

/// The two keys that open every point: its identity, ahead of the
/// `kResultFields` keys that describe its outcome.
constexpr const char* kLabelKey = "label";
constexpr const char* kHashKey = "config_hash";

void write_value(std::ostream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\t': os << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void write_value(std::ostream& os, bool v) { os << (v ? "true" : "false"); }
void write_value(std::ostream& os, unsigned v) { os << v; }
void write_value(std::ostream& os, std::uint64_t v) { os << v; }

void write_value(std::ostream& os, double v) {
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    os << buf;
}

void write_value(std::ostream& os, const ProfileRow& row);

template <typename T>
void write_value(std::ostream& os, const std::vector<T>& items) {
    os << '[';
    for (std::size_t k = 0; k < items.size(); ++k) {
        os << (k > 0 ? ", " : "");
        write_value(os, items[k]);
    }
    os << ']';
}

bool written(const ProfileRow& /*row*/, FieldWhen /*when*/) { return true; }
bool written(const ScenarioResult& r, FieldWhen when) {
    return when == FieldWhen::kAlways ||
           (when == FieldWhen::kMonitored ? r.mon_enabled : !r.profile.empty());
}

/// Writes `"key": value` for every field of `s` the table says to write,
/// comma-separated; `first` says whether nothing precedes the first one.
template <typename S, std::size_t N>
void write_fields(std::ostream& os, const S& s, const std::array<Field<S>, N>& fields,
                  bool first) {
    for (const Field<S>& f : fields) {
        if (!written(s, f.when)) { continue; }
        os << (first ? "\"" : ", \"") << f.key << "\": ";
        first = false;
        std::visit([&](auto member) { write_value(os, std::invoke(member, s)); },
                   f.member);
    }
}

void write_value(std::ostream& os, const ProfileRow& row) {
    os << '{';
    write_fields(os, row, kProfileRowFields, true);
    os << '}';
}

} // namespace

void write_json(std::ostream& os, const Sweep& sweep,
                const std::vector<ScenarioResult>& results) {
    os << "{\n  \"sweep\": ";
    write_value(os, sweep.name);
    os << ",\n  \"title\": ";
    write_value(os, sweep.title);
    os << ",\n  \"baseline_index\": ";
    if (sweep.baseline_index) {
        os << *sweep.baseline_index;
    } else {
        os << "null";
    }
    os << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << "    {\"" << kLabelKey << "\": ";
        write_value(os, results[i].label);
        if (i < sweep.points.size()) {
            char hash_buf[24];
            std::snprintf(hash_buf, sizeof hash_buf, "0x%016llx",
                          static_cast<unsigned long long>(
                              config_hash(sweep.points[i].config)));
            os << ", \"" << kHashKey << "\": \"" << hash_buf << '"';
        }
        write_fields(os, results[i], kResultFields, false);
        os << '}' << (i + 1 < results.size() ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
}

bool write_json_file(const std::string& path, const Sweep& sweep,
                     const std::vector<ScenarioResult>& results) {
    std::ofstream out{path};
    if (!out) { return false; }
    write_json(out, sweep, results);
    return out.good();
}

namespace {

/// One parsed JSON value: `kind` is '{' or '[' with children in `items`
/// (object members tagged with their `key`), '"' with the unescaped string
/// in `text`, or '#' with a literal or number token in `text`. `complete`
/// is set after the value's last token.
struct Json {
    char kind = 0;
    bool complete = false;
    std::size_t at = 0;     ///< byte offset, for error messages
    std::size_t key_at = 0; ///< byte offset of an object member's key
    std::string key;
    std::string text;
    std::vector<Json> items;
};

/// The input ended inside the document: the dump was cut short.
struct Truncated {};

/// Recursive-descent JSON parser. Running out of input throws `Truncated`;
/// any other syntax error throws `MalformedDump` with the byte offset.
class JsonParser {
public:
    JsonParser(std::string_view text, const std::string& source)
        : text_{text}, source_{source} {}

    [[noreturn]] void fail(std::size_t at, const std::string& what) const {
        throw MalformedDump{source_ + ": byte " + std::to_string(at) + ": " + what};
    }

    /// Skips whitespace; false at the end of the input.
    bool more() {
        pos_ = std::min(text_.find_first_not_of(" \t\r\n", pos_), text_.size());
        return pos_ < text_.size();
    }

    [[nodiscard]] std::size_t pos() const { return pos_; }

    /// Parses one value into `v`. Containers append each child before
    /// parsing it, so when the input runs out, every value already
    /// complete stays in the tree.
    void parse(Json& v, int depth = 0) {
        if (!more()) { throw Truncated{}; }
        v.at = pos_;
        v.kind = text_[pos_];
        if (depth > 32) { fail(v.at, "nesting too deep"); }
        if (v.kind == '{' || v.kind == '[') {
            const char close = v.kind == '{' ? '}' : ']';
            ++pos_;
            if (!consume(close)) {
                do {
                    Json& item = v.items.emplace_back();
                    if (v.kind == '{') {
                        if (!more()) { throw Truncated{}; }
                        item.key_at = pos_;
                        item.key = string();
                        expect(':');
                    }
                    parse(item, depth + 1);
                } while (consume(','));
                expect(close);
            }
        } else if (v.kind == '"') {
            v.text = string();
        } else {
            // A literal or number runs to the next delimiter, which must
            // exist: a value can never end the document.
            const std::size_t end = text_.find_first_of(",]} \t\r\n", pos_);
            if (end == std::string_view::npos) { throw Truncated{}; }
            v.kind = '#';
            v.text = text_.substr(pos_, end - pos_);
            pos_ = end;
            double number = 0;
            const char* last = v.text.data() + v.text.size();
            const auto [stop, ec] = std::from_chars(v.text.data(), last, number);
            if (v.text != "true" && v.text != "false" && v.text != "null" &&
                (ec != std::errc{} || stop != last)) {
                fail(v.at, "expected a value");
            }
        }
        v.complete = true;
    }

private:
    char next() {
        if (pos_ == text_.size()) { throw Truncated{}; }
        return text_[pos_++];
    }

    bool consume(char c) {
        if (!more()) { throw Truncated{}; }
        if (text_[pos_] != c) { return false; }
        ++pos_;
        return true;
    }

    void expect(char c) {
        if (!consume(c)) { fail(pos_, std::string{"expected '"} + c + "'"); }
    }

    std::string string() {
        expect('"');
        std::string out;
        for (char c = next(); c != '"'; c = next()) {
            if (static_cast<unsigned char>(c) < 0x20) {
                fail(pos_ - 1, "control character in string");
            }
            if (c == '\\') {
                constexpr std::string_view kEscape = "\"\\/bfnrtu";
                constexpr std::string_view kMeaning = "\"\\/\b\f\n\r\t";
                const std::size_t k = kEscape.find(c = next());
                if (k == std::string_view::npos) { fail(pos_ - 1, "bad escape"); }
                c = k < kMeaning.size() ? kMeaning[k] : ascii_escape();
            }
            out += c;
        }
        return out;
    }

    /// The character of a `\uXXXX` escape. The writer escapes only control
    /// characters, so an escape past ASCII is refused rather than transcoded.
    char ascii_escape() {
        const std::size_t at = pos_;
        for (int i = 0; i < 4; ++i) { (void)next(); }
        unsigned v = 0;
        const char* end = text_.data() + pos_;
        const auto [stop, ec] = std::from_chars(text_.data() + at, end, v, 16);
        if (ec != std::errc{} || stop != end || v > 0x7F) {
            fail(at, "expected an ASCII \\u escape");
        }
        return static_cast<char>(v);
    }

    std::string_view text_;
    const std::string& source_;
    std::size_t pos_ = 0;
};

void read_value(const JsonParser& in, const Json& j, std::string& v) {
    if (j.kind != '"') { in.fail(j.at, "expected a string"); }
    v = j.text;
}

void read_value(const JsonParser& in, const Json& j, bool& v) {
    if (j.kind != '#' || (j.text != "true" && j.text != "false")) {
        in.fail(j.at, "expected true or false");
    }
    v = j.text == "true";
}

/// Numbers parse exactly into the member's type; for a double, `null` (the
/// writer's spelling of a non-finite value) reads as NaN.
template <typename T>
    requires std::is_arithmetic_v<T>
void read_value(const JsonParser& in, const Json& j, T& v) {
    if (std::is_floating_point_v<T> && j.kind == '#' && j.text == "null") {
        v = std::numeric_limits<T>::quiet_NaN();
        return;
    }
    const char* end = j.text.data() + j.text.size();
    const auto [stop, ec] = std::from_chars(j.text.data(), end, v);
    if (j.kind != '#' || ec != std::errc{} || stop != end) {
        in.fail(j.at, "expected a number");
    }
}

void read_value(const JsonParser& in, const Json& j, ProfileRow& row);

template <typename T>
void read_value(const JsonParser& in, const Json& j, std::vector<T>& items) {
    if (j.kind != '[') { in.fail(j.at, "expected an array"); }
    items.resize(j.items.size());
    for (std::size_t k = 0; k < items.size(); ++k) { read_value(in, j.items[k], items[k]); }
}

/// Reads object `obj` into `s` through its field table, which must hold
/// exactly the table keys `write_fields` writes for what was read. Members
/// outside the table go to `other(member)`, which returns false for a key
/// it does not know either. An unknown, repeated or missing key throws
/// `MalformedDump`, and so does a key the writer leaves out for this
/// object (a monitor key without `"mon_enabled": true`).
template <typename S, std::size_t N, typename F>
void read_fields(const JsonParser& in, const Json& obj, S& s,
                 const std::array<Field<S>, N>& fields, F&& other) {
    if (obj.kind != '{') { in.fail(obj.at, "expected an object"); }
    std::array<const Json*, N> found{};
    for (auto m = obj.items.begin(); m != obj.items.end(); ++m) {
        const auto same_key = [&](const Json& prior) { return prior.key == m->key; };
        if (std::any_of(obj.items.begin(), m, same_key)) {
            in.fail(m->key_at, "repeated key \"" + m->key + '"');
        }
        const auto f = std::find_if(fields.begin(), fields.end(),
                                    [&](const Field<S>& row) { return m->key == row.key; });
        if (f == fields.end()) {
            if (!other(*m)) { in.fail(m->key_at, "unknown key \"" + m->key + '"'); }
            continue;
        }
        found[static_cast<std::size_t>(f - fields.begin())] = &*m;
        std::visit(
            [&](auto member) {
                if constexpr (std::is_member_function_pointer_v<decltype(member)>) {
                    double derived = 0; // recomputed on write; only checked here
                    read_value(in, *m, derived);
                } else {
                    read_value(in, *m, s.*member);
                }
            },
            f->member);
    }
    for (std::size_t k = 0; k < N; ++k) {
        if ((found[k] != nullptr) == written(s, fields[k].when)) { continue; }
        const std::string key = std::string{'"'} + fields[k].key + '"';
        if (found[k] == nullptr) { in.fail(obj.at, "missing key " + key); }
        in.fail(found[k]->key_at, "key " + key + " is not written for this point");
    }
}

void read_value(const JsonParser& in, const Json& j, ProfileRow& row) {
    read_fields(in, j, row, kProfileRowFields, [](const Json&) { return false; });
}

/// One point of a dump; `has_hash` is false for points written past the
/// end of the sweep's point list.
struct DumpPoint {
    ScenarioResult result;
    std::uint64_t hash = 0;
    bool has_hash = false;
};

/// Every complete point of the dump at `path`: none when the file is
/// missing, the complete prefix when it ends early (a checkpoint killed
/// mid-write), and a `MalformedDump` for anything that is not a dump.
std::vector<DumpPoint> read_dump(const std::string& path) {
    std::vector<DumpPoint> points;
    std::ifstream file{path, std::ios::binary};
    if (!file) { return points; }
    std::ostringstream text;
    text << file.rdbuf();
    const std::string doc_text = std::move(text).str();

    JsonParser in{doc_text, path};
    Json doc;
    try {
        in.parse(doc);
        if (in.more()) { in.fail(in.pos(), "unexpected text after the document"); }
    } catch (const Truncated&) {
        // Keep what was complete when the input ran out.
    }
    if (doc.kind == 0) { return points; }
    if (doc.kind != '{') { in.fail(doc.at, "expected an object"); }
    for (const Json& member : doc.items) {
        if (member.key != "points" || member.kind == 0) { continue; }
        if (member.kind != '[') { in.fail(member.at, "expected an array"); }
        for (const Json& item : member.items) {
            if (!item.complete) { break; }
            DumpPoint& p = points.emplace_back();
            bool has_label = false;
            read_fields(in, item, p.result, kResultFields, [&](const Json& m) {
                if (m.key == kLabelKey) {
                    read_value(in, m, p.result.label);
                    has_label = true;
                } else if (m.key == kHashKey) {
                    const char* end = m.text.data() + m.text.size();
                    const auto [stop, ec] = std::from_chars(
                        m.text.data() + std::min<std::size_t>(m.text.size(), 2), end,
                        p.hash, 16);
                    if (m.kind != '"' || m.text.rfind("0x", 0) != 0 ||
                        ec != std::errc{} || stop != end) {
                        in.fail(m.at, "expected a 0x-prefixed hex config_hash");
                    }
                    p.has_hash = true;
                } else {
                    return false;
                }
                return true;
            });
            if (!has_label) {
                in.fail(item.at, std::string{"missing key \""} + kLabelKey + '"');
            }
        }
    }
    return points;
}

} // namespace

std::unordered_map<std::uint64_t, ScenarioResult>
load_json_results(const std::string& path) {
    std::unordered_map<std::uint64_t, ScenarioResult> cache;
    for (DumpPoint& p : read_dump(path)) {
        if (p.has_hash) { cache.emplace(p.hash, std::move(p.result)); }
    }
    return cache;
}

std::unordered_map<std::string, ScenarioResult>
load_json_results_by_label(const std::string& path) {
    std::unordered_map<std::string, ScenarioResult> cache;
    for (DumpPoint& p : read_dump(path)) {
        cache.emplace(p.result.label, std::move(p.result));
    }
    return cache;
}

DiffReport diff_against_baseline(const std::string& baseline_path,
                                 const std::vector<ScenarioResult>& results,
                                 double rel_threshold, std::uint64_t abs_slack,
                                 double speed_threshold, double speed_slack) {
    const std::unordered_map<std::string, ScenarioResult> baseline =
        load_json_results_by_label(baseline_path);
    DiffReport report;
    for (const ScenarioResult& r : results) {
        DiffEntry e;
        e.label = r.label;
        e.current_worst = worst_case_victim_latency(r);
        const auto it = baseline.find(r.label);
        if (it == baseline.end()) {
            e.missing_in_baseline = true;
            report.entries.push_back(std::move(e));
            continue;
        }
        ++report.compared;
        e.baseline_worst = worst_case_victim_latency(it->second);
        const bool health_regressed =
            (r.timed_out && !it->second.timed_out) ||
            (!r.boot_ok && it->second.boot_ok);
        const double limit =
            static_cast<double>(e.baseline_worst) * (1.0 + rel_threshold);
        const bool latency_regressed =
            static_cast<double>(e.current_worst) > limit &&
            e.current_worst > e.baseline_worst + abs_slack;
        e.regressed = health_regressed || latency_regressed;
        report.regressions += e.regressed ? 1U : 0U;

        // Separate host-speed gate: compares sim cycles / wall second
        // (recomputed from the stored fields, so old baselines work) and
        // never feeds into the latency verdict.
        if (speed_threshold > 0.0) {
            e.baseline_speed = it->second.sim_cycles_per_sec();
            e.current_speed = r.sim_cycles_per_sec();
            if (e.baseline_speed > 0.0 && e.current_speed > 0.0) {
                ++report.speed_compared;
                e.speed_regressed =
                    e.current_speed < e.baseline_speed * (1.0 - speed_threshold) &&
                    e.current_speed < e.baseline_speed - speed_slack;
                report.speed_regressions += e.speed_regressed ? 1U : 0U;
            }
        }
        report.entries.push_back(std::move(e));
    }
    return report;
}

} // namespace realm::scenario
