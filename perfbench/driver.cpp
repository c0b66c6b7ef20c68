/// \file
/// \brief Benchmark driver: runs one named workload of scenario points in a
///        single process and prints its end-to-end and per-layer metrics.
///
///   perfbench_driver --workload NAME --seed N --seconds S
///                    [--traced] [--trace-file PATH] [--commit ID]
///
/// Order of work in one invocation:
///   1. set-up passes: every point with a zero budget (no warm-up, no
///      simulated cycles), median pass total -> `setup_s`;
///   2. one warm-up pass, discarded for host time; its simulated fields are
///      the reference every later repetition must reproduce;
///   3. repetitions round-robin over the points until S seconds have
///      passed; host time is each point's best repetition. A
///      single-threaded workload runs two such streams at once, and every run
///      moves to the next free CPUs (see README.md);
///   4. with --traced, one pass with the cycle-attribution profiler armed,
///      whose spans are written to the trace file at exit.
/// The last stdout line is one JSON object holding every metric.
#include "guard.hpp"

#include "sim/rng.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace rs = realm::scenario;

/// AXI-REALM, Fig. 6a: Susan at fragmentation 1 reaches 68.2 % of its
/// single-source performance.
constexpr double kPaperFrag1Percent = 68.2;

struct Point {
    std::string label;
    rs::ScenarioConfig cfg;
    bool defended = false; ///< REALM regulation active on the attackers
};

struct Workload {
    std::string name;
    std::vector<Point> points;
};

/// No workload runs more than this many simulation threads at once.
constexpr unsigned kMaxSimThreads = 2;

/// Hands out CPUs in turn to the runs of a workload, never one that a
/// concurrent run holds. On a shared host each CPU slows down on its own for
/// seconds at a time; moving every run to the next CPUs spreads a point's
/// repetitions over all of them, so its best repetition can find a quiet one.
class CpuRotation {
public:
    /// Runs `fn` with the calling thread, and the shard workers it starts,
    /// restricted to the next `width` free CPUs. Runs it unrestricted when
    /// the host has too few.
    template <typename Fn>
    auto run(unsigned width, Fn&& fn) {
        const std::vector<int> cpus = claim(width);
        if (!cpus.empty()) {
            cpu_set_t set;
            CPU_ZERO(&set);
            for (const int c : cpus) { CPU_SET(c, &set); }
            pthread_setaffinity_np(pthread_self(), sizeof set, &set);
        }
        auto out = fn();
        const std::lock_guard<std::mutex> lk(mu_);
        for (const int c : cpus) { busy_[c] = false; }
        return out;
    }

private:
    std::vector<int> claim(unsigned width) {
        const std::lock_guard<std::mutex> lk(mu_);
        std::vector<int> got;
        for (std::size_t k = 0; k < busy_.size() && got.size() < width; ++k) {
            const std::size_t c = (next_ + k) % busy_.size();
            if (!busy_[c]) { got.push_back(static_cast<int>(c)); }
        }
        if (got.size() < width) { return {}; }
        for (const int c : got) { busy_[c] = true; }
        next_ = (static_cast<std::size_t>(got.front()) + 1) % busy_.size();
        return got;
    }

    std::mutex mu_;
    std::vector<bool> busy_ =
        std::vector<bool>(std::max(1U, std::thread::hardware_concurrency()), false);
    std::size_t next_ = 0;
};

bool starts_with(const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The benchmark's workloads, built from the registered sweeps. Returns an
/// empty workload for an unknown name. Why each one exists is in README.md.
Workload make_workload(const std::string& name, std::uint64_t seed) {
    Workload w;
    w.name = name;
    if (name == "xbar-fig6") {
        for (rs::SweepPoint& sp : rs::make_sweep("fig6a").points) {
            const bool defended = starts_with(sp.label, "frag ");
            w.points.push_back({"fig6a/" + sp.label, sp.config, defended});
        }
        // fig6b's baseline is fig6a's single-source point; run it once.
        for (rs::SweepPoint& sp : rs::make_sweep("fig6b").points) {
            if (sp.label == "baseline") { continue; }
            w.points.push_back({"fig6b/" + sp.label, sp.config, true});
        }
    } else if (name == "mesh-dos-monitored") {
        for (rs::SweepPoint& sp : rs::make_sweep("mesh-dos-matrix").points) {
            sp.config.monitors.enabled = true;
            w.points.push_back({sp.label, sp.config, !ends_with(sp.label, "/none")});
        }
    } else if (name == "mesh-large-2shard") {
        for (rs::SweepPoint& sp : rs::make_sweep("mesh-contention-large").points) {
            if (sp.label != "16x16 solo" && sp.label != "16x16 budget128" &&
                sp.label != "32x32 solo") {
                continue;
            }
            sp.config.shards = 2;
            sp.config.shard_workers = 2;
            w.points.push_back({sp.label, sp.config, starts_with(sp.label, "16x16 budget")});
        }
    }
    // Inputs come from the workload seed: each point's RNG seed, and one
    // Susan input image shared by every point so Fig. 6 ratios compare runs
    // over the same image.
    const std::uint64_t image_seed = realm::sim::derive_seed("susan-image", seed);
    for (Point& p : w.points) {
        p.cfg.seed = realm::sim::derive_seed(name + "/" + p.label, seed);
        p.cfg.victim.susan.image_seed = image_seed;
    }
    return w;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string cpu_model() {
    std::ifstream in{"/proc/cpuinfo"};
    std::string line;
    while (std::getline(in, line)) {
        if (!starts_with(line, "model name")) { continue; }
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
            return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void json_string(std::ostream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            os << '\\' << c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            os << buf;
        } else {
            os << c;
        }
    }
    os << '"';
}

std::string number(double v) {
    if (!std::isfinite(v)) { return "null"; }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Module group of a profiled component type: the `src/` directory its
/// namespace names (`realm::noc::MeshRouter` -> `noc`), or `other`.
const std::array<const char*, 6> kModules = {"ic", "mem", "rt", "noc", "mon", "traffic"};

std::string module_of(const std::string& type) {
    const std::string prefix = "realm::";
    if (starts_with(type, prefix.c_str())) {
        const std::size_t end = type.find("::", prefix.size());
        const std::string ns = type.substr(prefix.size(), end - prefix.size());
        for (const char* m : kModules) {
            if (ns == m) { return ns; }
        }
    }
    return "other";
}

/// One span of the traced pass (Chrome trace-event "X" record).
struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = none
    std::string name;
    double start_us = 0;
    double dur_us = 0;
    std::string args; ///< extra JSON members, without braces
};

class Tracer {
public:
    using Clock = std::chrono::steady_clock;

    double now_us() const {
        return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
    }
    std::uint64_t add(Span s) {
        s.id = spans_.size() + 1;
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }
    Span& at(std::uint64_t id) { return spans_[id - 1]; }

    void write(const std::string& path, const std::string& host_json) const {
        std::ofstream out{path};
        out << "{\"host\": " << host_json << ",\n\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": ";
            json_string(out, s.name);
            out << ", \"ts\": " << number(s.start_us) << ", \"dur\": " << number(s.dur_us)
                << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
                << (s.args.empty() ? "" : ", ") << s.args << "}}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        if (!out) { std::cerr << "perfbench: cannot write trace file " << path << '\n'; }
    }

private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    std::string trace_file;
    std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--traced") {
            a.traced = true;
            continue;
        }
        if (i + 1 >= argc) { return false; }
        const std::string value = argv[++i];
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value.c_str(), nullptr);
        } else if (key == "--trace-file") {
            a.trace_file = value;
        } else if (key == "--commit") {
            a.commit = value;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0;
}

} // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::cerr << "usage: perfbench_driver --workload NAME --seed N --seconds S "
                     "[--traced] [--trace-file PATH] [--commit ID]\n";
        return 2;
    }
    const Workload w = make_workload(args.workload, args.seed);
    if (w.points.empty()) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "' (xbar-fig6, mesh-dos-monitored, mesh-large-2shard)\n";
        return 2;
    }
    const std::size_t n = w.points.size();
    constexpr double kInf = std::numeric_limits<double>::infinity();

    // Every point of a workload runs at one shard count, one thread per
    // shard. A single-threaded workload runs two repetition streams at once.
    const unsigned shards = std::max(1U, w.points.front().cfg.shards);
    const unsigned streams =
        std::thread::hardware_concurrency() >= kMaxSimThreads ? kMaxSimThreads / shards : 1;
    CpuRotation cpus;
    const auto run_point = [&](const rs::ScenarioConfig& cfg, const std::string& label,
                               bool timeout_ok) {
        return cpus.run(shards,
                        [&] { return perfbench::run_guarded(cfg, label, timeout_ok); });
    };

    std::ostringstream host;
    host << "{\"cpu\": ";
    json_string(host, cpu_model());
    host << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"commit\": ";
    json_string(host, args.commit);
    host << ", \"sim_threads\": " << streams * shards << ", \"workload\": ";
    json_string(host, w.name);
    host << ", \"seed\": " << args.seed << '}';
    std::cout << "host " << host.str() << '\n';

    std::vector<std::string> failure(n);
    const auto fail = [&](std::size_t i, const std::string& why) {
        if (failure[i].empty()) { failure[i] = why; }
    };
    const auto count_failed = [&] {
        return static_cast<std::size_t>(std::count_if(
            failure.begin(), failure.end(), [](const std::string& f) { return !f.empty(); }));
    };

    // 1. Set-up: the same points with a zero budget.
    std::vector<rs::ScenarioConfig> setup_cfgs;
    for (const Point& p : w.points) {
        rs::ScenarioConfig cfg = p.cfg;
        cfg.warmup_cycles = 0;
        cfg.max_cycles = 0;
        cfg.cooldown_cycles = 0;
        setup_cfgs.push_back(std::move(cfg));
    }
    constexpr int kSetupPasses = 7;
    std::vector<double> setup_best(n, kInf);
    std::vector<double> setup_totals;
    for (int k = 0; k < kSetupPasses; ++k) {
        double total = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const perfbench::Outcome o = run_point(setup_cfgs[i], w.points[i].label, true);
            if (!o.error.empty()) { fail(i, "set-up: " + o.error); }
            total += o.seconds;
            setup_best[i] = std::min(setup_best[i], o.seconds);
        }
        setup_totals.push_back(total);
    }

    // 2. Warm-up pass: discarded for host time, reference for simulated fields.
    std::vector<rs::ScenarioResult> first(n);
    std::vector<std::string> reference(n);
    double warmup_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Point& p = w.points[i];
        if (!failure[i].empty()) { continue; }
        perfbench::Outcome o = run_point(p.cfg, p.label, false);
        warmup_total += o.seconds;
        if (!o.error.empty()) {
            fail(i, o.error);
            continue;
        }
        reference[i] = perfbench::fingerprint(*o.result);
        first[i] = std::move(*o.result);
    }

    // 3. Timed repetitions: each stream goes round-robin over the points,
    //    the streams half a pass apart.
    constexpr int kMinReps = 2;
    const auto timed_start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - timed_start)
            .count();
    };
    struct Stream {
        std::vector<std::vector<double>> times;
        std::vector<std::string> failure;
    };
    std::vector<Stream> stream_out(streams, Stream{std::vector<std::vector<double>>(n),
                                                   std::vector<std::string>(n)});
    const auto run_stream = [&](unsigned s) {
        Stream& out = stream_out[s];
        // Stop before a pass that would end past the budget, so a run
        // measures for at most --seconds (once the minimum is done).
        double last_pass = warmup_total;
        for (int rep = 1; rep <= kMinReps || elapsed() + last_pass <= args.seconds; ++rep) {
            const double pass_start = elapsed();
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = (k + s * n / streams) % n;
                const Point& p = w.points[i];
                if (!failure[i].empty() || !out.failure[i].empty()) { continue; }
                const perfbench::Outcome o = run_point(p.cfg, p.label, false);
                out.times[i].push_back(o.seconds);
                if (!o.error.empty()) {
                    out.failure[i] = o.error;
                } else if (perfbench::fingerprint(*o.result) != reference[i]) {
                    out.failure[i] = "simulated fields of repetition " + std::to_string(rep) +
                                     " differ from the first repetition";
                }
            }
            last_pass = elapsed() - pass_start;
        }
    };
    {
        std::vector<std::jthread> others;
        for (unsigned s = 1; s < streams; ++s) { others.emplace_back(run_stream, s); }
        run_stream(0);
    }
    std::vector<std::vector<double>> times(n);
    for (const Stream& st : stream_out) {
        for (std::size_t i = 0; i < n; ++i) {
            times[i].insert(times[i].end(), st.times[i].begin(), st.times[i].end());
            if (!st.failure[i].empty()) { fail(i, st.failure[i]); }
        }
    }
    const double rss = peak_rss_mib();
    std::vector<double> best(n, kInf);
    for (std::size_t i = 0; i < n; ++i) {
        if (times[i].empty()) { continue; }
        best[i] = *std::min_element(times[i].begin(), times[i].end());
        std::cout << "point " << w.points[i].label << ": best " << number(best[i])
                  << " s, median " << number(median(times[i])) << " s, set-up best "
                  << number(setup_best[i]) << " s\n";
    }

    // End-to-end and untraced per-layer metrics over the points that held.
    double wall = 0, best_total = 0;
    std::uint64_t cycles = 0, ticks = 0, skipped = 0, ff = 0, hops = 0;
    std::uint64_t p99 = 0, fp_fn = 0;
    std::vector<double> shard_ticks;
    std::map<std::string, const rs::ScenarioResult*> by_label;
    for (std::size_t i = 0; i < n; ++i) {
        if (!failure[i].empty()) { continue; }
        const rs::ScenarioResult& r = first[i];
        by_label[w.points[i].label] = &r;
        wall += best[i] - setup_best[i];
        best_total += best[i];
        cycles += r.simulated_cycles;
        ticks += r.ticks_executed;
        skipped += r.ticks_skipped;
        ff += r.fast_forwarded_cycles;
        hops += r.fabric_hops;
        fp_fn += r.mon_false_positives + r.mon_false_negatives;
        if (w.points[i].defended) { p99 = std::max<std::uint64_t>(p99, r.load_lat_p99); }
        shard_ticks.resize(std::max(shard_ticks.size(), r.shard_ticks_executed.size()));
        for (std::size_t s = 0; s < r.shard_ticks_executed.size(); ++s) {
            shard_ticks[s] += static_cast<double>(r.shard_ticks_executed[s]);
        }
    }
    double imbalance = 0;
    if (!shard_ticks.empty()) {
        double sum = 0;
        for (const double t : shard_ticks) { sum += t; }
        const double mean = sum / static_cast<double>(shard_ticks.size());
        imbalance = mean > 0 ? *std::max_element(shard_ticks.begin(), shard_ticks.end()) / mean
                             : 0;
    }

    std::vector<Metric> metrics = {
        {"wall_s", wall, "s"},
        {"sim_cycles_per_s", wall > 0 ? static_cast<double>(cycles) / wall : 0, "cycles/s"},
        {"setup_s", median(setup_totals), "s"},
        {"peak_rss_mib", rss, "MiB"},
        {"failed_share", static_cast<double>(count_failed()) / static_cast<double>(n), "share"},
        {"defended_victim_p99_cycles", static_cast<double>(p99), "cycles"},
    };
    if (w.name == "xbar-fig6") {
        const auto single = by_label.find("fig6a/single-source");
        const auto frag1 = by_label.find("fig6a/frag 1");
        if (single != by_label.end() && frag1 != by_label.end()) {
            const double perf = 100.0 * static_cast<double>(single->second->run_cycles) /
                                static_cast<double>(frag1->second->run_cycles);
            metrics.push_back(
                {"fig6a_frag1_err_pp", std::fabs(perf - kPaperFrag1Percent), "pp"});
        }
        const auto budget = by_label.find("fig6b/1/5");
        if (budget != by_label.end()) {
            metrics.push_back({"fig6b_worst_lat_cycles",
                               static_cast<double>(budget->second->load_lat_max), "cycles"});
        }
    }
    if (w.name == "mesh-dos-monitored") {
        metrics.push_back({"detect_errors", static_cast<double>(fp_fn), "count"});
    }
    metrics.insert(metrics.end(), {
        {"sim.ticks_executed", static_cast<double>(ticks), "count"},
        {"sim.ticks_skipped", static_cast<double>(skipped), "count"},
        {"sim.ff_cycles", static_cast<double>(ff), "cycles"},
        {"sim.ns_per_tick", ticks > 0 ? wall * 1e9 / static_cast<double>(ticks) : 0, "ns"},
        {"sim.shard_tick_imbalance", imbalance, "ratio"},
        {"noc.hops", static_cast<double>(hops), "count"},
        {"sim.cold_excess_s", warmup_total - best_total, "s"},
    });

    // 4. Traced pass: spans around the set-up and simulate calls of every
    //    point, with the profiler's rows as children of the simulate span.
    if (args.traced) {
        Tracer tracer;
        const std::uint64_t root =
            tracer.add({0, 0, "workload " + w.name, tracer.now_us(), 0, ""});
        struct Group {
            std::uint64_t ticks = 0;
            std::uint64_t nanos = 0;
        };
        std::map<std::string, Group> groups;
        std::vector<double> shard_nanos(std::max(2U, shards), 0.0);
        double traced_wall = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Point& p = w.points[i];
            if (!failure[i].empty()) { continue; }
            const std::uint64_t point =
                tracer.add({0, root, "point " + p.label, tracer.now_us(), 0, ""});
            const double setup_start = tracer.now_us();
            const perfbench::Outcome s = run_point(setup_cfgs[i], p.label, true);
            tracer.add({0, point, "setup", setup_start, s.seconds * 1e6, ""});

            rs::ScenarioConfig cfg = p.cfg;
            cfg.profile = true;
            const double sim_start = tracer.now_us();
            const perfbench::Outcome o = run_point(cfg, p.label, false);
            const std::uint64_t simulate =
                tracer.add({0, point, "simulate", sim_start, o.seconds * 1e6, ""});
            traced_wall += o.seconds;
            if (!o.error.empty()) {
                fail(i, "traced pass: " + o.error);
                continue;
            }
            if (perfbench::fingerprint(*o.result) != reference[i]) {
                fail(i, "traced pass: simulated fields differ from the untraced run");
            }
            // Profile rows are aggregates without timestamps: lay them out
            // back to back inside the simulate span.
            double offset = sim_start;
            for (const rs::ProfileRow& row : o.result->profile) {
                const std::string module = module_of(row.type);
                groups[module].ticks += row.ticks;
                groups[module].nanos += row.nanos;
                if (row.shard < shard_nanos.size()) {
                    shard_nanos[row.shard] += static_cast<double>(row.nanos);
                }
                std::ostringstream a;
                a << "\"module\": \"" << module << "\", \"shard\": " << row.shard
                  << ", \"components\": " << row.components << ", \"ticks\": " << row.ticks;
                tracer.add({0, simulate, row.type, offset, row.nanos / 1e3, a.str()});
                offset += row.nanos / 1e3;
            }
            tracer.at(point).dur_us = tracer.now_us() - tracer.at(point).start_us;
        }
        tracer.at(root).dur_us = tracer.now_us() - tracer.at(root).start_us;

        // Shares are of the thread time the shards had: traced wall x shards.
        const double capacity_ns = traced_wall * 1e9 * shards;
        double attributed = 0;
        std::vector<std::string> names(kModules.begin(), kModules.end());
        names.push_back("other");
        for (const std::string& m : names) {
            const Group g = groups[m];
            attributed += static_cast<double>(g.nanos);
            metrics.push_back({m + ".ticks", static_cast<double>(g.ticks), "count"});
            metrics.push_back({m + ".ns_per_tick",
                               g.ticks > 0 ? static_cast<double>(g.nanos) /
                                                 static_cast<double>(g.ticks)
                                           : 0,
                               "ns"});
            metrics.push_back({m + ".share",
                               capacity_ns > 0 ? static_cast<double>(g.nanos) / capacity_ns : 0,
                               "share"});
        }
        metrics.push_back({"sim.unattributed_share",
                           capacity_ns > 0 ? 1.0 - attributed / capacity_ns : 0, "share"});
        for (std::size_t s = 0; s < shard_nanos.size(); ++s) {
            metrics.push_back({"sim.shard_busy_share." + std::to_string(s),
                               traced_wall > 0 ? shard_nanos[s] / (traced_wall * 1e9) : 0,
                               "share"});
        }
        metrics.push_back({"trace.overhead", best_total > 0 ? traced_wall / best_total : 0,
                           "ratio"});
        if (!args.trace_file.empty()) { tracer.write(args.trace_file, host.str()); }
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (failure[i].empty()) { continue; }
        std::cout << "failed point " << w.points[i].label << ": " << failure[i] << '\n';
    }

    std::size_t reps = std::numeric_limits<std::size_t>::max();
    for (const std::vector<double>& t : times) { reps = std::min(reps, t.size()); }
    std::cout << "workload " << w.name << ": " << n << " points, best of " << reps
              << "+ repetitions in " << streams
              << " streams after one discarded warm-up pass, " << kSetupPasses
              << " set-up passes\n";
    for (const Metric& m : metrics) {
        std::cout << "metric " << m.name << ' ' << number(m.value) << ' ' << m.unit << '\n';
    }
    std::cout << "{\"attempted\": " << n << ", \"failed\": " << count_failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i > 0 ? ", " : "");
        json_string(std::cout, metrics[i].name);
        std::cout << ": {\"value\": " << number(metrics[i].value) << ", \"unit\": ";
        json_string(std::cout, metrics[i].unit);
        std::cout << '}';
    }
    std::cout << "}}" << std::endl;
    return 0;
}
