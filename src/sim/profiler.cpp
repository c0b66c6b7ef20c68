#include "sim/profiler.hpp"

#include <algorithm>
#include <cstdlib>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

namespace realm::sim {

namespace {

std::string demangle(const std::string& raw) {
#if defined(__GNUG__)
    int status = 0;
    char* out = abi::__cxa_demangle(raw.c_str(), nullptr, nullptr, &status);
    if (status == 0 && out != nullptr) {
        std::string s{out};
        std::free(out);
        return s;
    }
#endif
    return raw;
}

} // namespace

void Profiler::begin_partition() {
    for (Key& k : keys_) { k.components = 0; }
}

std::uint32_t Profiler::intern(const std::type_info& type, unsigned shard) {
    const char* raw = type.name();
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (keys_[i].shard == shard && keys_[i].raw_type == raw) {
            ++keys_[i].components;
            return static_cast<std::uint32_t>(i);
        }
    }
    keys_.push_back(Key{raw, shard, 1});
    buckets_.push_back(Bucket{});
    return static_cast<std::uint32_t>(keys_.size() - 1);
}

std::vector<Profiler::Row> Profiler::rows() const {
    std::vector<Row> rows;
    rows.reserve(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (buckets_[i].ticks == 0 && keys_[i].components == 0) { continue; }
        Row r;
        r.type = demangle(keys_[i].raw_type);
        r.shard = keys_[i].shard;
        r.components = keys_[i].components;
        r.ticks = buckets_[i].ticks;
        r.nanos = buckets_[i].nanos;
        rows.push_back(std::move(r));
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        if (a.nanos != b.nanos) { return a.nanos > b.nanos; }
        if (a.shard != b.shard) { return a.shard < b.shard; }
        return a.type < b.type;
    });
    return rows;
}

} // namespace realm::sim
