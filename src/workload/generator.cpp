#include "workload/generator.hpp"

#include "sim/check.hpp"

namespace skv::workload {

Generator::Generator(WorkloadSpec spec, sim::Rng rng)
    : spec_(std::move(spec)), rng_(rng) {
    if (spec_.key_dist == KeyDist::kZipfian ||
        spec_.key_dist == KeyDist::kLatest) {
        // kLatest draws zipfian over recency; the generator's item count
        // then grows with the frontier (ZipfianGenerator::next(rng, n)).
        zipf_ = std::make_unique<sim::ZipfianGenerator>(spec_.key_count,
                                                        spec_.zipf_theta);
    }
}

std::uint64_t Generator::next_key_index() {
    switch (spec_.key_dist) {
    case KeyDist::kUniform:
        return rng_.next_below(spec_.key_count);
    case KeyDist::kZipfian:
        return zipf_->next(rng_);
    case KeyDist::kLatest: {
        // YCSB SkewedLatestGenerator: zipfian-distributed distance from the
        // newest key, so the most recent inserts are the hottest.
        SKV_CHECK(frontier_ != nullptr);
        const std::uint64_t n = frontier_->size();
        const std::uint64_t back = zipf_->next(rng_, n);
        return n - 1 - back;
    }
    case KeyDist::kScan:
        // Scan-start chooser: uniform over every key that exists right now.
        SKV_CHECK(frontier_ != nullptr);
        return rng_.next_below(frontier_->size());
    }
    SKV_UNREACHABLE("bad KeyDist");
}

std::string Generator::key_name(std::uint64_t idx) const {
    return spec_.key_prefix + std::to_string(idx);
}

std::string Generator::next_key() { return key_name(next_key_index()); }

std::string Generator::make_value() {
    std::string v(spec_.value_bytes, 'x');
    // Vary a small prefix so values are not all identical (and int-encoded).
    const std::uint64_t tag = rng_.next_u64();
    for (std::size_t i = 0; i < 8 && i < v.size(); ++i) {
        v[i] = static_cast<char>('a' + ((tag >> (i * 8)) % 26));
    }
    return v;
}

std::vector<std::string> Generator::next() {
    if (rng_.next_double() < spec_.set_ratio) {
        ++sets_;
        return {"SET", next_key(), make_value()};
    }
    ++gets_;
    return {"GET", next_key()};
}

} // namespace skv::workload
