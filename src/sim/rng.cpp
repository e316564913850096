#include "sim/rng.hpp"

#include <cmath>

#include "sim/check.hpp"

namespace skv::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
    // All-zero state is invalid for xoshiro; splitmix cannot produce four
    // zero words from any seed, but keep the guard for clarity.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
    SKV_DCHECK(n > 0);
    // Lemire-style rejection to avoid modulo bias.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = next_u64();
        if (r >= threshold) return r % n;
    }
}

std::int64_t Rng::next_range(std::int64_t lo, std::int64_t hi) {
    SKV_DCHECK(lo <= hi);
    // Unsigned arithmetic: hi - lo overflows int64 once the span passes
    // INT64_MAX, and the full range wraps the span to 0.
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64()); // full range
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + next_below(span));
}

double Rng::next_double() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
}

double Rng::next_exponential(double mean) {
    SKV_DCHECK(mean > 0.0);
    // Avoid log(0) by mapping the [0,1) sample into (0,1].
    const double u = 1.0 - next_double();
    return -mean * std::log(u);
}

Rng Rng::fork() {
    return Rng(next_u64());
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
    SKV_CHECK(n > 0);
    SKV_CHECK(theta >= 0.0 && theta < 1.0);
    zetan_ = zeta(n, theta);
    zeta2theta_ = zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2theta_ / zetan_);
}

double ZipfianGenerator::zeta(std::uint64_t n, double theta) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
}

void ZipfianGenerator::grow_to(std::uint64_t n) {
    SKV_CHECK(n >= n_); // the insert frontier only advances
    if (n == n_) return;
    for (std::uint64_t i = n_ + 1; i <= n; ++i) {
        zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    n_ = n;
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2theta_ / zetan_);
}

std::uint64_t ZipfianGenerator::next(Rng& rng, std::uint64_t n) {
    grow_to(n);
    return next(rng);
}

std::uint64_t ZipfianGenerator::next(Rng& rng) {
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto idx = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return idx >= n_ ? n_ - 1 : idx;
}

} // namespace skv::sim
