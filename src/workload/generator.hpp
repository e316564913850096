#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace skv::workload {

/// Key chooser for a workload. kUniform/kZipfian draw over the fixed
/// preloaded keyspace [0, key_count); kLatest and kScan draw over the live
/// insert frontier (see KeyFrontier) — kLatest is YCSB's recency-skewed
/// chooser (zipfian over "how many inserts ago"), kScan is the scan-start
/// chooser (uniform over every key that exists right now).
enum class KeyDist : std::uint8_t { kUniform, kZipfian, kLatest, kScan };

/// The insert-ordered key frontier shared by every generator of one run:
/// key ids [0, size()) exist, inserts append at size(). Single-threaded sim,
/// so a plain counter; shared so YCSB D's "latest" readers chase the keys
/// YCSB D's inserters create, whichever client performed the insert.
class KeyFrontier {
public:
    explicit KeyFrontier(std::uint64_t preloaded) : next_(preloaded) {}

    /// Claim the next insert slot (returns its key id and advances).
    std::uint64_t acquire_insert() { return next_++; }

    /// Number of keys that currently exist.
    [[nodiscard]] std::uint64_t size() const { return next_; }

private:
    std::uint64_t next_;
};

/// What the closed-loop clients send: a SET/GET mix over a keyspace, in
/// the style of redis-benchmark (fixed-size values, "key:<n>" keys).
struct WorkloadSpec {
    /// Fraction of operations that are SETs (1.0 = pure SET, 0.0 = pure GET).
    double set_ratio = 1.0;
    std::uint64_t key_count = 10'000;
    KeyDist key_dist = KeyDist::kUniform;
    std::size_t value_bytes = 64;
    std::string key_prefix = "key:";
};

/// Deterministic command generator; each client owns one (with a forked
/// RNG stream) so client count does not perturb the sequences.
class Generator {
public:
    Generator(WorkloadSpec spec, sim::Rng rng);

    /// The next command to issue, as argv.
    std::vector<std::string> next();

    /// The next key id from the configured chooser (shared with the YCSB
    /// mix layer, which picks op types itself but reuses the choosers).
    [[nodiscard]] std::uint64_t next_key_index();
    /// next_key_index() rendered as "<prefix><id>".
    [[nodiscard]] std::string next_key();
    /// Render a key id as "<prefix><id>".
    [[nodiscard]] std::string key_name(std::uint64_t idx) const;

    /// Attach the run's shared insert frontier. Required before drawing
    /// from kLatest/kScan; inserts made through any generator sharing the
    /// frontier become visible to this one's chooser.
    void set_frontier(std::shared_ptr<KeyFrontier> frontier) {
        frontier_ = std::move(frontier);
    }

    [[nodiscard]] std::uint64_t sets_generated() const { return sets_; }
    [[nodiscard]] std::uint64_t gets_generated() const { return gets_; }

    /// A value of the configured size (cheap fill pattern).
    [[nodiscard]] std::string make_value();

private:
    WorkloadSpec spec_;
    sim::Rng rng_;
    std::unique_ptr<sim::ZipfianGenerator> zipf_;
    std::shared_ptr<KeyFrontier> frontier_;
    std::uint64_t sets_ = 0;
    std::uint64_t gets_ = 0;
};

} // namespace skv::workload
