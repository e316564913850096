#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.hpp"
#include "workload/generator.hpp"

namespace skv::workload::ycsb {

/// The six standard YCSB core workloads (Cooper et al., SoCC '10):
///   A: update-heavy (50% read / 50% update, zipfian)
///   B: read-mostly  (95% read /  5% update, zipfian)
///   C: read-only    (100% read, zipfian)
///   D: read-latest  (95% read /  5% insert, latest)
///   E: short-ranges (95% scan /  5% insert, scan-start chooser)
///   F: read-modify-write (50% read / 50% RMW, zipfian)
enum class Workload : std::uint8_t { kA, kB, kC, kD, kE, kF };

[[nodiscard]] const char* to_string(Workload w);
/// Parse 'A'..'F' / 'a'..'f'. Returns false on anything else.
bool workload_from_char(char c, Workload* out);

/// Operation-type fractions (sum to 1.0).
struct OpMix {
    double read = 0;
    double update = 0;
    double insert = 0;
    double scan = 0;
    double rmw = 0;
};

/// The canonical mix / key chooser for a standard workload.
[[nodiscard]] OpMix standard_mix(Workload w);
[[nodiscard]] KeyDist standard_dist(Workload w);

/// Knobs of the YCSB mix layer (see EXPERIMENTS.md knob ledger).
struct YcsbOptions {
    Workload workload = Workload::kA;
    /// Preloaded keyspace size; inserts extend it through the shared
    /// KeyFrontier.
    std::uint64_t record_count = 10'000;
    std::size_t value_bytes = 64;
    /// Keys render as `key:<id>`.
    static constexpr std::string_view key_prefix = "key:";

    /// The options for a standard workload: its mix and key chooser
    /// (standard_mix, standard_dist) follow from `workload`.
    static YcsbOptions standard(Workload w);
};

/// One generated operation. kScan carries the precomputed key window
/// (sent as a single MGET — the simulator's stand-in for a range scan);
/// kRmw is executed as a dependent read-then-write pair on one connection.
struct YcsbOp {
    enum class Kind : std::uint8_t { kRead, kUpdate, kInsert, kScan, kRmw };
    static constexpr int kKindCount = 5;

    Kind kind = Kind::kRead;
    std::string key;
    std::string value; // update / insert / rmw
    std::vector<std::string> scan_keys;
};

[[nodiscard]] const char* to_string(YcsbOp::Kind t);

/// Deterministic YCSB operation stream, layered on workload::Generator's
/// key choosers and forked-RNG discipline: each MixGenerator owns private
/// RNG streams, so generator count never perturbs another's sequence. The
/// KeyFrontier is the one deliberately shared piece of state — inserts
/// claim their key id at generation time, and every chooser sharing the
/// frontier sees the grown keyspace.
class MixGenerator {
public:
    MixGenerator(YcsbOptions opts, sim::Rng rng,
                 std::shared_ptr<KeyFrontier> frontier);

    /// The next operation of the stream.
    YcsbOp next();

private:
    YcsbOptions opts_;
    OpMix mix_;
    sim::Rng rng_; // op-type and scan-length draws
    Generator gen_; // key choosers + value fill (own forked stream)
    std::shared_ptr<KeyFrontier> frontier_;
};

} // namespace skv::workload::ycsb
