#include <gtest/gtest.h>

#include <map>

#include "kv/rdb.hpp"
#include "sim/rng.hpp"

namespace skv::kv::rdb {
namespace {

/// Robustness sweeps for the RDB loader. A snapshot arrives over the
/// network during a full resync and from disk on a cold restart, so load()
/// must classify arbitrary bytes without crashing, must leave the database
/// empty whenever it refuses them, and may only accept what saves back and
/// reloads to the same keyspace. Every mutation re-seals the trailing
/// CRC-64 so it reaches the record parser instead of stopping at the
/// checksum.

constexpr std::size_t kMagicSize = 8; // "SKVRDB01"
constexpr std::uint8_t kOpExpireMs = 0xFD;
constexpr std::uint8_t kOpEof = 0xFF;

Database make_db() {
    return Database([] { return std::int64_t{1000}; });
}

/// A random string keyspace: both encodings, values on both sides of the
/// 6- and 14-bit length forms, and expiries (some already past).
Database random_db(sim::Rng& rng) {
    Database db = make_db();
    const auto keys = 1 + rng.next_below(24);
    for (std::uint64_t i = 0; i < keys; ++i) {
        const std::string key =
            std::string("k").append(std::to_string(rng.next_below(100)));
        std::string v;
        switch (rng.next_below(4)) {
            case 0: v = std::to_string(rng.next_range(-1'000'000, 1'000'000)); break;
            case 1: v.assign(rng.next_below(80), 'a'); break;
            case 2: v.assign(16'380 + rng.next_below(10), 'z'); break;
            default:
                v.resize(rng.next_below(200));
                for (auto& c : v) c = static_cast<char>(rng.next_u64());
                break;
        }
        db.set(key, Object::make_string(v));
        if (rng.next_below(3) == 0) db.set_expire(key, rng.next_range(-5, 5000));
    }
    return db;
}

/// Byte offsets of the record opcodes and of the length prefixes in a
/// well-formed snapshot.
struct Layout {
    std::vector<std::size_t> opcodes;
    std::vector<std::size_t> lengths;
};

std::size_t prefix_size(char b0) {
    const auto b = static_cast<std::uint8_t>(b0);
    return b < 0x40 ? 1 : b < 0x80 ? 2 : 9;
}

std::uint64_t read_len(const std::string& b, std::size_t q) {
    const auto b0 = static_cast<std::uint8_t>(b[q]);
    if (b0 < 0x40) return b0;
    if (b0 < 0x80) return (std::uint64_t{b0 & 0x3Fu} << 8) | static_cast<std::uint8_t>(b[q + 1]);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        v |= std::uint64_t{static_cast<std::uint8_t>(b[q + 1 + i])} << (8 * i);
    }
    return v;
}

Layout layout_of(const std::string& b) {
    Layout l;
    std::size_t p = kMagicSize;
    while (p < b.size() - 8) {
        const auto op = static_cast<std::uint8_t>(b[p]);
        l.opcodes.push_back(p++);
        if (op == kOpEof) break;
        if (op == kOpExpireMs) {
            p += 8;
            continue;
        }
        for (int field = 0; field < 2; ++field) { // key, then value
            l.lengths.push_back(p);
            p += prefix_size(b[p]) + read_len(b, p);
        }
    }
    return l;
}

/// Recompute the trailing CRC-64 over everything before it.
void reseal(std::string& b) {
    const std::uint64_t crc = crc64(0, std::string_view(b).substr(0, b.size() - 8));
    for (std::size_t i = 0; i < 8; ++i) {
        b[b.size() - 8 + i] = static_cast<char>(crc >> (8 * i));
    }
}

/// Rewrite the length prefix at `q` in the 64-bit (0x80) form.
void set_len64(std::string& b, std::size_t q, std::uint64_t len) {
    std::string wide(1, static_cast<char>(0x80));
    for (std::size_t i = 0; i < 8; ++i) wide.push_back(static_cast<char>(len >> (8 * i)));
    b.replace(q, prefix_size(b[q]), wide);
}

enum class Expect { kAny, kRejected, kCorrupt, kOk };

/// Apply one random mutation to `b` (then re-seal it) and say what the
/// loader must make of the result.
Expect mutate(sim::Rng& rng, std::string& b) {
    const Layout l = layout_of(b);
    auto pick = [&rng](const std::vector<std::size_t>& v) {
        return v[static_cast<std::size_t>(rng.next_below(v.size()))];
    };
    Expect want = Expect::kAny;
    switch (rng.next_below(5)) {
        case 0: { // flip 1-4 bytes anywhere before the checksum
            const auto n = 1 + rng.next_below(4);
            for (std::uint64_t i = 0; i < n; ++i) {
                b[rng.next_below(b.size() - 8)] ^= static_cast<char>(1 + rng.next_below(255));
            }
            break;
        }
        case 1: // truncate: no EOF opcode survives
            b.erase(rng.next_below(b.size() - 8), std::string::npos);
            b.append(8, '\0');
            want = Expect::kRejected;
            break;
        case 2: { // swap a record opcode, often to a retired type (1-4)
            const std::size_t q = pick(l.opcodes);
            const auto was = static_cast<std::uint8_t>(b[q]);
            const auto now = static_cast<std::uint8_t>(
                rng.next_bool(0.5) ? 1 + rng.next_below(4) : rng.next_below(256));
            b[q] = static_cast<char>(now);
            if (now >= 1 && now <= 4 && was != kOpEof) want = Expect::kCorrupt;
            break;
        }
        case 3: { // inflate a length prefix past the end, in the 64-bit form
            const std::size_t q = pick(l.lengths);
            const std::uint64_t room = b.size() - q;
            const std::uint64_t lens[] = {~std::uint64_t{0}, std::uint64_t{1} << 63,
                                          room + rng.next_below(1'000'000)};
            set_len64(b, q, lens[rng.next_below(3)]);
            want = Expect::kRejected;
            break;
        }
        default: { // the exact length, non-canonically in the 64-bit form
            const std::size_t q = pick(l.lengths);
            set_len64(b, q, read_len(b, q));
            want = Expect::kOk;
            break;
        }
    }
    reseal(b);
    return want;
}

class RdbFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RdbFuzzTest, LoaderClassifiesMutatedSnapshots) {
    sim::Rng rng(GetParam());
    std::map<LoadStatus, int> seen;
    for (int round = 0; round < 400; ++round) {
        const Database src = random_db(rng);
        const std::string clean = save(src);
        std::string bytes = clean;
        const Expect want = mutate(rng, bytes);

        Database dst = make_db();
        dst.set("stale", Object::make_string("must not survive a load"));
        const LoadStatus st = load(bytes, dst);
        ++seen[st];
        ASSERT_STRNE(to_string(st), "?") << "round " << round;
        ASSERT_NE(st, LoadStatus::kBadChecksum) << "round " << round;
        if (want == Expect::kRejected) {
            EXPECT_NE(st, LoadStatus::kOk) << "round " << round;
        }
        if (want == Expect::kCorrupt) {
            EXPECT_EQ(st, LoadStatus::kCorrupt) << "round " << round;
        }
        if (want == Expect::kOk) {
            ASSERT_EQ(st, LoadStatus::kOk) << "round " << round;
            EXPECT_TRUE(dst.equals(src)) << "round " << round;
            EXPECT_EQ(save(dst), clean) << "round " << round;
        }

        if (st != LoadStatus::kOk) {
            EXPECT_EQ(dst.size(), 0u) << "round " << round;
            EXPECT_EQ(dst.expires_size(), 0u) << "round " << round;
            continue;
        }
        // Whatever was accepted saves and reloads to the same keyspace.
        const std::string again = save(dst);
        Database copy = make_db();
        ASSERT_EQ(load(again, copy), LoadStatus::kOk) << "round " << round;
        EXPECT_TRUE(copy.equals(dst)) << "round " << round;
        EXPECT_TRUE(dst.equals(copy)) << "round " << round;
        EXPECT_EQ(save(copy), again) << "round " << round;
    }
    // The mutations reach every verdict the record parser can give.
    EXPECT_GT(seen[LoadStatus::kOk], 0);
    EXPECT_GT(seen[LoadStatus::kTruncated], 0);
    EXPECT_GT(seen[LoadStatus::kCorrupt], 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RdbFuzzTest,
                         ::testing::Values(1u, 42u, 777u, 31337u));

} // namespace
} // namespace skv::kv::rdb
