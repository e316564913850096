#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include "kv/dict.hpp"

namespace skv::kv {
namespace {

Sds key(int i) { return Sds("key:" + std::to_string(i)); }

TEST(Dict, InsertFind) {
    Dict<int> d;
    EXPECT_TRUE(d.insert(key(1), 10));
    EXPECT_TRUE(d.insert(key(2), 20));
    EXPECT_FALSE(d.insert(key(1), 99)); // duplicate
    ASSERT_NE(d.find(key(1).view()), nullptr);
    EXPECT_EQ(*d.find(key(1).view()), 10);
    EXPECT_EQ(d.find(key(3).view()), nullptr);
    EXPECT_EQ(d.size(), 2u);
}

TEST(Dict, SetOverwrites) {
    Dict<int> d;
    EXPECT_TRUE(d.set(key(1), 1));
    EXPECT_FALSE(d.set(key(1), 2));
    EXPECT_EQ(*d.find(key(1).view()), 2);
    EXPECT_EQ(d.size(), 1u);
}

TEST(Dict, Erase) {
    Dict<int> d;
    d.insert(key(1), 1);
    EXPECT_TRUE(d.erase(key(1).view()));
    EXPECT_FALSE(d.erase(key(1).view()));
    EXPECT_EQ(d.size(), 0u);
    EXPECT_EQ(d.find(key(1).view()), nullptr);
}

TEST(Dict, GrowsAndRehashesIncrementally) {
    Dict<int> d;
    // Enough inserts to trigger several expansions.
    for (int i = 0; i < 5000; ++i) d.insert(key(i), i);
    EXPECT_EQ(d.size(), 5000u);
    for (int i = 0; i < 5000; ++i) {
        ASSERT_NE(d.find(key(i).view()), nullptr) << i;
        ASSERT_EQ(*d.find(key(i).view()), i);
    }
}

TEST(Dict, RehashStepCompletesMigration) {
    Dict<int> d;
    for (int i = 0; i < 100; ++i) d.insert(key(i), i);
    // Force the rehash to finish without further mutating operations.
    int guard = 0;
    while (d.rehashing() && guard++ < 10'000) d.rehash_step(1);
    EXPECT_FALSE(d.rehashing());
    for (int i = 0; i < 100; ++i) ASSERT_NE(d.find(key(i).view()), nullptr);
}

TEST(Dict, ShrinksWhenSparse) {
    Dict<int> d;
    for (int i = 0; i < 4096; ++i) d.insert(key(i), i);
    while (d.rehashing()) d.rehash_step(64);
    const auto grown = d.bucket_count();
    for (int i = 0; i < 4090; ++i) d.erase(key(i).view());
    while (d.rehashing()) d.rehash_step(64);
    EXPECT_LT(d.bucket_count(), grown);
    for (int i = 4090; i < 4096; ++i) ASSERT_NE(d.find(key(i).view()), nullptr);
}

TEST(Dict, ForEachVisitsAll) {
    Dict<int> d;
    for (int i = 0; i < 500; ++i) d.insert(key(i), i);
    std::set<std::string> seen;
    int sum = 0;
    d.for_each([&](const Sds& k, int& v) {
        seen.insert(k.str());
        sum += v;
    });
    EXPECT_EQ(seen.size(), 500u);
    EXPECT_EQ(sum, 499 * 500 / 2);
}

TEST(Dict, ForEachDuringRehashVisitsBothTables) {
    Dict<int> d;
    for (int i = 0; i < 64; ++i) d.insert(key(i), i);
    // d is likely mid-rehash now; for_each must still see everything.
    std::size_t n = 0;
    d.for_each([&](const Sds&, int&) { ++n; });
    EXPECT_EQ(n, d.size());
}

TEST(Dict, RandomEntryCoversKeys) {
    Dict<int> d;
    for (int i = 0; i < 16; ++i) d.insert(key(i), i);
    sim::Rng rng(3);
    std::set<std::string> seen;
    for (int i = 0; i < 2000; ++i) {
        auto [k, v] = d.random_entry(rng);
        ASSERT_NE(k, nullptr);
        seen.insert(k->str());
    }
    EXPECT_EQ(seen.size(), 16u); // every key sampled eventually
}

TEST(Dict, RandomEntryEmpty) {
    Dict<int> d;
    sim::Rng rng(4);
    auto [k, v] = d.random_entry(rng);
    EXPECT_EQ(k, nullptr);
    EXPECT_EQ(v, nullptr);
}

TEST(Dict, ScanVisitsEveryKeyOnce) {
    Dict<int> d;
    for (int i = 0; i < 1000; ++i) d.insert(key(i), i);
    std::set<std::string> seen;
    std::uint64_t cursor = 0;
    int guard = 0;
    do {
        cursor = d.scan(cursor, [&](const Sds& k, const int&) {
            seen.insert(k.str());
        });
    } while (cursor != 0 && guard++ < 100'000);
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Dict, ScanWithConcurrentInsertsSeesAllOldKeys) {
    Dict<int> d;
    for (int i = 0; i < 256; ++i) d.insert(key(i), i);
    std::set<std::string> seen;
    std::uint64_t cursor = 0;
    int added = 1000;
    int guard = 0;
    do {
        cursor = d.scan(cursor, [&](const Sds& k, const int&) {
            seen.insert(k.str());
        });
        // Mutate between scan calls: triggers growth + rehash mid-scan.
        d.insert(key(added), added);
        ++added;
    } while (cursor != 0 && guard++ < 100'000);
    // SCAN guarantees: keys present for the whole scan are seen.
    for (int i = 0; i < 256; ++i) {
        EXPECT_TRUE(seen.contains(key(i).str())) << i;
    }
}

TEST(Dict, ClearEmpties) {
    Dict<int> d;
    for (int i = 0; i < 100; ++i) d.insert(key(i), i);
    d.clear();
    EXPECT_EQ(d.size(), 0u);
    EXPECT_FALSE(d.rehashing());
    EXPECT_TRUE(d.insert(key(1), 1));
}

TEST(DictHash, SpreadsKeys) {
    std::set<std::uint64_t> hashes;
    for (int i = 0; i < 1000; ++i) hashes.insert(dict_hash(key(i).view()));
    EXPECT_EQ(hashes.size(), 1000u); // no collisions in this tiny sample
}

TEST(DictHash, EmptyAndBinary) {
    EXPECT_NE(dict_hash(""), dict_hash(std::string_view("\0", 1)));
    EXPECT_NE(dict_hash("a"), dict_hash("b"));
}

/// Model check: drive the dict and a std::unordered_map with the same
/// random operations and compare after every step.
class DictModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DictModelTest, MatchesUnorderedMap) {
    sim::Rng rng(GetParam());
    Dict<int> d;
    std::unordered_map<std::string, int> model;
    for (int step = 0; step < 20'000; ++step) {
        const int k = static_cast<int>(rng.next_below(300));
        const int op = static_cast<int>(rng.next_below(4));
        switch (op) {
            case 0: { // insert
                const bool a = d.insert(key(k), step);
                const bool b = model.emplace(key(k).str(), step).second;
                ASSERT_EQ(a, b);
                break;
            }
            case 1: { // set
                d.set(key(k), step);
                model[key(k).str()] = step;
                break;
            }
            case 2: { // erase
                const bool a = d.erase(key(k).view());
                const bool b = model.erase(key(k).str()) > 0;
                ASSERT_EQ(a, b);
                break;
            }
            case 3: { // find
                int* a = d.find(key(k).view());
                auto it = model.find(key(k).str());
                ASSERT_EQ(a != nullptr, it != model.end());
                if (a != nullptr) {
                    ASSERT_EQ(*a, it->second);
                }
                break;
            }
        }
        ASSERT_EQ(d.size(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictModelTest,
                         ::testing::Values(1u, 17u, 23456u, 987654321u));

/// Order oracle. The bucket layout and the step_rehash call pattern decide
/// KEYS and RDB byte order, SCAN cursors and the random_entry draws that
/// share the server RNG with cost jitter, so they feed every simulation
/// fingerprint. A fixed-seed run of mixed operations through several grow
/// and shrink rehashes folds the for_each order, full SCAN cursor sequences
/// with the keys visited, and 1,000 random_entry draws into one FNV-1a
/// digest. The expected value was recorded from the Sds-keyed Dict that
/// preceded string_view lookups; a change to the layout, the hash or when
/// rehashing steps moves it.
TEST(DictOrderOracle, IterationScanAndSamplingDigest) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::string_view bytes) {
        for (const char c : bytes) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff; // separator: ("ab", "c") and ("a", "bc") differ
        h *= 0x100000001b3ULL;
    };
    auto fold_u64 = [&fold](std::uint64_t v) { fold(std::to_string(v)); };

    Dict<int> d;
    int snapshots_mid_rehash = 0;
    std::size_t max_buckets = 0;
    auto snapshot = [&] {
        fold_u64(d.size());
        fold_u64(d.bucket_count());
        if (d.rehashing()) ++snapshots_mid_rehash;
        d.for_each([&](const Sds& k, const int& v) {
            fold(k.view());
            fold_u64(static_cast<std::uint64_t>(v));
        });
        std::uint64_t cursor = 0;
        do {
            cursor = d.scan(cursor, [&](const Sds& k, const int&) { fold(k.view()); });
            fold_u64(cursor);
        } while (cursor != 0);
    };

    // Three phases over 4,096 keys: grow (mostly inserts), shrink (mostly
    // erases, down past the 10% fill that starts a shrinking rehash), and a
    // balanced mix. Percentages are insert / set / erase / find; the rest
    // is rehash_step.
    struct Phase {
        int ops, insert, set, erase, find;
    };
    const Phase phases[] = {{20'000, 55, 15, 10, 15}, {20'000, 2, 3, 85, 5},
                            {10'000, 30, 15, 30, 20}};
    sim::Rng rng(20261017);
    int step = 0;
    for (const Phase& ph : phases) {
        for (int i = 0; i < ph.ops; ++i, ++step) {
            const std::string k = "key:" + std::to_string(rng.next_below(4096));
            const int roll = static_cast<int>(rng.next_below(100));
            if (roll < ph.insert) {
                fold_u64(d.insert(Sds(k), step));
            } else if (roll < ph.insert + ph.set) {
                fold_u64(d.set(Sds(k), step));
            } else if (roll < ph.insert + ph.set + ph.erase) {
                fold_u64(d.erase(k));
            } else if (roll < ph.insert + ph.set + ph.erase + ph.find) {
                const int* v = d.find(k);
                fold_u64(v == nullptr ? 0 : static_cast<std::uint64_t>(*v) + 1);
            } else {
                d.rehash_step(rng.next_below(4));
            }
            max_buckets = std::max(max_buckets, d.bucket_count());
            if (step % 4999 == 0) snapshot();
        }
        snapshot();
    }

    sim::Rng draws(7);
    for (int i = 0; i < 1000; ++i) {
        auto [k, v] = d.random_entry(draws);
        ASSERT_NE(k, nullptr);
        fold(k->view());
        fold_u64(static_cast<std::uint64_t>(*v));
    }

    // The run covers what the digest is meant to pin: growth, a shrink and
    // SCAN across two tables.
    EXPECT_GE(max_buckets, 4096u);
    EXPECT_LT(d.bucket_count(), max_buckets);
    EXPECT_GT(snapshots_mid_rehash, 0);
    EXPECT_EQ(h, 0x0e4276313d7ffaccULL);
}

} // namespace
} // namespace skv::kv
