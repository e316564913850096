#include <gtest/gtest.h>

#include "kv/db.hpp"

namespace skv::kv {
namespace {

/// Manually advanced fake clock.
struct Clock {
    std::int64_t ms = 0;
    std::function<std::int64_t()> fn() {
        return [this] { return ms; };
    }
};

TEST(Database, SetLookup) {
    Clock clk;
    Database db(clk.fn());
    db.set("k", Object::make_string("v"));
    ASSERT_NE(db.lookup("k"), nullptr);
    EXPECT_EQ(db.lookup("k")->string_value(), "v");
    EXPECT_EQ(db.lookup("missing"), nullptr);
    EXPECT_EQ(db.size(), 1u);
}

TEST(Database, RemoveAndExists) {
    Clock clk;
    Database db(clk.fn());
    db.set("k", Object::make_string("v"));
    EXPECT_TRUE(db.exists("k"));
    EXPECT_TRUE(db.remove("k"));
    EXPECT_FALSE(db.remove("k"));
    EXPECT_FALSE(db.exists("k"));
}

TEST(Database, LazyExpiration) {
    Clock clk;
    Database db(clk.fn());
    db.set("k", Object::make_string("v"));
    db.set_expire("k", 100);
    clk.ms = 99;
    EXPECT_NE(db.lookup("k"), nullptr);
    clk.ms = 100;
    EXPECT_EQ(db.lookup("k"), nullptr); // deleted on access
    EXPECT_EQ(db.size(), 0u);
    EXPECT_EQ(db.expires_size(), 0u);
}

TEST(Database, SetClearsTtlSetKeepTtlDoesNot) {
    Clock clk;
    Database db(clk.fn());
    db.set("k", Object::make_string("v1"));
    db.set_expire("k", 500);
    db.set("k", Object::make_string("v2")); // SET semantics: ttl cleared
    EXPECT_FALSE(db.expire_at("k").has_value());

    db.set_expire("k", 500);
    db.set_keep_ttl("k", Object::make_string("v3"));
    EXPECT_EQ(*db.expire_at("k"), 500);
}

TEST(Database, TtlSemantics) {
    Clock clk;
    Database db(clk.fn());
    EXPECT_EQ(db.ttl_ms("nope"), -2);
    db.set("k", Object::make_string("v"));
    EXPECT_EQ(db.ttl_ms("k"), -1);
    db.set_expire("k", 250);
    clk.ms = 100;
    EXPECT_EQ(db.ttl_ms("k"), 150);
}

TEST(Database, Persist) {
    Clock clk;
    Database db(clk.fn());
    db.set("k", Object::make_string("v"));
    EXPECT_FALSE(db.persist("k")); // no ttl to remove
    db.set_expire("k", 100);
    EXPECT_TRUE(db.persist("k"));
    clk.ms = 1000;
    EXPECT_NE(db.lookup("k"), nullptr);
}

TEST(Database, SetExpireOnMissingKeyFails) {
    Clock clk;
    Database db(clk.fn());
    EXPECT_FALSE(db.set_expire("nope", 100));
}

TEST(Database, ActiveExpireCycle) {
    Clock clk;
    Database db(clk.fn());
    for (int i = 0; i < 100; ++i) {
        const std::string k = std::string("k").append(std::to_string(i));
        db.set(k, Object::make_string("v"));
        db.set_expire(k, 50);
    }
    clk.ms = 100;
    sim::Rng rng(1);
    std::size_t removed = 0;
    for (int round = 0; round < 200 && db.size() > 0; ++round) {
        removed += db.active_expire_cycle(rng, 20);
    }
    EXPECT_EQ(removed, 100u);
    EXPECT_EQ(db.size(), 0u);
}

TEST(Database, ActiveExpireLeavesLiveKeys) {
    Clock clk;
    Database db(clk.fn());
    db.set("live", Object::make_string("v"));
    db.set("dead", Object::make_string("v"));
    db.set_expire("dead", 10);
    db.set_expire("live", 10'000);
    clk.ms = 100;
    sim::Rng rng(2);
    for (int i = 0; i < 50; ++i) db.active_expire_cycle(rng, 10);
    EXPECT_TRUE(db.exists("live"));
    EXPECT_FALSE(db.exists("dead"));
}

TEST(Database, AllKeysSkipsExpired) {
    Clock clk;
    Database db(clk.fn());
    db.set("a", Object::make_string("1"));
    db.set("b", Object::make_string("2"));
    db.set_expire("b", 5);
    clk.ms = 10;
    const auto keys = db.all_keys();
    EXPECT_EQ(keys, std::vector<std::string>{"a"});
}

TEST(Database, RandomKeyAvoidsExpired) {
    Clock clk;
    Database db(clk.fn());
    db.set("gone", Object::make_string("x"));
    db.set_expire("gone", 1);
    db.set("here", Object::make_string("y"));
    clk.ms = 100;
    sim::Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        const auto k = db.random_key(rng);
        ASSERT_TRUE(k.has_value());
        EXPECT_EQ(*k, "here");
    }
}

TEST(Database, RandomKeyEmpty) {
    Clock clk;
    Database db(clk.fn());
    sim::Rng rng(4);
    EXPECT_FALSE(db.random_key(rng).has_value());
}

TEST(Database, EqualsDeep) {
    Clock clk;
    Database a(clk.fn());
    Database b(clk.fn());
    a.set("s", Object::make_string("v"));
    b.set("s", Object::make_string("v"));
    // Same value in different encodings: int in a, raw bytes in b.
    a.set("n", Object::make_string("42"));
    auto raw = Object::make_string("4");
    raw->string_append("2");
    b.set("n", raw);
    EXPECT_TRUE(a.equals(b));
    EXPECT_TRUE(b.equals(a));
    b.set("s", Object::make_string("w"));
    EXPECT_FALSE(a.equals(b));
    b.set("s", Object::make_string("v"));
    b.set("extra", Object::make_string("x"));
    EXPECT_FALSE(a.equals(b));
}

TEST(Database, EqualsComparesExpires) {
    Clock clk;
    Database a(clk.fn());
    Database b(clk.fn());
    a.set("k", Object::make_string("v"));
    b.set("k", Object::make_string("v"));
    a.set_expire("k", 100);
    EXPECT_FALSE(a.equals(b));
    b.set_expire("k", 100);
    EXPECT_TRUE(a.equals(b));
}

TEST(Database, EqualsSameEncodingValues) {
    Clock clk;
    Database a(clk.fn());
    Database b(clk.fn());
    a.set("i", Object::make_string("123"));
    b.set("i", Object::make_string_ll(123));
    a.set("r", Object::make_string("abc"));
    auto grown = Object::make_string("ab");
    grown->string_append("c");
    b.set("r", grown);
    EXPECT_TRUE(a.equals(b));
    EXPECT_TRUE(b.equals(a));
    b.set("i", Object::make_string_ll(124)); // int vs int, differs
    EXPECT_FALSE(a.equals(b));
    b.set("i", Object::make_string_ll(123));
    b.set("r", Object::make_string("abd")); // raw vs raw, same length
    EXPECT_FALSE(a.equals(b));
    EXPECT_FALSE(b.equals(a));
}

TEST(Database, EqualsIntVsRawBuiltByAppend) {
    Clock clk;
    Database a(clk.fn());
    Database b(clk.fn());
    a.set("k", Object::make_string("123"));
    auto raw = Object::make_string("12");
    raw->string_append("3");
    b.set("k", raw);
    EXPECT_TRUE(a.equals(b));
    EXPECT_TRUE(b.equals(a));
    raw->string_append("4");
    EXPECT_FALSE(a.equals(b));
    EXPECT_FALSE(b.equals(a));
}

TEST(Database, EqualsComparesExpiryValuesAndKeys) {
    Clock clk;
    Database a(clk.fn());
    Database b(clk.fn());
    for (Database* db : {&a, &b}) {
        db->set("x", Object::make_string("1"));
        db->set("y", Object::make_string("2"));
    }
    a.set_expire("x", 100);
    b.set_expire("x", 200); // same key, different deadline
    EXPECT_FALSE(a.equals(b));
    EXPECT_FALSE(b.equals(a));
    b.set_expire("x", 100);
    EXPECT_TRUE(a.equals(b));
    b.persist("x");
    b.set_expire("y", 100); // same count of expiries, on different keys
    EXPECT_FALSE(a.equals(b));
    EXPECT_FALSE(b.equals(a));
}

TEST(Database, DirtyCounterAdvances) {
    Clock clk;
    Database db(clk.fn());
    const auto d0 = db.dirty();
    db.set("k", Object::make_string("v"));
    EXPECT_GT(db.dirty(), d0);
    const auto d1 = db.dirty();
    db.remove("k");
    EXPECT_GT(db.dirty(), d1);
}

TEST(Database, ClearEmpties) {
    Clock clk;
    Database db(clk.fn());
    db.set("k", Object::make_string("v"));
    db.set_expire("k", 100);
    db.clear();
    EXPECT_EQ(db.size(), 0u);
    EXPECT_EQ(db.expires_size(), 0u);
}

TEST(Database, MemoryBytesTracksContent) {
    Clock clk;
    Database db(clk.fn());
    const auto m0 = db.memory_bytes();
    db.set("k", Object::make_string(std::string(100'000, 'v')));
    EXPECT_GT(db.memory_bytes(), m0 + 100'000);
}

} // namespace
} // namespace skv::kv
