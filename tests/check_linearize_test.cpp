#include <gtest/gtest.h>

#include <string>

#include "check/history.hpp"
#include "check/linearize.hpp"

namespace skv::check {
namespace {

// History-building helpers: times are plain integers (ns), ops complete
// instantly unless an interval is given.
Op w(std::uint64_t client, const std::string& key, const std::string& value,
     std::int64_t invoke, std::int64_t complete, Outcome out = Outcome::kOk) {
    Op op;
    op.client = client;
    op.seq = static_cast<std::uint64_t>(invoke);
    op.type = OpType::kWrite;
    op.key = key;
    op.value = value;
    op.outcome = out;
    op.invoke_ns = invoke;
    op.complete_ns = complete;
    return op;
}

Op r(std::uint64_t client, const std::string& key, const std::string& value,
     bool found, std::int64_t invoke, std::int64_t complete,
     Outcome out = Outcome::kOk) {
    Op op;
    op.client = client;
    op.seq = static_cast<std::uint64_t>(invoke);
    op.type = OpType::kRead;
    op.key = key;
    op.value = value;
    op.found = found;
    op.outcome = out;
    op.invoke_ns = invoke;
    op.complete_ns = complete;
    return op;
}

TEST(Linearize, EmptyHistoryIsLinearizable) {
    History h;
    const auto res = check_history(h);
    EXPECT_TRUE(res.linearizable);
    EXPECT_FALSE(res.budget_exhausted);
    EXPECT_EQ(res.keys_checked, 0u);
}

TEST(Linearize, SequentialRegisterHistoryFastPath) {
    History h;
    h.record(w(1, "k", "a", 0, 10));
    h.record(r(1, "k", "a", true, 20, 30));
    h.record(w(1, "k", "b", 40, 50));
    h.record(r(2, "k", "b", true, 60, 70));
    const auto res = check_history(h);
    EXPECT_TRUE(res.linearizable) << res.reason;
    EXPECT_EQ(res.keys_checked, 1u);
    // Real-time order is total here: the O(n) pass must settle it.
    EXPECT_EQ(res.keys_fast_path, 1u);
    EXPECT_EQ(res.nodes_explored, 0u);
}

TEST(Linearize, StaleReadRejected) {
    History h;
    h.record(w(1, "k", "v1", 0, 10));
    h.record(w(1, "k", "v2", 20, 30));
    // Sequentially after v2 committed, a read must not observe v1.
    h.record(r(2, "k", "v1", true, 40, 50));
    const auto res = check_history(h);
    EXPECT_FALSE(res.linearizable);
    EXPECT_NE(res.reason.find("k"), std::string::npos);
}

TEST(Linearize, ReadOfNeverWrittenValueRejected) {
    History h;
    h.record(w(1, "k", "a", 0, 10));
    h.record(r(2, "k", "ghost", true, 20, 30));
    EXPECT_FALSE(check_history(h).linearizable);
}

TEST(Linearize, MissBeforeWriteOkMissAfterWriteRejected) {
    History ok;
    ok.record(r(2, "k", "", false, 0, 5));
    ok.record(w(1, "k", "a", 10, 20));
    EXPECT_TRUE(check_history(ok).linearizable);

    History bad;
    bad.record(w(1, "k", "a", 0, 10));
    bad.record(r(2, "k", "", false, 20, 30));
    EXPECT_FALSE(check_history(bad).linearizable);
}

TEST(Linearize, ConcurrentWritesEitherOrderAccepted) {
    // w(a) and w(b) overlap; a later read may see either.
    for (const std::string seen : {"a", "b"}) {
        History h;
        h.record(w(1, "k", "a", 0, 100));
        h.record(w(2, "k", "b", 10, 90));
        h.record(r(3, "k", seen, true, 200, 210));
        EXPECT_TRUE(check_history(h).linearizable) << "seen=" << seen;
    }
}

TEST(Linearize, SequentialReadsDisagreeingOnWriteOrderRejected) {
    // Both writes complete, then two sequential reads observe different
    // values with no intervening write: no single write order explains it.
    History h;
    h.record(w(1, "k", "a", 0, 100));
    h.record(w(2, "k", "b", 10, 90));
    h.record(r(3, "k", "b", true, 200, 210));
    h.record(r(3, "k", "a", true, 220, 230));
    EXPECT_FALSE(check_history(h).linearizable);
}

TEST(Linearize, ReadConcurrentWithWriteSeesOldOrNew) {
    for (const bool sees_new : {false, true}) {
        History h;
        h.record(w(1, "k", "old", 0, 10));
        h.record(w(1, "k", "new", 100, 200));
        h.record(r(2, "k", sees_new ? "new" : "old", true, 150, 160));
        EXPECT_TRUE(check_history(h).linearizable) << "sees_new=" << sees_new;
    }
}

TEST(Linearize, TimedOutWriteMayTakeEffect) {
    // The client gave up, but the write reached the store: a later read
    // observing it is fine (open-ended op linearized before the read).
    History h;
    h.record(w(1, "k", "v", 0, 50, Outcome::kTimeout));
    h.record(r(2, "k", "v", true, 100, 110));
    EXPECT_TRUE(check_history(h).linearizable);
}

TEST(Linearize, TimedOutWriteMayVanish) {
    History h;
    h.record(w(1, "k", "a", 0, 10));
    h.record(w(2, "k", "lost", 20, 30, Outcome::kTimeout));
    h.record(r(3, "k", "a", true, 100, 110));
    EXPECT_TRUE(check_history(h).linearizable);
}

TEST(Linearize, FailedWriteMustNotBeObserved) {
    // kFail promises "definitely not applied"; observing its value means
    // either the client lied or the store leaked a rejected write.
    History h;
    h.record(w(1, "k", "rejected", 0, 10, Outcome::kFail));
    h.record(r(2, "k", "rejected", true, 20, 30));
    EXPECT_FALSE(check_history(h).linearizable);
}

TEST(Linearize, KeysArePartitionedIndependently) {
    History h;
    h.record(w(1, "good", "x", 0, 10));
    h.record(r(2, "good", "x", true, 20, 30));
    h.record(w(1, "bad", "p", 0, 10));
    h.record(w(1, "bad", "q", 20, 30));
    h.record(r(2, "bad", "p", true, 40, 50)); // stale
    const auto res = check_history(h);
    EXPECT_FALSE(res.linearizable);
    // The checker stops at the first offending key ("bad" sorts first);
    // the healthy key never taints the verdict.
    EXPECT_NE(res.reason.find("bad"), std::string::npos);

    History healthy;
    healthy.record(w(1, "good", "x", 0, 10));
    healthy.record(r(2, "good", "x", true, 20, 30));
    EXPECT_TRUE(check_history(healthy).linearizable);
}

TEST(Linearize, BudgetExhaustionIsFlaggedNotFailed) {
    // Heavily overlapped ops defeat the fast pass; a 1-node budget cannot
    // finish the search. The verdict must be "indeterminate", not "bug".
    History h;
    h.record(w(1, "k", "a", 0, 100));
    h.record(w(2, "k", "b", 0, 100));
    h.record(w(3, "k", "c", 0, 100));
    h.record(r(4, "k", "b", true, 0, 100));
    CheckOptions opts;
    opts.max_nodes_per_key = 1;
    const auto res = check_history(h, opts);
    EXPECT_TRUE(res.budget_exhausted);
    EXPECT_TRUE(res.linearizable);
}

TEST(Linearize, DeepConcurrencySearchCompletes) {
    // A pile of pairwise-overlapping writes plus consistent reads: forces
    // the DFS (no total order) but must stay well within budget thanks to
    // the memo cache.
    History h;
    for (int i = 0; i < 12; ++i) {
        h.record(w(static_cast<std::uint64_t>(i), "k",
                   std::string("v").append(std::to_string(i)), i, 1000 + i));
    }
    h.record(r(99, "k", "v7", true, 2000, 2010));
    const auto res = check_history(h);
    EXPECT_TRUE(res.linearizable) << res.reason;
    EXPECT_FALSE(res.budget_exhausted);
    EXPECT_GT(res.nodes_explored, 0u);
}

TEST(Linearize, HistoryJsonRoundTripsSchemaMarker) {
    History h;
    h.record(w(1, "k", "a\"b", 0, 10));
    const std::string json = h.to_json();
    EXPECT_NE(json.find("skv-history-v1"), std::string::npos);
    EXPECT_NE(json.find("\\\""), std::string::npos);
}

} // namespace
} // namespace skv::check
