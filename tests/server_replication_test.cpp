#include <gtest/gtest.h>

#include "kv/resp.hpp"
#include "skv/cluster.hpp"
#include "workload/session.hpp"

namespace skv::server {
namespace {

using offload::Cluster;
using offload::ClusterConfig;

/// Baseline (host-side fan-out) replication tests, run over the RDMA
/// transport like the paper's RDMA-Redis.
class BaselineReplTest : public ::testing::Test {
protected:
    std::unique_ptr<Cluster> make(int slaves, std::uint64_t seed = 5) {
        ClusterConfig cfg = offload::config_of(offload::System::kRdmaRedis);
        cfg.seed = seed;
        cfg.n_slaves = slaves;
        auto c = std::make_unique<Cluster>(cfg);
        c->start();
        return c;
    }

    /// Issue commands through a real client connection and wait.
    void run_commands(Cluster& c,
                      const std::vector<std::vector<std::string>>& cmds) {
        workload::Session s(c, "tester");
        ASSERT_TRUE(s.connected());
        for (const auto& cmd : cmds) s.send(cmd);
        c.sim().run_until(c.sim().now() + sim::milliseconds(100));
    }
};

TEST_F(BaselineReplTest, SlavesRegisterWithMaster) {
    auto c = make(3);
    EXPECT_EQ(c->master().role(), Role::kMaster);
    EXPECT_EQ(c->master().slave_count(), 3u);
    EXPECT_EQ(c->master().available_slaves(), 3);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(c->slave(i).role(), Role::kSlave);
    }
}

TEST_F(BaselineReplTest, WritesReachEverySlave) {
    auto c = make(3);
    run_commands(*c, {{"SET", "k1", "v1"},
                      {"SET", "k2", "v2"},
                      {"MSET", "a", "1", "b", "2"},
                      {"APPEND", "k1", "-more"},
                      {"INCR", "a"}});
    EXPECT_TRUE(c->converged());
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(c->master().db().equals(c->slave(i).db())) << i;
    }
}

TEST_F(BaselineReplTest, ReadsAreNotReplicated) {
    auto c = make(1);
    run_commands(*c, {{"SET", "k", "v"}, {"GET", "k"}, {"GET", "k"}});
    // Only the SET went into the replication stream.
    EXPECT_EQ(c->master().stats().counter("repl_sends"), 1u);
}

TEST_F(BaselineReplTest, FailedWritesNotReplicated) {
    auto c = make(1);
    run_commands(*c, {{"SET", "s", "str"}, {"INCR", "s"}, {"DEL", "nope"}});
    // INCR failed (-ERR) and DEL was a no-op: one replicated command only.
    EXPECT_EQ(c->master().stats().counter("repl_sends"), 1u);
    EXPECT_TRUE(c->converged());
}

TEST_F(BaselineReplTest, LateSlaveFullSyncsExistingData) {
    ClusterConfig cfg;
    cfg.n_slaves = 0;
    auto c = std::make_unique<Cluster>(cfg);
    c->start();
    // Writing past the 1 MiB replication backlog evicts the late slave's
    // offset 0, forcing the full-RDB path rather than a partial resync.
    std::vector<std::vector<std::string>> pre;
    for (int i = 0; i < 20; ++i) {
        pre.push_back({"SET", "pre" + std::to_string(i),
                       std::string(64 * 1024, 'v')});
    }
    run_commands(*c, pre);
    ASSERT_GT(c->master().master_offset(), 1 << 20);

    // Attach a brand-new slave after the fact through the harness parts:
    // re-use slave machinery by building a second cluster is complex, so
    // drive the protocol directly: a fresh server + slaveof_baseline.
    auto node = c->add_client_host("late-slave");
    ServerConfig scfg;
    scfg.name = "late";
    KvServer late(c->sim(), c->costs(), c->transport(), node, scfg);
    late.start();
    late.slaveof_baseline(c->master().node().ep, 6380);
    c->sim().run_until(c->sim().now() + sim::milliseconds(100));

    EXPECT_EQ(c->master().stats().counter("sync_full"), 1u);
    EXPECT_TRUE(late.db().equals(c->master().db()));
    EXPECT_EQ(late.slave_applied_offset(), c->master().master_offset());

    // And the steady-state stream now flows to it.
    run_commands(*c, {{"SET", "post", "streamed"}});
    c->sim().run_until(c->sim().now() + sim::milliseconds(50));
    EXPECT_NE(late.db().lookup("post"), nullptr);
}

TEST_F(BaselineReplTest, SlaveRejectsDirectWrites) {
    auto c = make(1);
    // Connect a client to the slave directly.
    workload::Session s(*c, "writer", 0);
    ASSERT_TRUE(s.connected());
    s.send({"SET", "k", "v"});
    s.send({"GET", "k"});
    c->sim().run_until(c->sim().now() + sim::milliseconds(10));
    EXPECT_TRUE(s.replies().at(0).is_error());
    EXPECT_EQ(s.replies().at(0).str.find("READONLY"), 0u);
    EXPECT_EQ(s.replies().at(1).kind, kv::resp::Value::Kind::kNull); // GET is served
}

TEST_F(BaselineReplTest, NonDeterministicCommandsConverge) {
    auto c = make(2);
    // Each is effect-replicated: relative TTLs become absolute deadlines,
    // GETDEL a DEL, and INCRBYFLOAT the rendered value.
    run_commands(*c, {{"SET", "t", "v", "EX", "100"},
                      {"SET", "g", "x"},
                      {"GETEX", "g", "PX", "60000"},
                      {"SET", "d", "y"},
                      {"GETDEL", "d"},
                      {"INCRBYFLOAT", "f", "0.1"},
                      {"INCRBYFLOAT", "f", "0.2"}});
    EXPECT_TRUE(c->converged());
    for (int i = 0; i < 2; ++i) {
        EXPECT_TRUE(c->master().db().equals(c->slave(i).db()))
            << "slave " << i << " diverged on effect-replicated commands";
    }
}

TEST_F(BaselineReplTest, ExpiresConvergeViaAbsoluteDeadlines) {
    auto c = make(1);
    run_commands(*c, {{"SET", "k", "v"}, {"EXPIRE", "k", "100"}});
    EXPECT_TRUE(c->converged());
    const auto m = c->master().db().expire_at("k");
    const auto s = c->slave(0).db().expire_at("k");
    ASSERT_TRUE(m.has_value());
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*m, *s); // PEXPIREAT rewrite: identical absolute deadline
}

TEST_F(BaselineReplTest, AcksAdvanceSlaveOffsets) {
    auto c = make(2);
    run_commands(*c, {{"SET", "a", "1"}, {"SET", "b", "2"}});
    c->sim().run_until(c->sim().now() + sim::milliseconds(300));
    // After a few ack intervals the master knows the slaves are current.
    EXPECT_TRUE(c->converged());
}

/// Property test: a random command stream leaves master and slaves with
/// byte-identical databases.
class ReplConvergenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplConvergenceTest, RandomStreamConverges) {
    ClusterConfig cfg;
    cfg.seed = GetParam();
    cfg.n_slaves = 2;
    cfg.offload = false;
    Cluster c(cfg);
    c.start();

    workload::Session s(c, "fuzzer");
    ASSERT_TRUE(s.connected());

    sim::Rng rng(GetParam() ^ 0xABCD);
    auto key = [&] { return "k" + std::to_string(rng.next_below(20)); };
    for (int i = 0; i < 400; ++i) {
        std::vector<std::string> cmd;
        switch (rng.next_below(10)) {
            case 0: cmd = {"SET", key(), "v" + std::to_string(i)}; break;
            case 1: cmd = {"DEL", key()}; break;
            case 2: cmd = {"INCR", "ctr" + std::to_string(rng.next_below(3))}; break;
            // Cases 3-8 take the effect-replication rewrites. TTLs are long
            // enough that nothing expires before the comparison.
            case 3: cmd = {"SET", key(), "v" + std::to_string(i), "EX",
                           std::to_string(10 + rng.next_below(90))}; break;
            case 4: cmd = {"PEXPIRE", key(),
                           std::to_string(10'000 + rng.next_below(90'000))}; break;
            case 5: cmd = {"INCRBYFLOAT", "f" + std::to_string(rng.next_below(3)),
                           "0.1"}; break;
            case 6: cmd = {"GETDEL", key()}; break;
            case 7: cmd = {"SETRANGE", key(), std::to_string(rng.next_below(8)),
                           "r" + std::to_string(i)}; break;
            case 8: cmd = {"GETEX", key(), "PX",
                           std::to_string(10'000 + rng.next_below(90'000))}; break;
            case 9: cmd = {"APPEND", key(), "x"}; break;
        }
        s.send(cmd);
    }
    c.sim().run_until(c.sim().now() + sim::milliseconds(500));

    ASSERT_TRUE(c.converged());
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(c.master().db().equals(c.slave(i).db())) << "slave " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplConvergenceTest,
                         ::testing::Values(101u, 202u, 303u, 404u));

/// WSEQ duplicate-suppression table: bounded by dup_table_max with LRU
/// eviction, and evictions are replicated so replica tables track the
/// master's in exact lockstep (a promoted stand-in must agree on which
/// retries are still suppressed).
class DupTableLruTest : public ::testing::Test {
protected:
    static constexpr std::uint64_t kCap = KvServer::kDupTableMax;

    std::unique_ptr<Cluster> make() {
        ClusterConfig cfg;
        cfg.seed = 7;
        cfg.n_slaves = 1;
        cfg.offload = false;
        auto c = std::make_unique<Cluster>(cfg);
        c->start();
        return c;
    }

    /// Send commands in order on one connection and let them all land.
    void run_commands(Cluster& c,
                      const std::vector<std::vector<std::string>>& cmds) {
        workload::Session s(c, "dup-tester");
        ASSERT_TRUE(s.connected());
        for (const auto& cmd : cmds) s.send(cmd);
        c.sim().run_until(c.sim().now() + sim::milliseconds(200));
    }

    static std::vector<std::string> tagged_set(std::uint64_t client,
                                               std::uint64_t seq) {
        return {"WSEQ", std::to_string(client), std::to_string(seq),
                "SET", "dk" + std::to_string(client), "v"};
    }
};

TEST_F(DupTableLruTest, CapEvictsLeastRecentClient) {
    auto c = make();
    std::vector<std::vector<std::string>> cmds;
    for (std::uint64_t cl = 1; cl <= kCap + 4; ++cl) {
        cmds.push_back(tagged_set(cl, 1));
    }
    run_commands(*c, cmds);

    EXPECT_EQ(c->master().dup_entries(), kCap);
    EXPECT_EQ(c->master().stats().counter("dup_evictions"), 4u);
    for (std::uint64_t cl = 1; cl <= 4; ++cl) {
        EXPECT_FALSE(c->master().dup_has(cl)) << "client " << cl;
    }
    for (std::uint64_t cl = 5; cl <= kCap + 4; ++cl) {
        EXPECT_TRUE(c->master().dup_has(cl)) << "client " << cl;
    }
}

TEST_F(DupTableLruTest, RetryTouchKeepsLiveClientResident) {
    auto c = make();
    std::vector<std::vector<std::string>> cmds;
    for (std::uint64_t cl = 1; cl <= kCap; ++cl) {
        cmds.push_back(tagged_set(cl, 1));
    }
    // Client 1 retries its write mid-stream: the dup hit must refresh its
    // LRU position (and never re-apply the command).
    cmds.push_back(tagged_set(1, 1));
    for (std::uint64_t cl = kCap + 1; cl <= kCap + 3; ++cl) {
        cmds.push_back(tagged_set(cl, 1));
    }
    run_commands(*c, cmds);

    EXPECT_EQ(c->master().stats().counter("dup_suppressed"), 1u);
    EXPECT_EQ(c->master().stats().counter("dup_evictions"), 3u);
    EXPECT_TRUE(c->master().dup_has(1)) << "live retrier was evicted";
    for (std::uint64_t cl = 2; cl <= 4; ++cl) {
        EXPECT_FALSE(c->master().dup_has(cl)) << "client " << cl;
    }
    // The retry replayed the cached result: the write applied exactly once.
    EXPECT_EQ(c->master().stats().counter("repl_sends"),
              kCap + 3 + 3); // kCap + 3 writes + 3 replicated evictions
}

TEST_F(DupTableLruTest, ReplicaTableTracksMasterInLockstep) {
    auto c = make();
    std::vector<std::vector<std::string>> cmds;
    for (std::uint64_t cl = 1; cl <= kCap; ++cl) {
        cmds.push_back(tagged_set(cl, 1));
    }
    cmds.push_back(tagged_set(2, 1)); // touch: master-side LRU refresh only
    for (std::uint64_t cl = kCap + 1; cl <= kCap + 3; ++cl) {
        cmds.push_back(tagged_set(cl, 1));
    }
    run_commands(*c, cmds);
    ASSERT_TRUE(c->converged());

    // The replica never runs its own LRU scan — it obeys the replicated
    // WSEQEVICT stream — so even though the touch that saved client 2 was
    // invisible to it, its table is byte-for-byte the master's.
    EXPECT_EQ(c->master().stats().counter("dup_evictions"), 3u);
    EXPECT_EQ(c->slave(0).stats().counter("dup_evictions_applied"),
              c->master().stats().counter("dup_evictions"));
    EXPECT_EQ(c->slave(0).dup_entries(), c->master().dup_entries());
    for (std::uint64_t cl = 1; cl <= kCap + 3; ++cl) {
        EXPECT_EQ(c->slave(0).dup_has(cl), c->master().dup_has(cl))
            << "client " << cl;
    }
    EXPECT_TRUE(c->master().dup_has(2)) << "touched client should survive";
}

} // namespace
} // namespace skv::server
