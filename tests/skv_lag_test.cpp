#include <gtest/gtest.h>

#include <algorithm>

#include "kv/resp.hpp"
#include "skv/cluster.hpp"
#include "workload/session.hpp"

namespace skv::offload {
namespace {

/// Replication-progress gating (paper Fig. 9 step 3): slaves report their
/// offsets; the master refuses writes when a *valid* slave lags too far.

class LagTest : public ::testing::Test {
protected:
    std::unique_ptr<Cluster> make(std::int64_t max_lag, int n_slaves) {
        ClusterConfig cfg;
        cfg.n_slaves = n_slaves;
        cfg.offload = true;
        cfg.server_tmpl.max_repl_lag_bytes = max_lag;
        auto c = std::make_unique<Cluster>(cfg);
        c->start();
        return c;
    }

    static int errors(const workload::Session& s) {
        return static_cast<int>(std::count_if(
            s.replies().begin(), s.replies().end(),
            [](const kv::resp::Value& v) { return v.is_error(); }));
    }
    static std::string last_error(const workload::Session& s) {
        for (auto it = s.replies().rbegin(); it != s.replies().rend(); ++it) {
            if (it->is_error()) return it->str;
        }
        return {};
    }
};

TEST_F(LagTest, HealthySlavesNeverTripTheGate) {
    auto c = make(1 << 20, 2);
    workload::Session cl(*c, "lagtester");
    ASSERT_TRUE(cl.connected());
    for (int i = 0; i < 200; ++i) {
        cl.send({"SET", std::string("k").append(std::to_string(i)), "v"});
    }
    c->sim().run_until(c->sim().now() + sim::milliseconds(300));
    EXPECT_EQ(errors(cl), 0);
    EXPECT_EQ(static_cast<int>(cl.replies().size()) - errors(cl), 200); // oks
}

TEST_F(LagTest, DeadButUndetectedSlaveTripsTheGateEventually) {
    // Tiny lag budget + a crashed slave that is still marked valid: the
    // master's writes start failing with NOREPLPROGRESS until the failure
    // detector marks the slave invalid, after which writes flow again —
    // the interplay of the two §III-D mechanisms.
    auto c = make(2048, 2);
    workload::Session cl(*c, "lagtester");
    ASSERT_TRUE(cl.connected());

    c->slave(0).crash();
    // Immediately hammer writes, before the detector can react (its next
    // probe round is up to 1s + waiting-time away).
    for (int i = 0; i < 300; ++i) {
        cl.send({"SET", std::string("k").append(std::to_string(i)),
                 std::string(32, 'v')});
    }
    c->sim().run_until(c->sim().now() + sim::milliseconds(400));
    EXPECT_GT(errors(cl), 0);
    EXPECT_NE(last_error(cl).find("NOREPLPROGRESS"), std::string::npos);

    // After detection the invalid slave is exempt from the lag check.
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    const int errors_after_detection = errors(cl);
    cl.send({"SET", "recovered-write", "v"});
    c->sim().run_until(c->sim().now() + sim::milliseconds(20));
    EXPECT_EQ(errors(cl), errors_after_detection);
    EXPECT_TRUE(c->master().db().exists("recovered-write"));
}

TEST_F(LagTest, PromotedStandInAcceptsWrites) {
    auto c = make(1 << 24, 2);
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    c->master().crash();
    c->sim().run_until(c->sim().now() + sim::seconds(4));

    // Find the promoted slave and write to it directly.
    int promoted = -1;
    for (int i = 0; i < 2; ++i) {
        if (c->slave(i).role() == server::Role::kMaster) promoted = i;
    }
    ASSERT_GE(promoted, 0);

    workload::Session writer(*c, "writer", promoted);
    ASSERT_TRUE(writer.connected());
    writer.send({"SET", "on-standin", "v"});
    c->sim().run_until(c->sim().now() + sim::milliseconds(20));
    EXPECT_TRUE(writer.replies().at(0).is_ok());
    EXPECT_TRUE(c->slave(promoted).db().exists("on-standin"));

    // After the real master returns, the stand-in refuses writes again.
    c->master().recover();
    c->sim().run_until(c->sim().now() + sim::seconds(4));
    ASSERT_EQ(c->slave(promoted).role(), server::Role::kSlave);
    writer.send({"SET", "late-write", "v"});
    c->sim().run_until(c->sim().now() + sim::milliseconds(20));
    EXPECT_TRUE(writer.replies().at(1).is_error());
    EXPECT_EQ(writer.replies().at(1).str.find("READONLY"), 0u);
}

TEST_F(LagTest, SlaveServesReadsThroughout) {
    auto c = make(1 << 24, 1);
    workload::Session cl(*c, "lagtester");
    ASSERT_TRUE(cl.connected());
    cl.send({"SET", "shared", "value"});
    c->sim().run_until(c->sim().now() + sim::milliseconds(100));

    workload::Session reader(*c, "reader", 0);
    ASSERT_TRUE(reader.connected());
    reader.send({"GET", "shared"});
    c->sim().run_until(c->sim().now() + sim::milliseconds(20));
    EXPECT_EQ(reader.replies().at(0).str, "value");
}

} // namespace
} // namespace skv::offload
