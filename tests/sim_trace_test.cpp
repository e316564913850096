#include <gtest/gtest.h>

#include "sim/trace.hpp"

namespace skv::sim {
namespace {

TEST(Trace, DigestIsOrderSensitive) {
    Trace a;
    Trace b;
    a.note(TraceEvent::kFabricSend, SimTime(1), 1, 2);
    a.note(TraceEvent::kFabricDeliver, SimTime(2), 1, 2);
    b.note(TraceEvent::kFabricDeliver, SimTime(2), 1, 2);
    b.note(TraceEvent::kFabricSend, SimTime(1), 1, 2);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Trace, DigestDeterministic) {
    Trace a;
    Trace b;
    for (int i = 0; i < 100; ++i) {
        a.note(TraceEvent::kFabricSend, SimTime(i), i, i + 1);
        b.note(TraceEvent::kFabricSend, SimTime(i), i, i + 1);
    }
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.total_noted(), 100u);
}

TEST(Trace, ClearResetsDigest) {
    Trace t;
    const auto d0 = t.digest();
    t.note(TraceEvent::kChannelClose, SimTime(1), 7);
    EXPECT_NE(t.digest(), d0);
    t.clear();
    EXPECT_EQ(t.digest(), d0);
    EXPECT_EQ(t.total_noted(), 0u);
}

} // namespace
} // namespace skv::sim
