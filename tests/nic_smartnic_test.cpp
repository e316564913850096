#include <gtest/gtest.h>

#include "nic/smartnic.hpp"

namespace skv::nic {
namespace {

class SmartNicTest : public ::testing::Test {
protected:
    SmartNicTest() : sim(1), fabric(sim) {
        host = fabric.add_host("h");
    }

    sim::Simulation sim;
    net::Fabric fabric;
    net::EndpointId host = 0;
};

TEST_F(SmartNicTest, CreatesCompanionEndpointAndCores) {
    SmartNic nic(sim, fabric, host, "bf2");
    EXPECT_TRUE(fabric.is_companion(nic.endpoint()));
    EXPECT_TRUE(fabric.same_port(host, nic.endpoint()));
    EXPECT_EQ(nic.core_count(), 8);
    EXPECT_DOUBLE_EQ(nic.core(0).speed_factor(), 2.5);
    EXPECT_EQ(nic.host_endpoint(), host);
}

TEST_F(SmartNicTest, CustomParams) {
    SmartNicParams p;
    p.core_slowdown = 5.0;
    p.dram_bytes = 1024;
    SmartNic nic(sim, fabric, host, "bf2", p);
    EXPECT_EQ(nic.core_count(), 8);
    EXPECT_DOUBLE_EQ(nic.core(7).speed_factor(), 5.0);
    EXPECT_EQ(nic.memory_capacity(), 1024u);
}

TEST_F(SmartNicTest, MemoryBudgetEnforced) {
    SmartNicParams p;
    p.dram_bytes = 1000;
    SmartNic nic(sim, fabric, host, "bf2", p);
    EXPECT_TRUE(nic.reserve_memory(600));
    EXPECT_EQ(nic.memory_used(), 600u);
    EXPECT_FALSE(nic.reserve_memory(500)); // would exceed 1000
    EXPECT_TRUE(nic.reserve_memory(400));
    nic.release_memory(1000);
    EXPECT_EQ(nic.memory_used(), 0u);
}

TEST_F(SmartNicTest, NamedCores) {
    SmartNic nic(sim, fabric, host, "bf2");
    EXPECT_EQ(nic.core(0).name(), "bf2/arm0");
    EXPECT_EQ(nic.core(7).name(), "bf2/arm7");
}

TEST_F(SmartNicTest, ArmCoresAreSlower) {
    SmartNic nic(sim, fabric, host, "bf2");
    cpu::Core host_core(sim, "host");
    sim::SimTime host_done;
    sim::SimTime arm_done;
    host_core.submit(sim::microseconds(4), [&] { host_done = sim.now(); });
    nic.core(0).submit(sim::microseconds(4), [&] { arm_done = sim.now(); });
    sim.run();
    EXPECT_EQ(host_done.ns(), 4'000);
    EXPECT_EQ(arm_done.ns(), 10'000); // 2.5x
}

} // namespace
} // namespace skv::nic
