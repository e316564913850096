#include "nic/smartnic.hpp"
#include "sim/check.hpp"

namespace skv::nic {

namespace {
/// ARM A72 cores available to offloaded services: BlueField-2 has 8.
constexpr int kArmCores = 8;
} // namespace

SmartNic::SmartNic(sim::Simulation& sim, net::Fabric& fabric,
                   net::EndpointId host, const std::string& name,
                   SmartNicParams params)
    : host_(host), params_(params) {
    endpoint_ = fabric.add_companion(host, name);
    cores_.reserve(kArmCores);
    for (int i = 0; i < kArmCores; ++i) {
        cores_.push_back(std::make_unique<cpu::Core>(
            sim, name + "/arm" + std::to_string(i), params_.core_slowdown));
    }
}

bool SmartNic::reserve_memory(std::size_t bytes) {
    if (mem_used_ + bytes > params_.dram_bytes) return false;
    mem_used_ += bytes;
    return true;
}

void SmartNic::release_memory(std::size_t bytes) {
    SKV_CHECK(bytes <= mem_used_);
    mem_used_ -= bytes;
}

} // namespace skv::nic
