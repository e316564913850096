#include "cpu/core.hpp"

#include <algorithm>
#include <utility>

#include "sim/check.hpp"

namespace skv::cpu {

Core::Core(sim::Simulation& sim, std::string name, double speed_factor)
    : sim_(sim), name_(std::move(name)), speed_factor_(speed_factor) {
    SKV_CHECK(speed_factor > 0.0);
}

sim::SimTime Core::submit(sim::Duration host_cost, std::function<void()> fn) {
    SKV_DCHECK(host_cost.ns() >= 0);
    if (halted_) return sim::SimTime::max();
    const sim::Duration cost = host_cost.scaled(speed_factor_);
    const sim::SimTime start = std::max(sim_.now(), busy_until_);
    busy_until_ = start + cost;
    total_busy_ += cost;
    ++tasks_;
    if (fn) {
        sim_.at(busy_until_, std::move(fn));
    }
    return busy_until_;
}

void Core::consume(sim::Duration host_cost) {
    submit(host_cost, nullptr);
}

double Core::utilization() const {
    const std::int64_t now = sim_.now().ns();
    if (now <= 0) return 0.0;
    // Committed-but-not-yet-elapsed work is clipped to now.
    const std::int64_t overhang = std::max<std::int64_t>(0, busy_until_.ns() - now);
    const std::int64_t busy = total_busy_.ns() - overhang;
    return std::clamp(static_cast<double>(busy) / static_cast<double>(now), 0.0, 1.0);
}

} // namespace skv::cpu
