#include "net/fault.hpp"

#include <algorithm>

namespace skv::net {

void FaultInjector::set_pair(EndpointId from, EndpointId to, FaultSpec spec) {
    pairs_[{from, to}] = spec;
}

void FaultInjector::set_link(EndpointId a, EndpointId b, FaultSpec spec) {
    set_pair(a, b, spec);
    set_pair(b, a, spec);
}

void FaultInjector::set_endpoint(EndpointId ep, FaultSpec spec) {
    endpoints_[ep] = spec;
}

void FaultInjector::clear_pair(EndpointId from, EndpointId to) {
    pairs_.erase({from, to});
}

void FaultInjector::clear_endpoint(EndpointId ep) { endpoints_.erase(ep); }

void FaultInjector::apply(const FaultSpec& spec, sim::SimTime now, Decision* d) {
    if (!spec.active()) return;
    d->touched = true;
    if (spec.blocked) {
        d->deliver = false;
        stats_.incr("partition_drops");
        return;
    }
    if (spec.flap_period.ns() > 0 && spec.flap_down.ns() > 0) {
        std::int64_t in_period =
            (now.ns() - spec.flap_phase.ns()) % spec.flap_period.ns();
        if (in_period < 0) in_period += spec.flap_period.ns();
        if (in_period < spec.flap_down.ns()) {
            d->deliver = false;
            stats_.incr("flap_drops");
            return;
        }
    }
    if (spec.drop_prob > 0 && rng_.next_bool(spec.drop_prob)) {
        d->deliver = false;
        stats_.incr("drops");
        return;
    }
    if (spec.jitter_prob > 0 && spec.jitter_mean.ns() > 0 &&
        rng_.next_bool(spec.jitter_prob)) {
        d->delay += sim::Duration(static_cast<std::int64_t>(
            rng_.next_exponential(static_cast<double>(spec.jitter_mean.ns()))));
        stats_.incr("delays");
    }
    if (spec.dup_prob > 0 && rng_.next_bool(spec.dup_prob)) {
        d->duplicate = true;
        // The copy trails the original by an independent exponential gap (a
        // retransmitted / switch-duplicated frame arrives close behind).
        const double mean = spec.jitter_mean.ns() > 0
                                ? static_cast<double>(spec.jitter_mean.ns())
                                : 1'000.0;
        d->dup_delay += sim::Duration(
            static_cast<std::int64_t>(rng_.next_exponential(mean)) + 1);
        stats_.incr("dups");
    }
}

FaultInjector::Decision FaultInjector::evaluate(EndpointId from, EndpointId to,
                                                sim::SimTime now) {
    Decision d;
    if (auto it = pairs_.find({from, to}); it != pairs_.end()) {
        apply(it->second, now, &d);
    }
    if (auto it = endpoints_.find(from); d.deliver && it != endpoints_.end()) {
        apply(it->second, now, &d);
    }
    if (auto it = endpoints_.find(to); d.deliver && it != endpoints_.end()) {
        apply(it->second, now, &d);
    }
    return d;
}

sim::SimTime FaultInjector::clamp_fifo(EndpointId from, EndpointId to,
                                       sim::SimTime arrival) {
    sim::SimTime& last = last_arrival_[{from, to}];
    arrival = std::max(arrival, last);
    last = arrival;
    return arrival;
}

} // namespace skv::net
