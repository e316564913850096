#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "sim/histogram.hpp"
#include "sim/time.hpp"

namespace skv::obs {

class Registry;

/// Pre-resolved counter handle: incrementing is one pointer dereference and
/// an add, no string lookup. Handles stay valid for the life of the owning
/// Registry (cells live in a deque and never move). A default-constructed
/// handle is inert: incr() on it is a no-op, so components can be
/// instrumented unconditionally and wired to a registry lazily.
class Counter {
public:
    Counter() = default;
    void incr(std::uint64_t delta = 1) const {
        if (cell_ != nullptr) *cell_ += delta;
    }
    [[nodiscard]] std::uint64_t value() const {
        return cell_ != nullptr ? *cell_ : 0;
    }
    [[nodiscard]] explicit operator bool() const { return cell_ != nullptr; }

private:
    friend class Registry;
    explicit Counter(std::uint64_t* cell) : cell_(cell) {}
    std::uint64_t* cell_ = nullptr;
};

/// Pre-resolved gauge handle (signed, last-write-wins).
class Gauge {
public:
    Gauge() = default;
    void set(std::int64_t v) const {
        if (cell_ != nullptr) *cell_ = v;
    }
    void add(std::int64_t delta) const {
        if (cell_ != nullptr) *cell_ += delta;
    }
    [[nodiscard]] std::int64_t value() const {
        return cell_ != nullptr ? *cell_ : 0;
    }
    [[nodiscard]] explicit operator bool() const { return cell_ != nullptr; }

private:
    friend class Registry;
    explicit Gauge(std::int64_t* cell) : cell_(cell) {}
    std::int64_t* cell_ = nullptr;
};

/// Pre-resolved latency-histogram handle. record() feeds the log-linear
/// sim::LatencyHistogram owned by the Registry.
class Timer {
public:
    Timer() = default;
    void record(sim::Duration d) const {
        if (hist_ != nullptr) hist_->record(d);
    }
    void record_ns(std::int64_t ns) const {
        if (hist_ != nullptr) hist_->record_ns(ns);
    }
    [[nodiscard]] const sim::LatencyHistogram* histogram() const { return hist_; }
    [[nodiscard]] explicit operator bool() const { return hist_ != nullptr; }

private:
    friend class Registry;
    explicit Timer(sim::LatencyHistogram* hist) : hist_(hist) {}
    sim::LatencyHistogram* hist_ = nullptr;
};

/// Point-in-time copy of a Registry, used for measurement-window deltas and
/// by the exporters. Maps keep iteration (and therefore export) order
/// deterministic.
struct Snapshot {
    struct TimerStats {
        std::uint64_t count = 0;
        double sum_ns = 0.0;
        std::int64_t p50_ns = 0;
        std::int64_t p99_ns = 0;
        std::int64_t p999_ns = 0;
        std::int64_t max_ns = 0;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, TimerStats> timers;

    /// Per-window delta: counters and timer counts/sums subtract `older`
    /// (missing-in-older keys keep their full value); gauges and timer
    /// percentiles are point-in-time and keep the newer value.
    [[nodiscard]] Snapshot delta_since(const Snapshot& older) const;
};

/// Per-node metric registry. Two faces:
///
///  - Typed handles (counter_handle/gauge_handle/timer_handle), resolved
///    once at wiring time so hot paths pay an array index, not a
///    std::map<std::string,...> lookup per event.
///  - A string API (incr/set_gauge/counter/gauge/format/clear) for cold
///    paths that create a cell on first use, so only names that were ever
///    touched appear in format(). Both faces address the same cells.
///
/// Iteration anywhere in this class is over std::map — deterministic by
/// construction, which the byte-identical export guarantee relies on.
class Registry {
public:
    Registry() = default;
    explicit Registry(std::string scope) : scope_(std::move(scope)) {}

    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    // --- typed pre-resolved handles (resolve once, use on the hot path) ---
    Counter counter_handle(const std::string& name);
    Gauge gauge_handle(const std::string& name);
    Timer timer_handle(const std::string& name);

    // --- string API (lazily created cells) ---
    void incr(const std::string& name, std::uint64_t delta = 1);
    void set_gauge(const std::string& name, std::int64_t value);
    [[nodiscard]] std::uint64_t counter(const std::string& name) const;
    [[nodiscard]] std::int64_t gauge(const std::string& name) const;
    /// "name=value\n" lines: counters first, then gauges, each sorted by
    /// name. Timers are deliberately excluded: the chaos determinism
    /// fingerprint folds this string in, so its layout is frozen.
    [[nodiscard]] std::string format() const;
    /// Zero every cell. Handles remain valid.
    void clear();

    [[nodiscard]] const std::string& scope() const { return scope_; }
    [[nodiscard]] Snapshot snapshot() const;

private:
    std::string scope_;
    // Cells live in deques so handle pointers survive growth.
    std::deque<std::uint64_t> counter_cells_;
    std::deque<std::int64_t> gauge_cells_;
    std::deque<sim::LatencyHistogram> timer_cells_;
    std::map<std::string, std::size_t> counter_index_;
    std::map<std::string, std::size_t> gauge_index_;
    std::map<std::string, std::size_t> timer_index_;
};

} // namespace skv::obs
