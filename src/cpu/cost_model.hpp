#pragma once

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace skv::cpu {

/// Every CPU/NIC/network cost constant in the simulation, in one place.
/// All durations are expressed in host-core time at the reference clock
/// (2.3 GHz Xeon Gold 5218, the paper's testbed); SmartNIC ARM cores scale
/// them by their Core::speed_factor (nic::SmartNicParams::core_slowdown).
///
/// The defaults are calibrated so the *shapes* of the paper's figures
/// emerge (see DESIGN.md §2 "Calibration targets"): TCP-Redis saturates
/// around 130 kops/s, RDMA-Redis above 330 kops/s, a 3-slave RDMA-Redis
/// master loses ~12-15% throughput to per-slave fan-out, and SKV recovers
/// it by posting a single work request per write.
struct CostModel {
    // --- host event loop ------------------------------------------------
    /// Event-loop dispatch per ready file event (epoll bookkeeping,
    /// callback indirection).
    sim::Duration event_dispatch{sim::nanoseconds(450)};
    /// Parsing one RESP command from the query buffer.
    sim::Duration cmd_parse{sim::nanoseconds(400)};
    /// Executing a read command (dict lookup, object access).
    sim::Duration cmd_exec_read{sim::nanoseconds(1100)};
    /// Executing a write command (dict insert/overwrite, object alloc).
    sim::Duration cmd_exec_write{sim::nanoseconds(1150)};
    /// Building a reply into the client's output buffer.
    sim::Duration reply_build{sim::nanoseconds(250)};

    // --- RDMA verbs -----------------------------------------------------
    /// ibv_post_send: building the WQE and ringing the doorbell (MMIO).
    sim::Duration wr_post{sim::nanoseconds(200)};
    /// Handling one completion from the CQ via the completion channel
    /// (ibv_get_cq_event + poll + ack + re-arm, amortized).
    sim::Duration completion_handle{sim::nanoseconds(220)};
    /// ibv_post_recv: posting one receive WQE (cheap, no doorbell batching
    /// modelled).
    sim::Duration recv_post{sim::nanoseconds(90)};
    /// ibv_reg_mr: registering / re-registering a buffer (page pinning).
    sim::Duration mr_register{sim::microseconds(2)};
    /// Probability that a doorbell ring stalls on MMIO/PCIe contention,
    /// and the stall cost. More WR posts per request (the baseline's
    /// per-slave fan-out) means more exposure to this tail.
    double wr_stall_prob = 0.015;
    sim::Duration wr_stall{sim::microseconds(5)};

    // --- replication ----------------------------------------------------
    /// Baseline master: feeding one slave's output buffer with a command
    /// (client object lookup, backlog append, buffer copy bookkeeping).
    sim::Duration repl_feed_slave{sim::nanoseconds(90)};
    /// Occasionally a slave's output buffer crosses a growth boundary and
    /// the master eats a realloc + copy, or the send path takes the slow
    /// path. Rare but large: this is what makes the baseline's *tail*
    /// disproportionally worse with fan-out (Fig. 7's ">25% tail" and
    /// Fig. 11's -21% p99) while barely moving the mean.
    double repl_feed_stall_prob = 0.004;
    sim::Duration repl_feed_stall{sim::microseconds(12)};
    /// SKV master: building the single replication request for Nic-KV.
    sim::Duration offload_request_build{sim::nanoseconds(450)};
    /// Nic-KV: parsing a replication request (binary framing, not RESP).
    sim::Duration nic_repl_parse{sim::nanoseconds(100)};
    /// Nic-KV: node-list lookup plus copying the command into one slave's
    /// send buffer.
    sim::Duration nic_repl_fanout_per_slave{sim::nanoseconds(90)};
    /// Slave: applying one replicated write command.
    sim::Duration slave_apply{sim::nanoseconds(900)};

    // --- memory ----------------------------------------------------------
    /// memcpy cost on the host (~20 GB/s effective including cache misses).
    double copy_ns_per_byte = 0.05;

    // --- kernel TCP path --------------------------------------------------
    /// Per send()/recv() syscall: user/kernel crossing, context switch,
    /// sk_buff handling.
    sim::Duration tcp_syscall{sim::nanoseconds(1600)};
    /// Extra kernel copies + checksum per byte on the TCP path.
    double tcp_copy_ns_per_byte = 0.18;
    /// Protocol processing (header encap/parse) per segment.
    sim::Duration tcp_proto{sim::nanoseconds(900)};

    // --- service jitter ----------------------------------------------------
    /// Multiplicative exponential jitter applied to host task costs:
    /// effective = base * (1 + Exp(jitter_frac)). Models cache misses,
    /// allocator slow paths and interrupt interference; produces realistic
    /// latency tails.
    double jitter_frac = 0.06;

    /// Apply multiplicative jitter to a base cost.
    [[nodiscard]] sim::Duration jittered(sim::Rng& rng, sim::Duration base) const {
        if (jitter_frac <= 0.0) return base;
        return base.scaled(1.0 + rng.next_exponential(jitter_frac));
    }

    /// Cost of copying `bytes` on a host core.
    [[nodiscard]] sim::Duration copy_cost(std::size_t bytes) const {
        return sim::Duration(
            static_cast<std::int64_t>(copy_ns_per_byte * static_cast<double>(bytes)));
    }

    /// Kernel-path cost of moving `bytes` through one send() or recv().
    [[nodiscard]] sim::Duration tcp_side_cost(std::size_t bytes) const {
        return tcp_syscall + tcp_proto +
               sim::Duration(static_cast<std::int64_t>(
                   tcp_copy_ns_per_byte * static_cast<double>(bytes)));
    }
};

} // namespace skv::cpu
