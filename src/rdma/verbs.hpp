#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/cost_model.hpp"
#include "net/channel.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"

namespace skv::rdma {

/// RDMA operation kinds modelled by the simulator. The subset SKV uses:
/// SEND/RECV for control (MR exchange, credits), WRITE_WITH_IMM for the
/// request/reply and replication data path, READ for completeness and the
/// Fig. 3 microbenchmark.
enum class Opcode : std::uint8_t {
    kSend,
    kWrite,
    kWriteWithImm,
    kRead,
    kRecv, // only appears in completions
};

const char* to_string(Opcode op);

/// One completion queue entry (the ibv_wc analogue).
struct Completion {
    std::uint64_t wr_id = 0;
    Opcode op = Opcode::kSend;
    bool success = true;
    bool has_imm = false;
    std::uint32_t imm = 0;
    std::uint32_t byte_len = 0;
    /// For RECV completions triggered by WRITE_WITH_IMM: the ring offset the
    /// sender wrote to. Real receivers know this implicitly because the RC
    /// transport never loses frames; under injected loss the ring messenger
    /// needs it to detect holes and resynchronize its read cursor.
    std::uint64_t remote_offset = 0;
    /// For RECV completions triggered by SEND: the received payload
    /// (already copied into the posted receive buffer; duplicated here so
    /// control-plane handlers need not track buffer offsets).
    std::string inline_payload;
};

class RdmaNetwork;

/// A registered memory region. Remote WRITEs land in it; ring messengers
/// use the *_wrapped accessors to treat it as a circular buffer.
///
/// The bytes are held in kPageBytes pages, each allocated (zeroed) on the
/// first write that touches it. A page never written reads as zeros and
/// costs nothing, so a ring that has carried a few small frames holds only
/// the pages those frames touched instead of its whole capacity.
class MemoryRegion : public std::enable_shared_from_this<MemoryRegion> {
public:
    static constexpr std::size_t kPageBytes = 4096;

    MemoryRegion(std::uint32_t rkey, std::size_t size);
    MemoryRegion(const MemoryRegion&) = delete;
    MemoryRegion& operator=(const MemoryRegion&) = delete;
    ~MemoryRegion();

    /// MR objects currently alive (lifetime regression accounting).
    [[nodiscard]] static long live_count() { return live_count_; }

    [[nodiscard]] std::uint32_t rkey() const { return rkey_; }
    [[nodiscard]] std::size_t size() const { return size_; }

    void write(std::size_t offset, std::string_view bytes);
    [[nodiscard]] std::string read(std::size_t offset, std::size_t len) const;

    /// Circular variants: offset is taken modulo size and the payload wraps.
    void write_wrapped(std::size_t offset, std::string_view bytes);
    [[nodiscard]] std::string read_wrapped(std::size_t offset, std::size_t len) const;
    /// The byte at `offset` modulo size.
    [[nodiscard]] char at_wrapped(std::size_t offset) const;
    /// Append `len` bytes starting at `offset` (modulo size, wrapping) to
    /// `out`: read_wrapped without the temporary.
    void append_wrapped(std::size_t offset, std::size_t len, std::string& out) const;

private:
    friend class RdmaNetwork;

    /// Call fn(page, offset_in_page, n) for each run of `len` bytes from
    /// `offset` (< size) that stays within one page and before the end,
    /// wrapping to offset 0 at the end.
    template <typename Fn>
    void for_each_run(std::size_t offset, std::size_t len, Fn&& fn) const;
    void store(std::size_t offset, std::string_view bytes);

    inline static long live_count_ = 0;
    std::uint32_t rkey_;
    std::size_t size_;
    std::vector<std::unique_ptr<char[]>> pages_; // null until first written
    /// The network whose rkey table points at this MR; cleared when the
    /// MR is deregistered or the network dies first.
    RdmaNetwork* registry_ = nullptr;
};

using MemoryRegionPtr = std::shared_ptr<MemoryRegion>;

class CompletionQueue;

/// The completion event channel (ibv_comp_channel): instead of polling the
/// CQ, the owner arms the channel (ibv_req_notify_cq) and gets exactly one
/// callback when the next completion lands, then must re-arm. SKV uses this
/// to avoid burning host CPU on polling (paper §III-B).
class CompletionChannel {
public:
    explicit CompletionChannel(sim::Simulation& sim) : sim_(sim) {}

    void set_on_event(std::function<void()> fn) { on_event_ = std::move(fn); }

    /// Arm the channel: the next completion pushed to an attached CQ fires
    /// the callback once.
    void req_notify() { armed_ = true; }

private:
    friend class CompletionQueue;
    void fire();

    sim::Simulation& sim_;
    std::function<void()> on_event_;
    bool armed_ = false;
};

/// Completion queue. Completions accumulate until polled. The CQ shares
/// ownership of its event channel: in-flight work requests hold the CQ
/// alive past the owning messenger's death, and a push() must still find a
/// live channel to (not) fire.
class CompletionQueue {
public:
    explicit CompletionQueue(std::shared_ptr<CompletionChannel> channel = nullptr)
        : channel_(std::move(channel)) {}

    void push(Completion c);

    /// Hand each completion queued when the call starts, oldest first and
    /// up to `max` (0 = all), to fn(const Completion&) in place, then
    /// remove it. Completions pushed while fn runs wait for the next drain,
    /// as a poll sees only what had landed. Returns how many were handed.
    template <typename Fn>
    std::size_t drain(Fn&& fn, std::size_t max = 0) {
        const std::size_t n =
            (max == 0) ? queue_.size() : std::min(max, queue_.size());
        for (std::size_t i = 0; i < n; ++i) {
            const Completion& c = queue_.front();
            fn(c);
            queue_.pop_front();
        }
        return n;
    }

    /// Drain up to `max` completions (0 = all) into a vector.
    std::vector<Completion> poll(std::size_t max = 0);

    /// Discard every queued completion.
    void clear() { queue_.clear(); }

    [[nodiscard]] std::size_t depth() const { return queue_.size(); }

private:
    std::shared_ptr<CompletionChannel> channel_;
    std::deque<Completion> queue_;
};

using CompletionQueuePtr = std::shared_ptr<CompletionQueue>;

/// A work request handed to QueuePair::post_send.
struct SendWr {
    std::uint64_t wr_id = 0;
    Opcode op = Opcode::kSend;
    std::string payload;            // bytes to transfer (SEND/WRITE)
    std::uint32_t rkey = 0;         // target MR for WRITE/READ
    std::size_t remote_offset = 0;  // offset within the target MR
    std::size_t read_len = 0;       // for READ
    bool wrapped = false;           // circular-buffer WRITE
    bool has_imm = false;
    std::uint32_t imm = 0;
    bool signaled = true;           // generate a send completion
};

/// A reliable-connected queue pair. Two QPs are wired together by the
/// connection manager; posting to one delivers to the other across the
/// simulated fabric. Posting charges the owner core the WR-post cost
/// (doorbell + WQE build), which is exactly the per-slave cost SKV
/// eliminates on the master by offloading fan-out to the NIC.
class QueuePair : public std::enable_shared_from_this<QueuePair> {
public:
    QueuePair(RdmaNetwork& net, net::NodeRef self, CompletionQueuePtr send_cq,
              CompletionQueuePtr recv_cq);
    QueuePair(const QueuePair&) = delete;
    QueuePair& operator=(const QueuePair&) = delete;
    ~QueuePair() { --live_count_; }

    /// QP objects currently alive (lifetime regression accounting; posted
    /// receive WQEs and RNR-queued inbounds die with their QP).
    [[nodiscard]] static long live_count() { return live_count_; }

    /// Wire this QP to its peer (done by the CM for both directions).
    void connect_to(const std::shared_ptr<QueuePair>& peer);

    /// Post a receive buffer (consumed by inbound SEND or WRITE_WITH_IMM).
    void post_recv(std::uint64_t wr_id, MemoryRegionPtr mr, std::size_t offset,
                   std::size_t len);

    /// Post a send-side work request.
    void post_send(SendWr wr);

    [[nodiscard]] bool connected() const { return !peer_.expired(); }
    [[nodiscard]] net::NodeRef self() const { return self_; }
    [[nodiscard]] CompletionQueuePtr send_cq() const { return send_cq_; }
    [[nodiscard]] CompletionQueuePtr recv_cq() const { return recv_cq_; }
    [[nodiscard]] std::size_t posted_recvs() const { return recv_queue_.size(); }

    void disconnect();

private:
    friend class RdmaNetwork;

    struct RecvWqe {
        std::uint64_t wr_id;
        MemoryRegionPtr mr;
        std::size_t offset;
        std::size_t len;
    };

    struct Inbound {
        Opcode op;
        std::string payload;
        std::uint32_t rkey = 0;
        std::size_t remote_offset = 0;
        bool wrapped = false;
        bool has_imm = false;
        std::uint32_t imm = 0;
    };

    /// Put a built WQE on the wire (runs after the doorbell cost elapses).
    void launch(std::shared_ptr<QueuePair> peer, Inbound in,
                std::size_t wire_bytes, std::uint64_t wr_id, Opcode op,
                bool signaled, std::size_t read_len);
    /// Handle an arriving message on the receive side.
    void arrive(Inbound in);
    /// Match an inbound SEND/IMM against a posted receive; queue if none
    /// (RNR condition — resolved when the next recv is posted).
    void consume_recv(Inbound in);

    inline static long live_count_ = 0;
    RdmaNetwork& net_;
    net::NodeRef self_;
    CompletionQueuePtr send_cq_;
    CompletionQueuePtr recv_cq_;
    std::weak_ptr<QueuePair> peer_;
    std::deque<RecvWqe> recv_queue_;
    std::deque<Inbound> rnr_queue_;
};

using QueuePairPtr = std::shared_ptr<QueuePair>;

/// Owns fabric access, the rkey -> MR registry and cost accounting shared
/// by all RDMA objects. One per simulation.
class RdmaNetwork {
public:
    RdmaNetwork(sim::Simulation& sim, net::Fabric& fabric,
                const cpu::CostModel& costs);
    RdmaNetwork(const RdmaNetwork&) = delete;
    RdmaNetwork& operator=(const RdmaNetwork&) = delete;
    ~RdmaNetwork();

    /// Register `size` bytes of memory; returns the MR (rkey assigned).
    /// Charges the registration cost to `node`'s core. Registration does
    /// not extend the MR's life: an MR whose owner died (e.g. an abandoned
    /// half-open handshake) is reclaimed with the owner and its rkey then
    /// resolves to nothing.
    MemoryRegionPtr register_mr(net::NodeRef node, std::size_t size);

    /// Drop the registry entry; remote WRITEs targeting the rkey are then
    /// discarded in flight (counted in writes_unknown_mr()). Called from
    /// channel close() teardown.
    void deregister_mr(std::uint32_t rkey);

    /// The live MR registered under `rkey`, or null if the rkey was never
    /// issued, was deregistered, or its MR is gone.
    [[nodiscard]] MemoryRegionPtr lookup_mr(std::uint32_t rkey) const;

    /// Inbound WRITE/WRITE_WITH_IMM ops that targeted an unknown (e.g.
    /// deregistered) rkey and were dropped.
    [[nodiscard]] std::uint64_t writes_unknown_mr() const {
        return writes_unknown_mr_;
    }
    void count_unknown_mr_write() { ++writes_unknown_mr_; }

    [[nodiscard]] sim::Simulation& simulation() { return sim_; }
    [[nodiscard]] net::Fabric& fabric() { return fabric_; }
    [[nodiscard]] const cpu::CostModel& costs() const { return costs_; }
    [[nodiscard]] sim::Rng& rng() { return rng_; }

    /// One-way hardware ACK latency for send completions (RC QPs complete a
    /// signaled WR when the remote NIC acks, no remote CPU involved).
    static constexpr sim::Duration kAckLatency = sim::nanoseconds(900);

    /// Per-WR cost charged at post time for endpoint `ep`. Host endpoints
    /// ring the doorbell over PCIe MMIO and occasionally stall on it;
    /// SmartNIC companion endpoints post to their own on-die NIC engine —
    /// cheaper and never exposed to PCIe contention.
    sim::Duration wr_post_cost(net::EndpointId ep);
    /// Cost of posting one receive WQE.
    sim::Duration recv_post_cost();

    /// RoCE header overhead added to payload size on the wire.
    static constexpr std::size_t kHeaderBytes = 58; // Eth+IP+UDP+BTH(+RETH)

    /// RDMA-layer metrics: `wr_posts`, every work request posted
    /// (pre-resolved to an obs handle at construction).
    [[nodiscard]] obs::Registry& obs() { return obs_; }
    /// Observability tracer shared by all RDMA objects of this network;
    /// RingChannels record completion-channel wakeup spans through it.
    void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
    [[nodiscard]] obs::Tracer* tracer() { return tracer_; }

private:
    friend class QueuePair;
    friend class MemoryRegion;

    /// lookup_mr without the shared_ptr: the per-WRITE path.
    [[nodiscard]] MemoryRegion* find_mr(std::uint32_t rkey) const {
        const std::size_t i = static_cast<std::size_t>(rkey) - 1;
        return i < mrs_.size() ? mrs_[i] : nullptr;
    }

    sim::Simulation& sim_;
    net::Fabric& fabric_;
    const cpu::CostModel& costs_;
    sim::Rng rng_;
    std::uint64_t writes_unknown_mr_ = 0;
    /// The MR registered under rkey i + 1 (rkeys are issued sequentially
    /// from 1 and never reused), or null once it was deregistered or
    /// destroyed. A plain pointer that never dangles: a dying MR clears its
    /// own slot, and this network detaches every MR it still points at when
    /// it dies first. One slot per registration for the network's life.
    std::vector<MemoryRegion*> mrs_;
    obs::Registry obs_;
    obs::Counter c_wr_posts_;
    obs::Tracer* tracer_ = nullptr;
};

} // namespace skv::rdma
