#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "net/channel.hpp"
#include "rdma/verbs.hpp"

namespace skv::rdma {

/// Tuning knobs for one direction of a ring channel.
struct RingParams {
    /// Receive-ring capacity per side.
    std::size_t ring_bytes = 256 * 1024;
    /// Receiver returns credits once this many bytes have been consumed.
    std::size_t credit_threshold = 64 * 1024;
    /// Posted-receive high/low water marks.
    std::size_t recv_batch = 64;
    std::size_t recv_low_water = 16;
};

/// The SKV RDMA messenger (paper §III-B): each peer registers a circular
/// receive buffer; the sender pushes frames with WRITE_WITH_IMM (the
/// immediate carries the frame length, notifying the receiver its memory
/// was written); when the receive ring fills, the receiver re-registers
/// the MR and returns credits with a SEND, after which transmission
/// resumes — "after sending the MR information to the other node with the
/// SEND operation, the previous communication process continues".
///
/// Implements net::Channel so servers run identically over TCP and RDMA.
class RingChannel final : public net::Channel,
                          public std::enable_shared_from_this<RingChannel> {
public:
    RingChannel(RdmaNetwork& net, net::NodeRef self, net::EndpointId peer,
                RingParams params);

    /// Allocate local resources (CQs, recv MR). Called by the CM before the
    /// remote ring information is known.
    void init_local();
    /// Learn the peer ring (from the MR-exchange handshake) and wire QPs.
    void attach(QueuePairPtr own_qp, std::uint32_t remote_rkey,
                std::size_t remote_capacity);

    // --- net::Channel ----------------------------------------------------
    void send(std::string_view payload) override;
    void set_on_message(MessageHandler handler) override;
    void close() override;
    [[nodiscard]] bool open() const override { return open_; }
    [[nodiscard]] net::EndpointId peer() const override { return peer_; }
    [[nodiscard]] std::size_t backlog_bytes() const override { return backlog_bytes_; }

    /// Move this channel's processing (completion handling, WR posting) to
    /// another core on the same endpoint. Nic-KV uses this to spread slave
    /// channels across ARM cores in multi-threaded replication mode.
    void rebind_core(cpu::Core* core) { self_.core = core; }

    // --- introspection for tests and stats --------------------------------
    [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
    [[nodiscard]] std::uint64_t frames_received() const { return frames_received_; }
    [[nodiscard]] std::uint64_t credit_messages() const { return credit_msgs_; }
    [[nodiscard]] std::uint64_t mr_reregistrations() const { return reregs_; }
    [[nodiscard]] std::uint64_t lost_gap_bytes() const { return lost_gap_bytes_; }
    [[nodiscard]] const MemoryRegionPtr& recv_mr() const { return recv_mr_; }
    [[nodiscard]] const CompletionQueuePtr& send_cq() const { return send_cq_; }
    [[nodiscard]] const CompletionQueuePtr& recv_cq() const { return recv_cq_; }

private:
    /// Credit-return control frame: 8-byte little-endian byte count.
    static std::string encode_credit(std::uint64_t bytes);
    static std::uint64_t decode_credit(std::string_view payload);

    /// Payloads larger than a quarter of the ring are fragmented; each
    /// ring frame carries a 1-byte header: kFinal completes a message,
    /// kMore announces continuation (RDB snapshots during initial sync
    /// are far larger than the ring).
    static constexpr char kFinal = 'F';
    static constexpr char kMore = 'M';
    [[nodiscard]] std::size_t max_fragment() const {
        return params_.ring_bytes / 4;
    }

    void replenish_recvs();
    void pump_backlog();
    void transmit(std::string payload);
    void on_cq_event();
    void handle_completion(const Completion& c);
    void handle_data(const Completion& c);
    void maybe_return_credits();

    RdmaNetwork& net_;
    net::NodeRef self_;
    net::EndpointId peer_;
    RingParams params_;
    sim::Rng rng_;

    std::shared_ptr<CompletionChannel> channel_;
    CompletionQueuePtr send_cq_;
    CompletionQueuePtr recv_cq_;
    QueuePairPtr qp_;
    MemoryRegionPtr recv_mr_;

    // Sender state for the remote ring. Credits carry the receiver's
    // cumulative consumed-byte total, so a lost or duplicated credit frame
    // cannot permanently shrink (or inflate) the send window.
    std::uint32_t remote_rkey_ = 0;
    std::size_t remote_capacity_ = 0;
    std::size_t write_cursor_ = 0;
    std::size_t free_space_ = 0;
    std::uint64_t sent_total_ = 0;     // cumulative bytes pushed to peer ring
    std::uint64_t credited_total_ = 0; // highest cumulative credit received
    std::deque<std::string> backlog_;
    std::size_t backlog_bytes_ = 0;

    // Receiver state for the local ring.
    std::size_t read_cursor_ = 0;
    std::uint64_t total_consumed_ = 0; // cumulative, includes loss holes
    std::size_t consumed_since_credit_ = 0;
    std::size_t batch_data_bytes_ = 0; // data consumed by the current CQ batch
    std::size_t posted_recvs_ = 0;
    std::uint64_t next_wr_id_ = 1;

    MessageHandler on_message_;
    std::string reassembly_; // accumulates kMore fragments
    // Set when a loss hole is detected: frames up to the next kFinal may be
    // a tail whose head is gone, so they are consumed but not delivered.
    bool discard_until_final_ = false;
    std::deque<std::string> pending_;
    bool open_ = true;
    bool cq_task_scheduled_ = false;

    std::uint64_t frames_sent_ = 0;
    std::uint64_t frames_received_ = 0;
    std::uint64_t credit_msgs_ = 0;
    std::uint64_t reregs_ = 0;
    std::uint64_t lost_gap_bytes_ = 0;
    // Lazily registered tracer track for completion-wakeup spans.
    std::uint32_t obs_track_ = UINT32_MAX;
};

using RingChannelPtr = std::shared_ptr<RingChannel>;

} // namespace skv::rdma
