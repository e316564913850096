#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/fabric.hpp"

namespace skv::server {

/// Framing for server-to-server and server-to-NIC messages (replication,
/// synchronization, probes). Client traffic speaks RESP; the internal
/// control plane uses this compact tagged framing, which is what Nic-KV
/// parses on the SmartNIC ("binary framing, not RESP" — see
/// CostModel::nic_repl_parse).
///
/// Wire form: 1 tag byte + 8-byte little-endian i64 field + body bytes.
struct NodeMsg {
    enum class Type : char {
        // Slave -> Nic-KV: initial synchronization request. field = the
        // slave's replication offset; body = "<name>" of the slave.
        kInitSync = 'I',
        // Nic-KV -> master: a slave wants to synchronize. field = slave
        // offset; body = slave name.
        kSyncNotify = 'N',
        // Master -> slave (direct): full snapshot. field = master offset at
        // snapshot time; body = RDB bytes.
        kFullSync = 'F',
        // Master -> slave (direct): backlog range. field = start offset;
        // body = raw replication stream bytes.
        kBacklog = 'B',
        // Master -> Nic-KV (SKV) or master -> slave (baseline): replication
        // stream data. field = stream offset of the first byte; body = one
        // or more RESP-encoded write commands.
        kReplData = 'R',
        // Slave -> master: progress report. field = slave offset.
        kAck = 'K',
        // Nic-KV -> any node: liveness probe. field = probe sequence.
        kProbe = 'P',
        // Node -> Nic-KV: probe reply. field = probe sequence; body =
        // "<role>:<offset>".
        kProbeAck = 'A',
        // Nic-KV -> master: slave recovered behind the stream, serve it a
        // partial resync. field = slave offset; body = slave name.
        kResyncRequest = 'S',
        // Nic-KV -> slave: assume mastership / step back down.
        kPromote = 'U',
        kDemote = 'D',
        // Baseline protocol: slave -> master over its own channel.
        // field = slave offset; body = slave name.
        kSync = 'Y',
        // Nic-KV -> master: failure-detector status. field = number of
        // available slaves; body = comma-separated invalid slave names.
        kSlaveCount = 'C',
        // --- replication protocol menu (DESIGN.md §13) -------------------
        // Nic-KV -> slave (chain mode): successor assignment after a chain
        // (re-)splice. field = the NIC's fan-out cursor at assignment time,
        // which becomes the member's read floor; body = successor
        // "<name>@<ep>", "" for the tail, "-" to leave the chain (the
        // master died and commits no longer flow through it).
        kChainSet = 'H',
        // Chain-forward replication data: Nic-KV -> head, then each member
        // to its successor. Same payload shape as kReplData: field = stream
        // offset of the first byte; body = RESP-encoded write commands.
        kChainData = 'X',
        // Slave -> Nic-KV (quorum mode): per-apply progress report feeding
        // the NIC-side ack aggregation. field = applied offset; body =
        // slave name.
        kQuorumAck = 'Q',
        // Nic-KV -> master (quorum mode): majority watermark. field = the
        // highest offset acknowledged by a slave majority (counting the
        // master's own copy toward the replica majority).
        kQuorumCommit = 'M',
        // Master -> Nic-KV (quorum mode): ABD read-phase write-back. A
        // parked read pushes the not-yet-majority backlog suffix back
        // through the NIC so the state it observed reaches a majority
        // before the reply releases. field = start offset; body = stream
        // bytes. The NIC re-fans it to lagging replicas as kReplData.
        kReadRepair = 'E',
    };

    Type type;
    std::int64_t field = 0;
    std::string body;

    [[nodiscard]] std::string encode() const;
    static std::optional<NodeMsg> decode(std::string_view wire);
};

/// Every NodeMsg::Type, exactly once. decode() validates incoming tag bytes
/// against this list and the protocol tests derive tag-uniqueness and
/// round-trip coverage from it, so a new enum value only needs to be added
/// here (simlint's unhandled-tag rule fails the build if the list or any
/// dispatch switch goes stale).
inline constexpr NodeMsg::Type kNodeMsgTypes[] = {
    NodeMsg::Type::kInitSync,   NodeMsg::Type::kSyncNotify,
    NodeMsg::Type::kFullSync,   NodeMsg::Type::kBacklog,
    NodeMsg::Type::kReplData,   NodeMsg::Type::kAck,
    NodeMsg::Type::kProbe,      NodeMsg::Type::kProbeAck,
    NodeMsg::Type::kResyncRequest, NodeMsg::Type::kPromote,
    NodeMsg::Type::kDemote,     NodeMsg::Type::kSync,
    NodeMsg::Type::kSlaveCount, NodeMsg::Type::kChainSet,
    NodeMsg::Type::kChainData,  NodeMsg::Type::kQuorumAck,
    NodeMsg::Type::kQuorumCommit, NodeMsg::Type::kReadRepair,
};

/// The endpoint of a peer identity "<name>@<endpoint>" (registration,
/// sync-notify and chain-successor bodies): net::kInvalidEndpoint without
/// '@', nullopt when the text after it is no endpoint number (malformed).
/// strtoul's grammar, so bodies std::stoul accepted parse as before.
std::optional<net::EndpointId> parse_peer_endpoint(std::string_view ident);

/// Duplicate-suppression token for client write retries. A retrying client
/// prefixes each write with `WSEQ <client> <seq>`; a server that already
/// executed (client, seq) replays the cached reply instead of re-applying
/// the command, which is what makes write retries across a master crash /
/// failover exactly-once. The token is replicated to slaves inside the
/// stream (`WSEQR <client> <seq> <reply>` prefix), so a promoted stand-in
/// suppresses retries of writes it already received via fan-out.
struct WriteTag {
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
};

/// If `argv` carries the client-side `WSEQ` envelope, strip it in place
/// (argv becomes the real command) and fill `tag`. Returns false — with
/// argv untouched — for untagged or malformed commands.
bool strip_write_tag(std::vector<std::string>& argv, WriteTag* tag);

/// Build the replicated form of a tagged write for the repl stream:
/// `WSEQR <client> <seq> <reply>` + the command's repl argv.
[[nodiscard]] std::vector<std::string> make_replicated_tagged(
    const WriteTag& tag, const std::string& reply,
    const std::vector<std::string>& repl_argv);

/// Slave side of make_replicated_tagged: strip the `WSEQR` envelope in
/// place, filling `tag` and the master's cached `reply`. Returns false —
/// argv untouched — for untagged stream commands.
bool strip_replicated_tag(std::vector<std::string>& argv, WriteTag* tag,
                          std::string* reply);

} // namespace skv::server
