#include "server/protocol.hpp"

#include <cerrno>
#include <cstdlib>

#include "net/wire.hpp"

namespace skv::server {

std::string NodeMsg::encode() const {
    std::string out;
    out.reserve(9 + body.size());
    out.push_back(static_cast<char>(type));
    net::put_le(out, static_cast<std::uint64_t>(field));
    out += body;
    return out;
}

std::optional<NodeMsg> NodeMsg::decode(std::string_view wire) {
    if (wire.size() < 9) return std::nullopt;
    NodeMsg m;
    m.type = static_cast<Type>(wire[0]);
    bool known = false;
    for (const Type t : kNodeMsgTypes) {
        if (t == m.type) {
            known = true;
            break;
        }
    }
    if (!known) return std::nullopt;
    m.field = static_cast<std::int64_t>(net::get_le(wire, 1));
    m.body = std::string(wire.substr(9));
    return m;
}

std::optional<net::EndpointId> parse_peer_endpoint(std::string_view ident) {
    const auto at = ident.find('@');
    if (at == std::string_view::npos) return net::kInvalidEndpoint;
    const std::string digits(ident.substr(at + 1));
    char* end = nullptr;
    errno = 0;
    const unsigned long ep = std::strtoul(digits.c_str(), &end, 10);
    if (end == digits.c_str() || errno == ERANGE) return std::nullopt;
    return static_cast<net::EndpointId>(ep);
}

namespace {

bool parse_u64(const std::string& s, std::uint64_t* out) {
    if (s.empty() || s.size() > 20) return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9') return false;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10) return false;
        v = v * 10 + digit;
    }
    *out = v;
    return true;
}

} // namespace

bool strip_write_tag(std::vector<std::string>& argv, WriteTag* tag) {
    if (argv.size() < 4 || argv[0] != "WSEQ") return false;
    WriteTag t;
    if (!parse_u64(argv[1], &t.client) || !parse_u64(argv[2], &t.seq)) {
        return false;
    }
    argv.erase(argv.begin(), argv.begin() + 3);
    *tag = t;
    return true;
}

std::vector<std::string> make_replicated_tagged(
    const WriteTag& tag, const std::string& reply,
    const std::vector<std::string>& repl_argv) {
    std::vector<std::string> out;
    out.reserve(repl_argv.size() + 4);
    out.emplace_back("WSEQR");
    out.push_back(std::to_string(tag.client));
    out.push_back(std::to_string(tag.seq));
    out.push_back(reply);
    out.insert(out.end(), repl_argv.begin(), repl_argv.end());
    return out;
}

bool strip_replicated_tag(std::vector<std::string>& argv, WriteTag* tag,
                          std::string* reply) {
    if (argv.size() < 5 || argv[0] != "WSEQR") return false;
    WriteTag t;
    if (!parse_u64(argv[1], &t.client) || !parse_u64(argv[2], &t.seq)) {
        return false;
    }
    *reply = argv[3];
    argv.erase(argv.begin(), argv.begin() + 4);
    *tag = t;
    return true;
}

} // namespace skv::server
