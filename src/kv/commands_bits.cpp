#include <algorithm>
#include <bit>

#include "kv/command.hpp"
#include "kv/sds.hpp"

namespace skv::kv {

namespace {

/// Redis bit numbering: bit 0 is the most significant bit of byte 0.
/// Offsets end at the largest bulk string a request may carry, the same cap
/// SETRANGE applies, so SETBIT cannot grow a string past it either.
constexpr std::size_t kMaxBitOffset =
    static_cast<std::size_t>(resp::RequestParser::kMaxBulk) * 8 - 1;

bool parse_bit_offset(CommandContext& ctx, const std::string& s,
                      std::size_t* offset) {
    const auto v = string2ll(s);
    if (!v.has_value() || *v < 0 ||
        static_cast<std::size_t>(*v) > kMaxBitOffset) {
        ctx.reply_error("ERR bit offset is not an integer or out of range");
        return false;
    }
    *offset = static_cast<std::size_t>(*v);
    return true;
}

void cmd_setbit(CommandContext& ctx) {
    std::size_t offset;
    if (!parse_bit_offset(ctx, ctx.argv[2], &offset)) return;
    const auto bit = string2ll(ctx.argv[3]);
    if (!bit.has_value() || (*bit != 0 && *bit != 1)) {
        ctx.reply_error("ERR bit is not an integer or out of range");
        return;
    }
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    std::string value = o == nullptr ? std::string() : o->string_value();
    const std::size_t byte = offset >> 3;
    if (value.size() <= byte) value.resize(byte + 1, '\0');
    const int shift = 7 - static_cast<int>(offset & 7);
    const int old = (static_cast<unsigned char>(value[byte]) >> shift) & 1;
    if (*bit) {
        value[byte] = static_cast<char>(value[byte] | (1 << shift));
    } else {
        value[byte] = static_cast<char>(value[byte] & ~(1 << shift));
    }
    ctx.db.set_keep_ttl(ctx.argv[1], Object::make_string(value));
    ctx.dirty = true;
    ctx.reply_integer(old);
}

void cmd_getbit(CommandContext& ctx) {
    std::size_t offset;
    if (!parse_bit_offset(ctx, ctx.argv[2], &offset)) return;
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    if (o == nullptr) {
        ctx.reply_integer(0);
        return;
    }
    char buf[kLongStrSize];
    const std::string_view value = o->value_view(buf);
    const std::size_t byte = offset >> 3;
    if (byte >= value.size()) {
        ctx.reply_integer(0);
        return;
    }
    const int shift = 7 - static_cast<int>(offset & 7);
    ctx.reply_integer((static_cast<unsigned char>(value[byte]) >> shift) & 1);
}

void cmd_bitcount(CommandContext& ctx) {
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    if (o == nullptr) {
        ctx.reply_integer(0);
        return;
    }
    char buf[kLongStrSize];
    const std::string_view value = o->value_view(buf);
    std::ptrdiff_t start = 0;
    std::ptrdiff_t end = static_cast<std::ptrdiff_t>(value.size()) - 1;
    if (ctx.argv.size() == 4) {
        const auto s = string2ll(ctx.argv[2]);
        const auto e = string2ll(ctx.argv[3]);
        if (!s.has_value() || !e.has_value()) {
            ctx.reply_error("ERR value is not an integer or out of range");
            return;
        }
        const auto len = static_cast<std::ptrdiff_t>(value.size());
        start = *s < 0 ? std::max<std::ptrdiff_t>(len + *s, 0)
                       : static_cast<std::ptrdiff_t>(*s);
        end = *e < 0 ? len + *e : static_cast<std::ptrdiff_t>(*e);
        if (end >= len) end = len - 1;
    } else if (ctx.argv.size() != 2) {
        ctx.reply_error("ERR syntax error");
        return;
    }
    long long count = 0;
    for (std::ptrdiff_t i = start; i <= end && i >= 0 &&
                                   i < static_cast<std::ptrdiff_t>(value.size());
         ++i) {
        count += std::popcount(
            static_cast<unsigned>(static_cast<unsigned char>(value[static_cast<std::size_t>(i)])));
    }
    ctx.reply_integer(count);
}

void cmd_bitpos(CommandContext& ctx) {
    const auto bit = string2ll(ctx.argv[2]);
    if (!bit.has_value() || (*bit != 0 && *bit != 1)) {
        ctx.reply_error("ERR The bit argument must be 1 or 0.");
        return;
    }
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    if (o == nullptr) {
        // Missing key is all-zeros: first 0 is at position 0; no 1 exists.
        ctx.reply_integer(*bit == 0 ? 0 : -1);
        return;
    }
    char buf[kLongStrSize];
    const std::string_view value = o->value_view(buf);
    const bool has_range = ctx.argv.size() >= 4;
    std::ptrdiff_t start = 0;
    std::ptrdiff_t end = static_cast<std::ptrdiff_t>(value.size()) - 1;
    if (has_range) {
        const auto s = string2ll(ctx.argv[3]);
        if (!s.has_value()) {
            ctx.reply_error("ERR value is not an integer or out of range");
            return;
        }
        const auto len = static_cast<std::ptrdiff_t>(value.size());
        start = *s < 0 ? std::max<std::ptrdiff_t>(len + *s, 0)
                       : static_cast<std::ptrdiff_t>(*s);
        if (ctx.argv.size() == 5) {
            const auto e = string2ll(ctx.argv[4]);
            if (!e.has_value()) {
                ctx.reply_error("ERR value is not an integer or out of range");
                return;
            }
            end = *e < 0 ? len + *e : static_cast<std::ptrdiff_t>(*e);
            if (end >= len) end = len - 1;
        }
    }
    for (std::ptrdiff_t i = start;
         i <= end && i < static_cast<std::ptrdiff_t>(value.size()); ++i) {
        const auto byte = static_cast<unsigned char>(value[static_cast<std::size_t>(i)]);
        for (int b = 7; b >= 0; --b) {
            if (((byte >> b) & 1) == *bit) {
                ctx.reply_integer(i * 8 + (7 - b));
                return;
            }
        }
    }
    // Looking for a 0 past the end of the string (without an explicit end
    // range) finds one in the implicit zero padding.
    if (*bit == 0 && !has_range) {
        ctx.reply_integer(static_cast<long long>(value.size()) * 8);
        return;
    }
    ctx.reply_integer(-1);
}

void cmd_bitop(CommandContext& ctx) {
    const std::string& op = ctx.argv[1];
    const bool is_not = iequals(op, "NOT");
    const bool is_and = iequals(op, "AND");
    const bool is_or = iequals(op, "OR");
    const bool is_xor = iequals(op, "XOR");
    if (!is_not && !is_and && !is_or && !is_xor) {
        ctx.reply_error("ERR syntax error");
        return;
    }
    if (is_not && ctx.argv.size() != 4) {
        ctx.reply_error("ERR BITOP NOT must be called with a single source key.");
        return;
    }
    std::vector<std::string> srcs;
    for (std::size_t i = 3; i < ctx.argv.size(); ++i) {
        ObjectPtr o = ctx.db.lookup(ctx.argv[i]);
        srcs.push_back(o == nullptr ? std::string() : o->string_value());
    }
    std::size_t maxlen = 0;
    for (const auto& s : srcs) maxlen = std::max(maxlen, s.size());

    std::string out(maxlen, '\0');
    for (std::size_t i = 0; i < maxlen; ++i) {
        auto byte_at = [&](std::size_t src) -> unsigned char {
            return i < srcs[src].size()
                       ? static_cast<unsigned char>(srcs[src][i])
                       : 0;
        };
        unsigned char acc = byte_at(0);
        if (is_not) {
            acc = static_cast<unsigned char>(~acc);
        } else {
            for (std::size_t s = 1; s < srcs.size(); ++s) {
                const unsigned char b = byte_at(s);
                if (is_and) acc &= b;
                if (is_or) acc |= b;
                if (is_xor) acc ^= b;
            }
        }
        out[i] = static_cast<char>(acc);
    }
    if (maxlen == 0) {
        ctx.db.remove(ctx.argv[2]);
    } else {
        ctx.db.set(ctx.argv[2], Object::make_string(out));
    }
    ctx.dirty = true;
    ctx.reply_integer(static_cast<long long>(maxlen));
}

} // namespace

void register_bit_commands(CommandTable& t) {
    t.add({"SETBIT", 4, kCmdWrite, cmd_setbit});
    t.add({"GETBIT", 3, kCmdRead, cmd_getbit});
    t.add({"BITCOUNT", -2, kCmdRead, cmd_bitcount});
    t.add({"BITPOS", -3, kCmdRead, cmd_bitpos});
    t.add({"BITOP", -4, kCmdWrite, cmd_bitop});
}

} // namespace skv::kv
