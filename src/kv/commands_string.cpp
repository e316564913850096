#include <climits>
#include <cmath>
#include <cstdio>

#include "kv/command.hpp"
#include "kv/sds.hpp"

namespace skv::kv {

namespace {

/// Shared SET machinery: options parsed per the real SET grammar.
struct SetOptions {
    bool nx = false;
    bool xx = false;
    bool keep_ttl = false;
    std::optional<std::int64_t> expire_at_ms;
    bool bad = false;
};

SetOptions parse_set_options(CommandContext& ctx, std::size_t first) {
    SetOptions o;
    const auto& argv = ctx.argv;
    for (std::size_t i = first; i < argv.size(); ++i) {
        const std::string& a = argv[i];
        if (iequals(a, "NX")) {
            o.nx = true;
        } else if (iequals(a, "XX")) {
            o.xx = true;
        } else if (iequals(a, "KEEPTTL")) {
            o.keep_ttl = true;
        } else if ((iequals(a, "EX") || iequals(a, "PX")) && i + 1 < argv.size()) {
            const auto v = string2ll(argv[i + 1]);
            if (!v.has_value() || *v <= 0) {
                ctx.reply_error("ERR invalid expire time in 'set' command");
                o.bad = true;
                return o;
            }
            o.expire_at_ms = ctx.expire_deadline(*v, iequals(a, "EX") ? 1000 : 1, false);
            if (!o.expire_at_ms.has_value()) {
                o.bad = true;
                return o;
            }
            ++i;
        } else {
            ctx.reply_error("ERR syntax error");
            o.bad = true;
            return o;
        }
    }
    if (o.nx && o.xx) {
        ctx.reply_error("ERR syntax error");
        o.bad = true;
    }
    return o;
}

void generic_set(CommandContext& ctx, const std::string& key,
                 const std::string& val, const SetOptions& o) {
    const bool exists = ctx.db.exists(key);
    if ((o.nx && exists) || (o.xx && !exists)) {
        ctx.reply_null();
        return;
    }
    if (o.keep_ttl) {
        ctx.db.set_keep_ttl(key, Object::make_string(val));
    } else {
        ctx.db.set(key, Object::make_string(val));
    }
    if (o.expire_at_ms.has_value()) {
        ctx.db.set_expire(key, *o.expire_at_ms);
        // Replicate with an absolute deadline so slaves agree regardless of
        // propagation delay (the SETPXAT rewrite plays the role of Redis's
        // SET ... PXAT translation).
        ctx.repl_override = std::vector<std::string>{
            "SETPXAT", key, val, ll2string(*o.expire_at_ms)};
    }
    ctx.dirty = true;
    ctx.reply_ok();
}

void cmd_set(CommandContext& ctx) {
    const SetOptions o = parse_set_options(ctx, 3);
    if (o.bad) return;
    generic_set(ctx, ctx.argv[1], ctx.argv[2], o);
}

/// Internal, replication-only: SET with an absolute PEXPIREAT bundled, the
/// deterministic rewrite of SET ... EX/PX.
void cmd_setpxat(CommandContext& ctx) {
    const auto at = string2ll(ctx.argv[3]);
    if (!at.has_value()) {
        ctx.reply_error("ERR invalid expire time in 'setpxat' command");
        return;
    }
    ctx.db.set(ctx.argv[1], Object::make_string(ctx.argv[2]));
    ctx.db.set_expire(ctx.argv[1], *at);
    ctx.dirty = true;
    ctx.reply_ok();
}

void cmd_setnx(CommandContext& ctx) {
    if (ctx.db.exists(ctx.argv[1])) {
        ctx.reply_integer(0);
        return;
    }
    ctx.db.set(ctx.argv[1], Object::make_string(ctx.argv[2]));
    ctx.dirty = true;
    ctx.reply_integer(1);
}

void cmd_setex_ms(CommandContext& ctx, std::int64_t unit_ms) {
    const auto secs = string2ll(ctx.argv[2]);
    if (!secs.has_value() || *secs <= 0) {
        ctx.reply_error("ERR invalid expire time in 'setex' command");
        return;
    }
    const auto at = ctx.expire_deadline(*secs, unit_ms, false);
    if (!at.has_value()) return;
    ctx.db.set(ctx.argv[1], Object::make_string(ctx.argv[3]));
    ctx.db.set_expire(ctx.argv[1], *at);
    ctx.repl_override = std::vector<std::string>{"SETPXAT", ctx.argv[1],
                                                 ctx.argv[3], ll2string(*at)};
    ctx.dirty = true;
    ctx.reply_ok();
}

void cmd_get(CommandContext& ctx) {
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    if (o == nullptr) {
        ctx.reply_null();
        return;
    }
    ctx.reply_bulk(*o);
}

void cmd_getset(CommandContext& ctx) {
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    if (o == nullptr) {
        ctx.reply_null();
    } else {
        ctx.reply_bulk(*o);
    }
    ctx.db.set(ctx.argv[1], Object::make_string(ctx.argv[2]));
    ctx.dirty = true;
}

void cmd_append(CommandContext& ctx) {
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    std::size_t newlen;
    if (o == nullptr) {
        ctx.db.set(ctx.argv[1], Object::make_string(ctx.argv[2]));
        newlen = ctx.argv[2].size();
    } else {
        newlen = o->string_append(ctx.argv[2]);
        ctx.db.mark_dirty();
    }
    ctx.dirty = true;
    ctx.reply_integer(static_cast<long long>(newlen));
}

void cmd_strlen(CommandContext& ctx) {
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    ctx.reply_integer(o == nullptr ? 0 : static_cast<long long>(o->string_len()));
}

void generic_incr(CommandContext& ctx, long long delta) {
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    long long cur = 0;
    if (o != nullptr) {
        const auto v = o->int_value();
        if (!v.has_value()) {
            ctx.reply_error("ERR value is not an integer or out of range");
            return;
        }
        cur = *v;
    }
    if ((delta > 0 && cur > LLONG_MAX - delta) ||
        (delta < 0 && cur < LLONG_MIN - delta)) {
        ctx.reply_error("ERR increment or decrement would overflow");
        return;
    }
    const long long next = cur + delta;
    if (o != nullptr) {
        o->string_set_ll(next);
        ctx.db.mark_dirty();
    } else {
        ctx.db.set_keep_ttl(ctx.argv[1], Object::make_string_ll(next));
    }
    ctx.dirty = true;
    ctx.reply_integer(next);
}

void cmd_incrby(CommandContext& ctx) {
    const auto d = string2ll(ctx.argv[2]);
    if (!d.has_value()) {
        ctx.reply_error("ERR value is not an integer or out of range");
        return;
    }
    generic_incr(ctx, *d);
}

void cmd_decrby(CommandContext& ctx) {
    const auto d = string2ll(ctx.argv[2]);
    if (!d.has_value() || *d == LLONG_MIN) {
        ctx.reply_error("ERR value is not an integer or out of range");
        return;
    }
    generic_incr(ctx, -*d);
}

void cmd_incrbyfloat(CommandContext& ctx) {
    const auto d = string2d(ctx.argv[2]);
    if (!d.has_value()) {
        ctx.reply_error("ERR value is not a valid float");
        return;
    }
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    double cur = 0;
    if (o != nullptr) {
        char buf[kLongStrSize];
        const auto v = string2d(o->value_view(buf));
        if (!v.has_value()) {
            ctx.reply_error("ERR value is not a valid float");
            return;
        }
        cur = *v;
    }
    const double next = cur + *d;
    if (std::isnan(next) || std::isinf(next)) {
        ctx.reply_error("ERR increment would produce NaN or Infinity");
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", next);
    ctx.db.set_keep_ttl(ctx.argv[1], Object::make_string(buf));
    ctx.dirty = true;
    // Result depends on float formatting: replicate the rendered value.
    ctx.repl_override = std::vector<std::string>{"SET", ctx.argv[1], buf, "KEEPTTL"};
    ctx.reply_bulk(buf);
}

void cmd_mset(CommandContext& ctx) {
    if (ctx.argv.size() % 2 != 1) {
        ctx.reply_error("ERR wrong number of arguments for 'mset' command");
        return;
    }
    for (std::size_t i = 1; i + 1 < ctx.argv.size(); i += 2) {
        ctx.db.set(ctx.argv[i], Object::make_string(ctx.argv[i + 1]));
    }
    ctx.dirty = true;
    ctx.reply_ok();
}

void cmd_msetnx(CommandContext& ctx) {
    if (ctx.argv.size() % 2 != 1) {
        ctx.reply_error("ERR wrong number of arguments for 'msetnx' command");
        return;
    }
    for (std::size_t i = 1; i + 1 < ctx.argv.size(); i += 2) {
        if (ctx.db.exists(ctx.argv[i])) {
            ctx.reply_integer(0);
            return;
        }
    }
    for (std::size_t i = 1; i + 1 < ctx.argv.size(); i += 2) {
        ctx.db.set(ctx.argv[i], Object::make_string(ctx.argv[i + 1]));
    }
    ctx.dirty = true;
    ctx.reply_integer(1);
}

void cmd_mget(CommandContext& ctx) {
    ctx.reply_array_header(ctx.argv.size() - 1);
    for (std::size_t i = 1; i < ctx.argv.size(); ++i) {
        ObjectPtr o = ctx.db.lookup(ctx.argv[i]);
        if (o == nullptr) {
            ctx.reply_null();
        } else {
            ctx.reply_bulk(*o);
        }
    }
}

void cmd_getrange(CommandContext& ctx) {
    const auto start = string2ll(ctx.argv[2]);
    const auto end = string2ll(ctx.argv[3]);
    if (!start.has_value() || !end.has_value()) {
        ctx.reply_error("ERR value is not an integer or out of range");
        return;
    }
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    if (o == nullptr) {
        ctx.reply_bulk("");
        return;
    }
    char buf[kLongStrSize];
    Sds s(o->value_view(buf));
    s.range(static_cast<std::ptrdiff_t>(*start), static_cast<std::ptrdiff_t>(*end));
    ctx.reply_bulk(s.view());
}

void cmd_setrange(CommandContext& ctx) {
    const auto offset = string2ll(ctx.argv[2]);
    if (!offset.has_value() || *offset < 0) {
        ctx.reply_error("ERR offset is out of range");
        return;
    }
    ObjectPtr o = ctx.db.lookup(ctx.argv[1]);
    const std::string& patch = ctx.argv[3];
    std::string value = o == nullptr ? std::string() : o->string_value();
    if (patch.empty()) {
        ctx.reply_integer(static_cast<long long>(value.size()));
        return;
    }
    // Cap the result at the largest bulk string a request may carry, as
    // Redis's checkStringLength does, before the resize can ask for it.
    const std::size_t need = static_cast<std::size_t>(*offset) + patch.size();
    if (need > static_cast<std::size_t>(resp::RequestParser::kMaxBulk)) {
        ctx.reply_error("ERR string exceeds maximum allowed size");
        return;
    }
    if (value.size() < need) value.resize(need, '\0');
    value.replace(static_cast<std::size_t>(*offset), patch.size(), patch);
    ctx.db.set_keep_ttl(ctx.argv[1], Object::make_string(value));
    ctx.dirty = true;
    ctx.reply_integer(static_cast<long long>(value.size()));
}

} // namespace

void register_string_commands(CommandTable& t) {
    t.add({"SET", -3, kCmdWrite, cmd_set});
    t.add({"SETPXAT", 4, kCmdWrite, cmd_setpxat});
    t.add({"SETNX", 3, kCmdWrite, cmd_setnx});
    t.add({"SETEX", 4, kCmdWrite,
           [](CommandContext& ctx) { cmd_setex_ms(ctx, 1000); }});
    t.add({"PSETEX", 4, kCmdWrite,
           [](CommandContext& ctx) { cmd_setex_ms(ctx, 1); }});
    t.add({"GET", 2, kCmdRead, cmd_get});
    t.add({"GETSET", 3, kCmdWrite, cmd_getset});
    t.add({"APPEND", 3, kCmdWrite, cmd_append});
    t.add({"STRLEN", 2, kCmdRead, cmd_strlen});
    t.add({"INCR", 2, kCmdWrite,
           [](CommandContext& ctx) { generic_incr(ctx, 1); }});
    t.add({"DECR", 2, kCmdWrite,
           [](CommandContext& ctx) { generic_incr(ctx, -1); }});
    t.add({"INCRBY", 3, kCmdWrite, cmd_incrby});
    t.add({"DECRBY", 3, kCmdWrite, cmd_decrby});
    t.add({"INCRBYFLOAT", 3, kCmdWrite, cmd_incrbyfloat});
    t.add({"MSET", -3, kCmdWrite, cmd_mset});
    t.add({"MSETNX", -3, kCmdWrite, cmd_msetnx});
    t.add({"MGET", -2, kCmdRead, cmd_mget});
    t.add({"GETRANGE", 4, kCmdRead, cmd_getrange});
    t.add({"SETRANGE", 4, kCmdWrite, cmd_setrange});
}

} // namespace skv::kv
