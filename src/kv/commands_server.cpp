#include "kv/command.hpp"

namespace skv::kv {

namespace {

void cmd_ping(CommandContext& ctx) {
    if (ctx.argv.size() == 2) {
        ctx.reply_bulk(ctx.argv[1]);
    } else {
        ctx.reply_simple("PONG");
    }
}

void cmd_echo(CommandContext& ctx) { ctx.reply_bulk(ctx.argv[1]); }

void cmd_dbsize(CommandContext& ctx) {
    ctx.reply_integer(static_cast<long long>(ctx.db.size()));
}

void cmd_flushdb(CommandContext& ctx) {
    ctx.db.clear();
    ctx.dirty = true;
    ctx.reply_ok();
}

void cmd_select(CommandContext& ctx) {
    // The simulation runs a single logical database; SELECT 0 is accepted
    // for client-library compatibility.
    const auto idx = string2ll(ctx.argv[1]);
    if (!idx.has_value() || *idx != 0) {
        ctx.reply_error("ERR DB index is out of range");
        return;
    }
    ctx.reply_ok();
}

void cmd_time(CommandContext& ctx) {
    const std::int64_t ms = ctx.db.now_ms();
    ctx.reply_array_header(2);
    ctx.reply_bulk(ll2string(ms / 1000));
    ctx.reply_bulk(ll2string((ms % 1000) * 1000));
}

void cmd_command(CommandContext& ctx) {
    // COMMAND COUNT is all clients here need.
    if (ctx.argv.size() == 2 && iequals(ctx.argv[1], "COUNT")) {
        ctx.reply_integer(
            static_cast<long long>(CommandTable::instance().size()));
        return;
    }
    ctx.reply_array_header(0);
}

} // namespace

void register_server_commands(CommandTable& t) {
    t.add({"PING", -1, kCmdRead, cmd_ping});
    t.add({"ECHO", 2, kCmdRead, cmd_echo});
    t.add({"DBSIZE", 1, kCmdRead, cmd_dbsize});
    t.add({"FLUSHDB", 1, kCmdWrite, cmd_flushdb});
    t.add({"FLUSHALL", 1, kCmdWrite, cmd_flushdb});
    t.add({"SELECT", 2, kCmdRead, cmd_select});
    t.add({"TIME", 1, kCmdRead, cmd_time});
    t.add({"COMMAND", -1, kCmdRead, cmd_command});
}

} // namespace skv::kv
