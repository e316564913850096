// An interactive redis-cli-style shell against a simulated SKV cluster:
// each line you type is parsed like an inline Redis command, executed on
// the simulated master (replicating through the SmartNIC to 2 slaves),
// and the reply printed. Special commands:
//
//   .info         cluster status
//   .slaves       compare master and slave keyspaces
//   .time         advance simulated time by one second
//   .trace FILE   dump collected spans as chrome://tracing JSON
//   .quit         exit
//
// Server-side introspection works like on real Redis: INFO, SLOWLOG
// GET/LEN/RESET and LATENCY LATEST/HISTORY/RESET are ordinary commands
// answered by the simulated master.
//
//   ./build/examples/kv_shell            (interactive)
//   echo "SET k v\nGET k" | ./build/examples/kv_shell

#include <cstdio>
#include <iostream>
#include <string>

#include "kv/sds.hpp"
#include "obs/export.hpp"
#include "skv/cluster.hpp"
#include "workload/session.hpp"

using namespace skv;

int main() {
    offload::ClusterConfig cfg;
    cfg.n_slaves = 2;
    cfg.offload = true;
    offload::Cluster cluster(cfg);
    // Collect spans so `.trace FILE` has something to dump; harmless for
    // everything else (the tracer only observes).
    cluster.tracer().set_enabled(true);
    cluster.start();

    workload::Session session(cluster, "shell");
    if (!session.connected()) {
        std::fprintf(stderr, "failed to connect to the simulated master\n");
        return 1;
    }
    session.set_tracer(&cluster.tracer(), "client/shell");
    session.on_reply([](const kv::resp::Value& v) {
        std::printf("%s\n", v.to_debug_string().c_str());
    });

    std::printf("skv-shell: 1 master + 2 slaves behind a simulated "
                "BlueField SmartNIC.\nType Redis commands ('.quit' to "
                "exit, '.info' for status).\n");

    std::string line;
    while (std::printf("skv> "), std::fflush(stdout),
           std::getline(std::cin, line)) {
        if (line == ".quit" || line == ".exit") break;
        if (line.empty()) continue;
        if (line == ".info") {
            std::printf("%s\n", cluster.master().info().c_str());
            for (int i = 0; i < cluster.slave_count(); ++i) {
                std::printf("%s\n", cluster.slave(i).info().c_str());
            }
            std::printf("nic-kv: %d/%zu slaves valid, fan-out offset %lld\n",
                        cluster.nic_kv()->valid_slaves(),
                        cluster.nic_kv()->slave_count(),
                        static_cast<long long>(cluster.nic_kv()->fanout_offset()));
            continue;
        }
        if (line == ".slaves") {
            for (int i = 0; i < cluster.slave_count(); ++i) {
                std::printf("slave%d: %zu keys, %s master\n", i,
                            cluster.slave(i).db().size(),
                            cluster.master().db().equals(cluster.slave(i).db())
                                ? "identical to"
                                : "DIVERGED from");
            }
            continue;
        }
        if (line == ".time") {
            cluster.sim().run_until(cluster.sim().now() + sim::seconds(1));
            std::printf("simulated clock: %.3fs\n", cluster.sim().now().sec());
            continue;
        }
        if (line.rfind(".trace", 0) == 0) {
            const auto sp = line.find(' ');
            const std::string path =
                sp == std::string::npos ? "" : line.substr(sp + 1);
            if (path.empty()) {
                std::printf("usage: .trace FILE\n");
            } else if (obs::write_chrome_trace(cluster.tracer(), path)) {
                std::printf("wrote %zu spans to %s (open in "
                            "chrome://tracing or https://ui.perfetto.dev)\n",
                            cluster.tracer().spans().size(), path.c_str());
            } else {
                std::printf("failed to write %s\n", path.c_str());
            }
            continue;
        }
        const auto argv = kv::Sds::split_args(line);
        if (!argv.has_value() || argv->empty()) {
            std::printf("(parse error)\n");
            continue;
        }
        std::vector<std::string> cmd;
        cmd.reserve(argv->size());
        for (const auto& a : *argv) cmd.push_back(a.str());
        session.send(cmd);
        // Run the simulation until the reply has been printed.
        cluster.sim().run_until(cluster.sim().now() + sim::milliseconds(50));
    }
    return 0;
}
