// Quickstart: stand up a one-master/three-slave SKV cluster in the
// simulator, issue a few commands through a client channel, and watch
// replication reach the slaves through Nic-KV on the SmartNIC.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "skv/cluster.hpp"
#include "workload/session.hpp"

using namespace skv;

int main() {
    // SKV mode: replication runs on the SmartNIC.
    offload::ClusterConfig cfg = offload::config_of(offload::System::kSkv);
    cfg.n_slaves = 3;

    offload::Cluster cluster(cfg);
    cluster.start();

    std::printf("cluster up:\n  %s\n", cluster.master().info().c_str());
    for (int i = 0; i < cluster.slave_count(); ++i) {
        std::printf("  %s\n", cluster.slave(i).info().c_str());
    }
    std::printf("  nic-kv: %zu nodes in the node list, %d valid slaves\n",
                cluster.nic_kv()->nodes().size(),
                cluster.nic_kv()->valid_slaves());

    // Connect one client and run a tiny session.
    workload::Session session(cluster, "app");
    if (!session.connected()) {
        std::fprintf(stderr, "client failed to connect\n");
        return 1;
    }
    session.on_reply([](const kv::resp::Value& v) {
        std::printf("  reply: %s\n", v.to_debug_string().c_str());
    });

    std::printf("issuing commands:\n");
    session.send({"SET", "greeting", "hello, smartnic"});
    session.send({"SET", "counter", "41"});
    session.send({"INCR", "counter"});
    session.send({"GET", "greeting"});
    session.send({"APPEND", "greeting", ", offloaded"});
    session.send({"GETRANGE", "greeting", "7", "-1"});

    // Let the commands execute and replication drain.
    cluster.sim().run_until(cluster.sim().now() + sim::milliseconds(500));

    std::printf("after replication:\n  %s\n", cluster.master().info().c_str());
    for (int i = 0; i < cluster.slave_count(); ++i) {
        std::printf("  %s\n", cluster.slave(i).info().c_str());
    }
    std::printf("slaves converged with master: %s\n",
                cluster.converged() ? "yes" : "NO");
    std::printf("master db == slave0 db: %s\n",
                cluster.master().db().equals(cluster.slave(0).db()) ? "yes"
                                                                    : "NO");
    return cluster.converged() ? 0 : 1;
}
