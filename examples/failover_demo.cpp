// Failure-detection walkthrough (paper §III-D): Nic-KV probes every node
// each second; a node that misses `waiting-time` is marked invalid in the
// node list and skipped during fan-out. This demo crashes a slave, then
// the master, and narrates what the failure detector does — including
// master failover to a stand-in slave and demotion when the master
// returns.
//
//   ./build/examples/failover_demo

#include <cstdio>

#include "skv/cluster.hpp"
#include "workload/session.hpp"

using namespace skv;

namespace {

void status(offload::Cluster& c, const char* when) {
    auto* nic = c.nic_kv();
    std::printf("[t=%6.1fs] %s\n", c.sim().now().sec(), when);
    std::printf("           master=%s valid=%s | slaves valid %d/%zu",
                server::to_string(c.master().role()),
                nic->master_valid() ? "yes" : "NO", nic->valid_slaves(),
                nic->slave_count());
    for (int i = 0; i < c.slave_count(); ++i) {
        std::printf(" | slave%d=%s%s", i, server::to_string(c.slave(i).role()),
                    c.slave(i).crashed() ? "(down)" : "");
    }
    std::printf("\n");
}

void wait(offload::Cluster& c, double seconds) {
    c.sim().run_until(c.sim().now() +
                      sim::milliseconds(static_cast<std::int64_t>(seconds * 1e3)));
}

} // namespace

int main() {
    offload::ClusterConfig cfg;
    cfg.n_slaves = 2;
    cfg.offload = true;
    cfg.server_tmpl.min_slaves = 1; // writes need one live replica
    offload::Cluster cluster(cfg);
    cluster.start();

    // A client that keeps writing throughout.
    workload::Session client(cluster, "app");
    int oks = 0;
    int errors = 0;
    client.on_reply([&](const kv::resp::Value& v) { (v.is_error() ? errors : oks)++; });
    auto write = [&](const std::string& k) { client.send({"SET", k, "value"}); };

    status(cluster, "cluster up, all nodes healthy");
    write("before-failure");
    wait(cluster, 1.0);

    std::printf("\n--- crashing slave 0 ---\n");
    cluster.slave(0).crash();
    wait(cluster, 3.5); // probe interval + waiting-time
    status(cluster, "slave 0 detected as failed; fan-out now skips it");
    write("during-slave-outage");
    wait(cluster, 0.5);
    std::printf("           writes so far: %d OK, %d errors (clients are "
                "unaware of the failure)\n",
                oks, errors);

    std::printf("\n--- slave 0 recovers ---\n");
    cluster.slave(0).recover();
    wait(cluster, 3.5);
    status(cluster, "slave 0 re-registered; Nic-KV arranged a resync");
    std::printf("           slave0 applied=%lld master offset=%lld (%s)\n",
                static_cast<long long>(cluster.slave(0).slave_applied_offset()),
                static_cast<long long>(cluster.master().master_offset()),
                cluster.slave(0).slave_applied_offset() ==
                        cluster.master().master_offset()
                    ? "converged"
                    : "catching up");

    std::printf("\n--- crashing the master ---\n");
    cluster.master().crash();
    wait(cluster, 4.0);
    status(cluster, "master failed; a stand-in slave was promoted");

    std::printf("\n--- master returns ---\n");
    cluster.master().recover();
    wait(cluster, 4.0);
    status(cluster, "master resumed mastership; stand-in demoted");

    std::printf("\nfailure detector counters: %llu failures, %llu recoveries, "
                "%llu failovers\n",
                static_cast<unsigned long long>(
                    cluster.nic_kv()->stats().counter("failures_detected")),
                static_cast<unsigned long long>(
                    cluster.nic_kv()->stats().counter("recoveries_detected")),
                static_cast<unsigned long long>(
                    cluster.nic_kv()->stats().counter("failovers")));
    return 0;
}
