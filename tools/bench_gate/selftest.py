#!/usr/bin/env python3
"""Self-test for bench_gate: record/check round-trip, regression detection,
tolerance behavior, profile isolation, and the perfbench fingerprint gate.
Run by ctest as bench_gate_selftest."""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402

FAILED = 0


def check(name, cond):
    global FAILED
    if cond:
        print("  ok   %s" % name)
    else:
        print("  FAIL %s" % name)
        FAILED = 1


def bench_output(profile, kops, p99, failed=0, name="ycsb-A/zipfian/fanout"):
    doc = {
        "schema_version": 1,
        "figure": "ycsb",
        "series": [{
            "name": name,
            "profile": profile,
            "achieved_kops": kops,
            "failed": failed,
            "timed_out": 0,
            "points": [{"op": "all", "kops": kops, "p99_us": p99,
                        "p999_us": p99 * 1.5}],
        }],
    }
    return "noise line\nJSON: %s\n" % json.dumps(doc)


def perfbench_output(workload="ycsb-e-large", seed=42, digest="419b4d97820c4cb2",
                     p50="5.409", ops_per_ref_s=35000.0, reps=2, result=True):
    """What perfbench/run.py prints: rep lines, input, fingerprint, JSON."""
    lines = ["rep %d: setup_s=1.0 drive_s=0.9 ops=64100" % i for i in range(reps)]
    lines.append("input: workload=%s records=200000" % workload)
    lines.append("fingerprint: workload=%s seed=%d digest=%s attempted=64100 "
                 "failed=0 p50_us=%s events=967427" % (workload, seed, digest, p50))
    if result:
        lines.append(json.dumps({
            "correct": True, "attempted": 64100, "failed": 0,
            "metrics": {"ops_per_ref_s": {"value": ops_per_ref_s,
                                          "unit": "ops/ref_s"},
                        "model_p50_us": {"value": float(p50), "unit": "us"}}}))
    return "\n".join(lines) + "\n"


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def run(argv):
    try:
        return bench_gate.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1


def main():
    tmp = tempfile.mkdtemp(prefix="bench_gate_selftest.")
    db = os.path.join(tmp, "BENCH_test.json")
    out = os.path.join(tmp, "bench.out")

    print("bench_gate selftest:")

    # No baseline: check passes unless --require-baseline.
    write(out, bench_output("smoke", 20.0, 15.0))
    check("no-baseline passes",
          run(["check", "--bench-output", out, "--db", db]) == 0)
    check("no-baseline fails with --require-baseline",
          run(["check", "--bench-output", out, "--db", db,
               "--require-baseline"]) != 0)

    # Record, then an identical run gates green.
    check("record succeeds",
          run(["record", "--bench-output", out, "--db", db,
               "--commit", "c0ffee"]) == 0)
    check("identical run passes",
          run(["check", "--bench-output", out, "--db", db,
               "--require-baseline"]) == 0)

    # Within tolerance: 5% slower throughput passes at 10%.
    write(out, bench_output("smoke", 19.0, 15.0))
    check("5% kops drop within 10% tolerance",
          run(["check", "--bench-output", out, "--db", db]) == 0)

    # Beyond tolerance: 20% slower throughput fails.
    write(out, bench_output("smoke", 16.0, 15.0))
    check("20% kops drop fails",
          run(["check", "--bench-output", out, "--db", db]) == 1)

    # p99 regression fails; improvement passes.
    write(out, bench_output("smoke", 20.0, 18.0))
    check("20% p99 growth fails",
          run(["check", "--bench-output", out, "--db", db]) == 1)
    write(out, bench_output("smoke", 22.0, 12.0))
    check("improvement passes",
          run(["check", "--bench-output", out, "--db", db]) == 0)

    # Any new errors fail, tolerance or not.
    write(out, bench_output("smoke", 20.0, 15.0, failed=3))
    check("new errors fail",
          run(["check", "--bench-output", out, "--db", db]) == 1)

    # Profile isolation: a 'full' run has no 'smoke' baseline.
    write(out, bench_output("full", 40.0, 15.0))
    check("other profile has no baseline",
          run(["check", "--bench-output", out, "--db", db,
               "--require-baseline"]) != 0)

    # Recording appends: the newest run of the profile is the baseline.
    write(out, bench_output("smoke", 30.0, 10.0))
    run(["record", "--bench-output", out, "--db", db, "--commit", "c0ffef"])
    with open(db) as f:
        trajectory = json.load(f)
    check("trajectory keeps both runs", len(trajectory["runs"]) == 2)
    write(out, bench_output("smoke", 29.0, 10.5))
    check("gates against newest run",
          run(["check", "--bench-output", out, "--db", db]) == 0)
    write(out, bench_output("smoke", 20.0, 15.0))
    check("old-baseline numbers now fail",
          run(["check", "--bench-output", out, "--db", db]) == 1)

    # Unknown series is reported but passes by default, fails when strict.
    write(out, bench_output("smoke", 30.0, 10.0, name="ycsb-Z/zipfian/fanout"))
    check("new series passes by default",
          run(["check", "--bench-output", out, "--db", db]) == 0)
    check("new series fails with --require-same-series",
          run(["check", "--bench-output", out, "--db", db,
               "--require-same-series"]) == 1)

    perfbench_checks(tmp)

    if FAILED:
        print("bench_gate selftest: FAILED")
        return 1
    print("bench_gate selftest: all passed")
    return 0


def perfbench_checks(tmp):
    db = os.path.join(tmp, "BENCH_perfbench.json")
    out = os.path.join(tmp, "perfbench.out")
    ycsb_db = os.path.join(tmp, "BENCH_test.json")  # a bench-JSON db

    write(out, perfbench_output())
    check("perfbench: no-baseline passes",
          run(["check", "--bench-output", out, "--db", db]) == 0)
    check("perfbench: no-baseline fails with --require-baseline",
          run(["check", "--bench-output", out, "--db", db,
               "--require-baseline"]) != 0)
    check("perfbench: record succeeds",
          run(["record", "--bench-output", out, "--db", db,
               "--commit", "p0"]) == 0)
    with open(db) as f:
        recorded = json.load(f)
    rec = recorded["runs"][0]
    check("perfbench: db holds figure, workload, seed, reps",
          recorded["figure"] == "perfbench"
          and (rec["workload"], rec["seed"], rec["reps"]) == ("ycsb-e-large", 42, 2))
    check("perfbench: fingerprint fields and metrics stored",
          rec["fingerprint"]["digest"] == "419b4d97820c4cb2"
          and rec["fingerprint"]["events"] == "967427"
          and rec["metrics"]["ops_per_ref_s"]["value"] == 35000.0)

    check("perfbench: identical fingerprint passes",
          run(["check", "--bench-output", out, "--db", db,
               "--require-baseline"]) == 0)
    write(out, perfbench_output(ops_per_ref_s=9000.0, reps=30))
    check("perfbench: wall metrics are not gated",
          run(["check", "--bench-output", out, "--db", db]) == 0)
    write(out, perfbench_output(digest="0000000000000000"))
    check("perfbench: changed digest fails",
          run(["check", "--bench-output", out, "--db", db]) == 1)
    write(out, perfbench_output(p50="5.410"))
    check("perfbench: changed modeled latency fails",
          run(["check", "--bench-output", out, "--db", db]) == 1)
    write(out, perfbench_output().replace(" events=967427", ""))
    check("perfbench: missing fingerprint field fails",
          run(["check", "--bench-output", out, "--db", db]) == 1)

    # Baselines are per workload and seed.
    write(out, perfbench_output(seed=7, digest="0000000000000000"))
    check("perfbench: other seed has no baseline",
          run(["check", "--bench-output", out, "--db", db,
               "--require-baseline"]) != 0)
    write(out, perfbench_output(workload="chaos-sweep"))
    check("perfbench: other workload has no baseline",
          run(["check", "--bench-output", out, "--db", db,
               "--require-baseline"]) != 0)

    # The newest run of a workload and seed is the baseline.
    write(out, perfbench_output(digest="1111111111111111"))
    run(["record", "--bench-output", out, "--db", db, "--commit", "p1"])
    check("perfbench: gates against the newest run",
          run(["check", "--bench-output", out, "--db", db]) == 0)
    write(out, perfbench_output())
    check("perfbench: the older fingerprint now fails",
          run(["check", "--bench-output", out, "--db", db]) == 1)

    # A run whose correctness gate failed prints no result line.
    write(out, perfbench_output(result=False))
    check("perfbench: output without a result line is refused",
          run(["check", "--bench-output", out, "--db", db]) != 0)
    write(out, perfbench_output())
    check("perfbench: output cannot go into a bench-JSON db",
          run(["record", "--bench-output", out, "--db", ycsb_db]) != 0)


if __name__ == "__main__":
    sys.exit(main())
