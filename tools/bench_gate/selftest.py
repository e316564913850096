#!/usr/bin/env python3
"""Self-test for bench_gate: record/check round-trip and the one exact rule
(an output equals the newest recorded run of its key, field for field, and a
missing baseline fails) for bench JSON keyed by figure and for perfbench
fingerprints keyed by workload and seed. Run by ctest as bench_gate_selftest."""

import contextlib
import io
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


def bench_output(kops, p99, failed=0, names=("ycsb-A/zipfian/fanout",),
                 points=1, figure="ycsb"):
    doc = {
        "schema_version": 1,
        "figure": figure,
        "series": [{
            "name": name,
            "achieved_kops": kops,
            "failed": failed,
            "timed_out": 0,
            "points": [{"op": "all", "kops": kops, "p99_us": p99,
                        "p999_us": p99 * 1.5}] * points,
        } for name in names],
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


def passes(out, db):
    return run(["check", "--bench-output", out, "--db", db]) == 0


def main():
    tmp = tempfile.mkdtemp(prefix="bench_gate_selftest.")
    db = os.path.join(tmp, "BENCH_test.json")
    out = os.path.join(tmp, "bench.out")

    print("bench_gate selftest:")

    write(out, bench_output(20.0, 15.0))
    check("a missing baseline fails", not passes(out, db))

    # Record, then an identical output passes.
    check("record succeeds",
          run(["record", "--bench-output", out, "--db", db,
               "--commit", "c0ffee"]) == 0)
    with open(db) as f:
        recorded = json.load(f)
    check("the run is keyed by its figure",
          recorded["runs"][0]["figure"] == "ycsb")
    check("identical output passes", passes(out, db))

    # Any changed value fails, in either direction.
    write(out, bench_output(19.0, 15.0))
    check("a 5% kops drop fails", not passes(out, db))
    write(out, bench_output(20.0, 18.0))
    check("p99 growth fails", not passes(out, db))
    write(out, bench_output(22.0, 12.0))
    check("an improvement fails", not passes(out, db))
    write(out, bench_output(20.0, 15.0, failed=3))
    check("new errors fail", not passes(out, db))
    write(out, bench_output(20, 15.0))
    check("an int where a float was recorded fails", not passes(out, db))
    write(out, bench_output(20.0, 18.0))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run(["check", "--bench-output", out, "--db", db])
    check("a failure prints the field that moved",
          "series[0].points[0].p99_us: 15.0 -> 18.0" in printed.getvalue())

    # Series and points must match one for one.
    write(out, bench_output(20.0, 15.0, names=("ycsb-A/zipfian/fanout",
                                               "ycsb-Z/zipfian/fanout")))
    check("an added series fails", not passes(out, db))
    write(out, bench_output(20.0, 15.0, names=()))
    check("a missing series fails", not passes(out, db))
    write(out, bench_output(20.0, 15.0, points=2))
    check("an added point fails", not passes(out, db))
    write(out, bench_output(20.0, 15.0, points=0))
    check("a missing point fails", not passes(out, db))

    # Runs are keyed by figure: another figure has its own baseline.
    write(out, bench_output(20.0, 15.0, figure="fig11_skv_set"))
    check("another figure has no baseline", not passes(out, db))
    run(["record", "--bench-output", out, "--db", db, "--commit", "c0ffee"])
    check("a second figure gates on its own run", passes(out, db))

    # Recording appends: the newest run of the figure is the baseline.
    write(out, bench_output(30.0, 10.0))
    run(["record", "--bench-output", out, "--db", db, "--commit", "c0ffef"])
    with open(db) as f:
        trajectory = json.load(f)
    check("trajectory keeps every run", len(trajectory["runs"]) == 3)
    check("gates against the newest run", passes(out, db))
    write(out, bench_output(20.0, 15.0))
    check("the older run's numbers now fail", not passes(out, db))

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
    check("perfbench: a missing baseline fails", not passes(out, db))
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
          run(["check", "--bench-output", out, "--db", db]) == 0)
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
          run(["check", "--bench-output", out, "--db", db]) != 0)
    write(out, perfbench_output(workload="chaos-sweep"))
    check("perfbench: other workload has no baseline",
          run(["check", "--bench-output", out, "--db", db]) != 0)

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
