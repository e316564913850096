#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Builds the benchmark as run.py does, then checks that:
  1. run.py prints every metric BENCHMARK.json names, with its unit, for
     every workload, untraced and traced, and its correctness gate passes;
  2. two runs of one seed print identical modeled metrics and digests (the
     "fingerprint" line);
  3. a traced run passes its gate, which requires the traced repetition to
     reproduce the untraced one's modeled metrics and digest exactly;
  4. on ycsb-a-fanout the traced critical-path stages (rdma_write +
     master_apply + reply) sum to within 1% of client end-to-end latency;
  5. at bench_ycsb's full profile, seed 42 reproduces the ycsb-A/fanout
     latencies recorded in BENCH_ycsb.json (p50/p99/p999 12.056/20.775/28.603 us).
Takes a few minutes; exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

import run

BENCH_YCSB_A_FANOUT = {"model_p50_us": 12.056, "model_p99_us": 20.775,
                       "model_p999_us": 28.603}


def lines_of(cmd, **kw):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, **kw)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def run_py(workload, seed, trace):
    return lines_of([sys.executable, os.path.join(run.HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)], cwd=run.ROOT)


def binary(path, workload, seed, trace):
    """The benchmark binary's own output, every metric it measured."""
    return lines_of([path, "--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])


def fingerprint(lines):
    return [l for l in lines if l.startswith("fingerprint:")]


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    path = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = run_py(name, 3, trace)
            result = json.loads(lines[-1]) if rc == 0 else {"metrics": {}}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(rc == 0 and got == want,
                   f"{name} --trace {trace}: gate passes, every {kind} metric "
                   "printed with its unit")
            printed = {l.split()[1] for l in lines if l.startswith("metric ")}
            expect(set(want) <= printed,
                   f"{name} --trace {trace}: the report names them too")

        rc1, first = binary(path, name, 5, 0)
        rc2, second = binary(path, name, 5, 0)
        expect(rc1 == 0 and rc2 == 0 and len(fingerprint(first)) == 1
               and fingerprint(first) == fingerprint(second),
               f"{name}: two runs of seed 5 print identical modeled metrics")
        rc, traced = binary(path, name, 5, 1)
        expect(rc == 0 and fingerprint(traced) == fingerprint(first),
               f"{name}: the traced repetition reproduces them")

        if name == "ycsb-a-fanout":
            m = json.loads(traced[-1])["metrics"]
            e2e = m["obs.stage.client_e2e_us"]["value"]
            crit = sum(m[f"obs.stage.{s}_us"]["value"]
                       for s in ("rdma_write", "master_apply", "reply"))
            expect(e2e > 0 and abs(crit - e2e) <= 0.01 * e2e,
                   f"{name}: critical stages {crit:.3f} us tile e2e {e2e:.3f} us")

    rc, lines = binary(path, "ycsb-a-reference", 42, 0)
    m = json.loads(lines[-1])["metrics"]
    got = {k: round(m[k]["value"], 3) for k in BENCH_YCSB_A_FANOUT}
    expect(rc == 0 and got == BENCH_YCSB_A_FANOUT,
           f"ycsb-a-reference seed 42 reproduces BENCH_ycsb.json: {got}")
    print("selftest passed")


if __name__ == "__main__":
    main()
