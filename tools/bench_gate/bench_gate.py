#!/usr/bin/env python3
"""bench_gate: perf-trajectory recorder and exact regression gate.

Reads one of two kinds of output and maintains a trajectory database — a
checked-in JSON file holding the recorded runs, newest last:

- a bench binary's schema-v1 ``JSON: {...}`` line (see EXPERIMENTS.md,
  "Bench JSON schema"), a run keyed by its figure. BENCH_figures.json
  holds every simulated figure, BENCH_ycsb.json the YCSB sweep:

    {"schema_version": 1, "figure": "figures",
     "runs": [{"recorded_at_commit": "<sha>", "figure": "fig11_skv_set",
               "series": [...]}, ...]}

- perfbench/run.py output, recognised by its ``fingerprint:`` line: that
  line's fields plus the metrics of the result JSON on the last line, kept
  in BENCH_perfbench.json, runs keyed by workload and seed:

    {"schema_version": 1, "figure": "perfbench",
     "runs": [{"recorded_at_commit": "<sha>", "workload": "ycsb-e-large",
               "seed": 42, "reps": 31, "machine": "...",
               "fingerprint": {"digest": "...", ...},
               "metrics": {"ops_per_ref_s": {"value": ..., "unit": ...}}}]}

A database holds one kind of run: its own "figure" names the trajectory,
and only the one named "perfbench" takes perfbench runs.

Commands:

  record   Append the output as a new run. The working-tree commit is
           stamped for provenance.
  check    Compare the output with the newest recorded run of the same
           key. Exits 1, printing each differing field, unless the output
           equals that run field for field; a missing baseline fails too.

One rule for both kinds: the modeled run is a pure function of its seed, so
the compared part — a bench output's series, a perfbench fingerprint (trace
digest, modeled latency and throughput, event/message/byte counts,
failures) — must not move at all, faster or slower. perfbench's wall-clock
metrics are recorded with commit and machine but not compared.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

FINGERPRINT = "fingerprint: "
ABSENT = object()
MAX_PRINTED = 20


def read_text(path):
    """A captured output file ('-' = stdin)."""
    return sys.stdin.read() if path == "-" else open(path).read()


def read_perfbench(text, path):
    """perfbench/run.py output as a run record (without provenance)."""
    fingerprint = None
    result = None
    reps = 0
    for line in text.splitlines():
        if line.startswith(FINGERPRINT):
            fingerprint = dict(tok.split("=", 1)
                               for tok in line[len(FINGERPRINT):].split())
        elif line.startswith("rep "):
            reps += 1
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None or "metrics" not in result:
        raise SystemExit("bench_gate: no result JSON line in %s" % path)
    for key in ("workload", "seed"):
        if key not in fingerprint:
            raise SystemExit("bench_gate: fingerprint in %s lacks %r"
                             % (path, key))
    return {
        "workload": fingerprint["workload"],
        "seed": int(fingerprint["seed"]),
        "reps": reps,
        "fingerprint": fingerprint,
        "metrics": result["metrics"],
    }


def read_bench(text, path):
    """The last `JSON: {...}` line of a bench output as a run record."""
    doc_line = None
    for line in text.splitlines():
        if line.startswith("JSON: "):
            doc_line = line[len("JSON: "):]
    if doc_line is None:
        raise SystemExit("bench_gate: no 'JSON: ' line in %s" % path)
    doc = json.loads(doc_line)
    if doc.get("schema_version") != 1:
        raise SystemExit("bench_gate: unsupported schema_version %r"
                         % doc.get("schema_version"))
    return {"figure": doc["figure"], "series": doc["series"]}


def read_run(path):
    text = read_text(path)
    if any(line.startswith(FINGERPRINT) for line in text.splitlines()):
        return read_perfbench(text, path)
    return read_bench(text, path)


def is_perfbench(run):
    return "fingerprint" in run


def key_of(run):
    """What a run is compared by: workload and seed, or figure."""
    if is_perfbench(run):
        return "%s seed %d" % (run["workload"], run["seed"])
    return "figure %s" % run["figure"]


def compared_field(run):
    """The field of a run that must not move."""
    return "fingerprint" if is_perfbench(run) else "series"


def load_db(path, run):
    """The trajectory db at `path` (new if absent); it must hold `run`'s kind."""
    try:
        with open(path) as f:
            db = json.load(f)
    except FileNotFoundError:
        name = "perfbench" if is_perfbench(run) else "figures"
        return {"schema_version": 1, "figure": name, "runs": []}
    if (db.get("figure") == "perfbench") != is_perfbench(run):
        raise SystemExit("bench_gate: %s holds the other kind of run" % path)
    return db


def head_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cmd_record(args):
    run = read_run(args.bench_output)
    db = load_db(args.db, run)
    provenance = {"recorded_at_commit": args.commit or head_commit()}
    if is_perfbench(run):
        provenance["machine"] = "%s, %d cpus" % (platform.machine(),
                                                 os.cpu_count() or 0)
    db["runs"].append({**provenance, **run})
    with open(args.db, "w") as f:
        json.dump(db, f, indent=1)
        f.write("\n")
    print("bench_gate: recorded run #%d (%s) into %s"
          % (len(db["runs"]), key_of(run), args.db))
    return 0


def diffs(base, cur, path):
    """(path, base, cur) for every field where `cur` differs from `base`."""
    if isinstance(base, dict) and isinstance(cur, dict):
        for k in sorted(set(base) | set(cur)):
            yield from diffs(base.get(k, ABSENT), cur.get(k, ABSENT),
                             "%s.%s" % (path, k))
    elif isinstance(base, list) and isinstance(cur, list):
        for i in range(max(len(base), len(cur))):
            yield from diffs(base[i] if i < len(base) else ABSENT,
                             cur[i] if i < len(cur) else ABSENT,
                             "%s[%d]" % (path, i))
    elif type(base) is not type(cur) or base != cur:
        yield path, base, cur


def show(value):
    text = "(absent)" if value is ABSENT else json.dumps(value)
    return text if len(text) <= 80 else text[:77] + "..."


def cmd_check(args):
    run = read_run(args.bench_output)
    key = key_of(run)
    baseline = None
    for r in load_db(args.db, run)["runs"]:
        if key_of(r) == key:
            baseline = r
    if baseline is None:
        raise SystemExit("bench_gate: FAIL — no recorded run of %s in %s"
                         % (key, args.db))
    commit = baseline.get("recorded_at_commit", "?")
    field = compared_field(run)
    moved = list(diffs(baseline[field], run[field], field))
    if moved:
        print("bench_gate: FAIL — %s differs from the run @ %s in %d field(s):"
              % (key, commit, len(moved)))
        for path, b, c in moved[:MAX_PRINTED]:
            print("  %s: %s -> %s" % (path, show(b), show(c)))
        if len(moved) > MAX_PRINTED:
            print("  ... and %d more" % (len(moved) - MAX_PRINTED))
        return 1
    print("bench_gate: OK — %s identical to the run @ %s" % (key, commit))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="bench_gate")
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="append a run to the trajectory db")
    rec.set_defaults(func=cmd_record)
    chk = sub.add_parser("check", help="compare a run with its baseline")
    chk.set_defaults(func=cmd_check)
    for p in (rec, chk):
        p.add_argument("--bench-output", required=True,
                       help="bench binary or perfbench/run.py stdout "
                            "capture ('-' = stdin)")
        p.add_argument("--db", required=True, help="trajectory JSON file")
    rec.add_argument("--commit", default=None,
                     help="override the recorded commit id")

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
