#!/usr/bin/env python3
"""bench_gate: perf-trajectory recorder and regression gate.

Reads one of two kinds of output and maintains a trajectory database — a
checked-in JSON file holding the recorded runs, newest last:

- a bench binary's schema-v1 ``JSON: {...}`` line (see EXPERIMENTS.md,
  "Bench JSON schema"), kept in e.g. BENCH_ycsb.json:

    {"schema_version": 1, "figure": "ycsb",
     "runs": [{"recorded_at_commit": "<sha>", "profile": "full",
               "series": [...]}, ...]}

- perfbench/run.py output, recognised by its ``fingerprint:`` line: that
  line's fields plus the metrics of the result JSON on the last line, kept
  in BENCH_perfbench.json, runs keyed by workload and seed:

    {"schema_version": 1, "figure": "perfbench",
     "runs": [{"recorded_at_commit": "<sha>", "workload": "ycsb-e-large",
               "seed": 42, "reps": 31, "machine": "...",
               "fingerprint": {"digest": "...", ...},
               "metrics": {"ops_per_ref_s": {"value": ..., "unit": ...}}}]}

Commands:

  record   Append the output as a new run (of its profile, or of its
           workload and seed). The working-tree commit is stamped for
           provenance.
  check    Diff the output against the *latest recorded run of the same
           profile* (bench JSON) or *the same workload and seed*
           (perfbench). Exits 1 on a regression, printing what moved.

Bench JSON gates (per series):
  achieved_kops     lower is a regression
  p99_us / p999_us  of the "all" point: higher is a regression
  failed+timed_out  any increase is a regression (no tolerance)

Series present only on one side are reported but do not fail the gate
(sweep membership is allowed to evolve); use --require-same-series to make
that fatal too.

perfbench gate: every fingerprint field (trace digest, modeled latency and
throughput, event/message/byte counts, failures) must equal the recorded
one exactly, since the modeled run is a pure function of the seed. The
wall-clock metrics are recorded with commit and machine but not gated.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

FINGERPRINT = "fingerprint: "


def read_text(path):
    """A captured output file ('-' = stdin)."""
    return sys.stdin.read() if path == "-" else open(path).read()


def is_perfbench(text):
    return any(line.startswith(FINGERPRINT) for line in text.splitlines())


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


def read_bench_doc(text, path):
    """The last `JSON: {...}` line of a bench output."""
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
    return doc


def load_db(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def profile_of(doc):
    """The run's profile, taken from its series scalars (must agree)."""
    profiles = {s.get("profile", "default") for s in doc.get("series", [])}
    if len(profiles) != 1:
        raise SystemExit("bench_gate: bench output mixes profiles %s"
                         % sorted(profiles))
    return profiles.pop()


def head_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def open_db(path, figure):
    """The trajectory db at `path` (new if absent); it must hold `figure`."""
    db = load_db(path)
    if db is None:
        db = {"schema_version": 1, "figure": figure, "runs": []}
    if db.get("figure") != figure:
        raise SystemExit("bench_gate: db is for figure %r, output is %r"
                         % (db.get("figure"), figure))
    return db


def append_run(path, db, run):
    db["runs"].append(run)
    with open(path, "w") as f:
        json.dump(db, f, indent=1)
        f.write("\n")


def cmd_record(args):
    text = read_text(args.bench_output)
    commit = args.commit or head_commit()
    if is_perfbench(text):
        run = read_perfbench(text, args.bench_output)
        db = open_db(args.db, "perfbench")
        run = {"recorded_at_commit": commit,
               "machine": "%s, %d cpus" % (platform.machine(), os.cpu_count() or 0),
               **run}
        append_run(args.db, db, run)
        print("bench_gate: recorded run #%d (%s seed %d, %d reps) into %s"
              % (len(db["runs"]), run["workload"], run["seed"], run["reps"],
                 args.db))
        return 0
    doc = read_bench_doc(text, args.bench_output)
    db = open_db(args.db, doc["figure"])
    run = {
        "recorded_at_commit": commit,
        "profile": profile_of(doc),
        "series": doc["series"],
    }
    append_run(args.db, db, run)
    print("bench_gate: recorded run #%d (profile '%s', %d series) into %s"
          % (len(db["runs"]), run["profile"], len(run["series"]), args.db))
    return 0


def all_point(series):
    for p in series.get("points", []):
        if p.get("op", "all") == "all":
            return p
    return {}


def check_series(base, cur, tol, failures):
    """Append '(series, metric, base, cur, delta%)' rows for regressions."""
    name = cur["name"]

    def rel(b, c):
        return (c - b) / b if b else 0.0

    b_kops, c_kops = base.get("achieved_kops"), cur.get("achieved_kops")
    if b_kops and c_kops is not None and rel(b_kops, c_kops) < -tol:
        failures.append((name, "achieved_kops", b_kops, c_kops,
                         100.0 * rel(b_kops, c_kops)))

    bp, cp = all_point(base), all_point(cur)
    for metric in ("p99_us", "p999_us"):
        b, c = bp.get(metric), cp.get(metric)
        if b and c is not None and rel(b, c) > tol:
            failures.append((name, metric, b, c, 100.0 * rel(b, c)))

    b_err = base.get("failed", 0) + base.get("timed_out", 0)
    c_err = cur.get("failed", 0) + cur.get("timed_out", 0)
    if c_err > b_err:
        failures.append((name, "errors", b_err, c_err, float("inf")))


def newest_run(db, figure, matches):
    """The newest run of `db` (if it holds `figure`) that `matches`."""
    baseline = None
    if db is not None and db.get("figure") == figure:
        for run in db.get("runs", []):
            if matches(run):
                baseline = run
    return baseline


def no_baseline(args, msg):
    if args.require_baseline:
        raise SystemExit(msg)
    print(msg + " — nothing to gate against, passing")
    return 0


def check_perfbench(args, cur):
    name = "%s seed %d" % (cur["workload"], cur["seed"])
    baseline = newest_run(
        load_db(args.db), "perfbench",
        lambda r: r.get("workload") == cur["workload"] and r.get("seed") == cur["seed"])
    if baseline is None:
        return no_baseline(args, "bench_gate: no recorded baseline for %s" % name)
    base_fp, cur_fp = baseline["fingerprint"], cur["fingerprint"]
    diffs = [(k, base_fp.get(k), cur_fp.get(k))
             for k in sorted(set(base_fp) | set(cur_fp))
             if base_fp.get(k) != cur_fp.get(k)]
    commit = baseline.get("recorded_at_commit", "?")
    if diffs:
        print("bench_gate: FAIL — %s fingerprint differs from the run @ %s "
              "in %d field(s):" % (name, commit, len(diffs)))
        for key, b, c in diffs:
            print("  %-16s %s -> %s" % (key, b, c))
        return 1
    print("bench_gate: OK — %s fingerprint identical (%d fields) to the run @ %s"
          % (name, len(cur_fp), commit))
    return 0


def cmd_check(args):
    text = read_text(args.bench_output)
    if is_perfbench(text):
        return check_perfbench(args, read_perfbench(text, args.bench_output))
    doc = read_bench_doc(text, args.bench_output)
    profile = profile_of(doc)
    baseline = newest_run(load_db(args.db), doc["figure"],
                          lambda r: r.get("profile") == profile)
    if baseline is None:
        return no_baseline(args, "bench_gate: no recorded baseline for figure "
                           "%r profile %r" % (doc["figure"], profile))

    base_by_name = {s["name"]: s for s in baseline["series"]}
    cur_by_name = {s["name"]: s for s in doc["series"]}
    failures = []
    matched = 0
    for name, cur in cur_by_name.items():
        base = base_by_name.get(name)
        if base is None:
            print("bench_gate: series %r has no baseline (new?)" % name)
            if args.require_same_series:
                failures.append((name, "missing-baseline", 0, 0, 0.0))
            continue
        matched += 1
        check_series(base, cur, args.tolerance, failures)
    for name in base_by_name:
        if name not in cur_by_name:
            print("bench_gate: baseline series %r absent from output" % name)
            if args.require_same_series:
                failures.append((name, "missing-series", 0, 0, 0.0))

    if failures:
        print("bench_gate: FAIL — %d regression(s) vs baseline @ %s "
              "(tolerance %.0f%%):"
              % (len(failures), baseline.get("recorded_at_commit", "?"),
                 100.0 * args.tolerance))
        for name, metric, b, c, pct in failures:
            print("  %-32s %-14s %10.3f -> %10.3f  (%+.1f%%)"
                  % (name, metric, float(b), float(c), pct))
        return 1
    print("bench_gate: OK — %d series within %.0f%% of baseline @ %s"
          % (matched, 100.0 * args.tolerance,
             baseline.get("recorded_at_commit", "?")))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="bench_gate")
    sub = ap.add_subparsers(dest="cmd", required=True)

    rec = sub.add_parser("record", help="append a run to the trajectory db")
    rec.add_argument("--bench-output", required=True,
                     help="bench binary or perfbench/run.py stdout "
                          "capture ('-' = stdin)")
    rec.add_argument("--db", required=True, help="trajectory JSON file")
    rec.add_argument("--commit", default=None,
                     help="override the recorded commit id")
    rec.set_defaults(func=cmd_record)

    chk = sub.add_parser("check", help="gate a run against the baseline")
    chk.add_argument("--bench-output", required=True,
                     help="bench binary or perfbench/run.py stdout "
                          "capture ('-' = stdin)")
    chk.add_argument("--db", required=True, help="trajectory JSON file")
    chk.add_argument("--tolerance", type=float, default=0.10,
                     help="allowed relative slack per gated bench JSON "
                          "metric (default 0.10 = 10%%)")
    chk.add_argument("--require-baseline", action="store_true",
                     help="fail when the db has no run for this profile "
                          "(or workload and seed)")
    chk.add_argument("--require-same-series", action="store_true",
                     help="fail on series present only on one side")
    chk.set_defaults(func=cmd_check)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
