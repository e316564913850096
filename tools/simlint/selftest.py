#!/usr/bin/env python3
"""Self-test for simlint, registered as the ctest `simlint_selftest`.

Each CASES row runs the driver once and checks its exit status, the exact
number of findings per rule, that every finding is `file:line: [rule]`
addressable, and any text the output must or must not contain. Every row
runs all rules, so a rule a row does not list must not fire: each fixture is
also a negative test for the other rule families.

`{fx}` in a row's arguments is the fixtures directory; `{tmp}` is a scratch
tree built from SCRATCH (blessed-file exemptions, an unknown allow rule, and
a compile_commands.json whose file list must be scoped to --src-root with
headers swept in).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SIMLINT = HERE / "simlint.py"
FINDING = re.compile(r"^[^:\s]+:\d+: \[([\w-]+)\] ")

# One violation per rule family, in a TU from the database, a swept header,
# and a TU outside --src-root that must not be linted.
ONE_PER_FAMILY = """\
#include <cstdlib>
struct NodeMsg {{
  enum class Type : char {{ k{0} = '{1}', k{0}2 = '{1}' }};
}};
struct Cq {{ int poll(); }};
void poll_{0}(Cq* cq) {{
    cq->poll();
}}
int draw_{0}() {{ return rand(); }}
"""

SCRATCH = {
    "src/sim/rng.cpp": "#include <random>\nstd::mt19937 g; // blessed home\n",
    "src/sim/time.cpp": "#include <chrono>\n"
                        "auto t = std::chrono::steady_clock::now();\n",
    "src/obs/export.cpp": '#include <cstdio>\n'
                          'void emit() { printf("JSON: {}\\n"); }\n',
    "src/obs/metrics.cpp": '#include <cstdio>\n'
                           'void leak() { printf("nope\\n"); }\n',
    "src/inside.cpp": ONE_PER_FAMILY.format("In", "i"),
    "src/swept.hpp": ONE_PER_FAMILY.format("Sw", "s"),
    "outside.cpp": ONE_PER_FAMILY.format("Out", "o"),
    "unknown_rule.cpp": "// simlint:allow(not-a-rule) whatever\nint x;\n",
}
DATABASE = ("src/sim/rng.cpp", "src/inside.cpp", "outside.cpp")


class Case(NamedTuple):
    name: str
    args: tuple[str, ...]
    rc: int
    counts: dict[str, int] = {}
    has: tuple[str, ...] = ()          # substrings of stdout
    lacks: tuple[str, ...] = ()        # ... that must not appear
    stderr_has: tuple[str, ...] = ()


def fixture(rel: str, rc: int, counts: dict[str, int] = {}, *extra: str,
            **kw) -> Case:
    return Case(rel, ("{fx}/" + rel, *extra), rc, counts, **kw)


CASES = [
    # --- determinism ---------------------------------------------------------
    fixture("determinism/bad_raw_rng.cpp", 1, {"raw-rng": 5}),
    fixture("determinism/bad_wall_clock.cpp", 1, {"wall-clock": 5}),
    # exactly 2: point lookups and inserts are not iteration
    fixture("determinism/bad_unordered_iteration.cpp", 1,
            {"unordered-iteration": 2}),
    # exactly 1: static_assert is not flagged
    fixture("determinism/bad_bare_assert.cpp", 1, {"bare-assert": 1}),
    # exactly 3: snprintf and fprintf(stderr) are not flagged
    fixture("determinism/bad_stdout_io.cpp", 1, {"stdout-io": 3}),
    fixture("determinism/clean.cpp", 0),
    fixture("determinism/suppressed.cpp", 0),
    Case("src/sim/rng.* and src/sim/time.* are exempt",
         ("{tmp}/src/sim/rng.cpp", "{tmp}/src/sim/time.cpp"), 0),
    Case("src/obs/export* is exempt from stdout-io",
         ("{tmp}/src/obs/export.cpp",), 0),
    Case("other src/obs files still trigger stdout-io",
         ("{tmp}/src/obs/metrics.cpp",), 1, {"stdout-io": 1}),
    # --- ownership -----------------------------------------------------------
    fixture("ownership/cycle_basic.cpp", 1, {"cycle": 1},
            has=("member 'channel'", "set_on_message handler captures",
                 "ClientConn -> Channel", "Channel -> ClientConn")),
    fixture("ownership/bad_use_after_move.cpp", 1, {"use-after-move": 1},
            has=("'payload'",)),
    fixture("ownership/bad_unchecked_status.cpp", 1, {"unchecked-status": 2},
            has=("polled and discarded", "never reads .success")),
    # exactly 1: a send posted from a nested callback is fine
    fixture("ownership/bad_reentrant_handler.cpp", 1,
            {"reentrant-handler": 1}),
    fixture("ownership/clean_weak.cpp", 0),
    fixture("ownership/suppressed.cpp", 0),
    # --- protocol ------------------------------------------------------------
    fixture("protocol/bad_duplicate_tag.cpp", 1, {"duplicate-tag": 1},
            has=("kBeta", "kAlpha", "'x'")),
    fixture("protocol/bad_unhandled_tag.cpp", 1, {"unhandled-tag": 2},
            has=("switch misses kBeta, kGamma", "type table misses kGamma")),
    fixture("protocol/bad_dead_send.cpp", 1, {"dead-send": 1},
            has=("kDrop", "explicitly ignores"), lacks=("kKeep",)),
    fixture("protocol/bad_dead_handler.cpp", 1, {"dead-handler": 1},
            has=("kGhost", "no send site"), lacks=("kLive",)),
    fixture("protocol/bad_repl_command.cpp", 1, {"repl-command": 1},
            has=("WSEQX", "no handle site")),
    fixture("protocol/bad_observe_taint.cpp", 1, {"observe-taint": 1},
            has=("sample -> nudge", "event-schedule")),
    # everything under src/obs/ is observe-only without annotation
    fixture("protocol/src/obs/bad_obs_sink.cpp", 1, {"observe-taint": 1},
            has=("trace-note",)),
    fixture("protocol/bad_knob.hpp", 1, {"knob-drift": 1},
            "--doc", "{fx}/protocol/knobs_doc.md",
            has=("mystery_knob",),
            lacks=("documented_knob", "excused_knob", "fixed_constant")),
    Case("knob-drift is skipped without --doc",
         ("{fx}/protocol/bad_knob.hpp",), 0),
    Case("a missing --doc file is a usage error",
         ("{fx}/protocol/bad_knob.hpp", "--doc", "{fx}/no_such_doc.md"), 2,
         stderr_has=("cannot read --doc",)),
    fixture("protocol/clean.cpp", 0),
    fixture("protocol/suppressed.cpp", 0),
    # --- driver --------------------------------------------------------------
    fixture("bad_allow_missing_reason.cpp", 2,
            stderr_has=("missing the mandatory reason",)),
    Case("an allow naming an unknown rule is a usage error",
         ("{tmp}/unknown_rule.cpp",), 2,
         stderr_has=("unknown rule", "raw-rng", "cycle", "dead-send")),
    Case("compile-commands mode scopes to src-root and sweeps headers",
         ("--compile-commands", "{tmp}/compile_commands.json",
          "--src-root", "{tmp}/src"), 1,
         {"raw-rng": 2, "unchecked-status": 2, "duplicate-tag": 2},
         has=("inside.cpp:3: [duplicate-tag]", "inside.cpp:7: [unchecked",
              "inside.cpp:9: [raw-rng]", "swept.hpp:3: [duplicate-tag]",
              "swept.hpp:7: [unchecked", "swept.hpp:9: [raw-rng]"),
         lacks=("outside.cpp", "rng.cpp")),
]

failures: list[str] = []


def expect(name: str, cond: bool, context: str) -> None:
    if cond:
        print(f"  ok  {name}")
    else:
        failures.append(name)
        print(f"FAIL  {name}\n{context}")


def run_case(case: Case, fx: Path, tmp: Path) -> None:
    args = [a.format(fx=fx, tmp=tmp) for a in case.args]
    r = subprocess.run([sys.executable, str(SIMLINT), *args],
                       capture_output=True, text=True)
    context = f"  exit={r.returncode}\n  stdout:\n{r.stdout}  stderr:\n{r.stderr}"
    lines = r.stdout.splitlines()
    fired = Counter(m.group(1) for l in lines if (m := FINDING.match(l)))
    expect(f"{case.name} exits {case.rc}", r.returncode == case.rc, context)
    for rule in sorted(set(case.counts) | set(fired)):
        want = case.counts.get(rule, 0)
        expect(f"{case.name} reports {want} [{rule}]", fired[rule] == want,
               context)
    if lines:
        expect(f"{case.name} findings are file:line addressable",
               sum(fired.values()) == len(lines), context)
    for text in case.has:
        expect(f"{case.name} names {text!r}", text in r.stdout, context)
    for text in case.lacks:
        expect(f"{case.name} omits {text!r}", text not in r.stdout, context)
    for text in case.stderr_has:
        expect(f"{case.name} explains {text!r}", text in r.stderr, context)


def main() -> int:
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        for rel, content in SCRATCH.items():
            (tmp / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp / rel).write_text(content)
        (tmp / "compile_commands.json").write_text(json.dumps([
            {"directory": td, "file": str(tmp / rel), "command": "c++ -c"}
            for rel in DATABASE]))
        for case in CASES:
            run_case(case, HERE / "fixtures", tmp)

    if failures:
        print(f"\nsimlint selftest: {len(failures)} failure(s)")
        return 1
    print("\nsimlint selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
