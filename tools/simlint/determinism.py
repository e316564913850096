"""Determinism rules: keep the discrete-event simulation seed-determined.

Every guarantee the repository makes (bit-identical reruns, the figure
regression curves, the chaos suite) rests on the simulation staying
deterministic; see DESIGN.md §9 "Determinism rules".

  raw-rng             rand()/srand()/std::random_device/std::mt19937/... are
                      banned outside src/sim/rng.* — all randomness must flow
                      from the seeded xoshiro Rng.
  wall-clock          system_clock/steady_clock/time()/gettimeofday/... are
                      banned outside src/sim/time.* — sim code may only
                      observe SimTime.
  unordered-iteration iterating a std::unordered_{map,set} is banned in
                      sim-visible code: iteration order is
                      implementation-defined and leaks into event scheduling.
                      Lookup/insert/erase are fine.
  bare-assert         assert() is banned in src/ — use SKV_CHECK/SKV_DCHECK
                      (sim/check.hpp), which print seed, sim time and owning
                      node on failure.
  stdout-io           std::cout / printf / puts are banned in library code
                      outside src/obs/export* — components report through
                      obs::Registry; diagnostics go to stderr.
"""

from __future__ import annotations

import re
from pathlib import Path

from frontend import Finding, SourceFile

RAW_RNG = re.compile(
    r"""(?<![\w:])(?:
        (?:std\s*::\s*)?s?rand\s*\( |
        (?:std\s*::\s*)?[ld]rand48\s*\( |
        (?:std\s*::\s*)?random_device\b |
        (?:std\s*::\s*)?mt19937(?:_64)?\b |
        (?:std\s*::\s*)?minstd_rand0?\b |
        (?:std\s*::\s*)?default_random_engine\b |
        (?:std\s*::\s*)?(?:uniform_int|uniform_real|bernoulli|normal|
                          exponential|poisson)_distribution\b |
        (?:std\s*::\s*)?(?:random_)?shuffle\s*[(<]
    )""",
    re.X,
)

WALL_CLOCK = re.compile(
    r"""(?<![\w:])(?:
        (?:std\s*::\s*)?(?:chrono\s*::\s*)?(?:system_clock|steady_clock|
                                             high_resolution_clock)\b |
        time\s*\(\s*(?:NULL|nullptr|0|&)?[\w\s]*\) |
        clock\s*\(\s*\) |
        gettimeofday\s*\( |
        clock_gettime\s*\( |
        localtime(?:_r)?\s*\( |
        gmtime(?:_r)?\s*\(
    )""",
    re.X,
)

BARE_ASSERT = re.compile(r"(?<![\w.])assert\s*\(")

STDOUT_IO = re.compile(
    r"""(?:
        (?<![\w:])std\s*::\s*cout\b |
        (?<![\w:])printf\s*\( |
        (?<![\w:])puts\s*\(
    )""",
    re.X,
)

UNORDERED_DECL = re.compile(r"(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")

RULES = {
    "raw-rng": "raw RNG source; use sim::Rng (src/sim/rng.hpp) so results are seed-determined",
    "wall-clock": "wall-clock read; sim code must use sim::SimTime (src/sim/time.hpp)",
    "unordered-iteration": "iteration over an unordered container; order is implementation-defined and leaks into event scheduling",
    "bare-assert": "bare assert(); use SKV_CHECK/SKV_DCHECK (sim/check.hpp) for seed/sim-time/node diagnostics",
    "stdout-io": "stdout in library code; report via obs::Registry, diagnostics to stderr",
}

# Files where a rule is allowed by design (the single blessed implementation).
EXEMPT = {
    "raw-rng": re.compile(r"(?:^|/)src/sim/rng\.(?:hpp|cpp)$"),
    "wall-clock": re.compile(r"(?:^|/)src/sim/time\.(?:hpp|cpp)$"),
    # The observability exporters are the single place library code may
    # write to stdout (obs::print_stdout/print_line/print_bench_json);
    # everything else routes its output through them.
    "stdout-io": re.compile(r"(?:^|/)src/obs/export[^/]*$"),
}


def exempt(rule: str, path: Path) -> bool:
    pat = EXEMPT.get(rule)
    return pat is not None and pat.search(path.as_posix()) is not None


def unordered_names(text: str) -> set[str]:
    """Names of variables/members declared with an unordered container type
    anywhere in the file (heuristic: identifier following the closing '>' of
    an unordered_* template argument list, also through alias declarations)."""
    names: set[str] = set()
    aliases: set[str] = set()
    for m in UNORDERED_DECL.finditer(text):
        # walk the balanced <...> to its end
        i = text.index("<", m.start())
        depth = 0
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = text[i + 1 : i + 200]
        # using Alias = std::unordered_map<...>;
        head = text[max(0, m.start() - 120) : m.start()]
        am = re.search(r"using\s+(\w+)\s*=\s*$", head)
        if am:
            aliases.add(am.group(1))
            continue
        dm = re.match(r"[&\s]*(\w+)\s*[;={(]", tail)
        if dm and dm.group(1) not in ("const", "final", "override"):
            names.add(dm.group(1))
    for alias in aliases:
        for m in re.finditer(rf"(?<![\w:]){alias}\s+(\w+)\s*[;={{(]", text):
            names.add(m.group(1))
    return names


def check_file(sf: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    unordered = unordered_names(sf.text)
    seen: set[tuple[int, str]] = set()

    for lineno, code in enumerate(sf.code, 1):
        def report(rule: str, detail: str = "") -> None:
            if exempt(rule, sf.path) or sf.suppressed(lineno, rule):
                return
            if (lineno, rule) in seen:
                return
            seen.add((lineno, rule))
            findings.append(Finding(sf.path, lineno, rule, detail))

        if RAW_RNG.search(code):
            report("raw-rng")
        if WALL_CLOCK.search(code):
            report("wall-clock")
        if BARE_ASSERT.search(code):
            report("bare-assert")
        if STDOUT_IO.search(code):
            report("stdout-io")
        # unordered-iteration: range-for over a tracked name, begin()/cbegin()
        # on a tracked name, or range-for directly over an unordered temporary.
        for m in re.finditer(r"for\s*\([^;)]*:\s*([\w.\->]+)\s*\)", code):
            base = m.group(1).split(".")[-1].split("->")[-1]
            if base in unordered:
                report("unordered-iteration", f"range-for over '{base}'")
        # begin() starts an iteration; a lone end() is the find()-idiom
        # sentinel and stays legal.
        for m in re.finditer(r"(\w+)\s*\.\s*c?r?begin\s*\(", code):
            if m.group(1) in unordered:
                report("unordered-iteration", f"'{m.group(1)}.begin()'")
        if re.search(r"for\s*\([^;)]*:\s*[^)]*unordered_(?:map|set)", code):
            report("unordered-iteration", "range-for over unordered temporary")

    return findings


def check(files: list[SourceFile]) -> list[Finding]:
    return [f for sf in files for f in check_file(sf)]
