#!/usr/bin/env python3
"""simlint — the SKV simulator's lint driver.

Builds the file list once, parses each file once through the text frontend
(frontend.py), and runs three rule families over that shared parse:

  determinism.py  raw-rng, wall-clock, unordered-iteration, bare-assert,
                  stdout-io (DESIGN.md §9)
  ownership.py    cycle, use-after-move, unchecked-status,
                  reentrant-handler (DESIGN.md §10)
  protocol.py     duplicate-tag, unhandled-tag, dead-send, dead-handler,
                  repl-command, observe-taint, knob-drift (DESIGN.md §14)

Every rule applies to every file; each module's docstring explains its
rules. Findings print as `file:line: [rule] message (detail)`.

Suppressions
  A finding on line N is suppressed by a comment on line N or line N-1:
      // simlint:allow(<rule>) <reason>
  The reason is mandatory, and an unknown rule name is an error, so every
  intentional exception stays self-documenting. `// simlint:observe-only`
  on a function definition (or the line above) makes it an observe-taint
  seed, like everything under src/obs/.

Usage
  simlint.py --compile-commands build/compile_commands.json --src-root src \\
             --doc EXPERIMENTS.md
  simlint.py [--doc knobs.md] file1.cpp file2.hpp   # explicit files

Explicit files override --compile-commands. knob-drift runs only with
--doc. Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import determinism
import ownership
import protocol
from frontend import SourceFile, UsageError

RULES = {**determinism.RULES, **ownership.RULES, **protocol.RULES}


def files_from_compile_commands(db_path: Path, src_root: Path) -> list[Path]:
    """Every TU under src_root that appears in the compile database, plus a
    header sweep (headers never appear in the database but carry
    declarations the rules must see)."""
    try:
        entries = json.loads(db_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"simlint: cannot load {db_path}: {e}") from e
    root = src_root.resolve()
    out: set[Path] = set()
    for entry in entries:
        f = Path(entry["directory"], entry["file"]).resolve()
        if f.is_relative_to(root):
            out.add(f)
    for pattern in ("*.hpp", "*.h"):
        out.update(h.resolve() for h in root.rglob(pattern))
    return sorted(out)


def load(args: argparse.Namespace) -> tuple[list[SourceFile], str | None]:
    """The parsed files and the knob documentation text (None: no --doc)."""
    paths = args.files or files_from_compile_commands(args.compile_commands,
                                                      args.src_root)
    if not paths:
        raise UsageError("simlint: no files to lint")
    doc_text = None
    if args.doc:
        try:
            doc_text = args.doc.read_text()
        except OSError as e:
            raise UsageError(f"simlint: cannot read --doc {args.doc}: {e}") from e
    return [SourceFile(p, RULES) for p in paths], doc_text


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--compile-commands", type=Path,
                    help="compile_commands.json to take the file list from")
    ap.add_argument("--src-root", type=Path, default=Path("src"),
                    help="only lint files under this root (default: src)")
    ap.add_argument("--doc", type=Path,
                    help="knob documentation checked by knob-drift")
    ap.add_argument("files", nargs="*", type=Path,
                    help="explicit files to lint (overrides --compile-commands)")
    args = ap.parse_args()
    if not args.files and not args.compile_commands:
        ap.error("need either explicit files or --compile-commands")

    try:
        files, doc_text = load(args)
    except UsageError as e:
        print(e, file=sys.stderr)
        return 2

    findings = (determinism.check(files) + ownership.check(files)
                + protocol.check(files, doc_text))
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    for f in findings:
        detail = f" ({f.detail})" if f.detail else ""
        print(f"{f.path}:{f.line}: [{f.rule}] {RULES[f.rule]}{detail}")
    if findings:
        print(f"simlint: {len(findings)} finding(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    print(f"simlint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
