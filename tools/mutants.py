"""Run the tests against each one-comparison mutant of some modules.

    python3 tools/mutants.py MODULE... [--list] [--tests PATH...]

Each MODULE is a source file, named from the repository root.  Every
comparison operator in it gives one mutant: ``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in`` swap.
Each mutant runs ``pytest -x`` over the tests at PATH (all of ``tests/`` by
default) in a temporary copy of the tree, ``.git`` and caches left out, so
that pytest's ``pythonpath = ["src"]`` loads the mutant, not the checkout.
A mutant survives when every test passes; one that runs past a time-out
(30 s plus five times the unmutated run) counts as killed.  ``--list``
prints the mutants and runs nothing.

Exits 0 when every survivor is listed in ``EQUIVALENT``, 1 when one is not,
and 2 when the unmutated tests fail or a run cannot start.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each comparison operator, its text, and the text it is swapped for
SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
}
NODES = {text: op for op, (text, _) in SWAPS.items()}
# an operator's text between its operands, which hold nothing else but brackets
PATTERNS = {text: re.compile(rb"(?<![\w<>=!])" + rb"\s+".join(map(re.escape, text.encode().split())) + rb"(?![\w<>=])")
            for text in NODES}

# Mutants that no test can kill, as (module, the line stripped with the
# swapped operator in brackets, the operator it becomes): why the program
# behaves the same either way.
EQUIVALENT: dict[tuple[str, str, str], str] = {
    ("src/twinloop/jsonio.py", "if end [<] 0 or line[end:].strip(_JSON_SPACE):", "<="):
        "A scan that succeeds has consumed at least one character, so end is never 0.",
}


@dataclass(frozen=True)
class Mutant:
    module: str
    lineno: int
    line: str  # stripped, the operator in brackets
    new: str
    source: bytes  # the whole mutated module

    @property
    def key(self) -> tuple[str, str, str]:
        return self.module, self.line, self.new

    def __str__(self) -> str:
        return f"{self.module}:{self.lineno}: {self.line}  -> {self.new}"


def mutants(module: str) -> list[Mutant]:
    """Every one-comparison mutant of ``module``, in source order."""
    source = (ROOT / module).read_bytes()
    lines = source.splitlines(keepends=True)
    starts = [0]
    for raw in lines:
        starts.append(starts[-1] + len(raw))
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for i, (op, right) in enumerate(zip(node.ops, node.comparators)):
            left = node.comparators[i - 1] if i else node.left
            # ast offsets count UTF-8 bytes
            begin = starts[left.end_lineno - 1] + left.end_col_offset
            end = starts[right.lineno - 1] + right.col_offset
            old, new = SWAPS[type(op)]
            match = PATTERNS[old].search(source, begin, end)
            if match is None:
                raise SystemExit(f"{module}:{node.lineno}: no {old!r} between the operands")
            at, width = match.start(), len(match.group())
            mutated = source[:at] + new.encode() + source[at + width :]
            lineno = source[:at].count(b"\n") + 1
            # the mutant must be its module with this one operator swapped
            node.ops[i] = NODES[new]()
            if ast.dump(tree) != ast.dump(ast.parse(mutated)):
                raise SystemExit(f"{module}:{lineno}: swapping {old!r} for {new!r} changed more than the operator")
            node.ops[i] = op
            line = source[starts[lineno - 1] : at] + b"[" + source[at : at + width] + b"]"
            line += source[at + width : starts[lineno]]
            found.append(Mutant(module, lineno, line.decode("utf-8").strip(), new, mutated))
    return sorted(found, key=lambda m: (m.lineno, m.line))


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> str:
    """``passed``, ``failed`` or ``timed out``: the tests in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        code = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return "timed out"
    if code not in (0, 1, 2):  # 2: a mutant that fails to import stops collection
        raise SystemExit(f"pytest {' '.join(tests)} exited {code} in {copy}")
    return "passed" if code == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", metavar="MODULE")
    parser.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    parser.add_argument("--tests", nargs="+", default=["tests"], metavar="PATH")
    args = parser.parse_args(argv)
    modules = [Path(m).resolve().relative_to(ROOT).as_posix() for m in args.modules]
    found = [m for module in modules for m in mutants(module)]
    if args.list:
        for m in found:
            print(m, *["(equivalent)"] * (m.key in EQUIVALENT))
        return 0
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / ROOT.name
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".hypothesis"))
        t0 = time.monotonic()
        if run_tests(copy, args.tests, None) != "passed":
            print("the tests fail on the unmutated source", file=sys.stderr)
            return 2
        timeout = 30.0 + 5.0 * (time.monotonic() - t0)
        for n, m in enumerate(found, 1):
            (copy / m.module).write_bytes(m.source)
            try:
                outcome = run_tests(copy, args.tests, timeout)
            finally:
                shutil.copy2(ROOT / m.module, copy / m.module)
            print(f"[{n}/{len(found)}] {outcome:9} {m}", flush=True)
            if outcome == "passed":
                survivors.append(m)
    unexplained = [m for m in survivors if m.key not in EQUIVALENT]
    print(f"{len(found)} mutants, {len(survivors)} survived, {len(unexplained)} not listed as equivalent")
    for m in survivors:
        print(f"survived: {m}", *[] if m in unexplained else [f"(equivalent: {EQUIVALENT[m.key]})"])
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
