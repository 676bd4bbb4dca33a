"""Print every statement of ``src/nuceft`` that the test suite never runs.

    python tools/uncovered.py [pytest arguments]

It runs ``pytest.main`` (on this checkout's ``tests`` unless arguments are
given) under a ``sys.settrace`` hook that records the lines executed in
``src/nuceft``, then prints each statement none of whose lines ran, as
``file:line: source``, followed by a count per module.  A statement is a
simple statement's lines, or a compound statement's header with its
decorators; docstrings and lines that compile to no code are left out.
Code that runs only in a child process (the tests that start
``python -m nuceft.cli``) is not seen, so it is listed as never run.

Standard library only, apart from pytest; outside the test suite.  The
tracing makes the suite several times slower.  The exit code is pytest's.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nuceft"


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on ``args``, and the lines run per package file."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def code_lines(code) -> set[int]:
    """The lines that ``code`` and every code object nested in it run."""
    lines, stack = set(), [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, _, line in c.co_lines() if line is not None)
        stack.extend(k for k in c.co_consts if isinstance(k, type(c)))
    return lines


def statements(tree: ast.Module):
    """(first line, the lines that count as the statement) per statement."""
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        # a compound statement is its header; its body is counted apart
        last = (max(node.lineno, body[0].lineno - 1)
                if isinstance(body, list) and body else node.end_lineno)
        yield first, range(first, last + 1)


def never_run(path: Path, ran: set[int]) -> tuple[list[int], int]:
    """The first lines of the statements of ``path`` that never ran, and
    how many statements it has."""
    source = path.read_text()
    runnable = code_lines(compile(source, str(path), "exec"))
    missed, total = [], 0
    for first, lines in statements(ast.parse(source)):
        if runnable.isdisjoint(lines):
            continue
        total += 1
        if ran.isdisjoint(lines):
            missed.append(first)
    return sorted(missed), total


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    code, ran = run_traced(argv or ["-q", str(ROOT / "tests")])
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        missed, total = never_run(path, ran.get(str(path), set()))
        name = path.relative_to(ROOT).as_posix()
        lines = path.read_text().splitlines()
        for line in missed:
            print(f"{name}:{line}: {lines[line - 1].strip()}")
        counts.append((name, len(missed), total))
    print()
    for name, missed, total in counts:
        print(f"{name}: {missed} of {total} statements never ran")
    print(f"total: {sum(c[1] for c in counts)} of "
          f"{sum(c[2] for c in counts)} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
