"""Which statements of ``src/isoguard`` do the benchmark workloads never run?

Runs ``perfbench/job.py``'s ``setup`` and then ``run`` for each named
workload (by default every one in ``perfbench/workloads.py``), in this
process, under ``sys.settrace`` and ``threading.settrace``, and prints each
statement of ``src/isoguard`` that none of them ran, grouped by function.
``isoguard`` is imported only once the trace is on, so module-level
statements count too. The checkout is only read: inputs and outputs go to a
temporary directory, and ``perfbench/`` is imported as it stands.

    python tests/untraced_lines.py
    python tests/untraced_lines.py --seed 7 rfe-1k score-220k
    ISOGUARD_THREADS=1 python tests/untraced_lines.py --root ../other-checkout

A statement counts as run when a line event fires on any of its own lines:
a simple statement's lines, or a compound statement's header. Lines that
compile to no bytecode, such as docstrings, are never listed. Run outside
tier-1, like ``tests/mutate_raises.py``; it takes a few minutes.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

COMPOUND = (ast.If, ast.For, ast.While, ast.With, ast.Try, ast.FunctionDef, ast.ClassDef)


def bytecode_lines(code) -> set[int]:
    """The lines that hold bytecode in ``code`` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= bytecode_lines(const)
    return lines


def statements(source: str) -> list[tuple[str, int, range]]:
    """(enclosing function, first line, own lines) of each statement of ``source``.

    A compound statement's own lines are its header, decorators included,
    up to its first body statement; its body's statements are listed apart.
    """
    found = []

    def visit(body: list[ast.stmt], scope: str) -> None:
        for node in body:
            if isinstance(node, COMPOUND):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                found.append((scope, node.lineno, range(first, max(node.body[0].lineno, node.lineno + 1))))
                child = scope
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    child = node.name if scope == "<module>" else f"{scope}.{node.name}"
                blocks = [node.body, getattr(node, "orelse", []), getattr(node, "finalbody", [])]
                for block in blocks + [handler.body for handler in getattr(node, "handlers", [])]:
                    visit(block, child)
            else:
                found.append((scope, node.lineno, range(node.lineno, node.end_lineno + 1)))

    visit(ast.parse(source).body, "<module>")
    return found


def traced_run(root: Path, names: list[str], seed: int, work: Path) -> dict[str, set[int]]:
    """Run the workloads' set-up and job in this process; the lines run per source file."""
    package = str((root / "src" / "isoguard").resolve())
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    threading.settrace(call)
    sys.settrace(call)
    try:
        import job
        from workloads import WORKLOADS

        for name in names or list(WORKLOADS):
            inputs, out = work / name / "work", work / name / "out"
            inputs.mkdir(parents=True)
            with contextlib.redirect_stdout(sys.stderr):  # the pipeline prints its report
                job.setup(name, seed, inputs)
                result = job.run(name, seed, inputs, out, None)
            print(f"{name}: ok={result['ok']} wall_s={result['wall_s']:.2f} (traced)", file=sys.stderr)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import isoguard

    if not str(Path(isoguard.__file__).resolve()).startswith(package):
        raise SystemExit(f"isoguard was imported from {isoguard.__file__}, not from {package}")
    return ran


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help="workload names (default: every workload)")
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent, type=Path, help="checkout to trace")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default: 7)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        ran = traced_run(root, args.workloads, args.seed, Path(tmp))
    total = missed = 0
    for path in sorted((root / "src" / "isoguard").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        compiled = bytecode_lines(compile(source, str(path), "exec"))
        lines_run = ran.get(str(path.resolve()), set())
        text = source.splitlines()
        by_scope: dict[str, list[int]] = defaultdict(list)
        for scope, first, own in statements(source):
            if compiled.isdisjoint(own):
                continue
            total += 1
            if lines_run.isdisjoint(own):
                missed += 1
                by_scope[scope].append(first)
        for scope, firsts in by_scope.items():
            print(f"{path.relative_to(root)}::{scope}")
            for first in firsts:
                print(f"  {first}: {text[first - 1].strip()}")
    print(f"{missed} of {total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
