"""Mutation probe of the ``raise`` statements in a module: which checks does no test rely on?

Each ``raise`` in the given source files (by default every
``src/isoguard/*.py``) is replaced by ``pass``, one at a
time, in a scratch copy of the repository (``src/``, ``tests/``, ``demos/``,
``pyproject.toml`` and ``README.md``; the checkout itself is never edited).
For each mutant the test files run with ``-x`` under a per-mutant timeout.
A mutant is killed when a test fails or the run times out (a removed guard
can turn an error into an endless loop); it survives when every test
passes. The survivors are the checks that no test relies on.

``tests/test_acceptance.py`` is left out: it holds the two
deliberate criterion-2 failures, which would kill every mutant.

    python tests/mutate_raises.py
    python tests/mutate_raises.py src/isoguard/classifiers.py src/isoguard/errors.py
    python tests/mutate_raises.py --root ../other-checkout --timeout 120 src/isoguard/errors.py

Needs only the standard library and the repository's own test set-up.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COPIED = ("src", "tests", "demos", "pyproject.toml", "README.md")


def raise_sites(source: str) -> list[ast.Raise]:
    """Every ``raise`` statement of ``source``, in source order."""
    sites = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
    return sorted(sites, key=lambda node: (node.lineno, node.col_offset))


def mutant(source: str, site: ast.Raise) -> str:
    """``source`` with the statement ``site`` replaced by ``pass``; every other line keeps its number."""
    lines = source.splitlines(keepends=True)
    first, last = site.lineno - 1, site.end_lineno - 1
    head = lines[first][: site.col_offset]
    tail = lines[last][site.end_col_offset :]
    blank = ["\n"] * (last - first)  # keeps the line numbers of what follows
    return "".join(lines[:first] + [head + "pass" + tail] + blank + lines[last + 1 :])


def run_tests(copy: Path, test_files: list[str], timeout: float) -> str:
    """"passed", "failed" or "timeout" for one pytest run in ``copy``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *test_files]
    try:
        done = subprocess.run(
            cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "modules", nargs="*", help="source files to mutate, relative to --root (default: every src/isoguard/*.py)"
    )
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent, type=Path, help="repository to copy")
    parser.add_argument("--timeout", type=float, default=180.0, help="seconds per mutant before it counts as killed")
    parser.add_argument("--workdir", default=None, help="directory for the scratch copy (default: the system's)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    modules = args.modules or sorted(str(p.relative_to(root)) for p in (root / "src" / "isoguard").glob("*.py"))
    tests = sorted(
        str(p.relative_to(root)) for p in (root / "tests").glob("test_*.py") if p.name != "test_acceptance.py"
    )
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        copy = Path(tmp) / "repo"
        for name in COPIED:
            src = root / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__", "_out"))
            elif src.exists():
                shutil.copy2(src, copy / name)
        if run_tests(copy, tests, args.timeout) != "passed":
            print("the unmutated tests do not pass; nothing to probe", file=sys.stderr)
            return 2
        survivors, total = [], 0
        for module in modules:
            target = copy / module
            original = target.read_text(encoding="utf-8")
            try:
                for site in raise_sites(original):
                    total += 1
                    target.write_text(mutant(original, site), encoding="utf-8")
                    start = time.monotonic()
                    outcome = run_tests(copy, tests, args.timeout)
                    where = f"{module}:{site.lineno}"
                    print(f"{where}: {outcome} ({time.monotonic() - start:.1f} s)", flush=True)
                    if outcome == "passed":
                        survivors.append(where)
            finally:
                target.write_text(original, encoding="utf-8")
    print(f"{len(survivors)} of {total} raise statements survive:")
    for where in survivors:
        print(f"  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
