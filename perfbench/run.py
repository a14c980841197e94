"""isoguard benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload rfe-1k --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Each run builds the workload input from
``--seed`` (timed as set-up, several times), runs the job once untimed
with ``ISOGUARD_THREADS=1`` as the serial reference, then runs the job
repeatedly in fresh processes for about ``--seconds`` seconds with the
program's default thread setting. Every job's outputs must match the
reference byte for byte (pipeline artifacts) or exactly (scores); a job
that fails or mismatches is counted in ``failed`` and never timed.

With ``--trace 1`` the run alternates untraced and traced jobs and
reports the per-layer metrics instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / "_work"
RESULTS = BENCH / "_results"

SETUP_REPEATS = 5
MIN_JOBS = 2
JOB_TIMEOUT_S = 120
# stop starting jobs once the run would pass this, so it ends within 180 s
RUN_BUDGET_S = 150
GATED_FILES = ("report.json", "rfe.json", "verdicts_train.csv", "verdicts_test.csv")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# The bounded end-to-end metrics (BENCHMARK.json). rows_per_s is printed
# too, but a workload's row count is fixed, so it only restates wall_s.
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "artifact_bytes": "bytes",
}


class BenchError(Exception):
    """The run cannot produce a result: set-up or the serial reference failed."""


def say(line: str) -> None:
    print(line, flush=True)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# environment


def timed_env() -> dict:
    """The program's default thread setting, capped at nproc only when the
    default (one worker per CPU) would exceed the CPUs this process may use."""
    env = dict(os.environ)
    env.pop("ISOGUARD_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    nproc = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > nproc:
        env["ISOGUARD_THREADS"] = str(nproc)
    return env


def environment(env: dict, workers: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "os_cpu_count": os.cpu_count(),
        "affinity": affinity,
        "isoguard_threads": (
            f"{env['ISOGUARD_THREADS']} (set: the default, os.cpu_count(), exceeds nproc)"
            if "ISOGUARD_THREADS" in env
            else "unset (program default)"
        ),
        "parallel_worker_count": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# jobs and the correctness gate


def job(args: list[str], env: dict) -> dict:
    """Run perfbench/job.py in a fresh process; its last stdout line is JSON."""
    cmd = [sys.executable, str(BENCH / "job.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {JOB_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"ok": False, "error": f"exit {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def mismatches(kind: str, ref: Path, out: Path) -> list[str]:
    """Outputs of ``out`` that differ from the serial reference ``ref``."""
    if kind == "score":
        import numpy as np

        ref_npz, out_npz = (p.parent / f"{p.name}.gate.npz" for p in (ref, out))
        if not out_npz.is_file():
            return [out_npz.name]
        with np.load(ref_npz) as a, np.load(out_npz) as b:
            return [k for k in ("labels", "scores") if not np.array_equal(a[k], b[k])]
    models = {p.name for p in ref.glob("model_*.json")} | {p.name for p in out.glob("model_*.json")}
    bad = []
    for name in (*GATED_FILES, *sorted(models)):
        a, b = ref / name, out / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            bad.append(name)
    return bad


def judge(result: dict, kind: str, ref: Path, out: Path) -> str | None:
    """Why a job counts as failed, or None when it passed the gate."""
    if not result.get("ok"):
        return result.get("error", "job reported failure")
    if result.get("restored") is False:
        return "tracer left a rebound attribute in place"
    bad = mismatches(kind, ref, out)
    return f"differs from the serial reference: {', '.join(bad)}" if bad else None


def reference_digest(kind: str, ref: Path) -> tuple[str, str]:
    if kind == "score":
        return "labels+scores", sha256_file(ref.parent / f"{ref.name}.gate.npz")
    return "report.json", sha256_file(ref / "report.json")


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float], higher_is_better: bool = False) -> str:
    """The worst-side percentile with at least ten samples beyond it, else the worst value."""
    n = len(values)
    if higher_is_better:
        values = [-v for v in values]
    if n >= 11:
        p = int(100.0 * (n - 10) / n)
        q = statistics.quantiles(values, n=100, method="inclusive")[max(0, p - 1)]
        return f"{'p' + str(100 - p) if higher_is_better else 'p' + str(p)} {abs(q):.6g}"
    worst = max(values)
    return f"{'min' if higher_is_better else 'max'} {abs(worst):.6g} (n<11: no percentile has 10 samples beyond it)"


def medians(samples: list[dict]) -> dict:
    keys = samples[0].keys()
    return {k: statistics.median(s[k] for s in samples) for k in keys}


# ---------------------------------------------------------------------------
# the run


@dataclass
class Outcome:
    wl: object
    setups: list[dict]
    ref: dict
    digest: str
    passed: list[dict]  # untraced jobs that passed the gate
    traced: list[dict]  # traced jobs that passed the gate
    failures: list[str]
    attempted: int


def run(workload: str, seed: int, seconds: int, trace: bool) -> Outcome:
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    started = time.perf_counter()
    env = timed_env()
    ref_env = dict(env, ISOGUARD_THREADS="1")
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = [job(["setup", workload, str(seed), str(work)], env) for _ in range(SETUP_REPEATS)]
        if any("setup_s" not in s for s in setups):
            raise BenchError(f"set-up failed: {next(s['error'] for s in setups if 'setup_s' not in s)}")
        if len({s["input_sha256"] for s in setups}) != 1:
            raise BenchError("set-up is not deterministic: the same seed built different inputs")
        say(f"workload {workload} seed {seed}: input sha256 {setups[0]['input_sha256'][:16]}")

        ref = work / "ref"
        ref_result = job(["run", workload, str(seed), str(work), str(ref)], ref_env)
        if not ref_result.get("ok"):
            raise BenchError(f"serial reference failed: {ref_result.get('error')}")
        what, digest = reference_digest(wl.kind, ref)
        say(f"serial reference (ISOGUARD_THREADS=1): wall {ref_result['wall_s']:.4f} s, {what} sha256 {digest}")

        passed: list[dict] = []
        traced: list[dict] = []
        failures: list[str] = []
        attempted = 0
        durations: list[float] = []
        # a traced run alternates an untraced and a traced job, so both see the same machine state
        rounds = [None, RESULTS / f"{workload}-seed{seed}.spans.jsonl"] if trace else [None]
        loop_start = time.perf_counter()
        while True:
            for spans in rounds:
                attempted += 1
                out = work / f"job{attempted}"
                args = ["run", workload, str(seed), str(work), str(out)]
                t0 = time.perf_counter()
                result = job(args + (["--spans", str(spans)] if spans else []), env)
                durations.append(time.perf_counter() - t0)
                reason = judge(result, wl.kind, ref, out)
                shutil.rmtree(out, ignore_errors=True)
                (work / f"{out.name}.gate.npz").unlink(missing_ok=True)
                if reason:
                    failures.append(reason)
                    say(f"job {attempted}: FAILED ({reason})")
                    continue
                say(f"job {attempted}{' (traced)' if spans else ''}: wall {result['wall_s']:.4f} s")
                (traced if spans else passed).append(result)
            now = time.perf_counter()
            next_round = statistics.median(durations) * len(rounds)
            if attempted >= MIN_JOBS and (now - loop_start >= seconds or now - started + next_round > RUN_BUDGET_S):
                break
        return Outcome(wl, setups, ref_result, digest, passed, traced, failures, attempted)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(r: Outcome) -> dict:
    samples = [
        {
            "wall_s": p["wall_s"],
            "rows_per_s": r.wl.rows / p["wall_s"],
            "cpu_s": p["cpu_s"],
            "peak_rss_mb": p["peak_rss_mb"],
            "artifact_bytes": p["artifact_bytes"],
        }
        for p in r.passed
    ]
    metrics = medians(samples)
    metrics["artifact_bytes"] = statistics.median_low(s["artifact_bytes"] for s in samples)  # an exact count
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in r.setups)
    units = dict(END_TO_END_UNITS, rows_per_s="1/s")
    for name in ("wall_s", "rows_per_s", "cpu_s"):
        values = [s[name] for s in samples]
        worst = tail(values, higher_is_better=name == "rows_per_s")
        say(f"{name:<15} {metrics[name]:.6g} {units[name]}  median of {len(values)}; {worst}")
    for name in ("peak_rss_mb", "setup_s", "artifact_bytes"):
        n = len(r.setups) if name == "setup_s" else len(samples)
        say(f"{name:<15} {metrics[name]:.6g} {END_TO_END_UNITS[name]}  median of {n}")
    return {name: {"value": metrics[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}


def per_layer(r: Outcome) -> dict:
    from tracer import layer_units

    layers = medians([t["layers"] for t in r.traced])
    untraced = statistics.median(p["wall_s"] for p in r.passed)
    traced = statistics.median(t["wall_s"] for t in r.traced)
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    units = layer_units()
    for name, value in layers.items():
        say(f"{name:<40} {value:.6g} {units[name]}")
    check = r.wl.loads
    share = sum(layers[name] for name in check.metrics) / traced
    verdict = "ok" if share >= check.min_share else "NOT MET"
    say(
        f"intended layer: {' + '.join(check.metrics)} = {share:.1%} of traced wall_s "
        f"(needs >= {check.min_share:.0%}): {verdict}"
    )
    return {name: {"value": value, "unit": units[name]} for name, value in layers.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="isoguard benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isoguard" / "__init__.py").is_file():
        print(f"isoguard benchmark: no program sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"isoguard benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("isoguard benchmark: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    try:
        r = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"isoguard benchmark: {e}", file=sys.stderr)
        return 1
    if not (r.passed and (r.traced or not args.trace)):
        print(f"isoguard benchmark: every job failed: {r.failures[0]}", file=sys.stderr)
        return 1

    workers = r.passed[0]["workers"]
    env = environment(timed_env(), workers)
    say("env " + json.dumps(env, sort_keys=True))
    failed = len(r.failures)
    say(f"failed_frac     {failed / r.attempted:.6g}  ({failed} of {r.attempted} runs)")
    metrics = per_layer(r) if args.trace else end_to_end(r)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "reference": {"wall_s": r.ref["wall_s"], "sha256": r.digest},
        "setups": r.setups,
        "jobs": r.passed + r.traced,
        "failures": r.failures,
        "metrics": metrics,
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    result = {"correct": failed == 0, "attempted": r.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
