"""One benchmark job, run in a fresh process so that its CPU time and peak
RSS belong to it alone.

    python3 perfbench/job.py setup WORKLOAD SEED WORKDIR
    python3 perfbench/job.py run WORKLOAD SEED WORKDIR OUTDIR [--spans PATH]

``setup`` times ``import isoguard`` plus building the workload input.
``run`` times the workload's job; with ``--spans`` it also installs the
tracer and reports per-layer metrics. The last line printed is a JSON
object with the measurements.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def setup(name: str, seed: int, work: Path) -> dict:
    t0 = time.perf_counter()
    import isoguard  # noqa: F401  (its import time is part of set-up)
    from workloads import WORKLOADS

    built = WORKLOADS[name].build_input(seed, work)
    setup_s = time.perf_counter() - t0
    if isinstance(built, Path):
        digest = hashlib.sha256(built.read_bytes()).hexdigest()
    else:
        digest = hashlib.sha256(b"".join(a.tobytes() for a in built)).hexdigest()
    return {"setup_s": setup_s, "input_sha256": digest}


def _pipeline_job(wl, seed: int, work: Path, out: Path) -> bool:
    from isoguard import cli

    config = wl.config_path(seed, work, out)
    rc = cli.cli_dispatch(["pipeline", "--config", str(config)])
    return rc == 0 and (out / "report.txt").is_file()


def _score_job(wl, seed: int, out: Path, X_fit, batches) -> list:
    from isoguard import iforest

    out.mkdir(parents=True, exist_ok=True)
    forest = iforest.fit_forest(X_fit, t=wl.trees, m=wl.subsample, seed=seed)
    iforest.save_forest(forest, out / "forest.json")
    forest = iforest.load_forest(out / "forest.json")
    return [iforest.predict(forest, b, threshold=wl.threshold) for b in batches]


def run(name: str, seed: int, work: Path, out: Path, spans: Path | None) -> dict:
    import numpy as np
    from isoguard import parallel
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    if wl.kind == "score":
        X_fit, X_score = wl.build_input(seed)
        batches = np.split(X_score, wl.n_batches)
    tracer = Tracer() if spans else None
    with tracer or contextlib.nullcontext():
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if wl.kind == "score":
            verdicts = _score_job(wl, seed, out, X_fit, batches)
            ok = True
        else:
            ok = _pipeline_job(wl, seed, work, out)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if wl.kind == "score":  # gate arrays go beside the output directory, not into it
        flat = [v for batch in verdicts for v in batch]
        np.savez(
            out.parent / f"{out.name}.gate.npz",
            labels=np.array([v.label for v in flat], dtype=np.int8),
            scores=np.array([v.score.s for v in flat], dtype=np.float64),
        )
    result = {
        "ok": ok,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "artifact_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        "workers": parallel.worker_count(),
    }
    if tracer is not None:
        result["restored"] = tracer.restored()
        result["layers"] = tracer.metrics(result["workers"])
        tracer.write_spans(spans)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("work", type=Path)
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.workload, args.seed, args.work)
    else:
        result = run(args.workload, args.seed, args.work, args.out, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
