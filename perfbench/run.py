"""qcascade benchmark: one workload per call, each in fresh processes.

Run from the root of a checkout that holds ``src/qcascade``:

    python3 perfbench/run.py --workload eqb-verify --seed 1 --seconds 40 --trace 0

Workloads are listed in ``workloads.WORKLOADS`` and explained in README.md.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs half the time untraced and half traced and prints the per-layer
metrics. Either way the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
that line was printed, and another code (with no result) when the program
cannot be found or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


class RunError(RuntimeError):
    """A process of the benchmark failed; no result is printed."""


def _worker(args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py in a fresh process; returns (wall seconds, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work-dir", str(args.work)] + extra
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {' '.join(extra)} did not finish before the deadline") from None
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    if Path(out["qcascade_file"]).resolve().parent.parent != SRC.resolve():
        raise RunError(f"qcascade was imported from {out['qcascade_file']}, not from {SRC}")
    return seconds, out


def _end_to_end(args, deadline: float):
    """Returns (metrics, jobs attempted, failure messages). The warm-up job
    of every process counts as a job; at most one message per job."""
    setup, shas, attempted, failures = [], set(), 0, []
    for _ in range(SETUP_PROBES):
        seconds, probe = _worker(args, ["--probe"], deadline)
        setup.append(seconds)
        shas.add(probe["warmup_sha"])
        attempted += probe["attempted"]
        failures += probe["failures"]
    _, out = _worker(args, ["--seconds", str(args.seconds)], deadline)
    shas.add(out["warmup_sha"])
    attempted += out["attempted"]
    failures += out["failures"]
    if len(shas) != 1 and not failures:
        failures.append(f"warm-up report.json differs between fresh processes: {len(shas)} versions")
    lat, counts = out["latency"], out["counts"]
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": lat["jobs_per_s"],
        "job_p50_ms": lat["p50_s"] * 1e3,
        "job_tail_ms": lat["tail_s"] * 1e3,
        "ok_ratio": 1.0 - len(failures) / attempted,
        "gate_count": counts["gate_count"],
        "qubit_count": counts["qubit_count"],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    distinct = lat["jobs"] // lat["cycles"]
    print(f"{args.workload} seed {args.seed}: {distinct} jobs, each the best of {lat['cycles']} "
          f"runs; job_tail_ms is p{lat['tail_percentile']:.1f} of {distinct}; "
          "setup samples " + ", ".join(f"{s:.3f}" for s in setup) + " s")
    return metrics, attempted, failures


def _per_layer(args, deadline: float):
    _, out = _worker(args, ["--seconds", str(args.seconds), "--trace"], deadline)
    metrics = {k: v for k, v in out["counts"].items() if k not in ("gate_count", "qubit_count")}
    metrics.update(out["layers"])
    if out["missing_targets"]:
        print("not traced (not found): " + ", ".join(out["missing_targets"]))
    return metrics, out["attempted"], out["failures"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qcascade benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qcascade" / "__init__.py").is_file():
        print(f"perfbench: no qcascade sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    args.work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        metrics, attempted, failures = (_per_layer if args.trace else _end_to_end)(args, deadline)
    except (RunError, ValueError, KeyError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    for message in failures[:20]:
        print(f"FAILED {message}")
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match the declared set",
              file=sys.stderr)
        return 3
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
