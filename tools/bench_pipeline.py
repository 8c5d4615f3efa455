"""Per-stage pipeline timings at n = 4 to 14, written to BENCH_pipeline.json.

Each size runs full EQB synthesis (both checks, symmetry reduction off,
``allow_large``) on one random truth table per seed: one untimed warm-up
run, then several timed runs (three at n >= 12, where a run takes up to
seconds: a single run there swings wider than most changes it should show).
It records the distinct gate counts (``gates``), the median CZ count
(``czs``), and the median of each stage of ``SynthesisReport.timings``, of
their sum, and of the time ``emit`` takes to write the run's report.json
(``emit_json_s``).  Each size writes into one temporary directory, so every
timed ``emit_json_s`` after the first overwrites the previous report.json
in place, as ``emit`` does: it measures an overwrite, not the creation of a
new file.  ``report_bytes`` is the length of the last report.json of the
size, so that ``emit_json_s`` can be read against the size of what it
writes.  ``trace_s`` is the median time ``bloch_trace_csv`` takes on the
all-ones input row of the EQB circuit, timed ``repeats(n)`` times per
seed after that seed's runs.  The truth table for seed s is drawn as in
acceptance criterion 8: ``random.Random(s).getrandbits(1)`` per row, row 0
first.

Each size and seed also runs one MGD job over D_7 the same way, with truth
values ``rng.randrange(7)`` drawn by the same generator after the EQB table.
``sizes[n]["mgd"]`` records its runs, the medians of its total and of its
``emit_json_s``, and its ``report_bytes``.

Run from the repository root:

    PYTHONPATH=src python tools/bench_pipeline.py [--sizes 4 6 8] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time

from qcascade.cli import SynthesisReport, emit, parse_job, run_pipeline
from qcascade.quantum import CZ, bloch_trace_csv

SIZES = (4, 6, 8, 10, 12, 14)
SEEDS = (8, 9, 10)
MGD_ORDER = 7  # dihedral_n of the MGD job, the largest group mgd-wide runs


def repeats(n: int) -> int:
    """Timed runs per truth table."""
    return 20 if n <= 8 else 5 if n <= 10 else 3


def _time_runs(job, out_dir: str, samples: dict) -> SynthesisReport:
    """One untimed warm-up run of ``job``, then ``repeats(job.n)`` timed
    runs, each followed by a timed report.json, appended to ``samples``.
    Returns the last run's report."""
    run_pipeline(job)
    for _ in range(repeats(job.n)):
        report = run_pipeline(job)
        if not report.passed:
            raise SystemExit(f"n={job.n} mode={job.mode}: verification failed")
        samples["gates"].add(len(report.circuit.gates))
        samples["czs"].append(report.circuit.gate_counts()[CZ])
        samples["totals"].append(sum(report.timings.values()))
        for stage, seconds in report.timings.items():
            samples["stages"].setdefault(stage, []).append(seconds)
        t0 = time.perf_counter()
        written = emit(report, ["json"], out_dir)
        samples["emits"].append(time.perf_counter() - t0)
        samples["report_bytes"] = written["json"].stat().st_size
    return report


def bench_size(n: int) -> dict:
    eqb, mgd = ({"gates": set(), "czs": [], "totals": [], "stages": {}, "emits": [],
                 "report_bytes": 0} for _ in range(2))
    traces = []
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in SEEDS:
            rng = random.Random(seed)
            truth = "".join(str(rng.getrandbits(1)) for _ in range(1 << n))
            report = _time_runs(parse_job(json.dumps({"n": n, "truth": truth, "symmetry": False}),
                                          allow_large=True), out_dir, eqb)
            for _ in range(repeats(n)):
                t0 = time.perf_counter()
                bloch_trace_csv(report.circuit, "1" * n)
                traces.append(time.perf_counter() - t0)
            values = [rng.randrange(MGD_ORDER) for _ in range(1 << n)]
            _time_runs(parse_job(json.dumps({"n": n, "truth": values, "mode": "mgd",
                                             "dihedral_n": MGD_ORDER}),
                                 allow_large=True), out_dir, mgd)
    return {"runs": len(eqb["totals"]),
            "gates": sorted(eqb["gates"]),
            "czs": statistics.median(eqb["czs"]),
            "total_s": statistics.median(eqb["totals"]),
            "stages_s": {stage: statistics.median(v) for stage, v in eqb["stages"].items()},
            "emit_json_s": statistics.median(eqb["emits"]),
            "report_bytes": eqb["report_bytes"],
            "trace_s": statistics.median(traces),
            "mgd": {"runs": len(mgd["totals"]),
                    "total_s": statistics.median(mgd["totals"]),
                    "emit_json_s": statistics.median(mgd["emits"]),
                    "report_bytes": mgd["report_bytes"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--out", default="BENCH_pipeline.json")
    args = parser.parse_args(argv)
    result = {"host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
              "seeds": list(SEEDS),
              "sizes": {}}
    for n in args.sizes:
        result["sizes"][str(n)] = row = bench_size(n)
        stages = " ".join(f"{k}={v * 1e3:.2f}" for k, v in row["stages_s"].items())
        print(f"n={n}: total {row['total_s'] * 1e3:.2f} ms over {row['runs']} runs ({stages}), "
              f"{row['czs']:g} CZs, "
              f"emit json {row['emit_json_s'] * 1e3:.2f} ms ({row['report_bytes']} bytes), "
              f"trace {row['trace_s'] * 1e3:.2f} ms; "
              f"MGD D_{MGD_ORDER}: total {row['mgd']['total_s'] * 1e3:.2f} ms, emit json "
              f"{row['mgd']['emit_json_s'] * 1e3:.2f} ms ({row['mgd']['report_bytes']} bytes)",
              file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
