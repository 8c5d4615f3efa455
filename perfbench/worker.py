"""One workload in one fresh process: warm-up, closed-loop timed jobs, checks.

A single client sends one job at a time and sends the next only when the
previous one has returned. Jobs reach the program only through
``qcascade.cli``: ``parse_job`` + ``run_pipeline`` (+ ``emit``) for the
pipeline workloads and ``main(argv)`` for cli-small. Each output is checked
right after its job, outside the timed interval. The loop runs whole cycles
of the workload's job list until ``--seconds`` have passed, so every run
holds the same mix of jobs.

run.py starts this script; it prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checker
import spans
import workloads
from checker import CheckFailed, require

STATEVECTOR_ITEM_BYTES = 16  # complex128
TAIL_BEYOND = 10  # the tail is the highest percentile with this many jobs above it
MIN_CYCLES = 4  # repeats of each job, at least, in an end-to-end run


class Runner:
    """Runs jobs against qcascade.cli, looked up on every call so that
    spans installed into the module are seen."""

    def __init__(self, cli, out_dir: Path):
        self.cli = cli
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def run(self, job: workloads.Job, rec: spans.Recorder | None = None):
        """Returns (seconds, output); output is what the checker reads."""
        report_path = self.out_dir / "report.json"
        report_path.unlink(missing_ok=True)
        fn = self._cli_call(job) if job.is_cli else self._pipeline_call(job)
        t0 = time.perf_counter()
        try:
            out = rec.run_job(fn) if rec else fn()
        except Exception as e:  # the program failed; the checker reports it
            out = e
        return time.perf_counter() - t0, out

    def _pipeline_call(self, job):
        cli = self.cli

        def call():
            report = cli.run_pipeline(cli.parse_job(job.text, allow_large=True))
            if job.emit:
                cli.emit(report, ["json"], self.out_dir)
            return report
        return call

    def _cli_call(self, job):
        cli = self.cli
        argv = list(job.argv) + (["--out-dir", str(self.out_dir)] if job.verb == "synth" else [])

        def call():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code
            return code, stdout.getvalue(), stderr.getvalue()
        return call


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _min_p(rows_got) -> float | None:
    ps = [float(got[2:]) for got in rows_got]
    return min(ps) if ps else None


def word_letters(word) -> list:
    """A CascadeWord's letters in the checker's form: ("a", w) or ("g", controls)."""
    return [("a", letter.exponent) if hasattr(letter, "exponent") else ("g", tuple(letter.controls))
            for letter in word.letters]


def check(job: workloads.Job, out, out_dir: Path) -> dict:
    """Check one output against the job's known answer; returns its exact
    counts, which must repeat whenever the same job runs again."""
    if isinstance(out, Exception):
        raise CheckFailed(f"program raised {type(out).__name__}: {out}")
    if job.is_cli:
        return _check_cli(job, *out, out_dir=out_dir)
    report = out
    require(report.passed, "the program's own verification failed")
    circuit = report.circuit
    if job.mode == "eqb":
        gates = [(g.kind, g.target, g.control, g.angle) for g in circuit.gates]
        checker.check_eqb_circuit(job.n, job.truth, circuit.num_qubits, circuit.target_qubit,
                                  dict(circuit.layout), gates)
    else:
        checker.check_mgd_word(job.n, job.truth, job.dihedral_n, word_letters(report.word))
    counts = {
        "letters": [len(report.canonical), len(report.simplified), len(report.word)],
        "reduced": report.reduced is not None,
        "gates": circuit.gate_counts(),
        "qubits": circuit.num_qubits,
        "quantum_rows": len(report.quantum.rows) if report.quantum else 0,
        "classical_rows": len(report.classical.rows),
        "min_p_want": _min_p(r.got for r in report.quantum.rows) if report.quantum else None,
    }
    if job.emit:
        data = (out_dir / "report.json").read_bytes()
        counts.update(report_bytes=len(data), report_sha=_sha(data))
    return counts


def _check_cli(job, code, stdout: str, stderr: str, out_dir: Path) -> dict:
    require(code == job.expect_exit, f"exit code {code!r}, expected {job.expect_exit}")
    if job.expect_exit != 0:
        return {"exit": code, "stderr_sha": _sha(stderr.encode())}
    if job.verb == "synth":
        return _check_report_file(job, out_dir)
    lines = stdout.splitlines()
    if job.verb == "spectrum":
        modulus = job.dihedral_n if job.mode == "mgd" else None
        want = "[" + ", ".join(checker.walsh_spectrum(job.n, job.truth, modulus)) + "]"
        require(stdout.strip() == want, f"spectrum {stdout.strip()!r}, expected {want!r}")
    elif job.verb == "verify":
        ok_rows = sum(1 for line in lines if line.endswith("[ok]"))
        require(lines[-1:] == ["result: PASS"] and ok_rows == 2 << job.n,
                 f"verify printed {ok_rows} ok rows of {2 << job.n}, last line {lines[-1:]}")
    elif job.verb == "trace":
        require(lines[0] == "step,gate,theta,phi", "trace output lacks its CSV header")
        theta = float(lines[-1].split(",")[2])
        row = int(job.trace_input, 2)
        want = math.pi * job.truth[row]
        require(abs(theta - want) < 1e-6, f"final Bloch theta {theta}, expected {want}")
    return {"exit": code, "stdout_sha": _sha(stdout.encode())}


def _check_report_file(job, out_dir: Path) -> dict:
    for name in ("word.txt", "circuit.qasm"):
        require((out_dir / name).is_file(), f"synth wrote no {name}")
    data = (out_dir / "report.json").read_bytes()
    doc = json.loads(data)
    require(doc["passed"] is True, "report.json says the job failed")
    circuit, words, verification = doc["circuit"], doc["words"], doc["verification"]
    if job.mode == "eqb":
        layout = {int(v[1:]): q for v, q in circuit["layout"].items()}
        gates = [(g["kind"], g["target"], g.get("control"), g.get("radians"))
                 for g in circuit["gates"]]
        checker.check_eqb_circuit(job.n, job.truth, circuit["num_qubits"], circuit["target_qubit"],
                                  layout, gates)
    else:
        checker.check_mgd_word(job.n, job.truth, job.dihedral_n, checker.parse_word(words["final"]))
    quantum = verification["quantum"]
    counts = words["letter_counts"]
    return {
        "letters": [counts["canonical"], counts["simplified"], counts["final"]],
        "reduced": words["reduced"] is not None,
        "gates": circuit["gate_counts"],
        "qubits": circuit["num_qubits"],
        "quantum_rows": len(quantum["rows"]) if quantum else 0,
        "classical_rows": len(verification["classical"]["rows"]),
        "min_p_want": _min_p(r["got"] for r in quantum["rows"]) if quantum else None,
        "report_bytes": len(data),
        "report_sha": _sha(data),
    }


def timed_loop(runner, jobs, budget_s, fingerprints, rec=None, min_cycles=1):
    """Whole cycles of ``jobs`` until budget_s of wall time has passed and at
    least min_cycles have run. Returns (latencies per cycle, failure messages)."""
    cycles, failures = [], []
    start = time.perf_counter()
    while len(cycles) < min_cycles or time.perf_counter() - start < budget_s:
        cycles.append([])
        for idx, job in enumerate(jobs):
            latency, out = runner.run(job, rec)
            cycles[-1].append(latency)
            try:
                counts = check(job, out, runner.out_dir)
                if fingerprints[idx] is None:
                    fingerprints[idx] = counts
                else:
                    require(counts == fingerprints[idx], "output differs from an earlier run of the job")
            except (CheckFailed, OSError, ValueError, LookupError, TypeError) as e:
                failures.append(f"{job.name}: {type(e).__name__}: {e}")
    return cycles, failures


def latency_metrics(cycles) -> dict:
    """Throughput, median and tail over the distinct jobs of one loop.

    The host is shared and only ever adds time, in bursts that can double a
    job's latency, so each job's latency is the best of its repeats (one per
    cycle). jobs_per_s is the cycle's jobs over the sum of those latencies.
    The tail is the latency with TAIL_BEYOND jobs above it; with fewer jobs
    than that it is the maximum."""
    best = sorted(map(min, zip(*cycles)))
    n = len(best)
    k = max(0, n - TAIL_BEYOND - 1)
    return {
        "jobs": n * len(cycles),
        "cycles": len(cycles),
        "busy_s": sum(map(sum, cycles)),
        "jobs_per_s": n / sum(best),
        "p50_s": statistics.median(best),
        "tail_s": best[k] if n > TAIL_BEYOND else best[-1],
        "tail_percentile": 100.0 * (k + 1) / n if n > TAIL_BEYOND else 100.0,
    }


def count_metrics(fingerprints) -> dict:
    """Exact totals over the workload's job list, read from the reports."""
    reports = [fp for fp in fingerprints if fp is not None and "letters" in fp]
    canon = sum(fp["letters"][0] for fp in reports)
    simpl = sum(fp["letters"][1] for fp in reports)
    gates = {k: sum(fp["gates"].get(k, 0) for fp in reports) for k in ("RX", "RY", "CZ")}
    quantum = [fp for fp in reports if fp["quantum_rows"]]
    p_want = [fp["min_p_want"] for fp in quantum]
    return {
        "gate_count": sum(sum(fp["gates"].values()) for fp in reports),
        "qubit_count": sum(fp["qubits"] for fp in reports),
        "cascade.letters_canonical": canon,
        "cascade.letters_simplified": simpl,
        "cascade.letters_final": sum(fp["letters"][2] for fp in reports),
        "cascade.simplify_kept_ratio": simpl / canon if canon else 1.0,
        "cascade.symmetry_reduced_jobs": sum(fp["reduced"] for fp in reports),
        "quantum.gates_rx": gates["RX"],
        "quantum.gates_ry": gates["RY"],
        "quantum.gates_cz": gates["CZ"],
        "quantum.rows": sum(fp["quantum_rows"] for fp in quantum),
        "quantum.gate_applications": sum(fp["quantum_rows"] * sum(fp["gates"].values())
                                         for fp in quantum),
        "quantum.statevector_bytes_max": max((STATEVECTOR_ITEM_BYTES << fp["qubits"]
                                              for fp in quantum), default=0),
        # no quantum rows (MGD only): the minimum over an empty set is read as 1
        "quantum.min_p_want": min(p_want) if p_want else 1.0,
        "dihedral.fold_letter_steps": sum(fp["classical_rows"] * fp["letters"][2] for fp in reports),
        "cli.report_bytes": sum(fp.get("report_bytes", 0) for fp in reports),
    }


LAYER_TIMES = {  # span name -> per-layer metric (mean self seconds per job)
    "spectral.spectrum": "spectral.spectrum_s",
    "cascade.canonical": "cascade.canonical_s",
    "cascade.simplify": "cascade.simplify_s",
    "cascade.symmetry": "cascade.symmetry_s",
    "cascade.verify_classical": "cascade.verify_classical_s",
    "dihedral.evaluate": "dihedral.evaluate_s",
    "words.construct": "words.construct_s",
    "quantum.map": "quantum.map_s",
    "quantum.verify_quantum": "quantum.verify_quantum_s",
    "quantum.connectivity": "quantum.connectivity_s",
    "quantum.qasm": "quantum.qasm_s",
    "quantum.trace": "quantum.trace_s",
    "cli.parse": "cli.parse_s",
    "cli.emit": "cli.emit_s",
    spans.JOB_SPAN: "cli.self_s",
    "cli.main": "cli.self_s",
    "cli.run_pipeline": "cli.self_s",
}
# SynthesisReport.timings stage -> span name of the call the stage wraps
STAGE_SPANS = {"spectrum": "spectral.spectrum", "cascade": "cascade.canonical",
               "simplify": "cascade.simplify", "symmetry": "cascade.symmetry",
               "reduce": "cascade.symmetry", "map": "quantum.map",
               "verify_classical": "cascade.verify_classical",
               "verify_quantum": "quantum.verify_quantum", "connectivity": "quantum.connectivity"}


def trace_metrics(rec: spans.Recorder, cycle_len: int, untraced: dict, traced: dict,
                  missing: list) -> dict:
    """Per-layer times (mean self seconds per job), shares, the tracing
    overhead and the cross-check against SynthesisReport.timings."""
    recorded = rec.spans
    jobs = [s for s in recorded if s[0] == spans.JOB_SPAN]
    job_s = sum(t1 - t0 for _, t0, t1, _, _ in jobs) / len(jobs)
    out = dict.fromkeys(sorted(set(LAYER_TIMES.values())), 0.0)
    for name, total in spans.self_times(recorded).items():
        out[LAYER_TIMES[name]] += total / len(jobs)
    self_sum = sum(out.values())
    incl = {name: sum(t1 - t0 for n, t0, t1, _, _ in recorded if n == name) / len(jobs)
            for name in ("quantum.verify_quantum", "cascade.verify_classical")}
    # Stage times the program takes itself, against the spans of the same
    # calls. A stage with no span of its own (one added later) counts in full.
    kids = spans.children(recorded)
    timed = gap = 0.0
    for sid, stage_times in rec.timings.items():
        stage_spans = iter(recorded[c] for c in kids[sid])
        for stage, seconds in stage_times.items():
            span = next((s for s in stage_spans if s[0] == STAGE_SPANS.get(stage)), None)
            timed += seconds
            gap += abs(seconds - (span[2] - span[1])) if span else seconds
    out.update({
        "dihedral.evaluate_calls": sum(1 for s in recorded
                                       if s[0] == "dihedral.evaluate" and s[4] < cycle_len),
        "trace.job_s": job_s,
        "trace.untraced_job_s": untraced["busy_s"] / untraced["jobs"],
        "trace.self_sum_s": self_sum,
        "trace.closure_gap_s": self_sum - untraced["busy_s"] / untraced["jobs"],
        "trace.jobs_per_s_traced": traced["jobs_per_s"],
        "trace.jobs_per_s_untraced": untraced["jobs_per_s"],
        "trace.overhead_jobs_per_s": untraced["jobs_per_s"] - traced["jobs_per_s"],
        "trace.timings_gap_ratio": gap / timed if timed else 0.0,
        "trace.share_verify_quantum": incl["quantum.verify_quantum"] / job_s,
        "trace.share_verify_classical": incl["cascade.verify_classical"] / job_s,
        "trace.spans_per_job": len(recorded) / len(jobs),
        "trace.missing_targets": len(missing),
    })
    return out


def warm_up(cli, workload: str, seed: int, out_dir: Path) -> tuple[str, list[str]]:
    """Run the warm-up job; returns (sha256 of its report.json, failures).
    Every fresh process must write the same bytes."""
    job = workloads.warmup(workload, seed)
    _, out = Runner(cli, out_dir).run(job)
    failures = []
    try:
        check(job, out, out_dir)
        if not job.is_cli and not job.emit:
            cli.emit(out, ["json"], out_dir)
        sha = _sha((out_dir / "report.json").read_bytes())
    except (CheckFailed, OSError, ValueError, LookupError, TypeError) as e:
        failures.append(f"{job.name}: {type(e).__name__}: {e}")
        sha = ""
    return sha, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--probe", action="store_true", help="warm-up only, for the set-up time")
    ap.add_argument("--trace", action="store_true", help="untraced half, then traced half")
    args = ap.parse_args()

    import qcascade.cli as cli
    out_dir = args.work_dir / "out"
    sha, failures = warm_up(cli, args.workload, args.seed, out_dir)
    result = {"qcascade_file": cli.__file__, "warmup_sha": sha}
    if args.probe:
        print(json.dumps(result | {"attempted": 1, "failures": failures}))
        return 0

    jobs = workloads.cycle(args.workload, args.seed)
    runner = Runner(cli, out_dir)
    fingerprints = [None] * len(jobs)
    if not args.trace:
        cycles, fails = timed_loop(runner, jobs, args.seconds, fingerprints, min_cycles=MIN_CYCLES)
        failures += fails
        result.update(latency=latency_metrics(cycles), attempted=1 + len(jobs) * len(cycles),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        # Untraced and traced cycles alternate, each going first in every
        # other pair, so both see the same load from outside and their
        # difference is the cost of tracing.
        rec, untraced, traced = spans.Recorder(), [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            for tracing in sorted((False, True), reverse=len(traced) % 2 == 1):
                undo, missing = spans.install(rec) if tracing else ([], [])
                try:
                    cycles, fails = timed_loop(runner, jobs, 0.0, fingerprints,
                                               rec if tracing else None)
                finally:
                    spans.uninstall(undo)
                (traced if tracing else untraced).extend(cycles)
                failures += fails
        rec.write_csv(args.work_dir.parent / f"spans-{args.workload}-seed{args.seed}.csv")
        result.update(attempted=1 + len(jobs) * (len(untraced) + len(traced)), missing_targets=missing,
                      layers=trace_metrics(rec, len(jobs), latency_metrics(untraced),
                                           latency_metrics(traced), missing))
    result["counts"] = count_metrics(fingerprints)
    result["failures"] = failures
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
