"""Batch front-end: job parsing, pipeline orchestration, report emission."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from .cascade import (VerificationReport, VerificationRow, canonical_cascade, detect_symmetry,
                      reduce_by_symmetry, simplify, verify_classical)
from .dihedral import DihedralParams
from .quantum import (CZ, Gate, InteractionGraph, QCircuit, angle_text, bloch_trace_csv,
                      interaction_graph, map_to_circuit, to_qasm, verify_quantum)
from .spectral import TruthVector, WalshSpectrum, spectrum_exact, spectrum_mod
from .words import EQB, MGD, CascadeWord

MAX_VARS_DEFAULT = 10
# bounds the trial-division primality test of dihedral_n to ~46k divisions
MAX_DIHEDRAL_N = 2**31 - 1
REPORT_SCHEMA_VERSION = 1
# emit target -> (file name, the file's text for a report)
_ARTIFACTS = {
    "word": ("word.txt", lambda r: str(r.word) + "\n"),
    "qasm": ("circuit.qasm", lambda r: to_qasm(r.circuit)),
    "json": ("report.json", lambda r: json.dumps(report_to_mapping(r), sort_keys=True) + "\n"),
    "bloch-csv": ("trace.csv", lambda r: bloch_trace_csv(r.circuit, r.job.trace_input)),
}
EMIT_TARGETS = tuple(_ARTIFACTS)


class JobError(ValueError):
    """Invalid job document or flag combination."""


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage


@dataclass(frozen=True)
class JobSpec:
    n: int
    truth: TruthVector
    mode: str = EQB
    dihedral_n: int | None = None
    modulus: int | None = None
    levels: int | None = None
    basis: str = "X"
    symmetry: bool = True
    emit: tuple[str, ...] = ()
    trace_input: str | None = None


_JOB_FIELDS = tuple(f.name for f in fields(JobSpec))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _field_int(doc: dict, key: str):
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobError(f"field '{key}': expected an integer, got {value!r}")
    return value


def _parse_truth(doc: dict, n: int) -> TruthVector:
    raw = doc["truth"]
    if isinstance(raw, str):
        if not raw or any(c not in "0123456789" for c in raw):
            raise JobError("field 'truth': expected a digit string or a list of integers")
        values = tuple(int(c) for c in raw)
    elif isinstance(raw, list):
        if any(isinstance(v, bool) or not isinstance(v, int) for v in raw):
            raise JobError("field 'truth': list entries must be integers")
        values = tuple(raw)
    else:
        raise JobError(f"field 'truth': expected a string or list, got {type(raw).__name__}")
    # no list holds 2**64 entries, and 1 << n takes n / 8 bytes to build
    if n >= 64 or len(values) != 1 << n:
        want = 1 << n if n < 64 else f"2**{n}"
        raise JobError(f"field 'truth': expected {want} entries for n={n}, got {len(values)}")
    return TruthVector(n, values)


def _job_from_mapping(doc: dict, allow_large: bool = False) -> JobSpec:
    doc = {k: v for k, v in doc.items() if v is not None}
    unknown = sorted(set(doc).difference(_JOB_FIELDS))
    if unknown:
        raise JobError(f"unknown field(s): {', '.join(unknown)}")
    for key in ("n", "truth"):
        if key not in doc:
            raise JobError(f"field '{key}': required")

    n = _field_int(doc, "n")
    if n < 1:
        raise JobError(f"field 'n': at least one input variable required, got {n}")
    if n > MAX_VARS_DEFAULT and not allow_large:
        raise JobError(f"field 'n': {n} exceeds the default limit of {MAX_VARS_DEFAULT} "
                       "(pass --force-large to override)")

    mode = str(doc.get("mode", EQB)).lower()
    if mode not in (EQB, MGD):
        raise JobError(f"field 'mode': expected '{EQB}' or '{MGD}', got {doc.get('mode')!r}")

    truth = _parse_truth(doc, n)

    dihedral_n = modulus = levels = None
    if mode == EQB:
        for key in ("dihedral_n", "modulus", "levels"):
            if key in doc:
                raise JobError(f"field '{key}': only valid in MGD mode")
        bad = [i for i, v in enumerate(truth.values) if v not in (0, 1)]
        if bad:
            raise JobError(f"field 'truth': EQB values must be 0 or 1 "
                           f"(found {truth.values[bad[0]]} at row {bad[0]})")
    else:
        if "dihedral_n" not in doc:
            raise JobError("field 'dihedral_n': required in MGD mode")
        dihedral_n = _field_int(doc, "dihedral_n")
        if dihedral_n > MAX_DIHEDRAL_N:
            raise JobError(f"field 'dihedral_n': must be at most {MAX_DIHEDRAL_N}, got {dihedral_n}")
        if not _is_prime(dihedral_n) or dihedral_n == 2:
            raise JobError(f"field 'dihedral_n': MGD mode needs an odd prime group order, got {dihedral_n}")
        modulus = _field_int(doc, "modulus") if "modulus" in doc else dihedral_n
        if modulus % 2 == 0 or modulus < 3:
            raise JobError(f"field 'modulus': must be an odd number >= 3, got {modulus}")
        # residues mod m fold soundly into D_n only when n divides m
        if modulus % dihedral_n:
            raise JobError(f"field 'modulus': must be a multiple of dihedral_n={dihedral_n}, "
                           f"got {modulus}")
        levels = _field_int(doc, "levels") if "levels" in doc else max(2, max(truth.values) + 1)
        if levels < 2:
            raise JobError(f"field 'levels': must be at least 2, got {levels}")
        # more levels than rails would alias values that differ by dihedral_n
        if levels > dihedral_n:
            raise JobError(f"field 'levels': must be at most dihedral_n={dihedral_n}, "
                           f"got {levels} (truth values must be distinct mod {dihedral_n})")
        bad = [i for i, v in enumerate(truth.values) if not 0 <= v < levels]
        if bad:
            raise JobError(f"field 'truth': values must lie in 0..{levels - 1} "
                           f"(found {truth.values[bad[0]]} at row {bad[0]})")

    basis = str(doc.get("basis", "X")).upper()
    if basis not in ("X", "Y"):
        raise JobError(f"field 'basis': expected 'x' or 'y', got {doc.get('basis')!r}")

    symmetry = doc.get("symmetry", True)
    if not isinstance(symmetry, bool):
        raise JobError(f"field 'symmetry': expected true or false, got {symmetry!r}")

    emit_raw = doc.get("emit", [])
    if isinstance(emit_raw, str):
        emit_raw = [t for t in emit_raw.split(",") if t]
    if not isinstance(emit_raw, list):
        raise JobError("field 'emit': expected a list of targets")
    emit = tuple(str(t) for t in emit_raw)
    bad_targets = [t for t in emit if t not in EMIT_TARGETS]
    if bad_targets:
        raise JobError(f"field 'emit': unknown target(s) {', '.join(bad_targets)} "
                       f"(valid: {', '.join(EMIT_TARGETS)})")

    trace_input = doc.get("trace_input")
    if trace_input is not None:
        if not isinstance(trace_input, str):
            raise JobError(f"field 'trace_input': expected a bit string, got {trace_input!r}")
        if len(trace_input) != n or any(c not in "01" for c in trace_input):
            raise JobError(f"field 'trace_input': expected {n} bits, got {trace_input!r}")
    elif "bloch-csv" in emit:
        raise JobError("emit target 'bloch-csv' needs field 'trace_input' (or --input)")

    return JobSpec(n=n, truth=truth, mode=mode, dihedral_n=dihedral_n, modulus=modulus,
                   levels=levels, basis=basis, symmetry=symmetry, emit=emit,
                   trace_input=trace_input)


def _load_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise JobError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise JobError("job document must be a JSON object")
    return doc


def parse_job(text: str, allow_large: bool = False) -> JobSpec:
    """Parse a JSON job document into a fully validated JobSpec."""
    return _job_from_mapping(_load_object(text), allow_large=allow_large)


def job_to_mapping(job: JobSpec) -> dict:
    """Round-trippable JSON form: parse_job(json.dumps(...)) == job."""
    doc = {key: getattr(job, key) for key in _JOB_FIELDS if getattr(job, key) is not None}
    values = job.truth.values
    doc["truth"] = "".join(map(str, values)) if all(v in (0, 1) for v in values) else list(values)
    doc["emit"] = list(job.emit)
    return doc


@dataclass
class SynthesisReport:
    job: JobSpec
    spectrum: WalshSpectrum
    canonical: CascadeWord
    simplified: CascadeWord
    reduced: CascadeWord | None
    circuit: QCircuit
    classical: VerificationReport
    quantum: VerificationReport | None
    connectivity: InteractionGraph
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def word(self) -> CascadeWord:
        """The reduced word when the symmetry reduction applied, else the simplified one."""
        return self.simplified if self.reduced is None else self.reduced

    @property
    def passed(self) -> bool:
        return self.classical.passed and (self.quantum is None or self.quantum.passed)


def _spectrum(job: JobSpec) -> WalshSpectrum:
    if job.mode == MGD:
        return spectrum_mod(job.truth, job.modulus)
    return spectrum_exact(job.truth)


def run_pipeline(job: JobSpec) -> SynthesisReport:
    """Spectrum, cascade, simplify, symmetry, map, verify, connectivity."""
    timings: dict[str, float] = {}

    def run(stage, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:
            raise PipelineError(stage, e) from e
        timings[stage] = time.perf_counter() - t0
        return result

    params = DihedralParams(job.dihedral_n) if job.mode == MGD else None
    spectrum = run("spectrum", lambda: _spectrum(job))
    canonical = run("cascade", lambda: canonical_cascade(spectrum, params))
    simplified = run("simplify", lambda: simplify(canonical))
    reduced = None
    if job.mode == EQB and job.symmetry and run("symmetry", lambda: detect_symmetry(job.truth)):
        reduced = run("reduce", lambda: reduce_by_symmetry(job.truth))
    word = simplified if reduced is None else reduced
    circuit = run("map", lambda: map_to_circuit(word, basis=job.basis, levels=job.levels))
    classical = run("verify_classical", lambda: verify_classical(word, job.truth))
    quantum = run("verify_quantum", lambda: verify_quantum(circuit, job.truth)) if job.mode == EQB else None
    connectivity = run("connectivity", lambda: interaction_graph(circuit))
    return SynthesisReport(job=job, spectrum=spectrum, canonical=canonical,
                           simplified=simplified, reduced=reduced, circuit=circuit,
                           classical=classical, quantum=quantum, connectivity=connectivity,
                           timings=timings)


def _verification_dict(report: VerificationReport | None):
    if report is None:
        return None
    return {"passed": report.passed,
            "rows": [{"input": "".join(map(str, row.assignment)),
                      "expected": row.expected, "got": row.got, "ok": row.ok}
                     for row in report.rows]}


def _gate_entry(g: Gate) -> dict:
    entry: dict = {"kind": g.kind, "target": g.target}
    if g.control is not None:
        entry["control"] = g.control
    if g.kind != CZ:
        entry["angle"] = angle_text(g)
        entry["radians"] = g.angle
    return entry


def report_to_mapping(report: SynthesisReport) -> dict:
    """JSON report body. Deterministic: no timings, no timestamps.

    Equal gates share one entry dict (``map_to_circuit`` shares one Gate
    object between them), so treat the result as read-only.
    """
    gates = report.circuit.gates
    distinct = {id(g): g for g in gates}
    entry_of = {key: _gate_entry(g) for key, g in distinct.items()}
    simplified = str(report.simplified)
    reduced = None if report.reduced is None else str(report.reduced)
    target = report.word.target_var
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "job": job_to_mapping(report.job),
        "spectrum": {"coefficients": [str(c) for c in report.spectrum.coeffs],
                     "modulus": report.spectrum.modulus},
        "words": {"canonical": str(report.canonical),
                  "simplified": simplified,
                  "reduced": reduced,
                  "final": simplified if reduced is None else reduced,
                  "target": "ancilla" if target is None else f"x{target}",
                  "letter_counts": {"canonical": len(report.canonical),
                                    "simplified": len(report.simplified),
                                    "final": len(report.word)}},
        "circuit": {"num_qubits": report.circuit.num_qubits,
                    "target_qubit": report.circuit.target_qubit,
                    "layout": {f"x{v}": q for v, q in report.circuit.layout},
                    "gates": [entry_of[id(g)] for g in gates],
                    "gate_counts": report.circuit.gate_counts()},
        "verification": {"classical": _verification_dict(report.classical),
                         "quantum": _verification_dict(report.quantum)},
        "connectivity": {"edges": [list(e) for e in report.connectivity.edges],
                         "is_star": report.connectivity.is_star,
                         "triangle_free": report.connectivity.triangle_free,
                         "centers": list(report.connectivity.centers)},
        "passed": report.passed,
    }


def emit(report: SynthesisReport, targets, out_dir) -> dict[str, Path]:
    """Write the requested artifacts; returns target -> path.  Every target
    is checked before ``out_dir`` is created or a file written."""
    for target in targets:
        if target not in _ARTIFACTS:
            raise JobError(f"unknown emit target {target!r}")
    if "bloch-csv" in targets and report.job.trace_input is None:
        raise JobError("emit target 'bloch-csv' needs field 'trace_input' (or --input)")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for target in targets:
        name, text = _ARTIFACTS[target]
        path = written[target] = out_dir / name
        path.write_text(text(report))
    return written


def _row_text(row: VerificationRow) -> str:
    return f"{''.join(map(str, row.assignment))}: expected {row.expected}, got {row.got}"


def print_report(report: SynthesisReport, out=None) -> None:
    out = out or sys.stdout
    job = report.job
    header = f"n={job.n} mode={job.mode} basis={job.basis}"
    if job.mode == MGD:
        header += f" dihedral_n={job.dihedral_n} modulus={job.modulus} levels={job.levels}"
    print(header, file=out)
    print(f"spectrum: {report.spectrum}", file=out)
    print(f"canonical word ({len(report.canonical)} letters): {report.canonical}", file=out)
    print(f"simplified word ({len(report.simplified)} letters): {report.simplified}", file=out)
    if report.reduced is not None:
        print(f"symmetry: reduced onto x{report.reduced.target_var} "
              f"({len(report.reduced)} letters): {report.reduced}", file=out)
    counts = " ".join(f"{k}={v}" for k, v in sorted(report.circuit.gate_counts().items()))
    print(f"circuit: {len(report.circuit.gates)} gates on {report.circuit.num_qubits} qubits "
          f"(target q[{report.circuit.target_qubit}]{', ' + counts if counts else ''})", file=out)
    for rep in (report.classical, report.quantum):
        if rep is not None:
            line = f"{rep.kind} check: {rep.counts()} rows pass"
            if rep.first_failure is not None:
                line += f"; first failure {_row_text(rep.first_failure)}"
            print(line, file=out)
    g = report.connectivity
    print(f"connectivity: {len(g.edges)} edge(s), star={'yes' if g.is_star else 'no'}, "
          f"triangle-free={'yes' if g.triangle_free else 'no'}", file=out)
    total = sum(report.timings.values())
    stages = " ".join(f"{k}={v * 1e3:.2f}" for k, v in report.timings.items())
    print(f"timing: total {total * 1e3:.2f} ms ({stages})", file=out)
    print(f"result: {'PASS' if report.passed else 'FAIL'}", file=out)


class CliParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract reserves 2 for
    verification failures, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


VERBS = {"synth": "run the full pipeline and emit artifacts",
         "spectrum": "print the Walsh spectrum only",
         "verify": "run the pipeline and print verification rows",
         "trace": "print the Bloch trace of the target qubit"}


def build_parser() -> CliParser:
    """One parser for every verb: all four take the same job arguments.
    Parse with ``parse_intermixed_args``, so that the job file may follow
    the flags as well as precede them."""
    parser = CliParser(prog="qcascade",
                       description="Compile Boolean truth tables into rotation-gate cascades.")
    parser.add_argument("command", choices=list(VERBS),
                        help="; ".join(f"{verb}: {text}" for verb, text in VERBS.items()))
    parser.add_argument("jobfile", nargs="?", help="JSON job document ('-' for stdin)")
    parser.add_argument("--n", type=int, help="number of input variables")
    parser.add_argument("--truth", help="truth vector, row 0 first, x1 most significant")
    parser.add_argument("--mode", choices=[EQB, MGD], help="synthesis mode (default eqb)")
    parser.add_argument("--basis", choices=["x", "y", "X", "Y"], help="rotation basis (default X)")
    parser.add_argument("--dihedral-n", type=int, dest="dihedral_n",
                        help="dihedral group order (MGD)")
    parser.add_argument("--modulus", type=int,
                        help="spectrum modulus (MGD, default dihedral order)")
    parser.add_argument("--levels", type=int, help="output level count for the MGD angle scale")
    parser.add_argument("--no-symmetry", action="store_true", help="disable the symmetry reduction")
    parser.add_argument("--emit", help=f"comma-separated targets: {','.join(EMIT_TARGETS)}")
    parser.add_argument("--out-dir", default=".", help="directory for emitted files (default .)")
    parser.add_argument("--input", help="assignment bits for the Bloch trace")
    parser.add_argument("--force-large", action="store_true",
                        help=f"allow more than {MAX_VARS_DEFAULT} variables")
    # parse_intermixed_args formats the usage text on every call while it is
    # unset; this is the text it would format (format_usage minus "usage: ")
    parser.usage = parser.format_usage()[7:]
    return parser


# built once per process: parse_intermixed_args changes some of its actions
# during a parse and restores them before it returns or exits, so calls in
# one thread can share it
_PARSER = build_parser()


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    if args.jobfile:
        doc = _load_object(sys.stdin.read() if args.jobfile == "-"
                           else Path(args.jobfile).read_text())
    else:
        doc = {}
        if args.n is None or args.truth is None:
            raise JobError("give a job file or both --n and --truth")
    doc.update((key, value) for key in _JOB_FIELDS
               if (value := getattr(args, key, None)) is not None)
    if args.input is not None:
        doc["trace_input"] = args.input
    if args.no_symmetry:
        doc["symmetry"] = False
    return _job_from_mapping(doc, allow_large=args.force_large)


def main(argv=None) -> int:
    args = _PARSER.parse_intermixed_args(argv)
    try:
        job = _job_from_args(args)
    except (JobError, OSError) as e:
        print(f"qcascade: error: {e}", file=sys.stderr)
        return 1
    if args.command == "trace" and job.trace_input is None:
        print("qcascade: error: trace needs --input (or field 'trace_input')", file=sys.stderr)
        return 1
    if args.command != "synth" and job.emit:
        print(f"qcascade: error: only synth emits artifacts; drop --emit (or field 'emit') "
              f"from this {args.command} job", file=sys.stderr)
        return 1

    if args.command == "spectrum":
        print(_spectrum(job))
        return 0

    try:
        report = run_pipeline(job)
    except PipelineError as e:
        print(f"qcascade: error: {e}", file=sys.stderr)
        return 1

    if args.command == "trace":
        print(bloch_trace_csv(report.circuit, job.trace_input), end="")
    elif args.command == "verify":
        for rep in (report.classical, report.quantum):
            if rep is None:
                continue
            for row in rep.rows:
                print(f"{rep.kind} {_row_text(row)} [{'ok' if row.ok else 'MISMATCH'}]")
        for rep in (report.classical, report.quantum):
            if rep is not None and rep.first_failure is not None:
                print(f"{rep.kind} first failure {_row_text(rep.first_failure)}")
        print(f"result: {'PASS' if report.passed else 'FAIL'}")
    else:
        print_report(report)
        if job.emit:
            try:
                written = emit(report, job.emit, args.out_dir)
            except OSError as e:
                print(f"qcascade: error: {e}", file=sys.stderr)
                return 1
            for target, path in written.items():
                print(f"wrote {target}: {path}")

    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
