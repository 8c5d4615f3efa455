"""Batch front-end: job parsing, pipeline orchestration, report emission."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from .cascade import (VerificationReport, VerificationRow, canonical_cascade, detect_symmetry,
                      reduce_by_symmetry, simplify, verify_classical)
from .quantum import (CZ, Gate, QCircuit, angle_text, bloch_trace_csv, interaction_graph,
                      map_to_circuit, to_qasm, verify_quantum)
from .spectral import TruthVector, WalshSpectrum, spectrum_exact, spectrum_mod
from .words import EQB, MGD, CascadeWord

MAX_VARS_DEFAULT = 10
# the unitary check is exact at any order, so this cap is no limit of it: it
# keeps the accepted jobs as they were, and up to it a rotation one step off
# reads p <= cos(pi/d)**2 = 1 - 9.19e-9, short of 1 - quantum.VERIFY_TOL
MAX_DIHEDRAL_N = 2**15 - 1
REPORT_SCHEMA_VERSION = 3
# emit target -> (file name, the file's text for a report)
_ARTIFACTS = {
    "word": ("word.txt", lambda r: str(r.word) + "\n"),
    "qasm": ("circuit.qasm", lambda r: to_qasm(r.circuit)),
    "json": ("report.json", lambda r: _report_json(r)),
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
    """A synthesis job.  Construction takes each field in its Python or its
    document form, checks it as ``parse_job`` does (bar the ``--force-large``
    limit), and stores ``truth`` as a ``TruthVector``, ``emit`` as a tuple,
    and a string ``mode`` lower-case and a string ``basis`` upper-case."""

    n: int
    truth: TruthVector
    mode: str = EQB
    dihedral_n: int | None = None
    basis: str = "X"
    symmetry: bool = True
    emit: tuple[str, ...] = ()
    trace_input: str | None = None

    def __post_init__(self) -> None:
        n, d, bits = self.n, self.dihedral_n, self.trace_input
        if not _is_int(n):
            raise _type_error("n", "an integer", n)
        if not isinstance(self.truth, TruthVector):
            object.__setattr__(self, "truth", _parse_truth(self.truth, n))
        for key, fold in (("mode", str.lower), ("basis", str.upper)):
            if isinstance(value := getattr(self, key), str):
                object.__setattr__(self, key, fold(value))
        if d is not None and not _is_int(d):
            raise _type_error("dihedral_n", "an integer", d)
        if not isinstance(self.symmetry, bool):
            raise _type_error("symmetry", "true or false", self.symmetry)
        object.__setattr__(self, "emit", _targets(self.emit, bits))
        if bits is not None and not isinstance(bits, str):
            raise _type_error("trace_input", "a bit string", bits)
        if n < 1:
            raise JobError(f"field 'n': at least one input variable required, got {n}")
        if self.truth.n != n:
            raise _entries_error(n, len(self.truth.values))
        if self.mode not in (EQB, MGD):
            raise JobError(f"field 'mode': expected '{EQB}' or '{MGD}', got {self.mode!r}")
        if (d is None) != (self.mode == EQB):
            raise JobError(f"field 'dihedral_n': {'required' if d is None else 'only valid'} in MGD mode")
        top, rule = 2, "EQB values must be 0 or 1"
        if d is not None:
            if not (d % 2 and 3 <= d <= MAX_DIHEDRAL_N):
                raise JobError(f"field 'dihedral_n': MGD mode needs an odd group order "
                               f"from 3 to {MAX_DIHEDRAL_N}, got {d}")
            # values that differ by dihedral_n would fold to one element of D_n
            top, rule = d, f"MGD values must lie in 0..{d - 1}"
        bad = [i for i, v in enumerate(self.truth.values) if not 0 <= v < top]
        if bad:
            raise JobError(f"field 'truth': {rule} (found {self.truth.values[bad[0]]} at row {bad[0]})")
        if self.basis not in ("X", "Y"):
            raise JobError(f"field 'basis': expected 'X' or 'Y', got {self.basis!r}")
        if bits is not None and (len(bits) != n or any(c not in "01" for c in bits)):
            raise JobError(f"field 'trace_input': expected {n} bits, got {bits!r}")


_JOB_FIELDS = tuple(f.name for f in fields(JobSpec))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _type_error(key: str, expected: str, value) -> JobError:
    return JobError(f"field '{key}': expected {expected}, got {value!r}")


def _targets(targets, trace_input: str | None) -> tuple[str, ...]:
    """``targets`` (a list, a tuple or a comma-separated string) as a tuple;
    rejects unknown targets, and ``bloch-csv`` without a trace input."""
    if isinstance(targets, str):
        targets = [t for t in targets.split(",") if t]
    if not isinstance(targets, (list, tuple)):
        raise JobError("field 'emit': expected a list of targets")
    bad = [t for t in targets if t not in EMIT_TARGETS]
    if bad:
        raise JobError(f"field 'emit': unknown target(s) {', '.join(map(str, bad))} "
                       f"(valid: {', '.join(EMIT_TARGETS)})")
    if trace_input is None and "bloch-csv" in targets:
        raise JobError("emit target 'bloch-csv' needs field 'trace_input' (or --input)")
    return tuple(targets)


def _entries_error(n: int, got: int) -> JobError:
    # 1 << n takes n / 8 bytes to build, and no list holds 2**64 entries
    want = 1 << n if 0 <= n < 64 else f"2**{n}"
    return JobError(f"field 'truth': expected {want} entries for n={n}, got {got}")


def _parse_truth(raw, n: int) -> TruthVector:
    if isinstance(raw, str):
        if not raw or any(c not in "0123456789" for c in raw):
            raise JobError("field 'truth': expected a digit string or a list of integers")
        values = tuple(int(c) for c in raw)
    elif isinstance(raw, list):
        if not all(map(_is_int, raw)):
            raise JobError("field 'truth': list entries must be integers")
        values = tuple(raw)
    else:
        raise JobError(f"field 'truth': expected a string or list, got {type(raw).__name__}")
    # JobSpec compares the vector's width with n
    if not values or len(values) & (len(values) - 1):
        raise _entries_error(n, len(values))
    return TruthVector((len(values) - 1).bit_length(), values)


def _job_from_mapping(doc: dict, allow_large: bool = False) -> JobSpec:
    # field names, nulls, required fields and the size limit; JobSpec reads the values
    unknown = sorted(set(doc).difference(_JOB_FIELDS))
    if unknown:
        raise JobError(f"unknown field(s): {', '.join(unknown)}")
    doc = {k: v for k, v in doc.items() if v is not None}
    for key in ("n", "truth"):
        if key not in doc:
            raise JobError(f"field '{key}': required")
    n = doc["n"]
    if _is_int(n) and n > MAX_VARS_DEFAULT and not allow_large:
        raise JobError(f"field 'n': {n} exceeds the default limit of {MAX_VARS_DEFAULT} "
                       "(pass --force-large to override)")
    return JobSpec(**doc)


def _load_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise JobError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (RecursionError, ValueError) as e:  # deep nesting, long integers, bad bytes
        raise JobError(f"unreadable JSON: {e}") from None
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
    doc["truth"] = "".join(map(str, values)) if job.truth.is_boolean else list(values)
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
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def word(self) -> CascadeWord:
        """The reduced word when the symmetry reduction applied, else the simplified one."""
        return self.simplified if self.reduced is None else self.reduced

    @property
    def checks(self) -> tuple[VerificationReport, ...]:
        """The checks the run made: classical, then quantum (EQB only)."""
        return (self.classical,) if self.quantum is None else (self.classical, self.quantum)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _spectrum(job: JobSpec) -> WalshSpectrum:
    if job.mode == MGD:
        return spectrum_mod(job.truth, job.dihedral_n)
    return spectrum_exact(job.truth)


def run_pipeline(job: JobSpec) -> SynthesisReport:
    """Spectrum, cascade, simplify, symmetry, map, verify."""
    timings: dict[str, float] = {}

    def run(stage, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:
            raise PipelineError(stage, e) from e
        timings[stage] = time.perf_counter() - t0
        return result

    spectrum = run("spectrum", lambda: _spectrum(job))
    canonical = run("cascade", lambda: canonical_cascade(spectrum))
    simplified = run("simplify", lambda: simplify(canonical))
    reduced = None
    if job.mode == EQB and job.symmetry and run("symmetry", lambda: detect_symmetry(job.truth)):
        reduced = run("reduce", lambda: reduce_by_symmetry(job.truth))
    word = simplified if reduced is None else reduced
    circuit = run("map", lambda: map_to_circuit(word, basis=job.basis))
    classical = run("verify_classical", lambda: verify_classical(word, job.truth))
    quantum = run("verify_quantum", lambda: verify_quantum(circuit, job.truth)) if job.mode == EQB else None
    return SynthesisReport(job=job, spectrum=spectrum, canonical=canonical,
                           simplified=simplified, reduced=reduced, circuit=circuit,
                           classical=classical, quantum=quantum, timings=timings)


def _gate_entry(g: Gate) -> dict:
    entry: dict = {"kind": g.kind, "target": g.target}
    if g.control is not None:
        entry["control"] = g.control
    if g.kind != CZ:
        entry["angle"] = angle_text(g)
        entry["radians"] = g.angle
    return entry


# json writes NUL as \u0000, which no other report string holds: job
# strings are checked, and words, gates and rows are generated.  So "\0" +
# name stands in for a long list while the rest of the report is encoded
_SLOT = "\0"


def _report_mapping(report: SynthesisReport) -> dict:
    """The report body with ``_SLOT + "gates"`` as circuit.gates and
    ``_SLOT + kind`` as the row list of the oracle ``kind`` ("classical" or
    "quantum")."""
    simplified = str(report.simplified)
    reduced = None if report.reduced is None else str(report.reduced)
    target = report.word.target_var
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "job": job_to_mapping(report.job),
        "spectrum": {"coefficients": [str(c) for c in report.spectrum.coeffs]},
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
                    "gates": _SLOT + "gates",
                    "gate_counts": report.circuit.gate_counts()},
        "verification": {"quantum": None, **{check.kind: {"passed": check.passed,
                                                          "rows": _SLOT + check.kind}
                                             for check in report.checks}},
        "connectivity": {"edges": [list(e) for e in interaction_graph(report.circuit)]},
        "passed": report.passed,
    }


def _list_json(items, key, entry) -> str:
    """The JSON list of ``entry(item)`` for each item, in order, encoding
    each distinct ``key(item)`` once: items with one key have one entry."""
    keys = list(map(key, items))
    text_of = {k: json.dumps(entry(item), sort_keys=True)
               for k, item in dict(zip(keys, items)).items()}
    return "[" + ", ".join(map(text_of.__getitem__, keys)) + "]"


def _report_json(report: SynthesisReport) -> str:
    """The text of report.json: the ``sort_keys`` stdlib encoding of the
    report body, with no timings or timestamps, plus a newline.  Each
    distinct gate entry and row verdict is encoded once, and the rest of the
    report with a placeholder for each of the three long lists."""
    texts = {_SLOT + "gates": _list_json(report.circuit.gates, id, _gate_entry)}
    for check in report.checks:
        texts[_SLOT + check.kind] = _list_json(check.rows, lambda row: row, VerificationRow._asdict)
    # the mapping is a fresh tree, so no cycle can reach the encoder
    body = json.dumps(_report_mapping(report), sort_keys=True, check_circular=False)
    # last slot first, so that no search reads a list already swapped in
    for slot, text in reversed(texts.items()):
        body = body.replace(json.dumps(slot), text, 1)
    return body + "\n"


def report_to_mapping(report: SynthesisReport) -> dict:
    """The body of report.json as a mapping."""
    return json.loads(_report_json(report))


def emit(report: SynthesisReport, targets, out_dir) -> dict[str, Path]:
    """Write the requested artifacts, each distinct target once; returns
    target -> path.  Every target is checked before ``out_dir`` is created or
    a file written.

    A file is overwritten in place and cut to its new length at the end,
    with no fsync.  On ext4, truncating a non-empty file to zero on open
    and writing it took several times as long as writing it in place (ext4's
    ``auto_da_alloc`` flushes a file truncated to zero when it is closed)."""
    targets = _targets(targets, report.job.trace_input)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for target in dict.fromkeys(targets):
        name, text = _ARTIFACTS[target]
        path = written[target] = out_dir / name
        # built before the file is opened, so a failing artifact leaves it as it was
        data = text(report).encode()
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    return written


def _row_text(check: VerificationReport, x: int) -> str:
    """Row x's input bits, x1 first, and its verdict."""
    n = len(check.rows).bit_length() - 1
    row = check.rows[x]
    return f"{bin(x | 1 << n)[3:]}: expected {row.expected}, got {row.got}"


def print_report(report: SynthesisReport) -> None:
    job = report.job
    header = f"n={job.n} mode={job.mode} basis={job.basis}"
    if job.mode == MGD:
        header += f" dihedral_n={job.dihedral_n}"
    print(header)
    print(f"spectrum: {report.spectrum}")
    print(f"canonical word ({len(report.canonical)} letters): {report.canonical}")
    print(f"simplified word ({len(report.simplified)} letters): {report.simplified}")
    if report.reduced is not None:
        print(f"symmetry: reduced onto x{report.reduced.target_var} "
              f"({len(report.reduced)} letters): {report.reduced}")
    counts = " ".join(f"{k}={v}" for k, v in sorted(report.circuit.gate_counts().items()))
    print(f"circuit: {len(report.circuit.gates)} gates on {report.circuit.num_qubits} qubits "
          f"(target q[{report.circuit.target_qubit}]{', ' + counts if counts else ''})")
    for check in report.checks:
        line = f"{check.kind} check: {check.counts()} rows pass"
        if check.first_failure is not None:
            line += f"; first failure {_row_text(check, check.first_failure)}"
        print(line)
    print(f"connectivity: {len(interaction_graph(report.circuit))} edge(s)")
    total = sum(report.timings.values())
    stages = " ".join(f"{k}={v * 1e3:.2f}" for k, v in report.timings.items())
    print(f"timing: total {total * 1e3:.2f} ms ({stages})")
    print(f"result: {'PASS' if report.passed else 'FAIL'}")


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
    parser.add_argument("--mode", help=f"synthesis mode, {EQB} (default) or {MGD}")
    parser.add_argument("--basis", help="rotation basis, X (default) or Y")
    parser.add_argument("--dihedral-n", type=int, dest="dihedral_n",
                        help="dihedral group order (MGD)")
    parser.add_argument("--no-symmetry", dest="symmetry", action="store_false", default=None,
                        help="disable the symmetry reduction")
    parser.add_argument("--emit", help=f"comma-separated targets: {','.join(EMIT_TARGETS)}")
    parser.add_argument("--out-dir", default=".", help="directory for emitted files (default .)")
    parser.add_argument("--input", dest="trace_input", metavar="INPUT",
                        help="assignment bits for the Bloch trace")
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
    doc = {}
    if args.jobfile:
        try:
            text = (sys.stdin.read() if args.jobfile == "-"
                    else Path(args.jobfile).read_text(encoding="utf-8"))
        except UnicodeDecodeError as e:
            raise JobError(f"job file is not UTF-8: {e}") from None
        doc = _load_object(text)
    elif args.n is None or args.truth is None:
        raise JobError("give a job file or both --n and --truth")
    # a flag's dest is its job field, so JobSpec judges it as it judges the document's
    doc.update((key, value) for key in _JOB_FIELDS
               if (value := getattr(args, key, None)) is not None)
    job = _job_from_mapping(doc, allow_large=args.force_large)
    if args.command == "trace" and job.trace_input is None:
        raise JobError("trace needs --input (or field 'trace_input')")
    if args.command != "synth" and job.emit:
        raise JobError(f"only synth emits artifacts; drop --emit (or field 'emit') "
                       f"from this {args.command} job")
    return job


def main(argv=None) -> int:
    args = _PARSER.parse_intermixed_args(argv)
    try:
        job = _job_from_args(args)
        if args.command == "spectrum":
            print(_spectrum(job))
            return 0
        report = run_pipeline(job)
        if args.command == "trace":
            print(bloch_trace_csv(report.circuit, job.trace_input), end="")
        elif args.command == "verify":
            for check in report.checks:
                for x, row in enumerate(check.rows):
                    print(f"{check.kind} {_row_text(check, x)} [{'ok' if row.ok else 'MISMATCH'}]")
            for check in report.checks:
                if check.first_failure is not None:
                    print(f"{check.kind} first failure {_row_text(check, check.first_failure)}")
            print(f"result: {'PASS' if report.passed else 'FAIL'}")
        else:
            print_report(report)
            if job.emit:
                for target, path in emit(report, job.emit, args.out_dir).items():
                    print(f"wrote {target}: {path}")
    except (JobError, OSError, PipelineError) as e:
        print(f"qcascade: error: {e}", file=sys.stderr)
        return 1
    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
