import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import tempfile
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcascade import cli
from qcascade.cascade import VerificationReport, VerificationRow
from qcascade.cli import (EMIT_TARGETS, VERBS, JobError, JobSpec, PipelineError, _job_from_args,
                          build_parser, emit, job_to_mapping, main, parse_job, report_to_mapping,
                          run_pipeline)
from qcascade.quantum import VERIFY_TOL, interaction_graph
from qcascade.spectral import TruthVector
from qcascade.words import EQB, MGD, CascadeWord, Refl, Rot
from reference_parser import build_subcommand_parser
from reference_fold import classical_row
from reference_report import report_mapping, report_text
from reference_statevector import quantum_row

XOR_JOB = '{"n": 2, "truth": "0110"}'
MGD_JOB = '{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 3}'


def test_parse_job_minimal_defaults():
    job = parse_job(XOR_JOB)
    assert job == JobSpec(n=2, truth=TruthVector(2, (0, 1, 1, 0)))
    assert job.mode == EQB and job.basis == "X" and job.symmetry
    assert job.emit == () and job.trace_input is None


def test_parse_job_mgd_defaults():
    job = parse_job(MGD_JOB)
    assert job.mode == MGD
    assert job.dihedral_n == 3


def test_parse_job_mgd_truth_ranges_over_dihedral_n():
    job = parse_job('{"n": 1, "truth": [0, 4], "mode": "mgd", "dihedral_n": 5}')
    assert job.truth.values == (0, 4)
    with pytest.raises(JobError, match=r"'truth': MGD values must lie in 0\.\.4 "
                                       r"\(found 5 at row 1\)"):
        parse_job('{"n": 1, "truth": [0, 5], "mode": "mgd", "dihedral_n": 5}')


def test_parse_job_accepts_truth_list_and_emit_string():
    job = parse_job('{"n": 2, "truth": [0, 1, 1, 0], "emit": "word,qasm", "basis": "y"}')
    assert job.truth.values == (0, 1, 1, 0)
    assert job.emit == ("word", "qasm")
    assert job.basis == "Y"


def test_parse_job_accepts_large_n_only_when_forced():
    doc = json.dumps({"n": 11, "truth": "01" * 1024})
    with pytest.raises(JobError, match="force-large"):
        parse_job(doc)
    assert parse_job(doc, allow_large=True).n == 11


@pytest.mark.parametrize("text,needle", [
    ("{", "invalid JSON"),
    ("[1, 2]", "JSON object"),
    ('{"n": 2, "truth": "0110", "spam": 1}', "unknown field"),
    ('{"truth": "0110"}', "'n': required"),
    ('{"n": 2}', "'truth': required"),
    ('{"n": true, "truth": "01"}', "expected an integer"),
    ('{"n": 0, "truth": "0"}', "at least one input"),
    ('{"n": 2, "truth": "0110", "mode": "qft"}', "'mode'"),
    ('{"n": 2, "truth": "011"}', "expected 4 entries"),
    ('{"n": 2, "truth": "01a0"}', "digit string"),
    ('{"n": 2, "truth": [0, 1, "x", 0]}', "must be integers"),
    ('{"n": 2, "truth": [0, 1, 1, 0.9]}', "must be integers"),
    ('{"n": 2, "truth": [0, 1, 1, " 0"]}', "must be integers"),
    ('{"n": 2, "truth": [0, 1, 1, true]}', "must be integers"),
    ('{"n": 2, "truth": [0, 1, 1, Infinity]}', "must be integers"),
    ('{"n": 2, "truth": {"0": 1}}', "expected a string or list"),
    ('{"n": 2, "truth": "0110", "dihedral_n": 3}', "only valid in MGD"),
    ('{"n": 1, "truth": [0, 2]}', "must be 0 or 1"),
    ('{"n": 2, "truth": "0110", "mode": "mgd"}', "'dihedral_n': required"),
    # any odd order from 3 to MAX_DIHEDRAL_N, the largest the unitary check resolves
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 4}', "odd group order from 3 to 32767, got 4"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 2}', "odd group order from 3 to 32767, got 2"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 1}', "odd group order from 3 to 32767, got 1"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": -3}', "odd group order from 3 to 32767, got -3"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 32769}',
     "odd group order from 3 to 32767, got 32769"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 2147483647}',
     "odd group order from 3 to 32767, got 2147483647"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 3.0}',
     "'dihedral_n': expected an integer, got 3.0"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 2305843009213693951}',
     "odd group order from 3 to 32767, got 2305843009213693951"),
    ('{"n": 2, "truth": "0340", "mode": "mgd", "dihedral_n": 3}',
     r"'truth': MGD values must lie in 0\.\.2 \(found 3 at row 1\)"),
    ('{"n": 1, "truth": "03", "mode": "mgd", "dihedral_n": 3}', r"'truth'.*at row 1\)"),
    ('{"n": 1, "truth": [0, -1], "mode": "mgd", "dihedral_n": 3}', r"'truth'.*at row 1\)"),
    # MGD angles follow dihedral_n; there is no levels field
    ('{"n": 1, "truth": [0, 3], "mode": "mgd", "dihedral_n": 3, "levels": 2}',
     r"unknown field\(s\): levels"),
    ('{"n": 2, "truth": "0110", "levels": null, "spam": null}',
     r"unknown field\(s\): levels, spam"),
    # nor a modulus field: the spectrum is taken modulo dihedral_n
    ('{"n": 1, "truth": [0, 2], "mode": "mgd", "dihedral_n": 3, "modulus": 9}',
     r"unknown field\(s\): modulus"),
    ('{"n": 2, "truth": "0110", "basis": "z"}', "'basis'"),
    # case is folded on strings only, so another value is quoted as given
    ('{"n": 2, "truth": "0110", "basis": true}', "'basis': expected 'X' or 'Y', got True$"),
    ('{"n": 2, "truth": "0110", "mode": ["eqb"]}', r"'mode': .*, got \['eqb'\]$"),
    ('{"n": 2, "truth": "0110", "symmetry": 1}', "true or false"),
    ('{"n": 2, "truth": "0110", "emit": 5}', "list of targets"),
    ('{"n": 2, "truth": "0110", "emit": ["png"]}', "unknown target"),
    ('{"n": 2, "truth": "0110", "trace_input": "1"}', "expected 2 bits"),
    ('{"n": 2, "truth": "0110", "trace_input": "1x"}', "expected 2 bits"),
    ('{"n": 2, "truth": "0110", "trace_input": 10}', "expected a bit string"),
    ('{"n": 2, "truth": "0110", "emit": ["word", "bloch-csv"]}', "needs field 'trace_input'"),
])
def test_parse_job_diagnostics(text, needle):
    with pytest.raises(JobError, match=needle):
        parse_job(text)


def test_dihedral_n_cap_stays_within_what_the_unitary_check_resolves():
    # neighbouring rotations R(2*pi*k/d) and R(2*pi*(k+1)/d) differ by a
    # squared entry of about (pi/d)**2, which must clear the check's tolerance
    assert (math.pi / cli.MAX_DIHEDRAL_N) ** 2 > 8 * VERIFY_TOL
    rng = random.Random(32767)
    truth = [rng.randrange(cli.MAX_DIHEDRAL_N) for _ in range(8)]
    doc = {"n": 3, "truth": truth, "mode": "mgd", "dihedral_n": cli.MAX_DIHEDRAL_N}
    assert run_pipeline(parse_job(json.dumps(doc))).passed


@pytest.mark.parametrize("fields_,needle", [
    ({"mode": "bogus"}, "'mode': expected 'eqb' or 'mgd', got 'bogus'"),
    ({"mode": MGD}, "'dihedral_n': required in MGD mode"),
    ({"mode": MGD, "dihedral_n": None}, "'dihedral_n': required in MGD mode"),
    ({"mode": EQB, "dihedral_n": 3}, "'dihedral_n': only valid in MGD mode"),
    ({"dihedral_n": 3}, "'dihedral_n': only valid in MGD mode"),
])
def test_job_spec_rejects_fields_its_mode_contradicts(fields_, needle):
    with pytest.raises(JobError, match=needle):
        JobSpec(n=2, truth=TruthVector(2, (0, 1, 1, 0)), **fields_)


def test_job_spec_takes_the_document_forms():
    doc = {"n": 2, "truth": "0110", "mode": "EQB", "basis": "y", "emit": "word,json"}
    job = JobSpec(**doc)
    assert job == parse_job(json.dumps(doc))
    assert job == JobSpec(n=2, truth=TruthVector(2, (0, 1, 1, 0)), basis="Y",
                          emit=("word", "json"))
    for truth in ((0, 1, 1, 0), {"0": 1}):
        with pytest.raises(JobError, match="field 'truth': expected a string or list, got "):
            JobSpec(n=2, truth=truth)


def test_job_round_trips_through_mapping():
    for text in (XOR_JOB,
                 MGD_JOB,
                 '{"n": 1, "truth": [0, 4], "mode": "mgd", "dihedral_n": 5}',
                 '{"n": 2, "truth": "0110", "emit": "word,json", "trace_input": "10", '
                 '"basis": "y", "symmetry": false}'):
        job = parse_job(text)
        assert parse_job(json.dumps(job_to_mapping(job))) == job


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=6))
_JSON_VALUES = st.recursive(_JSON_SCALARS,
                            lambda inner: st.lists(inner, max_size=4)
                            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                            max_leaves=8)
# each field draws mostly near-valid values, so that documents get past the
# early checks and reach the later ones
_FIELDS = {
    "n": st.integers(-1, 4),
    "truth": st.text("01234567", max_size=17)
    | st.lists(st.integers(-1, 8) | st.sampled_from([0.9, " 0", True, math.inf]) | _JSON_SCALARS,
               max_size=17),
    "mode": st.sampled_from(["eqb", "mgd", "MGD", "qft"]),
    "dihedral_n": st.integers(-1, 12),
    "basis": st.sampled_from(["x", "y", "Y", "z"]),
    "symmetry": st.booleans(),
    "emit": st.lists(st.sampled_from(EMIT_TARGETS + ("png",)), max_size=3)
    | st.sampled_from(["word,qasm", "json,", ""]),
    "trace_input": st.text("01x", max_size=5),
}
_REQUIRED = ("n", "truth")
_JOB_DOCS = (st.fixed_dictionaries({k: _FIELDS[k] for k in _REQUIRED},
                                   optional={k: v | _JSON_VALUES for k, v in _FIELDS.items()
                                             if k not in _REQUIRED})
             | st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=4))


@st.composite
def _valid_jobs(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        mode, dihedral_n, top = EQB, None, 1
    else:
        dihedral_n = draw(st.sampled_from([3, 5, 7]))
        mode, top = MGD, draw(st.integers(1, dihedral_n - 1))
    values = draw(st.lists(st.integers(0, top), min_size=1 << n, max_size=1 << n))
    emit = tuple(draw(st.lists(st.sampled_from(EMIT_TARGETS), max_size=4)))
    # a bloch-csv target needs a trace input
    bits = st.text("01", min_size=n, max_size=n)
    return JobSpec(n=n, truth=TruthVector(n, tuple(values)), mode=mode, dihedral_n=dihedral_n,
                   basis=draw(st.sampled_from("XY")),
                   symmetry=draw(st.booleans()), emit=emit,
                   trace_input=draw(bits if "bloch-csv" in emit else st.none() | bits))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JOB_DOCS)
def test_parse_job_any_json_object_gives_job_or_job_error(doc):
    try:
        job = parse_job(json.dumps(doc))
    except JobError:
        return
    assert isinstance(job, JobSpec)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_valid_jobs())
def test_parse_job_inverts_job_to_mapping(job):
    assert parse_job(json.dumps(job_to_mapping(job))) == job


@st.composite
def _job_spec_arguments(draw):
    """JobSpec arguments, drawn near their valid sets so that most checks
    are reached: the truth vector's width usually equals n, dihedral_n is
    usually given exactly in MGD mode, and a scalar field now and then holds
    a JSON value of the wrong type.  Fields come in their Python and their
    document forms: ``truth`` now and then as a digit string or a list,
    ``mode`` and ``basis`` in either case, and ``emit`` now and then as a
    comma string."""
    n = draw(st.integers(1, 4))
    width = n if draw(st.integers(0, 3)) else draw(st.integers(1, 4))
    lo, hi = draw(st.sampled_from([(0, 1), (0, 1), (0, 2), (0, 2), (-1, 8)]))
    values = draw(st.lists(st.integers(lo, hi), min_size=1 << width, max_size=1 << width))
    truth = draw(st.sampled_from([TruthVector(width, tuple(values)), list(values),
                                  "".join(map(str, values))]))
    args = {"n": n, "truth": truth}
    if not draw(st.integers(0, 7)):
        args["n"] = draw(st.sampled_from([float(n), n == 1]))
    mode = draw(st.sampled_from([None, EQB, MGD, MGD, "qft", "EQB", "Mgd", True, 1, ["eqb"]]))
    if mode is not None:
        args["mode"] = mode
    if (draw(st.integers(0, 3)) > 0) == (str(mode).lower() == MGD):
        args["dihedral_n"] = draw(st.sampled_from([3, 5, 7]) | st.integers(-1, 12)
                                  | st.sampled_from([3.0, 5.0, True]))
    targets = st.lists(st.sampled_from(EMIT_TARGETS + ("png",)), max_size=3)
    optional = {"basis": st.sampled_from(["X", "Y", "Z", "x", "y", True, 1, ["x"]]),
                "symmetry": st.booleans() | st.integers(0, 1) | st.sampled_from(["no", ""]),
                "emit": targets | targets.map(tuple) | targets.map(",".join),
                "trace_input": st.text("01", min_size=n, max_size=n) | st.text("01x", max_size=5)
                | st.integers(0, 11)}
    for key, value in optional.items():
        if draw(st.booleans()):
            args[key] = draw(value)
    return args


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_job_spec_arguments())
@example({"n": 1, "truth": TruthVector(1, (0, 4)), "mode": MGD, "dihedral_n": 3})
@example({"n": 3, "truth": TruthVector(2, (0, 1, 1, 0))})
@example({"n": 2.0, "truth": TruthVector(2, (0, 1, 1, 0))})
@example({"n": True, "truth": TruthVector(1, (0, 1))})
@example({"n": 2, "truth": TruthVector(2, (0, 1, 1, 0)), "symmetry": "no"})
@example({"n": 2, "truth": TruthVector(2, (0, 1, 1, 0)), "mode": MGD, "dihedral_n": 3.0})
@example({"n": 2, "truth": TruthVector(2, (0, 1, 1, 0)), "trace_input": 10})
@example({"n": 2, "truth": TruthVector(2, (0, 1, 1, 0)), "emit": ["word"]})
@example({"n": 2, "truth": TruthVector(2, (0, 1, 1, 0)), "basis": True})
@example({"n": 2, "truth": "0110", "mode": ["eqb"]})
@example({"n": 2, "truth": [0, 1, 1, 0], "mode": "EQB", "emit": "word,json"})
def test_job_spec_rejects_what_parse_job_rejects(args):
    def outcome(build):
        try:
            return build()
        except JobError as e:
            return str(e)

    truth = args["truth"]
    doc = {**args, "truth": list(truth.values) if isinstance(truth, TruthVector) else truth}
    assert outcome(lambda: JobSpec(**args)) == outcome(lambda: parse_job(json.dumps(doc)))


def _flag(key, value) -> list[str]:
    """The flag and value that set job field ``key`` to ``value``."""
    if key == "symmetry":
        return [] if value else ["--no-symmetry"]
    if key == "truth" and isinstance(value, list):
        value = "".join(map(str, value))  # MGD values stay below 10
    elif key == "emit":
        value = ",".join(value)
    return ["--input" if key == "trace_input" else "--" + key.replace("_", "-"), str(value)]


@st.composite
def _flags_and_job_files(draw):
    """A valid job, its job document, and an argument list that splits the
    document's fields between a job file and flags.  A field set both ways
    holds any JSON value in the file, which the flag must override."""
    job = draw(_valid_jobs())
    doc = job_to_mapping(job)
    file_doc, flags = {}, []
    for key, value in doc.items():
        # only --no-symmetry sets symmetry, so a true value lives in the file
        ways = ("file",) if key == "symmetry" and value else ("file", "flag", "both")
        way = draw(st.sampled_from(ways))
        if way != "flag":
            file_doc[key] = value if way == "file" else draw(_JSON_VALUES)
        if way != "file":
            flags.append(_flag(key, value))
    flags = [token for flag in draw(st.permutations(flags)) for token in flag]
    return doc, file_doc, flags


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_flags_and_job_files())
def test_flags_and_job_fields_are_one_mapping(case):
    doc, file_doc, flags = case
    job = parse_job(json.dumps(doc))
    assert set(doc) == {f.name for f in fields(JobSpec) if getattr(job, f.name) is not None}
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["synth", *flags]
        if file_doc:
            jobfile = Path(tmp) / "job.json"
            jobfile.write_text(json.dumps(file_doc))
            argv.insert(1, str(jobfile))
        assert _job_from_args(build_parser().parse_intermixed_args(argv)) == job


@pytest.mark.parametrize("flag,value", [("--mode", "MGD"), ("--mode", "Eqb"),
                                        ("--basis", "Y"), ("--basis", "x")])
def test_flags_take_the_documents_spellings(flag, value):
    doc = {"n": 2, "truth": "0110", flag[2:]: value}
    if value.lower() == MGD:
        doc["dihedral_n"] = 3
    argv = ["synth", *(token for key, v in doc.items() for token in _flag(key, v))]
    assert _job_from_args(build_parser().parse_intermixed_args(argv)) == parse_job(json.dumps(doc))


@pytest.mark.parametrize("doc,kinds", [(MGD_JOB, ("classical",)),
                                       ('{"n": 2, "truth": "0001"}', ("classical", "quantum")),
                                       (XOR_JOB, ("classical", "quantum"))],
                         ids=["mgd", "eqb", "eqb-retargeted"])
def test_report_checks_are_the_checks_the_run_made(doc, kinds):
    report = run_pipeline(parse_job(doc))
    assert (report.reduced is not None) == (doc == XOR_JOB)
    assert tuple(check.kind for check in report.checks) == kinds
    assert report.checks == (report.classical, report.quantum)[:len(kinds)]


def test_run_pipeline_xor_reduces_and_passes():
    report = run_pipeline(parse_job(XOR_JOB))
    assert report.passed
    assert report.reduced is not None and report.word is report.reduced
    assert str(report.word) == "a^1/2 g[x1] a^-1/2 g[x1]"
    assert report.circuit.num_qubits == 2
    assert report.quantum is not None and report.quantum.passed
    assert interaction_graph(report.circuit) == ((0, 1),)
    assert report.timings and all(t >= 0 for t in report.timings.values())


def test_run_pipeline_respects_no_symmetry():
    report = run_pipeline(parse_job('{"n": 2, "truth": "0110", "symmetry": false}'))
    assert report.reduced is None and report.word is report.simplified
    assert report.circuit.num_qubits == 3
    assert report.passed


def test_run_pipeline_mgd_skips_quantum_check():
    report = run_pipeline(parse_job(MGD_JOB))
    assert report.quantum is None
    assert report.classical.passed and report.passed
    assert str(report.word) == "a^-1 g[x1,x2] a^1 g[x1,x2]"
    assert report.spectrum.modulus == 3


def test_run_pipeline_constant_function_gives_empty_word():
    report = run_pipeline(parse_job('{"n": 1, "truth": "00"}'))
    assert len(report.word) == 0
    assert len(report.circuit.gates) == 0
    assert report.passed


def test_run_pipeline_basis_y():
    report = run_pipeline(parse_job('{"n": 2, "truth": "0110", "basis": "y"}'))
    assert {g.kind for g in report.circuit.gates} == {"RY", "CZ"}
    assert report.passed


def _small_function_jobs():
    """Every EQB function with n <= 3 in both bases, and every MGD function
    with n <= 2 over D_3 and D_5."""
    for n in (1, 2, 3):
        for values in itertools.product((0, 1), repeat=1 << n):
            for basis in ("x", "y"):
                yield {"n": n, "truth": list(values), "basis": basis}
    for n in (1, 2):
        for d in (3, 5):
            for values in itertools.product(range(d), repeat=1 << n):
                yield {"n": n, "truth": list(values), "mode": "mgd", "dihedral_n": d}


def test_run_pipeline_passes_every_small_function():
    counts = {EQB: 0, MGD: 0}
    for doc in _small_function_jobs():
        report = run_pipeline(parse_job(json.dumps(doc)))
        assert report.passed, doc
        assert all(report.circuit.target_qubit in e for e in interaction_graph(report.circuit)), doc
        counts[report.job.mode] += 1
    assert counts == {EQB: 552, MGD: 740}


def test_pipeline_error_carries_stage(monkeypatch):
    import qcascade.cli as cli

    def boom(truth):
        raise ValueError("broken transform")

    monkeypatch.setattr(cli, "spectrum_exact", boom)
    with pytest.raises(PipelineError, match="stage 'spectrum'.*broken transform") as info:
        run_pipeline(parse_job(XOR_JOB))
    assert info.value.stage == "spectrum"


def test_report_mapping_is_deterministic_and_versioned():
    report = run_pipeline(parse_job(XOR_JOB))
    doc = report_to_mapping(report)
    assert doc["schema_version"] == 3
    assert "timings" not in doc
    assert doc["passed"] is True
    assert doc["spectrum"] == {"coefficients": ["1/2", "0", "0", "-1/2"]}
    assert doc["words"]["final"] == "a^1/2 g[x1] a^-1/2 g[x1]"
    assert doc["words"]["target"] == "x2"
    assert doc["circuit"]["layout"] == {"x1": 0, "x2": 1}
    assert doc["circuit"]["gates"][0] == {"kind": "RX", "target": 1,
                                          "angle": "pi/2", "radians": math.pi / 2}
    assert doc["connectivity"] == {"edges": [[0, 1]]}
    assert doc["verification"]["quantum"]["passed"] is True
    assert doc == report_to_mapping(run_pipeline(parse_job(XOR_JOB)))


def test_report_mapping_marks_ancilla_target():
    doc = report_to_mapping(run_pipeline(parse_job(MGD_JOB)))
    assert doc["words"]["target"] == "ancilla"
    assert doc["verification"]["quantum"] is None
    assert doc["job"]["dihedral_n"] == 3


def test_report_mapping_prints_each_distinct_word_once(monkeypatch):
    printed = []
    word_str = CascadeWord.__str__
    monkeypatch.setattr(CascadeWord, "__str__", lambda w: printed.append(id(w)) or word_str(w))
    # the final word is the simplified word (MGD) or the reduced word (odd EQB)
    for text in (MGD_JOB, XOR_JOB, '{"n": 2, "truth": "0110", "symmetry": false}'):
        report = run_pipeline(parse_job(text))
        printed.clear()
        report_to_mapping(report)
        words = (report.canonical, report.simplified, report.reduced, report.word)
        assert sorted(printed) == sorted({id(w) for w in words if w is not None})


def test_emit_writes_requested_files(tmp_path):
    report = run_pipeline(parse_job('{"n": 2, "truth": "0110", "trace_input": "10", '
                                    '"emit": ["word", "qasm", "json", "bloch-csv"]}'))
    written = emit(report, report.job.emit, tmp_path)
    assert sorted(written) == sorted(EMIT_TARGETS)
    assert (tmp_path / "word.txt").read_text() == "a^1/2 g[x1] a^-1/2 g[x1]\n"
    qasm = (tmp_path / "circuit.qasm").read_text()
    assert qasm.startswith("OPENQASM 2.0;\n")
    assert "rx(pi/2) q[1];" in qasm
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["schema_version"] == 3
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert rows[0] == "step,gate,theta,phi"
    last = rows[-1].split(",")
    assert math.isclose(float(last[2]), math.pi, rel_tol=0, abs_tol=1e-9)


def test_emit_bloch_requires_trace_input(tmp_path):
    report = run_pipeline(parse_job(XOR_JOB))
    with pytest.raises(JobError, match="trace_input"):
        emit(report, ("bloch-csv",), tmp_path)


def test_emit_reads_a_comma_string_of_targets(tmp_path):
    report = run_pipeline(parse_job(XOR_JOB))
    written = emit(report, "word,json", tmp_path / "out")
    assert list(written) == ["word", "json"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.json", "word.txt"]
    with pytest.raises(JobError, match="field 'emit': expected a list of targets"):
        emit(report, 5, tmp_path / "none")
    assert not (tmp_path / "none").exists()


def test_emit_checks_every_target_before_writing(tmp_path):
    """emit applies JobSpec's emit rules, with JobSpec's messages, before it
    creates the directory."""
    report = run_pipeline(parse_job(XOR_JOB))
    out_dir = tmp_path / "out"
    for targets in (["png"], ["word", "png"], ["word", "bloch-csv"]):
        with pytest.raises(JobError) as from_spec:
            JobSpec(n=2, truth=report.job.truth, emit=targets)
        with pytest.raises(JobError) as from_emit:
            emit(report, targets, out_dir)
        assert str(from_emit.value) == str(from_spec.value)
        assert not out_dir.exists()


def _sweep_jobs():
    """EQB n = 1-6 in both bases, with and without the symmetry reduction
    (half the truth tables odd in x_n, so that it applies), MGD over D_3,
    D_5, D_7 and the composite orders D_9 and D_15 at n = 1-7 (n = 7 is
    the mgd-wide benchmark's shape), and circuits with no gate and with a
    single gate."""
    rng = random.Random(404)
    for n in range(1, 7):
        for basis in ("x", "y"):
            for symmetry in (True, False):
                for odd in (False, True):
                    if odd:
                        halves = [rng.getrandbits(1) for _ in range(1 << (n - 1))]
                        truth = "".join(f"{h}{1 - h}" for h in halves)
                    else:
                        truth = "".join(str(rng.getrandbits(1)) for _ in range(1 << n))
                    yield {"n": n, "truth": truth, "basis": basis, "symmetry": symmetry}
    for n in range(1, 8):
        for d in (3, 5, 7, 9, 15):
            truth = [rng.randrange(d) for _ in range(1 << n)]
            yield {"n": n, "truth": truth, "mode": "mgd", "dihedral_n": d}
    yield {"n": 2, "truth": "0000"}
    yield {"n": 2, "truth": [0, 0, 0, 0], "mode": "mgd", "dihedral_n": 3}
    yield {"n": 1, "truth": "11"}


def _reindented(data: bytes) -> bytes:
    """report.json in the indented layout, as ``python -m json.tool --indent 2 --sort-keys``."""
    return (json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n").encode()


def test_report_json_equals_stdlib_encoding_on_seeded_jobs(tmp_path):
    gate_counts = set()
    for doc in _sweep_jobs():
        report = run_pipeline(parse_job(json.dumps(doc)))
        gate_counts.add(len(report.circuit.gates))
        emit(report, ("json",), tmp_path)
        mapping = report_mapping(report)
        data = (tmp_path / "report.json").read_bytes()
        assert data == report_text(report).encode(), doc
        assert report_to_mapping(report) == json.loads(data), doc
        want = json.dumps(mapping, indent=2, sort_keys=True) + "\n"
        assert _reindented(data) == want.encode(), doc
    assert {0, 1} <= gate_counts


def test_report_json_keeps_its_bytes_with_unshared_gates(tmp_path):
    """A report whose equal gates are separate objects writes the same
    bytes as the shared one from run_pipeline."""
    for doc in ({"n": 4, "truth": "0110100110010110"},
                {"n": 5, "truth": [3, 1, 4, 1, 0, 2, 6, 5, 3, 5, 0, 2, 6, 5, 3, 5,
                                   1, 4, 1, 0, 2, 6, 5, 3, 5, 4, 4, 2, 0, 1, 6, 6],
                 "mode": "mgd", "dihedral_n": 7}):
        shared = run_pipeline(parse_job(json.dumps(doc)))
        gates = tuple(replace(g) for g in shared.circuit.gates)
        assert len({id(g) for g in gates}) == len(gates) > len({id(g) for g in shared.circuit.gates})
        unshared = replace(shared, circuit=replace(shared.circuit, gates=gates))
        emit(shared, ["json"], tmp_path / "shared")
        emit(unshared, ["json"], tmp_path / "unshared")
        data = (tmp_path / "shared" / "report.json").read_bytes()
        assert (tmp_path / "unshared" / "report.json").read_bytes() == data, doc


def test_report_json_encodes_each_distinct_gate_once(tmp_path, monkeypatch):
    """Each distinct gate entry and each distinct row verdict of each oracle
    is encoded once."""
    rng = random.Random(7)
    for doc in ({"n": 7, "truth": [rng.randrange(5) for _ in range(128)], "mode": "mgd",
                 "dihedral_n": 5},
                {"n": 6, "truth": "".join(str(rng.getrandbits(1)) for _ in range(64))}):
        report = run_pipeline(parse_job(json.dumps(doc)))
        gates, rows = [], []
        dumps = json.dumps

        def counting_dumps(obj, **kw):
            if isinstance(obj, dict) and "kind" in obj:
                gates.append(obj)
            if isinstance(obj, dict) and "expected" in obj:
                rows.append((obj["expected"], obj["got"], obj["ok"]))
            return dumps(obj, **kw)
        monkeypatch.setattr(json, "dumps", counting_dumps)
        emit(report, ["json"], tmp_path)
        monkeypatch.undo()
        distinct = len({id(g) for g in report.circuit.gates})
        assert len(report.circuit.gates) > distinct > 0
        assert len(gates) == distinct
        verdicts = []
        for check in report.checks:
            assert len(check.rows) > len(set(check.rows))
            verdicts += set(check.rows)
        assert sorted(rows) == sorted(verdicts)
        assert (tmp_path / "report.json").read_text() == report_text(report)


# a^1 g[x1] a^1 g[x2] reads 0 on every row but leaves -I, Z or -Z on three
_GAP = CascadeWord(2, (Rot(Fraction(1)), Refl({1}), Rot(Fraction(1)), Refl({2})))


_FAILING_CASES = ("gap-x", "gap-y", "mgd-shifted")


def _failing_report(case, monkeypatch) -> cli.SynthesisReport:
    """A report that does not pass: the gap word in basis X or Y (quantum
    rows with a dU distance), or an MGD word with a^1 in front (no row
    passes)."""
    simplify = cli.simplify
    if case == "mgd-shifted":
        rng = random.Random(19)
        doc = {"n": 5, "truth": [rng.randrange(7) for _ in range(32)], "mode": "mgd",
               "dihedral_n": 7}

        def shifted(word):  # a^1 in front: every row folds to a^(F(x) + 1)
            word = simplify(word)
            return replace(word, letters=(Rot(1), *word.letters))
        monkeypatch.setattr(cli, "simplify", shifted)
    else:
        doc = {"n": 2, "truth": "0000", "basis": case[-1]}
        monkeypatch.setattr(cli, "simplify", lambda word: _GAP)
    report = run_pipeline(parse_job(json.dumps(doc)))
    monkeypatch.undo()
    assert not report.passed
    return report


@pytest.mark.parametrize("case", _FAILING_CASES)
def test_failing_report_json_equals_stdlib_encoding(case, tmp_path, monkeypatch):
    """Rows that fail, quantum rows with a dU distance and a report that
    does not pass keep the bytes of the stdlib encoding."""
    report = _failing_report(case, monkeypatch)
    emit(report, ["json"], tmp_path)
    data = (tmp_path / "report.json").read_text()
    assert data == report_text(report)
    assert '"ok": false' in data and '"passed": false' in data
    if case == "mgd-shifted":
        assert not any(row.ok for row in report.classical.rows)
    else:
        assert " dU=4" in data and '"got": "p=1 dU=4"' in data


def test_report_json_row_x_is_input_x(tmp_path, monkeypatch):
    """Row x of each oracle in report.json is the per-row reference verdict
    for input x, x1 most significant: the fold of the final word for
    classical rows, full statevectors for quantum rows.  No row names its
    input."""
    reports = [run_pipeline(parse_job(json.dumps(doc))) for doc in _sweep_jobs()]
    reports += [_failing_report(case, monkeypatch) for case in _FAILING_CASES]
    for report in reports:
        emit(report, ["json"], tmp_path)
        doc = json.loads((tmp_path / "report.json").read_bytes())
        assert doc["schema_version"] == 3
        n, values = report.job.n, report.job.truth.values
        classical, quantum = doc["verification"]["classical"], doc["verification"]["quantum"]
        assert len(classical["rows"]) == 1 << n
        assert (quantum is None) == (report.quantum is None)
        for x in range(1 << n):
            bits = tuple(int(b) for b in format(x, f"0{n}b"))
            want = dict(zip(("expected", "got", "ok"), classical_row(report.word, bits, values[x])))
            assert classical["rows"][x] == want, (report.job, x)
            if quantum is not None:
                want = quantum_row(report.circuit, bits, values[x])._asdict()
                assert quantum["rows"][x] == want, (report.job, x)
    assert any(not report.passed for report in reports)


@st.composite
def _report_jobs(draw):
    """EQB jobs in both bases with the symmetry reduction on and off (half
    of them odd in x_n, so that it applies) and MGD jobs over D_3, D_5 and
    D_7, at n = 1-4."""
    n = draw(st.integers(1, 4))
    size = 1 << n
    if draw(st.booleans()):
        d = draw(st.sampled_from([3, 5, 7]))
        truth = draw(st.lists(st.integers(0, d - 1), min_size=size, max_size=size))
        return {"n": n, "truth": truth, "mode": "mgd", "dihedral_n": d}
    if draw(st.booleans()):
        halves = draw(st.lists(st.integers(0, 1), min_size=size // 2, max_size=size // 2))
        truth = [b for h in halves for b in (h, 1 - h)]
    else:
        truth = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    return {"n": n, "truth": "".join(map(str, truth)), "basis": draw(st.sampled_from("XY")),
            "symmetry": draw(st.booleans())}


@settings(max_examples=80, deadline=None)
@given(doc=_report_jobs())
def test_report_json_equals_stdlib_encoding_on_drawn_jobs(doc):
    report = run_pipeline(parse_job(json.dumps(doc)))
    with tempfile.TemporaryDirectory() as out_dir:
        emit(report, ["json"], out_dir)
        data = (Path(out_dir) / "report.json").read_text()
    assert data == report_text(report)


def test_emitted_files_are_byte_identical_across_runs(tmp_path):
    job_text = '{"n": 3, "truth": "01101001", "emit": ["word", "qasm", "json"]}'
    first, second = tmp_path / "a", tmp_path / "b"
    emit(run_pipeline(parse_job(job_text)), ("word", "qasm", "json"), first)
    emit(run_pipeline(parse_job(job_text)), ("word", "qasm", "json"), second)
    for name in ("word.txt", "circuit.qasm", "report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


OVERWRITE_JOBS = (["--n", "4", "--truth", "0111010011101000", "--input", "1100"],
                  ["--n", "2", "--truth", "0110", "--input", "10"])


def _synth_files(job, out_dir) -> dict[str, bytes]:
    argv = ["synth", *job, "--emit", "word,qasm,json,bloch-csv", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["short-after-long", "long-after-short"])
def test_rerun_into_one_out_dir_leaves_each_jobs_own_bytes(order, tmp_path, capsys):
    """Each file is overwritten in place, so a shorter file must be cut to
    its own length: no tail of the longer one may survive."""
    shared = tmp_path / "shared"
    for i in order:
        assert _synth_files(OVERWRITE_JOBS[i], shared) == _synth_files(OVERWRITE_JOBS[i],
                                                                       tmp_path / f"fresh{i}")


def _record_opens(monkeypatch, out_dir) -> list[tuple[str, object]]:
    """Patches os.open and io.open; records (file name, flags or mode) of each
    open of a path inside ``out_dir``."""
    opens = []
    real_os_open, real_io_open = os.open, io.open

    def os_open(path, flags, *args, **kwargs):
        if Path(path).parent == out_dir:
            opens.append((Path(path).name, flags))
        return real_os_open(path, flags, *args, **kwargs)

    def io_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == out_dir:
            opens.append((Path(file).name, mode))
        return real_io_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(io, "open", io_open)
    monkeypatch.setattr("builtins.open", io_open)
    return opens


def test_emit_overwrites_in_place_and_writes_through_links(tmp_path, monkeypatch):
    """No existing artifact is opened with O_TRUNC or mode "w"; a symlinked
    or hard-linked artifact keeps its link and its inode and gets the new
    bytes; a new file gets mode 0o666 & ~umask."""
    old = run_pipeline(parse_job('{"n": 4, "truth": "0111010011101000", "trace_input": "1100"}'))
    new = run_pipeline(parse_job('{"n": 2, "truth": "0110", "trace_input": "10"}'))
    targets = ("word", "qasm", "json", "bloch-csv")
    out_dir, fresh, elsewhere = tmp_path / "out", tmp_path / "fresh", tmp_path / "elsewhere"
    elsewhere.mkdir()
    umask = os.umask(0o027)
    try:
        emit(new, targets, fresh)
    finally:
        os.umask(umask)
    assert {p.stat().st_mode & 0o777 for p in fresh.iterdir()} == {0o640}

    emit(old, targets, out_dir)
    target = elsewhere / "report.json"
    (out_dir / "report.json").replace(target)
    (out_dir / "report.json").symlink_to(target)
    os.link(out_dir / "word.txt", elsewhere / "word.txt")
    inodes = {name: (elsewhere / name).stat().st_ino for name in ("report.json", "word.txt")}

    opens = _record_opens(monkeypatch, out_dir)
    emit(new, targets, out_dir)
    monkeypatch.undo()
    assert sorted({name for name, _ in opens}) == sorted(p.name for p in fresh.iterdir())
    for name, how in opens:
        assert (how & os.O_TRUNC == 0) if isinstance(how, int) else ("w" not in how), (name, how)
    assert (out_dir / "report.json").is_symlink()
    for name, ino in inodes.items():
        assert (elsewhere / name).stat().st_ino == ino
        assert (elsewhere / name).read_bytes() == (fresh / name).read_bytes()
    for p in fresh.iterdir():
        assert (out_dir / p.name).read_bytes() == p.read_bytes()


def test_emit_writes_each_distinct_target_once(tmp_path, monkeypatch, capsys):
    opens = _record_opens(monkeypatch, tmp_path)
    argv = ["synth", "--n", "2", "--truth", "0110", "--emit", "json,word,json",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert sorted(name for name, _ in opens) == ["report.json", "word.txt"]
    out = capsys.readouterr().out
    assert out.count("wrote json:") == 1 and out.count("wrote word:") == 1


def test_main_exits_one_when_an_artifact_cannot_be_opened(tmp_path, capsys):
    (tmp_path / "report.json").mkdir()
    argv = ["synth", "--n", "2", "--truth", "0110", "--emit", "json", "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    assert "qcascade: error:" in capsys.readouterr().err


# sha256 of the files `synth --emit word,qasm,json,bloch-csv` writes, pinned
# from the earlier simulator that ran each input row on the full statevector:
# the current simulators must write the same bytes.  report.json is pinned in
# its earlier indented layout, so it is hashed re-indented.  The MGD job's
# circuit.qasm, report.json and trace.csv are pinned later, from the rotation
# angle 2*pi*w/dihedral_n, and its report.json once more when the job lost
# its modulus field.  All four report.json hashes are pinned again for
# schema_version 2, which drops the fields other fields fix: connectivity's
# is_star, triangle_free and centers (every QCircuit is a star on its
# target) and spectrum.modulus (job.dihedral_n); no other byte moved.  And
# again for schema_version 3, whose rows drop "input" (row x is input x).
# The canonical word in Gray order re-pins every hash that depends on the
# word: both report.json files whose simplified word did not move (their
# canonical word did), and all four files of the other two jobs.  Two
# trace.csv files are pinned again for the Bloch angle theta = atan2(2|ab|,
# a^2 - b^2), which keeps to the poles, where acos(a^2 - b^2) was 4.2e-8 off
GOLDEN_EMIT = {
    ("--n", "3", "--truth", "01101001", "--input", "101"): {
        "word.txt": "a3bfa3139c4c160efcd4408ed070a7fa9e7bfc9762a309af9e44f7130f650597",
        "circuit.qasm": "d6eecabda42d20df169dce58ce489987ca2cf9bd5ecc0f3f7deebcbf4383dcee",
        "report.json": "5722ac27ac59d415419e749da1073759fe790ddc019dedb5e53ff6f47b5be232",
        "trace.csv": "122f1b05f14bf417447629d8d85e83c4afcd5f1c017c666231a0bbdb331401e4",
    },
    ("--n", "4", "--truth", "0110100110010110", "--basis", "y", "--input", "0111"): {
        "word.txt": "59dca8fed53a95f945abccdd9b3cf0becf38f9574457f8f945dba52f8ab9c4e8",
        "circuit.qasm": "80f3c61153663c273baac678c0ead4ca02fcdc9bbf2e07bad71d9f17dc591106",
        "report.json": "bd2d5aa12afb4dfd21fd33e326149cfb9aa0670ea0fdcef5608c7073173cd03d",
        "trace.csv": "eed6c37878a19936753ad4183ecf83980939b73ec01ee16fdde6fd5c4098b6fb",
    },
    ("--n", "4", "--truth", "0111010011101000", "--input", "1100"): {
        "word.txt": "e54a875a6f84e98c8a03d939bc0caebf2a30181d16e1328c379f9484be5213c0",
        "circuit.qasm": "5a90c30b8ecce969f032bcdadacfd158c3bccb1d0ad31cf8d0966d3534ecd758",
        "report.json": "22fe4194fc6169bbd8ab93c4168649041b3583b190ba2eb8d155f5518e33d8be",
        "trace.csv": "8e6e6e196fb9a63f7862eac9bf450b908f4a3bbf3c1367003868d01915641661",
    },
    ("--n", "3", "--truth", "04213043", "--mode", "mgd", "--dihedral-n", "5", "--input", "010"): {
        "word.txt": "9bcb8d9bf9f96526d476365bc32fa4199149112527e73d6114ee92b61ebb1a3f",
        "circuit.qasm": "84d7a4e6cdd59caad2020c5ec8157c2094e0d488ca96ffba316b71aff0da3ac8",
        "report.json": "a315aa916f026018b7483b8b68f0a0b477daadffe21d104e1b7bb83ab3c5de0d",
        "trace.csv": "3d97c5b4a75b757bae27c415e292d0271528c365f925a6509969b9ef8ba886db",
    },
}


@pytest.mark.parametrize("flags", list(GOLDEN_EMIT), ids=lambda flags: flags[3])
def test_emitted_files_match_pinned_hashes(flags, tmp_path, capsys):
    argv = ["synth", *flags, "--emit", "word,qasm,json,bloch-csv", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    data = {name: (tmp_path / name).read_bytes() for name in GOLDEN_EMIT[flags]}
    data["report.json"] = _reindented(data["report.json"])
    got = {name: hashlib.sha256(b).hexdigest() for name, b in data.items()}
    assert got == GOLDEN_EMIT[flags]


def test_main_synth_inline_flags(capsys):
    assert main(["synth", "--n", "2", "--truth", "0110"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "symmetry: reduced onto x2" in out
    assert "2 qubits" in out


def test_main_synth_no_symmetry(capsys):
    assert main(["synth", "--n", "2", "--truth", "0110", "--no-symmetry"]) == 0
    out = capsys.readouterr().out
    assert "reduced onto" not in out
    assert "3 qubits" in out


def test_main_synth_jobfile_and_emit(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    jobfile.write_text('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 3}')
    out_dir = tmp_path / "out"
    assert main(["synth", str(jobfile), "--emit", "word,json", "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "wrote word:" in out and "wrote json:" in out
    assert (out_dir / "word.txt").read_text() == "a^-1 g[x1,x2] a^1 g[x1,x2]\n"


def test_main_reads_job_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(XOR_JOB))
    assert main(["synth", "-"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_main_flags_override_jobfile(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    jobfile.write_text('{"n": 2, "truth": "0110", "basis": "x"}')
    assert main(["synth", str(jobfile), "--basis", "y"]) == 0
    assert "basis=Y" in capsys.readouterr().out


def test_main_spectrum_verb(capsys):
    assert main(["spectrum", "--n", "2", "--truth", "0110",
                 "--mode", "mgd", "--dihedral-n", "3"]) == 0
    assert capsys.readouterr().out == "[-1, 0, 0, 1]\n"
    assert main(["spectrum", "--n", "2", "--truth", "0110"]) == 0
    assert capsys.readouterr().out == "[1/2, 0, 0, -1/2]\n"


def test_main_spectrum_takes_an_upper_case_mode(capsys):
    assert main(["spectrum", "--n", "2", "--truth", "0120",
                 "--mode", "MGD", "--dihedral-n", "3"]) == 0
    assert capsys.readouterr().out == "[0, 1, -1, 0]\n"


@pytest.mark.parametrize("flag,value", [("--mode", "qft"), ("--basis", "z")])
def test_main_rejects_a_bad_flag_value_as_a_job_error(flag, value, capsys):
    assert main(["synth", "--n", "2", "--truth", "0110", flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"qcascade: error: field '{flag[2:]}': ") and err.count("\n") == 1, err


def test_main_verify_verb_prints_rows(capsys):
    assert main(["verify", "--n", "2", "--truth", "0110"]) == 0
    out = capsys.readouterr().out
    assert "classical 00: expected 0" in out
    assert "quantum 11: expected 0" in out
    assert out.rstrip().endswith("result: PASS")
    assert "MISMATCH" not in out


def test_main_trace_verb(capsys):
    assert main(["trace", "--n", "2", "--truth", "0110", "--input", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,gate,theta,phi"
    assert math.isclose(float(lines[-1].split(",")[2]), math.pi, rel_tol=0, abs_tol=1e-9)


def test_main_trace_without_input_fails(capsys):
    assert main(["trace", "--n", "2", "--truth", "0110"]) == 1
    assert "trace needs --input" in capsys.readouterr().err


def test_main_trace_without_input_fails_before_the_pipeline(monkeypatch, capsys):
    import qcascade.cli as cli

    def no_pipeline(job):
        raise AssertionError("run_pipeline called")

    monkeypatch.setattr(cli, "run_pipeline", no_pipeline)
    assert main(["trace", "--n", "2", "--truth", "0110"]) == 1
    assert "trace needs --input" in capsys.readouterr().err


def test_main_rejects_bloch_csv_without_input_before_writing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["synth", "--n", "2", "--truth", "0110", "--emit", "word,bloch-csv",
            "--out-dir", str(out_dir)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "needs field 'trace_input'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("verb", [["synth"], ["verify"], ["trace", "--input", "10"]],
                         ids=["synth", "verify", "trace"])
def test_main_exits_one_on_a_pipeline_failure(verb, monkeypatch, capsys):
    """A stage that raises ends the run with exit code 1 and one error line,
    never with a traceback."""
    def boom(word, basis):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "map_to_circuit", boom)
    assert main([*verb, "--n", "2", "--truth", "0110"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "qcascade: error: stage 'map': boom\n"


@pytest.mark.parametrize("verb", ["verify", "spectrum", "trace"])
def test_main_rejects_emit_outside_synth_before_the_pipeline(verb, tmp_path, monkeypatch, capsys):
    import qcascade.cli as cli

    def no_pipeline(job):
        raise AssertionError("pipeline called")

    monkeypatch.setattr(cli, "run_pipeline", no_pipeline)
    monkeypatch.setattr(cli, "_spectrum", no_pipeline)
    jobfile = tmp_path / "job.json"
    jobfile.write_text('{"n": 2, "truth": "0110", "trace_input": "10", "emit": ["qasm"]}')
    out_dir = tmp_path / "out"
    for job in (["--n", "2", "--truth", "0110", "--input", "10", "--emit", "word,json"],
                [str(jobfile)]):
        assert main([verb, *job, "--out-dir", str(out_dir)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "only synth emits artifacts" in err
        assert not out_dir.exists()


# a job file that is not UTF-8, JSON nested deeper than the decoder's
# recursion limit, and an integer literal past the 4,300-digit limit on
# integer conversion
MALFORMED_JOB_BYTES = {"not-utf8": b'\xff\xfe{"n":2}',
                       "deep": b"[" * 100_000,
                       "long-int": b'{"n": ' + b"1" * 5000 + b', "truth": "01"}'}


@pytest.mark.parametrize("name", MALFORMED_JOB_BYTES)
def test_malformed_job_file_is_a_job_error(name, tmp_path, capsys):
    data = MALFORMED_JOB_BYTES[name]
    with pytest.raises(JobError):
        parse_job(data)
    jobfile = tmp_path / "job.json"
    jobfile.write_bytes(data)
    assert main(["synth", str(jobfile)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qcascade: error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_main_usage_errors_exit_one(capsys):
    assert main(["synth"]) == 1
    assert "give a job file" in capsys.readouterr().err
    assert main(["synth", "--n", "2", "--truth", "011"]) == 1
    assert "expected 4 entries" in capsys.readouterr().err
    assert main(["synth", "/no/such/job.json"]) == 1
    assert main(["synth", "--n", "2", "--truth", "0340", "--mode", "mgd", "--dihedral-n", "3"]) == 1
    assert "qcascade: error: field" in capsys.readouterr().err
    assert main(["synth", "--n", "1", "--truth", "03", "--mode", "mgd", "--dihedral-n", "3"]) == 1
    assert ("qcascade: error: field 'truth': MGD values must lie in 0..2 (found 3 at row 1)\n"
            == capsys.readouterr().err)
    for flag in ("--levels", "--modulus"):
        with pytest.raises(SystemExit) as info:
            main(["synth", "--n", "2", "--truth", "0110", "--mode", "mgd", "--dihedral-n", "3",
                  flag, "3"])
        assert info.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["bogus-command"])
    assert info.value.code == 1
    capsys.readouterr()
    assert main(["synth", "--mode", "qft", "--n", "2", "--truth", "0110"]) == 1
    assert (capsys.readouterr().err
            == "qcascade: error: field 'mode': expected 'eqb' or 'mgd', got 'qft'\n")
    # 1 << n does not fit in memory for this n; the parser must answer without it
    assert main(["synth", "--n", str(2**70), "--truth", "01", "--force-large"]) == 1
    assert "expected 2**1180591620717411303424 entries" in capsys.readouterr().err


def test_main_accepts_job_file_after_flags(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(XOR_JOB)
    assert main(["verify", "--basis", "y", str(jobfile)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("result: PASS")


def test_successive_main_calls_share_no_state(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(MGD_JOB)
    assert main(["synth", "--n", "2", "--truth", "0110", "--no-symmetry", "--basis", "y"]) == 0
    out = capsys.readouterr().out
    assert "basis=Y" in out and "reduced onto" not in out
    assert main(["synth", "--n", "2", "--truth", "0110"]) == 0
    out = capsys.readouterr().out
    assert "basis=X" in out and "reduced onto x2" in out
    assert main(["synth", str(jobfile), "--emit", "word", "--out-dir", str(tmp_path)]) == 0
    assert "mode=mgd" in capsys.readouterr().out
    assert main(["synth"]) == 1
    assert "give a job file" in capsys.readouterr().err
    assert main(["synth", "--n", "2", "--truth", "0110"]) == 0
    assert "wrote" not in capsys.readouterr().out
    usage = []
    for argv in (["bogus-command"], ["synth", "--help"], ["bogus-command"]):
        with pytest.raises(SystemExit):
            main(argv)
        usage.append(capsys.readouterr().err)
    assert usage[0] == usage[2] != ""
    # an exit inside the parse leaves the positionals able to follow the flags
    assert main(["verify", "--basis", "y", str(jobfile)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("result: PASS")


def test_main_bad_json_reports_position(tmp_path, capsys):
    jobfile = tmp_path / "job.json"
    jobfile.write_text('{"n": 2,\n "truth": }')
    assert main(["synth", str(jobfile)]) == 1
    assert "invalid JSON at line 2" in capsys.readouterr().err
    jobfile.write_text('{"n": 1, "truth": [0, Infinity]}')
    assert main(["synth", str(jobfile)]) == 1
    assert "qcascade: error: field 'truth'" in capsys.readouterr().err


def test_main_verification_failure_exits_two(monkeypatch, capsys):
    import qcascade.cli as cli

    failing = VerificationReport("quantum", (VerificationRow("0", "p=0", False),))
    monkeypatch.setattr(cli, "verify_quantum", lambda circuit, truth: failing)
    assert main(["synth", "--n", "2", "--truth", "0110"]) == 2
    assert "result: FAIL" in capsys.readouterr().out
    assert main(["verify", "--n", "2", "--truth", "0110"]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_failing_job_names_its_first_failing_row(monkeypatch, capsys):
    import qcascade.cli as cli

    monkeypatch.setattr(cli, "simplify", lambda word: _GAP)
    for basis in ("x", "y"):
        argv = ["--n", "2", "--truth", "0000", "--basis", basis]
        assert main(["synth", *argv]) == 2
        out = capsys.readouterr().out
        assert "\nclassical check: 1/4 rows pass; first failure 00: expected 0, got 2\n" in out
        assert ("\nquantum check: 1/4 rows pass; first failure 00: expected 0, got p=1 dU=4\n"
                in out)
        assert main(["verify", *argv]) == 2
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "classical first failure 00: expected 0, got 2",
            "quantum first failure 00: expected 0, got p=1 dU=4",
            "result: FAIL"]


_FLAG_VALUES = {
    "--n": st.integers(-1, 5).map(str) | st.integers().map(str) | st.just("two"),
    "--truth": st.text("0123", min_size=1, max_size=16),
    "--mode": st.sampled_from(["eqb", "mgd", "qft"]),
    "--basis": st.sampled_from(["x", "Y", "z"]),
    "--dihedral-n": st.sampled_from(["3", "4", "5", "7", "-3", "x"]),
    "--emit": st.sampled_from(["word", "json", "qasm,json", "bloch-csv", "png", ""]),
    "--input": st.text("012", max_size=5),
    "--no-symmetry": st.none(),
    "--force-large": st.none(),
}
_BAD_VERBS = ("bogus", "", "--n")
_ODD = _BAD_VERBS + ("--help", "-h", "--bogus", "extra")
_JOB_FILES = ("good.json", "bad.json", "missing.json")


@st.composite
def _argv(draw):
    """A verb followed by a shuffle of flags, values and at most one job
    file.  --n and --truth often agree, so that jobs reach the pipeline; one
    list in three has a bad verb, a help flag or an unknown argument."""
    odd = draw(st.sampled_from((None,) * 2 * len(_ODD) + _ODD))
    verb = odd if odd in _BAD_VERBS else draw(st.sampled_from(list(VERBS)))
    parts = []
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        parts.append(["--n", str(n), "--truth", draw(st.text("01", min_size=1 << n,
                                                             max_size=1 << n))])
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=3)):
        value = draw(_FLAG_VALUES[flag])
        parts.append([flag] if value is None else [flag, value])
    if draw(st.booleans()):
        parts.append([draw(st.sampled_from(_JOB_FILES))])
    if odd and odd not in _BAD_VERBS:
        parts.append([odd])
    parts = draw(st.permutations(parts))
    return [verb] + [token for part in parts for token in part]


def _run_main(argv, work: Path):
    """main's exit code, or the code of the SystemExit it raised."""
    argv = [str(work / t) if t in _JOB_FILES else t for t in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "return", main(argv + ["--out-dir", str(work / "out")])
        except SystemExit as e:
            return "exit", e.code


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
def test_main_gives_exit_code_for_any_argv(argv):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "good.json").write_text('{"n": 2, "truth": "0110", "trace_input": "01"}')
        (work / "bad.json").write_text('{"n": 2, "truth": ')
        how, code = _run_main(argv, work)
    assert code in ((0, 1, 2) if how == "return" else (0, 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
def test_parser_matches_one_subparser_per_verb(argv):
    def outcome(parse):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return vars(parse(argv))
            except SystemExit as e:
                return e.code

    # help text differs between the two forms, and only the one-parser form
    # reads flags placed before the verb
    if argv[0] in VERBS and not {"-h", "--help"} & set(argv):
        assert (outcome(build_parser().parse_intermixed_args)
                == outcome(build_subcommand_parser().parse_args))
