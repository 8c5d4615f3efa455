import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import tempfile
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcascade.cascade import VerificationReport, VerificationRow
from qcascade.cli import (EMIT_TARGETS, VERBS, JobError, JobSpec, PipelineError, _job_from_args,
                          build_parser, emit, job_to_mapping, main, parse_job, report_to_mapping,
                          run_pipeline)
from qcascade.spectral import TruthVector
from qcascade.words import EQB, MGD, CascadeWord, Refl, Rot
from reference_parser import build_subcommand_parser

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
    assert job.modulus == 3
    assert job.levels == 2


def test_parse_job_mgd_levels_track_truth_range():
    job = parse_job('{"n": 1, "truth": [0, 2], "mode": "mgd", "dihedral_n": 5}')
    assert job.levels == 3
    assert job.modulus == 5


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
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 4}', "odd prime"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 2}', "odd prime"),
    # a prime near 2**61: the cap answers before any trial division
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 2305843009213693951}',
     "at most 2147483647"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 3, "modulus": 6}', "odd"),
    ('{"n": 3, "truth": "01201021", "mode": "mgd", "dihedral_n": 3, "modulus": 5}',
     "multiple of dihedral_n=3"),
    ('{"n": 2, "truth": "0340", "mode": "mgd", "dihedral_n": 3}', "at most dihedral_n=3"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 3, "levels": 4}',
     "at most dihedral_n=3"),
    ('{"n": 2, "truth": "0110", "mode": "mgd", "dihedral_n": 3, "levels": 1}', "at least 2"),
    ('{"n": 1, "truth": [0, 3], "mode": "mgd", "dihedral_n": 3, "levels": 2}', "0..1"),
    ('{"n": 2, "truth": "0110", "basis": "z"}', "'basis'"),
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


def test_job_round_trips_through_mapping():
    for text in (XOR_JOB,
                 MGD_JOB,
                 '{"n": 1, "truth": [0, 2], "mode": "mgd", "dihedral_n": 5, "levels": 4}',
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
    "modulus": st.integers(-1, 40),
    "levels": st.integers(-1, 9),
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
        mode, dihedral_n, modulus, levels, top = EQB, None, None, None, 1
    else:
        dihedral_n = draw(st.sampled_from([3, 5, 7]))
        modulus = dihedral_n * draw(st.sampled_from([1, 3, 5]))
        levels = draw(st.integers(2, dihedral_n))
        mode, top = MGD, levels - 1
    values = draw(st.lists(st.integers(0, top), min_size=1 << n, max_size=1 << n))
    emit = tuple(draw(st.lists(st.sampled_from(EMIT_TARGETS), max_size=4)))
    # a bloch-csv target needs a trace input
    bits = st.text("01", min_size=n, max_size=n)
    return JobSpec(n=n, truth=TruthVector(n, tuple(values)), mode=mode, dihedral_n=dihedral_n,
                   modulus=modulus, levels=levels, basis=draw(st.sampled_from("XY")),
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


def _flag(key, value) -> list[str]:
    """The flag and value that set job field ``key`` to ``value``."""
    if key == "symmetry":
        return [] if value else ["--no-symmetry"]
    if key == "truth" and isinstance(value, list):
        value = "".join(map(str, value))  # MGD levels stay below 10
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


def test_run_pipeline_xor_reduces_and_passes():
    report = run_pipeline(parse_job(XOR_JOB))
    assert report.passed
    assert report.reduced is not None and report.word is report.reduced
    assert str(report.word) == "a^1/2 g[x1] a^-1/2 g[x1]"
    assert report.circuit.num_qubits == 2
    assert report.quantum is not None and report.quantum.passed
    assert report.connectivity.is_star and report.connectivity.triangle_free
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
        graph = report.connectivity
        assert not graph.edges or report.circuit.target_qubit in graph.centers, doc
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
    assert doc["schema_version"] == 1
    assert "timings" not in doc
    assert doc["passed"] is True
    assert doc["spectrum"] == {"coefficients": ["1/2", "0", "0", "-1/2"], "modulus": None}
    assert doc["words"]["final"] == "a^1/2 g[x1] a^-1/2 g[x1]"
    assert doc["words"]["target"] == "x2"
    assert doc["circuit"]["layout"] == {"x1": 0, "x2": 1}
    assert doc["circuit"]["gates"][0] == {"kind": "RX", "target": 1,
                                          "angle": "pi/2", "radians": math.pi / 2}
    # a one-edge star is centered at either endpoint
    assert doc["connectivity"] == {"edges": [[0, 1]], "is_star": True,
                                   "triangle_free": True, "centers": [0, 1]}
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
    assert doc["schema_version"] == 1
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert rows[0] == "step,gate,theta,phi"
    last = rows[-1].split(",")
    assert math.isclose(float(last[2]), math.pi, rel_tol=0, abs_tol=1e-9)


def test_emit_bloch_requires_trace_input(tmp_path):
    report = run_pipeline(parse_job(XOR_JOB))
    with pytest.raises(JobError, match="trace_input"):
        emit(report, ("bloch-csv",), tmp_path)


def test_emit_checks_every_target_before_writing(tmp_path):
    report = run_pipeline(parse_job(XOR_JOB))
    out_dir = tmp_path / "out"
    for targets, needle in ((["word", "bloch-csv"], "trace_input"), (["word", "png"], "'png'")):
        with pytest.raises(JobError, match=needle):
            emit(report, targets, out_dir)
        assert not out_dir.exists()


def _sweep_jobs():
    """EQB n = 1-6 in both bases, with and without the symmetry reduction
    (half the truth tables odd in x_n, so that it applies), and MGD over D_3,
    D_5 and D_7."""
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
    for n in range(1, 7):
        for d in (3, 5, 7):
            truth = [rng.randrange(d) for _ in range(1 << n)]
            yield {"n": n, "truth": truth, "mode": "mgd", "dihedral_n": d}


def _reindented(data: bytes) -> bytes:
    """report.json in the indented layout, as ``python -m json.tool --indent 2 --sort-keys``."""
    return (json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n").encode()


def test_report_json_equals_stdlib_encoding_on_seeded_jobs(tmp_path):
    for doc in _sweep_jobs():
        report = run_pipeline(parse_job(json.dumps(doc)))
        emit(report, ("json",), tmp_path)
        mapping = report_to_mapping(report)
        data = (tmp_path / "report.json").read_bytes()
        assert data == (json.dumps(mapping, sort_keys=True) + "\n").encode(), doc
        want = json.dumps(mapping, indent=2, sort_keys=True) + "\n"
        assert _reindented(data) == want.encode(), doc


def test_emitted_files_are_byte_identical_across_runs(tmp_path):
    job_text = '{"n": 3, "truth": "01101001", "emit": ["word", "qasm", "json"]}'
    first, second = tmp_path / "a", tmp_path / "b"
    emit(run_pipeline(parse_job(job_text)), ("word", "qasm", "json"), first)
    emit(run_pipeline(parse_job(job_text)), ("word", "qasm", "json"), second)
    for name in ("word.txt", "circuit.qasm", "report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# sha256 of the files `synth --emit word,qasm,json,bloch-csv` writes, pinned
# from the earlier simulator that ran each input row on the full statevector:
# the current simulators must write the same bytes.  report.json is pinned in
# its earlier indented layout, so it is hashed re-indented
GOLDEN_EMIT = {
    ("--n", "3", "--truth", "01101001", "--input", "101"): {
        "word.txt": "a3bfa3139c4c160efcd4408ed070a7fa9e7bfc9762a309af9e44f7130f650597",
        "circuit.qasm": "d6eecabda42d20df169dce58ce489987ca2cf9bd5ecc0f3f7deebcbf4383dcee",
        "report.json": "fabbf5464c3dddcd51cd2f548f844414c6a1b22c1ef4d9837e618bf10616b88e",
        "trace.csv": "3c79aa13d3a81a1ee59902903197fd3ea1482025e8eb00ba33eb5b03c04352ee",
    },
    ("--n", "4", "--truth", "0110100110010110", "--basis", "y", "--input", "0111"): {
        "word.txt": "59dca8fed53a95f945abccdd9b3cf0becf38f9574457f8f945dba52f8ab9c4e8",
        "circuit.qasm": "80f3c61153663c273baac678c0ead4ca02fcdc9bbf2e07bad71d9f17dc591106",
        "report.json": "86555f60cb5247d6b6a4c046f7b53ff3af61e20471d8556f82b641d9e5795fb6",
        "trace.csv": "eed6c37878a19936753ad4183ecf83980939b73ec01ee16fdde6fd5c4098b6fb",
    },
    ("--n", "4", "--truth", "0111010011101000", "--input", "1100"): {
        "word.txt": "f72ebb4e8b2fed64bcfc145d25a8741bb50e28484c2aa98cf551030148495b83",
        "circuit.qasm": "78f3b4fa7bbb3cb1aea578e4b1901089f644bf5fa54f0a179bc01c45dc2b1af9",
        "report.json": "56a3d63d8a481942e23dd49aac414f533d568c7a3e4bec4ebee4db91de3019c2",
        "trace.csv": "2043bf5e9436b3b31fe6ea0af2fdf40e53f9ef0e9bc73d652d1dced76cc075f4",
    },
    ("--n", "3", "--truth", "04213043", "--mode", "mgd", "--dihedral-n", "5", "--input", "010"): {
        "word.txt": "661a7e2496aaff88666ecbdf7b91a802bdba4e3f0b5a2f690cb55538619cc7ff",
        "circuit.qasm": "1597ec513522d3e687d203711b7aa07caa86f0340f7381d07097eee27acb6415",
        "report.json": "ce1e67c0ef697a09ad27f3946c2fe4af69558780d387ab347aa24f00a206e23e",
        "trace.csv": "5a484773f7faef87cc1fbb5b1677c11793cbe89f0efc93bc1ec620e197f0126d",
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


def test_main_usage_errors_exit_one(capsys):
    assert main(["synth"]) == 1
    assert "give a job file" in capsys.readouterr().err
    assert main(["synth", "--n", "2", "--truth", "011"]) == 1
    assert "expected 4 entries" in capsys.readouterr().err
    assert main(["synth", "/no/such/job.json"]) == 1
    for flags in (["--n", "3", "--truth", "01201021", "--modulus", "5"],
                  ["--n", "2", "--truth", "0340"]):
        assert main(["synth", *flags, "--mode", "mgd", "--dihedral-n", "3"]) == 1
        assert "qcascade: error: field" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["bogus-command"])
    assert info.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["synth", "--mode", "qft", "--n", "2", "--truth", "0110"])
    assert info.value.code == 1
    capsys.readouterr()
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

    failing = VerificationReport("quantum", (VerificationRow((0, 0), "0", "p=0", False),))
    monkeypatch.setattr(cli, "verify_quantum", lambda circuit, truth: failing)
    assert main(["synth", "--n", "2", "--truth", "0110"]) == 2
    assert "result: FAIL" in capsys.readouterr().out
    assert main(["verify", "--n", "2", "--truth", "0110"]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_failing_job_names_its_first_failing_row(monkeypatch, capsys):
    import qcascade.cli as cli

    # a^1 g[x1] a^1 g[x2] reads 0 on every row but leaves -I, Z or -Z on three
    gap = CascadeWord(EQB, 2, (Rot(Fraction(1)), Refl({1}), Rot(Fraction(1)), Refl({2})))
    monkeypatch.setattr(cli, "simplify", lambda word: gap)
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
    "--modulus": st.sampled_from(["3", "5", "6", "9", "15"]),
    "--levels": st.integers(-1, 8).map(str),
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
