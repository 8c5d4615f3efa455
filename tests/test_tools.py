import ast
import importlib
import importlib.util
import itertools
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

from qcascade.cascade import VerificationReport, VerificationRow
from qcascade.cli import JobSpec, build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_bench_pipeline_writes_stage_medians(tmp_path):
    out = tmp_path / "BENCH_pipeline.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pipeline.py"),
                    "--sizes", "2", "3", "--out", str(out)],
                   check=True, capture_output=True, env={"PYTHONPATH": str(ROOT / "src")})
    result = json.loads(out.read_text())
    assert sorted(result["sizes"]) == ["2", "3"]
    for n, row in result["sizes"].items():
        assert row["runs"] == 20 * len(result["seeds"])
        assert 0 <= row["czs"] <= 1 << int(n)
        assert set(row["stages_s"]) == {"spectrum", "cascade", "simplify", "map",
                                        "verify_classical", "verify_quantum"}
        assert row["total_s"] > 0
        assert row["emit_json_s"] > 0
        assert row["trace_s"] > 0
        assert row["mgd"]["runs"] == row["runs"]
        assert set(row["mgd"]) == {"runs", "total_s", "emit_json_s", "report_bytes"}
        assert row["mgd"]["total_s"] > 0 and row["mgd"]["emit_json_s"] > 0
        assert row["report_bytes"] > 0 and row["mgd"]["report_bytes"] > 0


def test_perfbench_span_targets_resolve():
    # a renamed target would otherwise show only as trace.missing_targets
    # in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), f"{modname}.{attr}"
    modname, clsname, attr, _ = spans.WORD_CLASS
    assert attr in vars(getattr(importlib.import_module(modname), clsname))


def test_reference_report_imports_nothing_from_the_cli():
    # the reference form of report.json checks the encoder only while it
    # shares none of the encoder's code
    tree = ast.parse((ROOT / "tests" / "reference_report.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert "qcascade.quantum" in imported
    assert not [name for name in imported
                if name == "qcascade.cli" or name.startswith(("qcascade.cli.", "."))]


def test_reference_statevector_takes_only_gate_kinds_from_the_quantum_module():
    # the statevector reference checks verify_quantum and bloch_trace only
    # while it shares none of their arithmetic: a bare qcascade import or a
    # name from the package root would reach the quantum module too
    tree = ast.parse((ROOT / "tests" / "reference_statevector.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken.update(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "qcascade")
        elif isinstance(node, ast.ImportFrom) and node.module in ("qcascade", "qcascade.quantum"):
            taken.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert "qcascade.quantum.CZ" in taken
    assert taken <= {"qcascade.quantum.CZ", "qcascade.quantum.RX", "qcascade.quantum.RY"}


def test_every_flag_sets_a_job_field_or_a_run_option():
    # _job_from_args copies each flag to the JobSpec field named by its dest,
    # so a flag with another dest would need a special case there
    dests = {action.dest for action in build_parser()._actions}
    job_fields = {f.name for f in fields(JobSpec)}
    assert dests - job_fields <= {"help", "command", "jobfile", "out_dir", "force_large"}


def _sweep(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "sweep.py"), *args],
                          capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")})


def _sweep_module():
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_sweep_eqb_passes_every_function_of_two_inputs():
    done = _sweep("--n", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("n=2: 16 functions, 0 failures, ")


def test_sweep_mgd_passes_every_function_of_two_inputs_over_d3():
    done = _sweep("--n", "2", "--dihedral-n", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("n=2 over D_3: 81 functions, 0 failures, ")


def test_sweep_mgd_passes_every_function_of_two_inputs_over_the_composite_order_d9():
    done = _sweep("--n", "2", "--dihedral-n", "9")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("n=2 over D_9: 6561 functions, 0 failures, ")


def test_sweep_eqb_reports_each_failure_and_exits_1(monkeypatch, capsys):
    sweep = _sweep_module()

    def broken(job):
        raise sweep.PipelineError("map", ValueError("boom"))
    monkeypatch.setattr(sweep, "run_pipeline", broken)
    assert sweep.main(["--n", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [f"FAIL truth={t}: PipelineError: stage 'map': boom"
                         for t in ("00", "01", "10", "11")]
    assert lines[4].startswith("n=1: 4 functions, 4 failures, ")


def test_sweep_eqb_names_the_first_failing_row(monkeypatch, capsys):
    sweep = _sweep_module()
    run_pipeline = sweep.run_pipeline

    def failing_at_row_2(job):  # the quantum check fails at input x1 x2 = 10 only
        report = run_pipeline(job)
        rows = list(report.quantum.rows)
        rows[2] = VerificationRow(rows[2].expected, "p=0", False)
        return replace(report, quantum=VerificationReport("quantum", tuple(rows)))
    monkeypatch.setattr(sweep, "run_pipeline", failing_at_row_2)
    assert sweep.main(["--n", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    truths = ["".join(t) for t in itertools.product("01", repeat=4)]
    assert lines[:16] == [f"FAIL truth={t}: quantum row 10: expected {t[2]}, got p=0" for t in truths]
    assert lines[16].startswith("n=2: 16 functions, 16 failures, ")


def test_the_unitary_check_shares_no_arithmetic_with_the_compiler():
    # spectral.fwht computes the spectrum and the classical fold, so an
    # error in it can cancel in that fold (a bit-reversed output does):
    # quantum.py keeps its own Walsh transform, and needs no numpy
    tree = ast.parse((ROOT / "src" / "qcascade" / "quantum.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            taken.update(f"{base}.{alias.name}" for alias in node.names)
    assert not [name for name in taken if name.split(".")[0] == "numpy"]
    assert [name for name in taken if "spectral" in name] == [".spectral.TruthVector"]
