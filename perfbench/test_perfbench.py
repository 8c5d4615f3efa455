"""Tests of the benchmark's own generator and checker (not of qcascade)."""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.append(str(HERE.parent / "src"))

import checker  # noqa: E402
import qcascade.cli as cli  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from checker import CheckFailed  # noqa: E402


def _shape(jobs):
    return Counter((j.mode, j.n, j.verb, j.dihedral_n, j.expect_exit, j.emit) for j in jobs)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seed_changes_only_the_draw(name):
    assert workloads.cycle(name, 7) == workloads.cycle(name, 7)
    assert workloads.warmup(name, 7) == workloads.warmup(name, 7)
    assert workloads.cycle(name, 7) != workloads.cycle(name, 8)
    assert _shape(workloads.cycle(name, 7)) == _shape(workloads.cycle(name, 8))


def _report(job):
    return cli.run_pipeline(cli.parse_job(job.text, allow_large=True))


def _eqb_args(report, job):
    c = report.circuit
    gates = [(g.kind, g.target, g.control, g.angle) for g in c.gates]
    return job.n, job.truth, c.num_qubits, c.target_qubit, dict(c.layout), gates


@pytest.mark.parametrize("odd", [False, True])
def test_checker_fails_a_circuit_with_one_rx_angle_negated(odd):
    job = next(j for j in workloads.cycle("eqb-verify", 3)
               if j.n == 5 and j.name.endswith("odd") == odd)
    n, truth, qubits, target, layout, gates = _eqb_args(_report(job), job)
    assert checker.check_eqb_circuit(n, truth, qubits, target, layout, gates) >= 1 - 1e-9
    # a multiple of pi changes only a global phase, so pick another angle
    i = next(i for i, g in enumerate(gates)
             if g[0] == "RX" and abs(math.remainder(g[3], math.pi)) > 1e-6)
    kind, g_target, control, radians = gates[i]
    bad = gates[:i] + [(kind, g_target, control, -radians)] + gates[i + 1:]
    with pytest.raises(CheckFailed):
        checker.check_eqb_circuit(n, truth, qubits, target, layout, bad)


def test_checker_fails_an_mgd_word_with_one_exponent_changed():
    job = next(j for j in workloads.cycle("mgd-wide", 3) if j.n == workloads.MGD_WIDE_N)
    letters = worker.word_letters(_report(job).word)
    checker.check_mgd_word(job.n, job.truth, job.dihedral_n, letters)
    i = next(i for i, (kind, _) in enumerate(letters) if kind == "a")
    bad = letters[:i] + [("a", letters[i][1] + 1)] + letters[i + 1:]
    with pytest.raises(CheckFailed):
        checker.check_mgd_word(job.n, job.truth, job.dihedral_n, bad)


def test_malformed_cli_job_that_exits_zero_is_a_failure(tmp_path):
    malformed = [j for j in workloads.cycle("cli-small", 3) if j.expect_exit == 1]
    assert len(malformed) == len(workloads.cycle("cli-small", 3)) // 10
    for job in malformed:
        worker.check(job, (1, "", "qcascade: error: ...\n"), tmp_path)
        with pytest.raises(CheckFailed):
            worker.check(job, (0, "", ""), tmp_path)


def test_every_cli_small_job_passes_its_check_at_this_commit(tmp_path):
    runner = worker.Runner(cli, tmp_path)
    for job in workloads.cycle("cli-small", 5):
        _, out = runner.run(job)
        worker.check(job, out, tmp_path)
