"""Seeded job generators for the qcascade benchmark.

Each workload is a fixed cycle of jobs that the timed loop repeats. The
shape of a cycle (sizes, modes, verbs and their shares) is the same for
every seed; the seed draws only the truth tables and the order of the jobs.
Run-to-run spread then comes from the program and the machine, not from a
different mix of large and small jobs.

The program receives only ``Job.text`` (a JSON job document for
``parse_job``) or ``Job.argv`` (an argument list for ``qcascade.cli.main``).
``Job.truth`` and ``Job.expect_exit`` are the known answer the checker
compares against.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

WORKLOADS = ("eqb-verify", "mgd-wide", "cli-small")

# Each job's latency is the best of its runs in the loop (worker.py). A
# shared host runs a job at full speed only in stretches of a few
# milliseconds at a time, so the best of a job's runs reaches the program's
# own cost only when the job is short and runs many times: jobs of at most
# about 20 ms, in cycles of about a second or less, so that a 40 s run repeats
# every job 30 times or more. That sets the sizes and the number of draws of
# each kind of job. The median and the tail (worker.TAIL_BEYOND jobs above
# it) must also fall among jobs of one kind and not on the step between two.
#
# EQB_VERIFY_DRAWS gives, per size, the draws of a group of four jobs (three
# random functions and one odd in x_n); three quarters of them are n = 5.
# mgd-wide draws MGD_WIDE_DRAWS jobs of size MGD_WIDE_N for each dihedral
# order. cli-small draws CLI_SMALL_BLOCKS blocks of ten jobs per size.
EQB_VERIFY_DRAWS = {4: 4, 5: 12}
MGD_WIDE_N = 7
MGD_WIDE_DRAWS = 12
MGD_WIDE_ORDERS = (3, 5, 7)
CLI_SMALL_SIZES = (2, 3, 4)
CLI_SMALL_BLOCKS = 4

SYNTH_EMIT = "word,qasm,json"


@dataclass(frozen=True)
class Job:
    name: str
    mode: str
    n: int
    truth: tuple[int, ...]
    dihedral_n: int | None = None
    text: str | None = None
    emit: bool = False
    argv: tuple[str, ...] = ()
    verb: str | None = None
    trace_input: str | None = None
    expect_exit: int = 0

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


def _boolean(rng: random.Random, n: int) -> list[int]:
    values = [rng.getrandbits(1) for _ in range(1 << n)]
    if all(values[i] != values[i + 1] for i in range(0, len(values), 2)):
        values[1] = values[0]  # keep "not odd in x_n" exact, whatever the draw
    return values


def _odd_in_last(rng: random.Random, n: int) -> list[int]:
    """f = x_n xor h(x_1..x_(n-1)): rows 2i and 2i+1 differ in x_n only."""
    out = []
    for _ in range(1 << (n - 1)):
        h = rng.getrandbits(1)
        out += [h, 1 - h]
    return out


def _levels(rng: random.Random, n: int, order: int) -> list[int]:
    return [rng.randrange(order) for _ in range(1 << n)]


def _digits(values) -> str:
    return "".join(str(v) for v in values)


def _pipeline_job(name, mode, n, truth, dihedral_n=None, emit=False) -> Job:
    doc = {"n": n, "truth": _digits(truth) if mode == "eqb" else truth}
    if mode == "mgd":
        doc.update(mode="mgd", dihedral_n=dihedral_n)
    return Job(name, mode, n, tuple(truth), dihedral_n, text=json.dumps(doc), emit=emit)


def _eqb_verify(rng: random.Random) -> list[Job]:
    jobs = []
    for n, draws in EQB_VERIFY_DRAWS.items():
        for block, k in itertools.product(range(draws), range(4)):
            odd = k == 3  # one job in four runs the ancilla-free symmetry path
            truth = _odd_in_last(rng, n) if odd else _boolean(rng, n)
            jobs.append(_pipeline_job(f"eqb{block}-n{n}-{'odd' if odd else k}", "eqb", n, truth))
    return jobs


def _mgd_wide(rng: random.Random) -> list[Job]:
    n = MGD_WIDE_N
    return [_pipeline_job(f"mgd{block}-n{n}-d{d}", "mgd", n, _levels(rng, n, d), d, emit=True)
            for block, d in itertools.product(range(MGD_WIDE_DRAWS), MGD_WIDE_ORDERS)]


def _cli_job(name, verb, mode, n, truth, *, dihedral_n=None, extra=(), trace_input=None,
             expect_exit=0) -> Job:
    argv = [verb, "--n", str(n), "--truth", _digits(truth)]
    if mode == "mgd":
        argv += ["--mode", "mgd", "--dihedral-n", str(dihedral_n)]
    if verb == "synth":
        argv += ["--emit", SYNTH_EMIT]
    if trace_input is not None:
        argv += ["--input", trace_input]
    return Job(name, mode, n, tuple(truth), dihedral_n, argv=tuple(argv) + tuple(extra),
               verb=verb, trace_input=trace_input, expect_exit=expect_exit)


def _cli_small(rng: random.Random) -> list[Job]:
    """Per block and size, ten jobs: six synth, one each of verify, spectrum
    and trace, and one malformed job that the parser must reject with exit
    code 1."""
    jobs = []
    for block, n in itertools.product(range(CLI_SMALL_BLOCKS), CLI_SMALL_SIZES):
        odd_size = n % 2 == 1
        d_alt = 5 if odd_size else 3
        p = f"cli{block}-n{n}"
        jobs += [
            _cli_job(f"{p}-synth-eqb", "synth", "eqb", n, _boolean(rng, n)),
            _cli_job(f"{p}-synth-eqb-odd", "synth", "eqb", n, _odd_in_last(rng, n)),
            _cli_job(f"{p}-synth-eqb-y", "synth", "eqb", n, _boolean(rng, n), extra=("--basis", "y")),
            _cli_job(f"{p}-synth-d3", "synth", "mgd", n, _levels(rng, n, 3), dihedral_n=3),
            _cli_job(f"{p}-synth-d5", "synth", "mgd", n, _levels(rng, n, 5), dihedral_n=5),
            _cli_job(f"{p}-synth-d{d_alt}b", "synth", "mgd", n, _levels(rng, n, d_alt),
                     dihedral_n=d_alt),
            _cli_job(f"{p}-verify", "verify", "eqb", n,
                     _odd_in_last(rng, n) if odd_size else _boolean(rng, n)),
            (_cli_job(f"{p}-spectrum-d3", "spectrum", "mgd", n, _levels(rng, n, 3), dihedral_n=3)
             if odd_size else _cli_job(f"{p}-spectrum", "spectrum", "eqb", n, _boolean(rng, n))),
            _cli_job(f"{p}-trace", "trace", "eqb", n, _boolean(rng, n),
                     trace_input=_digits(rng.getrandbits(1) for _ in range(n))),
            _malformed(rng, n, p),
        ]
    return jobs


def _malformed(rng: random.Random, n: int, p: str) -> Job:
    """A job the parser rejects today: a truth vector of the wrong length, an
    EQB value of 2, or a dihedral order of 4."""
    kind = ("length", "eqb-two", "order-four")[n - CLI_SMALL_SIZES[0]]
    if kind == "length":
        return _cli_job(f"{p}-bad-length", "synth", "eqb", n, _boolean(rng, n)[:-1],
                        expect_exit=1)
    if kind == "eqb-two":
        truth = _boolean(rng, n)
        truth[rng.randrange(len(truth))] = 2
        return _cli_job(f"{p}-bad-eqb-two", "synth", "eqb", n, truth, expect_exit=1)
    return _cli_job(f"{p}-bad-order-four", "synth", "mgd", n, _levels(rng, n, 3),
                    dihedral_n=4, expect_exit=1)


_CYCLES = {"eqb-verify": _eqb_verify, "mgd-wide": _mgd_wide, "cli-small": _cli_small}


def cycle(workload: str, seed: int) -> list[Job]:
    """The workload's job list for this seed, in the order the loop runs it."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _CYCLES[workload](rng)
    rng.shuffle(jobs)
    return jobs


def warmup(workload: str, seed: int) -> Job:
    """One small job of the workload's kind, run before timing starts."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    if workload == "eqb-verify":
        n = min(EQB_VERIFY_DRAWS)
        return _pipeline_job("warmup-eqb", "eqb", n, _boolean(rng, n))
    if workload == "mgd-wide":
        n, d = MGD_WIDE_N, MGD_WIDE_ORDERS[0]
        return _pipeline_job("warmup-mgd", "mgd", n, _levels(rng, n, d), d, emit=True)
    return _cli_job("warmup-cli", "synth", "eqb", 3, _boolean(rng, 3))
