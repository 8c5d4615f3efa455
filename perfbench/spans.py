"""Spans around the calls into each qcascade layer, recorded from outside.

``install`` replaces each public layer function, wherever a qcascade module
holds a reference to it, with a wrapper that records one span per call.
The program's source is not touched and ``uninstall`` puts the originals
back. Spans stay in memory until ``write_csv`` at the end of the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name). The part of a span name before the dot is
# the layer, which is also the module the function lives in.
TARGETS = (
    ("qcascade.spectral", "spectrum_exact", "spectral.spectrum"),
    ("qcascade.spectral", "spectrum_mod", "spectral.spectrum"),
    ("qcascade.spectral", "fwht", "spectral.spectrum"),
    ("qcascade.cascade", "canonical_cascade", "cascade.canonical"),
    ("qcascade.cascade", "simplify", "cascade.simplify"),
    ("qcascade.cascade", "detect_symmetry", "cascade.symmetry"),
    ("qcascade.cascade", "reduce_by_symmetry", "cascade.symmetry"),
    ("qcascade.cascade", "verify_classical", "cascade.verify_classical"),
    ("qcascade.dihedral", "evaluate_word", "dihedral.evaluate"),
    ("qcascade.quantum", "map_to_circuit", "quantum.map"),
    ("qcascade.quantum", "verify_quantum", "quantum.verify_quantum"),
    ("qcascade.quantum", "interaction_graph", "quantum.connectivity"),
    ("qcascade.quantum", "to_qasm", "quantum.qasm"),
    ("qcascade.quantum", "bloch_trace_csv", "quantum.trace"),
    ("qcascade.cli", "parse_job", "cli.parse"),
    ("qcascade.cli", "_job_from_args", "cli.parse"),
    ("qcascade.cli", "run_pipeline", "cli.run_pipeline"),
    ("qcascade.cli", "emit", "cli.emit"),
    ("qcascade.cli", "report_to_mapping", "cli.emit"),
    ("qcascade.cli", "main", "cli.main"),
)
# CascadeWord validation runs from the dataclass __init__, so it is wrapped
# on the class rather than by name.
WORD_CLASS = ("qcascade.words", "CascadeWord", "__post_init__", "words.construct")
JOB_SPAN = "job"


class Recorder:
    """Spans as (name, start, end, parent index, job id); parent -1 is a root.

    ``timings`` keeps the SynthesisReport.timings of each run_pipeline span,
    so the stage times the program takes itself can be compared with spans.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.timings: dict[int, dict[str, float]] = {}
        self.jobs = 0
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep_timings: bool = False):
        spans, stack, timings = self.spans, self._stack, self.timings
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if keep_timings:
                    timings[sid] = out.timings
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.job)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_job(self, fn):
        """Call fn() under a root span for one job; jobs are numbered from 0."""
        self.job = self.jobs
        self.jobs += 1
        return self.wrap(JOB_SPAN, fn)()

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("id,name,start,end,parent,job\n")
            for sid, (name, t0, t1, parent, job) in enumerate(self.spans):
                f.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{job}\n")


def install(rec: Recorder) -> tuple[list, list[str]]:
    """Wrap every target; returns (undo list, names of targets not found)."""
    undo, missing = [], []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "qcascade" or name.startswith("qcascade."))]
    for modname, attr, span in TARGETS:
        orig = getattr(importlib.import_module(modname), attr, None)
        if orig is None:
            missing.append(f"{modname}.{attr}")
            continue
        wrapped = rec.wrap(span, orig, keep_timings=attr == "run_pipeline")
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))
    modname, clsname, attr, span = WORD_CLASS
    cls = getattr(importlib.import_module(modname), clsname, None)
    if cls is None or attr not in vars(cls):
        missing.append(f"{modname}.{clsname}.{attr}")
    else:
        orig = vars(cls)[attr]
        setattr(cls, attr, rec.wrap(span, orig))
        undo.append((cls, attr, orig))
    return undo, missing


def uninstall(undo: list) -> None:
    for obj, key, orig in reversed(undo):
        setattr(obj, key, orig)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the time covered by
    direct children. Children of one span never overlap (one thread), so
    their durations add up to the time they cover."""
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    totals: dict[str, float] = defaultdict(float)
    for sid, (name, t0, t1, _, _) in enumerate(spans):
        totals[name] += (t1 - t0) - covered[sid]
    return totals


def children(spans) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[3] >= 0:
            out[span[3]].append(sid)
    return out
