"""Compile Boolean truth tables into quantum rotation-gate cascades.

The pipeline: Walsh spectrum (exact rational or modular), canonical
rotation-reflection cascade over a dihedral group, local-rewrite
simplification, optional symmetry reduction, mapping to RX/RY + CZ gates,
and verification: an EQB circuit is checked twice, exactly, by group
evaluation and a unitary check, an MGD job once, by group evaluation.
"""

from .cascade import (VerificationReport, VerificationRow, canonical_cascade,
                      detect_symmetry, reduce_by_symmetry, simplify, verify_classical)
from .cli import (JobError, JobSpec, PipelineError, SynthesisReport, emit,
                  parse_job, run_pipeline)
from .dihedral import GroupElement, evaluate_word, format_element
from .quantum import (BlochPoint, Gate, QCircuit, bloch_trace, bloch_trace_csv,
                      interaction_graph, map_to_circuit, to_qasm, verify_quantum)
from .spectral import (TruthVector, WalshSpectrum, fwht, spectrum_exact, spectrum_mod)
from .words import EQB, MGD, CascadeWord, Refl, Rot

__version__ = "0.1.0"

__all__ = [
    "EQB", "MGD",
    "BlochPoint", "CascadeWord", "Gate", "GroupElement",
    "JobError", "JobSpec", "PipelineError", "QCircuit",
    "Refl", "Rot", "SynthesisReport", "TruthVector",
    "VerificationReport", "VerificationRow", "WalshSpectrum",
    "bloch_trace", "bloch_trace_csv",
    "canonical_cascade", "detect_symmetry", "emit", "evaluate_word",
    "format_element", "fwht", "interaction_graph", "map_to_circuit",
    "parse_job", "reduce_by_symmetry", "run_pipeline", "simplify",
    "spectrum_exact", "spectrum_mod", "to_qasm", "verify_classical",
    "verify_quantum",
]
