"""The body of report.json, built field by field from a SynthesisReport.

This is the reference that tests compare the bytes ``qcascade.cli.emit``
writes against: report.json must equal ``report_text(report)``.  It takes
every field from the report's own parts (the job, the words, the gates and
the verification rows) and imports nothing from ``qcascade.cli``, so that it
shares no code with the encoder it checks.
"""

import json
from collections import Counter

from qcascade.quantum import CZ, angle_text


def _job(job) -> dict:
    values = job.truth.values
    doc = {"n": job.n,
           "truth": "".join(map(str, values)) if set(values) <= {0, 1} else list(values),
           "mode": job.mode,
           "basis": job.basis,
           "symmetry": job.symmetry,
           "emit": list(job.emit)}
    if job.dihedral_n is not None:
        doc["dihedral_n"] = job.dihedral_n
    if job.trace_input is not None:
        doc["trace_input"] = job.trace_input
    return doc


def _gate(gate) -> dict:
    entry = {"kind": gate.kind, "target": gate.target}
    if gate.kind == CZ:
        entry["control"] = gate.control
    else:
        entry["angle"] = angle_text(gate)
        entry["radians"] = gate.angle
    return entry


def _verification(rep):
    if rep is None:
        return None
    rows = [{"expected": row.expected, "got": row.got, "ok": row.ok} for row in rep.rows]
    return {"passed": all(row["ok"] for row in rows), "rows": rows}


def report_mapping(report) -> dict:
    final = report.simplified if report.reduced is None else report.reduced
    circuit = report.circuit
    target = circuit.target_qubit
    controls = {gate.control for gate in circuit.gates if gate.kind == CZ}
    verification = {"classical": _verification(report.classical),
                    "quantum": _verification(report.quantum)}
    return {
        "schema_version": 3,
        "job": _job(report.job),
        "spectrum": {"coefficients": [str(c) for c in report.spectrum.coeffs]},
        "words": {"canonical": str(report.canonical),
                  "simplified": str(report.simplified),
                  "reduced": None if report.reduced is None else str(report.reduced),
                  "final": str(final),
                  "target": "ancilla" if final.target_var is None else f"x{final.target_var}",
                  "letter_counts": {"canonical": len(report.canonical),
                                    "simplified": len(report.simplified),
                                    "final": len(final)}},
        "circuit": {"num_qubits": circuit.num_qubits,
                    "target_qubit": target,
                    "layout": {f"x{v}": q for v, q in circuit.layout},
                    "gates": [_gate(gate) for gate in circuit.gates],
                    "gate_counts": Counter(gate.kind for gate in circuit.gates)},
        "verification": verification,
        "connectivity": {"edges": sorted([min(c, target), max(c, target)] for c in controls)},
        "passed": all(v["passed"] for v in verification.values() if v is not None),
    }


def report_text(report) -> str:
    return json.dumps(report_mapping(report), sort_keys=True) + "\n"
