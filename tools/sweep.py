"""Exhaustive check: every function of N inputs through the pipeline.

Each truth table goes through ``parse_job`` and ``run_pipeline`` and must
pass every check the job runs.  Without ``--dihedral-n`` the tables are the
2^(2^N) Boolean functions, run as EQB jobs with the symmetry reduction on
(the default).  With ``--dihedral-n D`` they are the D^(2^N) functions with
values in 0..D-1, run as MGD jobs over D_D, for each odd order D that a
digit string can carry: 3, 5, 7 or 9.  Prints the number of functions,
every failure (the truth table and the first failing row, or the error) and
the wall time, and exits 1 on any failure.  EQB at N = 4 is 65,536
functions, about 30 s; N = 5 would be 2^32, so N stops at 4.  MGD over D_3
at N = 3 is 6,561 functions, over D_7 at N = 2 is 2,401 and over the
composite order D_9 at N = 2 is 6,561, about 1 s.

Run from the repository root:

    PYTHONPATH=src python tools/sweep.py --n 4
    PYTHONPATH=src python tools/sweep.py --n 3 --dihedral-n 3
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

from qcascade.cli import JobError, PipelineError, _row_text, parse_job, run_pipeline


def failure(n: int, truth: str, dihedral_n: int | None = None) -> str | None:
    """Why the function with this truth table fails, or None when it passes:
    an EQB job, or an MGD job over D_(dihedral_n) when that is given."""
    doc = {"n": n, "truth": truth, "mode": "eqb" if dihedral_n is None else "mgd",
           "dihedral_n": dihedral_n}
    try:
        report = run_pipeline(parse_job(json.dumps(doc)))
    except (JobError, PipelineError) as e:
        return f"{type(e).__name__}: {e}"
    for check in report.checks:
        if check.first_failure is not None:
            return f"{check.kind} row {_row_text(check, check.first_failure)}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, choices=range(1, 5),
                        help="number of inputs, 1 to 4")
    parser.add_argument("--dihedral-n", type=int, choices=(3, 5, 7, 9),
                        help="sweep MGD jobs over D_D, values 0..D-1 (default: EQB)")
    args = parser.parse_args(argv)
    n, d = args.n, args.dihedral_n
    t0 = time.perf_counter()
    count = failures = 0
    for values in itertools.product("0123456789"[:d or 2], repeat=1 << n):
        truth = "".join(values)
        count += 1
        why = failure(n, truth, d)
        if why is not None:
            failures += 1
            print(f"FAIL truth={truth}: {why}")
    group = f" over D_{d}" if d else ""
    print(f"n={n}{group}: {count} functions, {failures} failures, "
          f"{time.perf_counter() - t0:.1f} s wall")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
