"""Exhaustive EQB check: every Boolean function of N inputs through the pipeline.

Each of the 2^(2^N) truth tables goes through ``parse_job`` and
``run_pipeline`` with the symmetry reduction on (the default) and must pass
both verifications.  Prints the number of functions, every failure (the
truth table and the first failing row, or the error) and the wall time, and
exits 1 on any failure.  N = 4 is 65,536 functions, about a minute; N = 5
would be 2^32, so N stops at 4.

Run from the repository root:

    PYTHONPATH=src python tools/sweep_eqb.py --n 4
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

from qcascade.cli import JobError, PipelineError, _row_text, parse_job, run_pipeline


def failure(n: int, truth: str) -> str | None:
    """Why the function with this truth table fails, or None when it passes."""
    try:
        report = run_pipeline(parse_job(json.dumps({"n": n, "truth": truth})))
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
    args = parser.parse_args(argv)
    n = args.n
    t0 = time.perf_counter()
    count = failures = 0
    for values in itertools.product("01", repeat=1 << n):
        truth = "".join(values)
        count += 1
        why = failure(n, truth)
        if why is not None:
            failures += 1
            print(f"FAIL truth={truth}: {why}")
    print(f"n={n}: {count} functions, {failures} failures, "
          f"{time.perf_counter() - t0:.1f} s wall")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
