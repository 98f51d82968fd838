"""Write reference.json: the results every benchmark operation is checked against.

Run from the repository root, on the commit whose results are the reference:

    python3 alqbench/make_reference.py

It runs each lambda and means workload once at full and at smoke size, and
traces each Lehmer start TRACE_STEPS steps.  Regenerating the file moves the
benchmark's reference, so it belongs in a change of the benchmark only.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run


def _report(argv: list[str], verb: str) -> dict:
    import aliquot.cli

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        args = [a.replace("{dir}", tmp) for a in argv] + ["--out", tmp]
        with contextlib.redirect_stdout(io.StringIO()):
            code = aliquot.cli.run(args)
        if code != 0:
            raise SystemExit(f"alq {' '.join(args)} exited {code}")
        return json.loads((Path(tmp) / f"{verb}.json").read_text())


def main() -> int:
    run.import_package()
    reference: dict = {"full": {}, "smoke": {}, "trace_terms": {}}
    for size in ("full", "smoke"):
        for workload in ("lambda-default", "lambda-wide"):
            (argv,) = run.workload_round(workload, 0, size == "smoke")
            doc = _report(argv, "lambda")
            reference[size][workload] = {"lambda_upper": doc["lambda_upper"]}
        (argv,) = run.workload_round("means-even", 0, size == "smoke")
        doc = _report(argv, "means")
        reference[size]["means-even"] = {
            "log_mean": doc["log_mean"],
            "log_mean_error_radius": doc["log_mean_error_radius"],
        }
    for argv in run.workload_round("trace-lehmer", 0, False):
        reference["trace_terms"][argv[1]] = _report(argv, "trace")["terms"]
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
