"""The benchmark's argument lists still parse.

alqbench/run.py builds each operation's argv with workload_round; a flag
it passes that the CLI no longer takes would fail every benchmark round,
so it fails here first.  Likewise every package function that
alqbench/spans.py wraps for the traced run must still exist, and a traced
run must end on its result line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from aliquot.cli import build_parser, run

ALQBENCH = Path(__file__).resolve().parent.parent / "alqbench"
sys.path.insert(0, str(ALQBENCH))
import spans  # noqa: E402
from run import WORKLOADS, workload_round  # noqa: E402

sys.path.remove(str(ALQBENCH))


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_argv_parses(workload, smoke):
    parser = build_parser()
    for argv in workload_round(workload, 0, smoke):
        parser.parse_args([a.replace("{dir}", "checkpoint-dir") for a in argv])


def test_kept_flags_leave_the_bits_alone(tmp_path):
    # --s-mode bound and --node-budget stay only for the benchmark's
    # argument lists; they must not move a bit of the certificate.
    base = ["lambda", "--N", "1e5", "--Nj", "4e5"]
    docs = []
    for name, extra in (("plain", []), ("flags", ["--s-mode", "bound", "--node-budget", "5000"])):
        assert run([*base, *extra, "--out", str(tmp_path / name)]) == 0
        docs.append(json.loads((tmp_path / name / "lambda.json").read_text()))
    assert docs[0]["lambda_upper"].hex() == docs[1]["lambda_upper"].hex()


def test_every_traced_name_resolves():
    # A package name the traced run wraps that no longer exists would drop
    # its per-layer metrics silently; it fails here instead.
    with spans.Tracer() as tracer:
        assert tracer.missing == set()


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


def test_traced_run_ends_on_its_result_line():
    # The benchmark reads the last line of the run's output, stderr
    # included: output after the result line, from a worker or at exit, or a
    # metric that strict JSON rejects (NaN, Infinity) loses the whole run.
    proc = subprocess.run(
        [sys.executable, str(ALQBENCH / "run.py"), "--workload", "means-even", "--trace", "1"],
        cwd=ALQBENCH.parent, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    *_, detail_line, last = proc.stdout.splitlines()
    result = json.loads(last, parse_constant=_strict)
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    detail = json.loads(detail_line)["detail"]
    assert detail["missing_metrics"] == [] and detail["missing_wrappers"] == []
