"""Benchmark of the ``alq`` command line.

Run from the repository root:

    python3 alqbench/run.py --workload lambda-default --seed 0 --seconds 25 --trace 0
    python3 alqbench/run.py --smoke

Each operation is one ``alq`` verb run in-process through the public entry
point ``aliquot.cli.run(argv)``, the way a user runs it.  The loop is
closed: one process, and each operation starts after the previous one has
ended.  Operations are grouped in rounds (one verb for the ``lambda-*`` and
``means-*`` workloads, five traces for ``trace-lehmer``); rounds repeat
until the next one would overrun ``--seconds``, and at least one runs.

With ``--trace 0`` the last line reports the end-to-end metrics: the
median round wall time and the set-up time of a fresh interpreter.  With
``--trace 1`` the run makes one untraced round and then the same round
again with spans around the package's public functions (see spans.py),
and reports the per-layer metrics.  Every operation's output is checked
against the seed code's results in reference.json; a failed check, a
non-zero exit status or an exception counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it, and ``.bench_out/<workload>-seed<seed>-trace<0|1>.json``, hold the
details: provenance, every round's time, failures, certificates and, for
the traced run, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

# Workers stay within the CPUs this process may use.
WORKERS = min(2, len(os.sched_getaffinity(0)))
SETUP_SAMPLES = 12

# Each Lehmer sequence's first eight terms.  Seed 0 starts every trace at
# k = 0 (Lehmer's five: 276, 552, 564, 660, 966); any other seed draws
# k in 0..7 per sequence and traces 200 - k steps from term k.  All seeds
# therefore reach the same last term and do nearly the same work: the
# first steps are below 10^5 and cost microseconds.
TRACE_POOL = (
    (276, 396, 696, 1104, 1872, 3770, 3790, 3050),
    (552, 888, 1392, 2328, 3552, 6024, 9096, 13704),
    (564, 780, 1572, 2124, 3336, 5064, 7656, 13944),
    (660, 1356, 1836, 3204, 4986, 5856, 9768, 17592),
    (966, 1338, 1350, 2370, 3390, 4818, 5838, 7602),
)
TRACE_STEPS = 200
SMOKE_TRACE_STEPS = 20

# Full and --smoke sizes of the three workloads the paper's parameters fix;
# they ignore the seed.
SIZES = {
    "lambda-default": {"full": [], "smoke": ["--N", "1e5", "--Nj", "4e5", "--node-budget", "5000"]},
    "lambda-wide": {
        "full": ["--N", "1e8", "--Nj", "3e7"],
        "smoke": ["--N", "1e5", "--Nj", "1e6", "--block-size", "262144"],
    },
    "means-even": {"full": ["--N", "1e7"], "smoke": ["--N", "1e5"]},
}
WORKLOAD_WORKERS = {"lambda-default": 1, "lambda-wide": WORKERS, "means-even": 1,
                    "trace-lehmer": 1}

# The empirical even log-mean at N = 1e6 (acceptance criterion 6): a
# certificate below it would claim more than the data shows.
LAMBDA_FLOOR = -0.0334
MEANS_EVEN_LIMIT = 5.0 * math.pi**2 / 24.0 - 1.0


def trace_plan(seed: int) -> list[tuple[int, int]]:
    """(term index k, start) for each of the five traces."""
    rng = random.Random(seed)
    plan = []
    for terms in TRACE_POOL:
        k = 0 if seed == 0 else rng.randrange(len(terms))
        plan.append((k, terms[k]))
    return plan


def workload_round(name: str, seed: int, smoke: bool) -> list[list[str]]:
    """The argv of every operation in one round of the workload."""
    size = "smoke" if smoke else "full"
    if name == "lambda-default":
        return [["lambda", *SIZES[name][size]]]
    if name == "lambda-wide":  # "{dir}" becomes the operation's own fresh directory
        return [["lambda", *SIZES[name][size], "--s-mode", "bound", "--workers", str(WORKERS),
                 "--checkpoint-dir", "{dir}/checkpoint"]]
    if name == "means-even":
        return [["means", "--class", "even", *SIZES[name][size]]]
    if name == "trace-lehmer":
        steps = SMOKE_TRACE_STEPS if smoke else TRACE_STEPS
        return [["trace", str(start), "--max-steps", str(steps - k)]
                for k, start in trace_plan(seed)]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = tuple(WORKLOAD_WORKERS)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks each operation's report against the seed code's results."""

    def __init__(self, workload: str, smoke: bool, reference: dict):
        self.ref = reference["smoke" if smoke else "full"].get(workload, {})
        self.lehmer_terms = reference["trace_terms"]
        self.lambdas: list[float] = []
        self.means: list[float] = []

    def check(self, argv: list[str], out: Path) -> str | None:
        """None if the operation's output is right, else the reason it is not."""
        verb = argv[0]
        doc = json.loads((out / f"{verb}.json").read_text())
        if verb == "lambda":
            return self._check_lambda(doc)
        if verb == "means":
            return self._check_means(doc)
        if verb == "trace":
            return self._check_trace(argv, doc)
        return f"no check for verb {verb!r}"

    def _check_lambda(self, doc: dict) -> str | None:
        lam, mu = doc["lambda_upper"], doc["mu_upper"]
        self.lambdas.append(lam)
        if not LAMBDA_FLOOR < lam < 0.0:
            return f"lambda_upper {lam!r} outside ({LAMBDA_FLOOR}, 0)"
        if not mu < 1.0:
            return f"mu_upper {mu!r} is not below 1"
        if lam != self.lambdas[0]:
            return f"lambda_upper {lam!r} differs from this run's first {self.lambdas[0]!r}"
        if lam > self.ref["lambda_upper"]:
            return f"lambda_upper {lam!r} looser than the reference {self.ref['lambda_upper']!r}"
        return None

    def _check_means(self, doc: dict) -> str | None:
        am, lm = doc["arithmetic_mean"], doc["log_mean"]
        self.means.append(lm)
        if not abs(am - MEANS_EVEN_LIMIT) < 1e-3:
            return f"arithmetic mean {am!r} not within 1e-3 of {MEANS_EVEN_LIMIT!r}"
        allowed = doc["log_mean_error_radius"] + self.ref["log_mean_error_radius"]
        if abs(lm - self.ref["log_mean"]) > allowed:
            return f"log mean {lm!r} further than {allowed:.3g} from {self.ref['log_mean']!r}"
        return None

    def _check_trace(self, argv: list[str], doc: dict) -> str | None:
        start = int(argv[1])
        for terms in TRACE_POOL:
            if start in terms:
                k = terms.index(start)
                expected = self.lehmer_terms[str(terms[0])][k:]
                break
        else:
            return f"start {start} is not in the pool"
        got = doc["terms"]
        common = min(len(got), len(expected))
        if got[:common] != expected[:common]:
            first = next(i for i in range(common) if got[i] != expected[i])
            return f"trace {start}: term {first} is {got[first]}, expected {expected[first]}"
        return None


# ---------------------------------------------------------------------------
# Operations and rounds
# ---------------------------------------------------------------------------


def run_op(argv: list[str], op_dir: Path, checker: Checker, recorder=None) -> tuple[float, str | None]:
    """Run one ``alq`` verb in-process; (wall seconds, failure or None)."""
    import aliquot.cli

    args = [a.replace("{dir}", str(op_dir)) for a in argv] + ["--out", str(op_dir)]
    captured = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            if recorder is None:
                code = aliquot.cli.run(args)
            else:
                with recorder.span("cli.run"):
                    code = aliquot.cli.run(args)
    except Exception:  # an operation that raises is a failed operation, not a crash
        return time.perf_counter() - t0, traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    if code != 0:
        return wall, f"exit status {code}: {captured.getvalue()[-400:]}"
    try:
        return wall, checker.check(argv, op_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return wall, f"unreadable report: {type(exc).__name__}: {exc}"


class Runner:
    """Runs rounds of one workload and keeps what they produced."""

    def __init__(self, workload: str, seed: int, smoke: bool, reference: dict, tmp: Path):
        self.ops = workload_round(workload, seed, smoke)
        self.checker = Checker(workload, smoke, reference)
        self.tmp = tmp
        self.attempted = 0
        self.failures: list[str] = []

    def round(self, recorder=None) -> float:
        """One round; returns the summed wall time of its operations."""
        total = 0.0
        for argv in self.ops:
            op_dir = self.tmp / f"op{self.attempted}"
            op_dir.mkdir(parents=True)
            wall, failure = run_op(argv, op_dir, self.checker, recorder)
            shutil.rmtree(op_dir, ignore_errors=True)
            total += wall
            self.attempted += 1
            if failure is not None:
                self.failures.append(f"{' '.join(argv)}: {failure}")
        return total


def setup_times(samples: int) -> list[float]:
    """Wall time of a fresh interpreter importing aliquot.cli and building
    its parser: what every ``alq`` invocation pays before any work.

    The CPUs of a shared machine differ in speed, and a child starts on its
    parent's CPU, so the samples start on each usable CPU in turn; each
    child may then run on any of them, as a user's would.
    """
    code = "import aliquot.cli as c; c.build_parser(); print(c.__file__)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for i in range(samples):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=120,
                                  preexec_fn=lambda: os.sched_setaffinity(0, cpus))
            times.append(time.perf_counter() - t0)
            if done.returncode != 0 or not Path(done.stdout.strip()).resolve().is_relative_to(SRC):
                raise RuntimeError(f"set-up import failed: {done.stderr[-400:] or done.stdout}")
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout's git metadata, read from files (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str) -> dict:
    import numpy

    import aliquot

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "aliquot_version": aliquot.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workers": WORKLOAD_WORKERS[workload],
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def measure(runner: Runner, seconds: float, setup_samples: int) -> tuple[dict, dict]:
    """End-to-end run: set-up samples, then rounds until the time is up."""
    setup = setup_times(setup_samples)
    walls: list[float] = []
    t0 = time.perf_counter()
    while True:
        walls.append(runner.round())
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    return metrics, {"round_walls_s": walls, "rounds": len(walls), "setup_samples_s": setup}


def measure_traced(runner: Runner) -> tuple[dict, dict]:
    """Traced run: one untraced round, then the same round with spans."""
    import spans

    cpu0 = _cpu_seconds()
    untraced = runner.round()
    cpu = _cpu_seconds() - cpu0
    with spans.Tracer() as tracer:
        traced = runner.round(tracer.recorder)
    recorded = tracer.recorder.spans
    values = spans.layer_values(recorded)
    left_out = spans.unavailable(tracer.missing, recorded)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _needs in spans.LAYER_METRICS if name not in left_out}
    metrics["proc.peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MB"}
    metrics["proc.cpu_s"] = {"value": cpu, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    beta_blocks = sorted((sp.attrs["lo"], sp.attrs["hi"], sp.duration, sp.thread)
                         for sp in recorded if sp.name == "beta.block")
    detail = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "missing_metrics": sorted(left_out),
        "missing_wrappers": sorted(tracer.missing),
        "beta_blocks_lo_hi_s_thread": beta_blocks,
        "spans": [sp.to_json_dict() for sp in recorded],
    }
    return metrics, detail


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def import_package() -> None:
    """Import the checkout's own package, never an installed copy."""
    if not (SRC / "aliquot" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC}/aliquot; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import aliquot

    if not Path(aliquot.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported aliquot from {aliquot.__file__}, not from {SRC}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    tmp = TMP_DIR / f"{os.getpid()}-{workload}"
    runner = Runner(workload, seed, smoke, load_reference(), tmp)
    try:
        if trace:
            metrics, detail = measure_traced(runner)
        else:
            metrics, detail = measure(runner, seconds, 1 if smoke else SETUP_SAMPLES)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seed_used": workload == "trace-lehmer",
        "smoke": smoke,
        "ops_per_round": [" ".join(argv) for argv in runner.ops],
        "failures": runner.failures,
        "lambda_upper": runner.checker.lambdas,
        "log_mean": runner.checker.means,
        "provenance": provenance(workload),
        **detail,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    return detail


def smoke() -> int:
    """Every workload at reduced size: checks, the traced run, and agreement
    between the metrics reported and those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def names(metrics) -> set[tuple[str, str]]:
        return {(m["name"], m["unit"]) for m in metrics}

    ok = True
    for workload in WORKLOADS:
        plain = run_workload(workload, 1, 0.0, False, True)
        traced = run_workload(workload, 1, 0.0, True, True)
        problems = plain["failures"] + traced["failures"]
        for kind, result in (("end_to_end", plain["result"]), ("per_layer", traced["result"])):
            got = names({"name": k, **v} for k, v in result["metrics"].items())
            if got != names(declared[kind]):
                problems.append(f"{kind} metrics differ from BENCHMARK.json: "
                                f"{sorted(got ^ names(declared[kind]))}")
        ok &= not problems
        print(f"{workload:15s} {'ok' if not problems else 'FAILED'} "
              f"wall {plain['result']['metrics']['wall_s']['value']:.3f}s "
              f"traced {traced['traced_wall_s']:.3f}s", flush=True)
        for problem in problems:
            print(f"  {problem}")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at reduced size and exit")
    args = parser.parse_args(argv)
    import_package()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    result = detail.pop("result")
    detail.pop("spans", None)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
