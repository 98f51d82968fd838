"""Command-line toolkit: certified constants, means, traces, self-tests.

Verbs:

  alpha     upper bound for the per-prime constant (prime cutoff N)
  beta      lower bound for the signed-series constant (per-j params)
  lambda    alpha and beta from one prime pass, and their difference,
            the aliquot growth constant
  means     arithmetic and logarithmic means of s(n)/n by residue class
  trace     one aliquot sequence with classification
  selftest  quick oracle suite

Numeric flags accept scientific notation (1e6).  A JSON config file may
supply any flag's value, keyed by its dest (N, mean_class, block_size, ...)
and parsed as the flag would be; explicit flags override it.  beta takes
its first --J j-terms (default 32; the dropped ones are positive) from
their Euler products over the odd primes up to --Nj, beta's prime cutoff
P (default 1e6, at least 1000), and charges each j-term j T(P) for the
primes past P.  --checkpoint-dir saves beta's part of the prime pass as
it goes; a killed run, started again with the same flags, resumes it.
--workers above 1 runs a pass of 2^23 integers or more on forked worker
processes.  Reports are written as JSON (always) and CSV (tabular verbs)
under --out; each records the engine its pass ran on.  Exit
status: 0 on success, 1 on parameter errors, 2 on resource or effort
errors.

Each verb imports the modules it runs when it runs: trace, --help,
--version and usage errors start without numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ParameterError, ResourceError, UnresolvedCofactorError
from .trajectory import trace

if TYPE_CHECKING:
    from .alpha import AlphaResult
    from .beta import BetaSummary
    from .means import MeanReport

DEFAULT_BETA_P = 10**6
DEFAULT_J = 32
_MAX_DIGITS = 4300  # int()'s default limit on the digits of a decimal string


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_flag(text: str) -> int:
    """Integer flag accepting scientific notation ('1e6'), parsed exactly.

    A value may have as many digits as int() takes from a decimal string;
    the exponent is checked first, so a typo such as 1e999999999 fails at
    once instead of building the number.
    """
    try:
        return int(text)
    except ValueError:
        from fractions import Fraction

        _, e, exponent = text.lower().partition("e")
        if "/" not in text and not (e and abs(int(exponent)) > _MAX_DIGITS):
            value = Fraction(text)  # ValueError on inf, nan and non-numbers
            if value.denominator == 1 and abs(value.numerator) < 10**_MAX_DIGITS:
                return value.numerator
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer of at most {_MAX_DIGITS} digits")


# The numeric verbs' entry points.  Each imports its module when first
# called, so numpy loads only for the verbs that use it.  They stay names of
# this module, where tests and the benchmark's tracer replace them.
def alpha_upper_bound(*args, **kwargs) -> AlphaResult:
    from .alpha import alpha_upper_bound

    return alpha_upper_bound(*args, **kwargs)


def beta_lower(*args, **kwargs) -> BetaSummary:
    from .beta import beta_lower

    return beta_lower(*args, **kwargs)


def mean_report(*args, **kwargs) -> MeanReport:
    from .means import mean_report

    return mean_report(*args, **kwargs)


def lambda_bounds(
    N: int, J: int, P: int, *, block_size: int, workers: int = 1,
    checkpoint_dir: str | None = None,
) -> tuple[AlphaResult, BetaSummary]:
    """alpha_upper_bound(N) and beta_lower(J, P), bit for bit, from one
    prime pass to max(N, P): each block is sieved once, and its primes go
    to alpha's kernel up to N and to beta's up to P.

    alpha's arguments are checked first.  beta's checkpoint works as
    beta_lower's, and beta's and lambda's runs resume each other's files;
    alpha is recomputed on the blocks a resumed run skips.  Both results
    carry the pass's engine and time.
    """
    from .alpha import AlphaPass
    from .beta import beta_summary, euler_pass
    from .primes import prime_pass

    t0 = time.time()
    alpha = AlphaPass(N, block_size)
    euler = euler_pass(J, P, block_size, checkpoint_dir)
    engine = prime_pass([alpha, euler], block_size, workers)
    log_sums = euler.log_sums()
    elapsed = time.time() - t0
    return alpha.result(elapsed, engine), beta_summary(log_sums, P, elapsed, engine)


@dataclass
class LambdaReport:
    alpha_result: AlphaResult
    beta_result: BetaSummary
    lambda_upper: float
    mu_upper: float
    provenance: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "lambda_upper": self.lambda_upper,
            "mu_upper": self.mu_upper,
            "alpha": self.alpha_result.to_json_dict(),
            "beta": self.beta_result.to_json_dict(),
            "provenance": self.provenance,
        }


def combine_lambda(
    alpha_result: AlphaResult, beta_result: BetaSummary, provenance: dict | None = None
) -> LambdaReport:
    """lambda <= alpha upper bound - beta lower bound, rounded pessimistically.

    mu = e^lambda is rounded upward as well; mu_upper < 1 exactly when
    lambda_upper < 0.
    """
    lam = alpha_result.upper_bound - beta_result.lower_bound
    lam = math.nextafter(lam, math.inf)
    mu = math.exp(lam)
    mu = math.nextafter(math.nextafter(mu, math.inf), math.inf)
    return LambdaReport(alpha_result, beta_result, lam, mu, provenance or {})


def _write_json(out_dir: Path, name: str, doc: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def _write_csv(out_dir: Path, name: str, header: list, rows: list) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _config_flags(parser: _Parser, args: argparse.Namespace) -> list[str]:
    """The --config file's values as ``--flag=value`` arguments of the verb."""
    try:
        with open(args.config) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    if not isinstance(values, dict):
        parser.error(f"config {args.config} is not a JSON object")
    flags = {a.dest: a.option_strings[0] for a in parser.verbs[args.verb]._actions
             if a.option_strings and a.nargs != 0 and a.dest != "config"}
    argv = []
    for key, value in values.items():
        if key not in flags or isinstance(value, bool) or not isinstance(value, (str, int, float)):
            parser.error(f"config {args.config}: no {args.verb} flag takes {key}={value!r}")
        argv.append(f"{flags[key]}={value}")
    return argv


def _report_alpha(args, out_dir: Path, result: AlphaResult) -> None:
    doc = result.to_json_dict()
    doc["provenance"] = _provenance(args, doc["params"], result.engine)
    path = _write_json(out_dir, "alpha", doc)
    print(f"alpha upper bound: {result.upper_bound!r}")
    print(f"  finite sums {result.sums.value!r} (radius {result.sums.error_radius:.3e})")
    print(f"  tail total  {result.tail_total!r}")
    print(f"report: {path}")


def _report_beta(args, out_dir: Path, summary: BetaSummary) -> None:
    from .beta import EULER_KERNEL

    doc = summary.to_json_dict()
    doc["provenance"] = _provenance(args, {"J": args.J, "P": args.Nj}, summary.engine,
                                    EULER_KERNEL)
    path = _write_json(out_dir, "beta", doc)
    rows = [r.to_json_dict().values() for r in summary.reports]  # csv writes str(float) == repr
    header = ["j", "P", "log_product", "log_product_radius", "main", "main_radius",
              "tail_charge", "contribution_lower"]
    _write_csv(out_dir, "beta", header, rows)
    print(f"beta lower bound: {summary.lower_bound!r}")
    print(f"report: {path}")


def _provenance(args, params: dict, engine: str, kernel: str | None = None) -> dict:
    """The report's provenance: ``engine`` is the block engine the pass ran
    on, and ``kernel`` names beta's prime-pass kernel where it ran."""
    import numpy as np

    doc = {
        "version": __version__,
        "params": params,
        "workers": args.workers,
        "engine": engine,
        "block_size": args.block_size,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if kernel is not None:
        doc["kernel"] = kernel
    return doc


def _cmd_lambda(args, out_dir: Path) -> int:
    from .beta import EULER_KERNEL

    alpha_result, beta_result = lambda_bounds(
        args.N, args.J, args.Nj, block_size=args.block_size, workers=args.workers,
        checkpoint_dir=args.checkpoint_dir)
    _report_alpha(args, out_dir, alpha_result)
    _report_beta(args, out_dir, beta_result)
    params = {"alpha": alpha_result.to_json_dict()["params"], "beta": {"J": args.J, "P": args.Nj}}
    provenance = _provenance(args, params, alpha_result.engine, EULER_KERNEL)
    report = combine_lambda(alpha_result, beta_result, provenance)
    path = _write_json(out_dir, "lambda", report.to_json_dict())
    print(f"lambda upper bound: {report.lambda_upper!r}")
    print(f"mu upper bound:     {report.mu_upper!r}")
    print(f"report: {path}")
    return 0


def _cmd_means(args, out_dir: Path) -> int:
    from .means import CSV_HEADER

    report = mean_report(args.mean_class, args.N, block_size=args.block_size, workers=args.workers)
    doc = report.to_json_dict()
    doc["provenance"] = _provenance(args, {"class": args.mean_class, "N": args.N}, report.engine)
    path = _write_json(out_dir, "means", doc)
    _write_csv(out_dir, "means", CSV_HEADER, [report.csv_row()])
    print(f"arithmetic mean: {report.arithmetic.value!r} (limit {report.closed_form_limit!r})")
    print(f"log mean:        {report.logarithmic.value!r}")
    print(f"report: {path}")
    return 0


def _cmd_trace(args, out_dir: Path) -> int:
    record = trace(args.start, max_steps=args.max_steps, rho_budget=args.rho_budget)
    doc = record.to_json_dict()
    path = _write_json(out_dir, "trace", doc)
    kind = record.classification.kind
    extra = ""
    if record.classification.cycle_length is not None:
        extra = (f" (length {record.classification.cycle_length},"
                 f" entry {record.classification.cycle_entry})")
    print(f"start {args.start}: {len(record.terms)} terms, {kind}{extra}")
    print(f"report: {path}")
    return 0


def _cmd_selftest(args, out_dir: Path) -> int:
    from .selftest import run_selftest

    ok = run_selftest()
    return 0 if ok else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="alq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"alq {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--out", default="reports", help="report directory")
        p.add_argument("--config", default=None, help="JSON file with flag values")

    def block_flags(p):  # the verbs that run blocks through map_blocks
        common(p)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--block-size", dest="block_size", type=_int_flag, default=1 << 20)

    p_alpha = sub.add_parser("alpha", help="certified upper bound for alpha")
    block_flags(p_alpha)

    p_alpha.add_argument("--N", type=_int_flag, default=10**6, help="prime cutoff")

    def beta_flags(p):
        p.add_argument("--J", type=_int_flag, default=DEFAULT_J,
                       help="number of j-terms (1..1024); the dropped j > J terms are positive")
        p.add_argument("--Nj", type=_int_flag, default=DEFAULT_BETA_P,
                       help="beta's prime cutoff P (>= 1000): the Euler products run over "
                       "the odd primes <= P, and each j-term pays j T(P) for the rest")
        p.add_argument("--s-mode", dest="s_mode", choices=("bound",), default="bound",
                       help="odd tail: one moment bound per j, the only choice; "
                       "kept while alqbench/run.py passes it")
        p.add_argument("--node-budget", dest="node_budget", type=_int_flag, default=None,
                       help="read by nothing; kept while alqbench/run.py passes it")
        p.add_argument("--checkpoint-dir", dest="checkpoint_dir", default=None,
                       help="save and resume beta's prime pass here")

    p_beta = sub.add_parser("beta", help="certified lower bound for beta")
    block_flags(p_beta)
    beta_flags(p_beta)

    p_lambda = sub.add_parser("lambda", help="alpha, beta, and their difference")
    block_flags(p_lambda)
    p_lambda.add_argument("--N", type=_int_flag, default=10**6, help="alpha prime cutoff")
    beta_flags(p_lambda)

    p_means = sub.add_parser("means", help="means of s(n)/n by residue class")
    block_flags(p_means)
    p_means.add_argument("--class", dest="mean_class", choices=("all", "even", "odd"),
                         default="even")
    p_means.add_argument("--N", type=_int_flag, default=10**4)

    p_trace = sub.add_parser("trace", help="trace one aliquot sequence")
    common(p_trace)
    p_trace.add_argument("start", type=_int_flag)
    p_trace.add_argument("--max-steps", dest="max_steps", type=_int_flag, default=100)
    p_trace.add_argument("--rho-budget", dest="rho_budget", type=_int_flag, default=500_000)

    p_self = sub.add_parser("selftest", help="run the oracle self-test suite")
    common(p_self)

    parser.verbs = sub.choices
    return parser


def _cmd_alpha(args, out_dir: Path) -> int:
    result = alpha_upper_bound(args.N, block_size=args.block_size, workers=args.workers)
    _report_alpha(args, out_dir, result)
    return 0


def _cmd_beta(args, out_dir: Path) -> int:
    summary = beta_lower(args.J, args.Nj, block_size=args.block_size, workers=args.workers,
                         checkpoint_dir=args.checkpoint_dir)
    _report_beta(args, out_dir, summary)
    return 0


_COMMANDS = {
    "alpha": _cmd_alpha,
    "beta": _cmd_beta,
    "lambda": _cmd_lambda,
    "means": _cmd_means,
    "trace": _cmd_trace,
    "selftest": _cmd_selftest,
}


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # The config's flags go right after the verb: the verb's own
            # types parse them, and explicit flags, coming later, win.
            at = argv.index(args.verb) + 1
            args = parser.parse_args(argv[:at] + _config_flags(parser, args) + argv[at:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args, Path(args.out))
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except (ResourceError, UnresolvedCofactorError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
