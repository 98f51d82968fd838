"""Per-layer tracing for the benchmark's traced run.

The traced run swaps selected public functions of the package for timing
wrappers, at the place where the calling module looks each one up (for
example ``aliquot.beta.iter_factor_segments``), so the program itself is
unchanged.  Every wrapped call is a span: a name, a start and an end
(``time.perf_counter`` seconds), the id of the span that caused it, the
thread it ran on and a few counts.  Spans stay in memory until the run
ends.  A target that no longer exists is recorded as missing and the
metrics that need it are left out; tracing never makes the run fail.

Self time is computed per thread: a span's duration minus the durations of
its children on the same thread.  Block spans that worker threads run are
children of the ``numerics.map_blocks`` span that spawned them, but they do
not reduce its self time, which is the time the caller waited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


class Recorder:
    """Collects spans from any thread; each thread keeps its own stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            sp = Span(next(self._ids), name, parent, threading.get_ident(), attrs=attrs)
            self.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()


def _count(sp: Span, fn, *args) -> None:
    """Record counts on ``sp``; a count the current code no longer supports
    marks the span instead of failing the traced call."""
    try:
        sp.attrs.update(fn(*args))
    except Exception as exc:  # the traced program changed shape; report, keep going
        sp.attrs["count_error"] = f"{type(exc).__name__}: {exc}"


def _calls(rec: Recorder, name: str, counts=None):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name) as sp:
                result = fn(*args, **kwargs)
                if counts is not None:
                    _count(sp, counts, result, args)
            return result

        return wrapper

    return make


def _items(rec: Recorder, name: str, counts):
    """Wrap a function returning an iterator; one span per item produced."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                with rec.span(name) as sp:
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    _count(sp, counts, item)
                yield item

        return wrapper

    return make


class _TracedBlock:
    """Stands in for a block function and records one span per block.

    It pickles without its recorder, so a block engine may send it to
    another process; there the block runs without a span, and the spans
    that never arrive mark the block metrics as unavailable.
    """

    def __init__(self, rec: Recorder | None, eval_block, name: str, parent: int):
        self.rec = rec
        self.eval_block = eval_block
        self.name = name
        self.parent = parent

    def __call__(self, lo, hi):
        if self.rec is None:
            return self.eval_block(lo, hi)
        with self.rec.span(self.name, parent=self.parent, lo=lo, hi=hi):
            return self.eval_block(lo, hi)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "rec": None}


def _map_blocks(rec: Recorder, caller: str):
    """Wrap a block engine; every block evaluation becomes a ``<caller>.block``
    span, whichever thread runs it."""

    def make(fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            blocks = arguments.get("blocks")
            eval_block = arguments.get("eval_block")
            workers = arguments.get("workers", 1)
            with rec.span(_MAP) as sp:
                if blocks is None or eval_block is None:
                    sp.attrs["unseen_blocks"] = True
                    return fn(*args, **kwargs)
                sp.attrs["blocks"] = len(blocks)
                sp.attrs["workers"] = max(1, min(int(workers), len(blocks)))
                arguments["eval_block"] = _TracedBlock(rec, eval_block, f"{caller}.block", sp.id)
                return fn(*bound.args, **bound.kwargs)

        return wrapper

    return make


def _segment_counts(seg) -> dict:
    return {"integers": int(seg.n_values.size), "events": len(seg.events)}


def _save_counts(result, args) -> dict:
    return {"bytes": os.path.getsize(args[0].path)}


def _primes_counts(arr) -> dict:
    return {"primes": int(arr.size)}


_FACTOR = "primes.iter_factor_segments"
_SIEVE = ("primes.iter_prime_segments", "primes.primes_in_range")
_BLOCKSUM = "numerics.block_sum_parts"
_MAP = "numerics.map_blocks"  # also the source of every "<module>.block" span


# (module, attribute, span name, wrapper factory).  The module is the one
# that looks the function up when the workloads run.
def _targets(rec: Recorder) -> list[tuple[str, str, str, object]]:
    def calls(module, attr, name, counts=None):
        return (module, attr, name, _calls(rec, name, counts))

    def items(module, attr, name, counts):
        return (module, attr, name, _items(rec, name, counts))

    targets = [
        calls("aliquot.cli", "alpha_upper_bound", "alpha.alpha_upper_bound",
              lambda r, a: {"primes": int(r.n_primes)}),
        calls("aliquot.cli", "beta_lower", "beta.beta_lower"),
        calls("aliquot.cli", "mean_report", "means.mean_report"),
        calls("aliquot.cli", "trace", "trajectory.trace",
              lambda r, a: {"steps": len(r.terms) - 1}),
        calls("aliquot.beta", "odd_signed_sums", "beta.odd_signed_sums"),
        calls("aliquot.beta", "s_set", "beta.s_set"),
        calls("aliquot.beta", "s_tail_bound", "beta.s_tail_bound"),
        items("aliquot.beta", "iter_factor_segments", _FACTOR, _segment_counts),
        items("aliquot.primes", "iter_factor_segments", _FACTOR, _segment_counts),
        calls("aliquot.beta", "primes_in_range", _SIEVE[1], lambda r, a: _primes_counts(r)),
        items("aliquot.alpha", "iter_prime_segments", _SIEVE[0], _primes_counts),
        items("aliquot.means", "iter_sigma_segments", "primes.iter_sigma_segments",
              lambda item: {"integers": int(item[0].size)}),
        calls("aliquot.trajectory", "aliquot_sum", "arith.aliquot_sum"),
        calls("aliquot.checkpoint", "CheckpointStore.save", "checkpoint.save", _save_counts),
    ]
    for module in ("alpha", "beta", "means"):
        targets.append(calls(f"aliquot.{module}", "block_sum_parts", _BLOCKSUM,
                             lambda r, a: {"terms": int(r[2])}))
        targets.append((f"aliquot.{module}", "map_blocks", _MAP, _map_blocks(rec, module)))
    return targets


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    ``missing`` names the spans whose wrapper could not be installed.
    """

    def __init__(self):
        self.recorder = Recorder()
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name, make in _targets(self.recorder):
            *owner_path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapped = make(original)
            except (ImportError, AttributeError, TypeError, ValueError):
                self.missing.add(span_name)
                continue
            setattr(owner, leaf, wrapped)
            self._undo.append((owner, leaf, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

# Each metric: (name, unit, spans it needs).  The cli.run span is the
# benchmark's own and always present.
LAYER_METRICS = [
    ("primes.factor_s", "s", [_FACTOR, _MAP]),
    ("primes.factor_integers", "count", [_FACTOR, _MAP]),
    ("primes.factor_events", "count", [_FACTOR, _MAP]),
    ("primes.sieve_s", "s", [*_SIEVE, _MAP]),
    ("primes.sieve_primes", "count", [*_SIEVE, _MAP]),
    ("beta.kernel_self_s", "s", ["beta.odd_signed_sums", _MAP, _FACTOR, _BLOCKSUM]),
    ("beta.kernel_blocks", "count", [_MAP]),
    ("beta.sset_s", "s", ["beta.s_set"]),
    ("beta.sset_searches", "count", ["beta.s_set"]),
    ("beta.sset_exhausted", "count", ["beta.s_set"]),
    ("beta.sset_useful_ratio", "ratio", ["beta.s_set"]),
    ("beta.rankin_s", "s", ["beta.s_tail_bound"]),
    ("numerics.blocksum_s", "s", [_BLOCKSUM, _MAP]),
    ("numerics.blocksum_terms", "count", [_BLOCKSUM, _MAP]),
    ("numerics.block_busy_s", "s", [_MAP]),
    ("numerics.parallel_efficiency", "ratio", [_MAP]),
    ("alpha.self_s", "s", ["alpha.alpha_upper_bound", _MAP, *_SIEVE, _BLOCKSUM]),
    ("alpha.primes", "count", ["alpha.alpha_upper_bound"]),
    ("means.self_s", "s", ["means.mean_report", _MAP, "primes.iter_sigma_segments", _BLOCKSUM]),
    ("means.integers", "count", ["primes.iter_sigma_segments", _MAP]),
    ("arith.aliquot_sum_s", "s", ["arith.aliquot_sum"]),
    ("arith.aliquot_sum_calls", "count", ["arith.aliquot_sum"]),
    ("arith.resolved_ratio", "ratio", ["arith.aliquot_sum"]),
    ("trajectory.self_s", "s", ["trajectory.trace", "arith.aliquot_sum"]),
    ("trajectory.steps", "count", ["trajectory.trace"]),
    ("checkpoint.save_s", "s", ["checkpoint.save"]),
    ("checkpoint.saves", "count", ["checkpoint.save"]),
    ("checkpoint.bytes", "bytes", ["checkpoint.save"]),
    ("cli.self_s", "s", ["alpha.alpha_upper_bound", "beta.beta_lower", "means.mean_report",
                         "trajectory.trace"]),
]


class _Index:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {sp.id: sp for sp in spans}
        self.same_thread_child_time: dict[int, float] = {}
        for sp in spans:
            parent = self.by_id.get(sp.parent)
            if parent is not None and parent.thread == sp.thread:
                self.same_thread_child_time[parent.id] = (
                    self.same_thread_child_time.get(parent.id, 0.0) + sp.duration
                )

    def named(self, *names: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name in names]

    def outermost(self, *names: str) -> list[Span]:
        """Spans of the given names not nested inside another of them."""
        out = []
        for sp in self.named(*names):
            parent = self.by_id.get(sp.parent)
            while parent is not None and parent.name not in names:
                parent = self.by_id.get(parent.parent)
            if parent is None:
                out.append(sp)
        return out

    def total(self, *names: str) -> float:
        return sum(sp.duration for sp in self.outermost(*names))

    def self_time(self, *names: str) -> float:
        return sum(sp.duration - self.same_thread_child_time.get(sp.id, 0.0)
                   for sp in self.named(*names))

    def attr_sum(self, key: str, *names: str) -> int:
        return sum(sp.attrs.get(key, 0) for sp in self.outermost(*names))


def _ratio(num: float, den: float) -> float:
    """num/den; 0 when there was nothing to divide (the base is reported too)."""
    return num / den if den else 0.0


def layer_values(spans: list[Span]) -> dict[str, float]:
    """Every metric of LAYER_METRICS from one traced run's spans."""
    ix = _Index(spans)
    sset = ix.named("beta.s_set")
    exhausted = sum(sp.attrs.get("error") == "SSetBudgetExceeded" for sp in sset)
    busy = sum(sp.duration for sp in ix.spans if sp.name.endswith(".block"))
    capacity = sum(sp.attrs.get("workers", 1) * sp.duration for sp in ix.named(_MAP))
    sums = ix.named("arith.aliquot_sum")
    return {
        "primes.factor_s": ix.total(_FACTOR),
        "primes.factor_integers": ix.attr_sum("integers", _FACTOR),
        "primes.factor_events": ix.attr_sum("events", _FACTOR),
        "primes.sieve_s": ix.total(*_SIEVE),
        "primes.sieve_primes": ix.attr_sum("primes", *_SIEVE),
        "beta.kernel_self_s": ix.self_time("beta.odd_signed_sums", "beta.block"),
        "beta.kernel_blocks": len(ix.named("beta.block")),
        "beta.sset_s": ix.total("beta.s_set"),
        "beta.sset_searches": len(sset),
        "beta.sset_exhausted": exhausted,
        "beta.sset_useful_ratio": _ratio(len(sset) - exhausted, len(sset)),
        "beta.rankin_s": ix.total("beta.s_tail_bound"),
        "numerics.blocksum_s": ix.total(_BLOCKSUM),
        "numerics.blocksum_terms": ix.attr_sum("terms", _BLOCKSUM),
        "numerics.block_busy_s": busy,
        "numerics.parallel_efficiency": _ratio(busy, capacity),
        "alpha.self_s": ix.self_time("alpha.alpha_upper_bound", "alpha.block"),
        "alpha.primes": ix.attr_sum("primes", "alpha.alpha_upper_bound"),
        "means.self_s": ix.self_time("means.mean_report", "means.block"),
        "means.integers": ix.attr_sum("integers", "primes.iter_sigma_segments"),
        "arith.aliquot_sum_s": ix.total("arith.aliquot_sum"),
        "arith.aliquot_sum_calls": len(sums),
        "arith.resolved_ratio": _ratio(sum("error" not in sp.attrs for sp in sums), len(sums)),
        "trajectory.self_s": ix.self_time("trajectory.trace"),
        "trajectory.steps": ix.attr_sum("steps", "trajectory.trace"),
        "checkpoint.save_s": ix.total("checkpoint.save"),
        "checkpoint.saves": len(ix.named("checkpoint.save")),
        "checkpoint.bytes": ix.attr_sum("bytes", "checkpoint.save"),
        "cli.self_s": ix.self_time("cli.run"),
    }


def unavailable(missing: set[str], spans: list[Span]) -> set[str]:
    """Metrics left out: a span they need had no wrapper or lost a count, or
    the block engine ran blocks this process could not see."""
    broken = set(missing)
    block_spans = Counter(sp.parent for sp in spans if sp.name.endswith(".block"))
    for sp in spans:
        if "count_error" in sp.attrs:
            broken.add(sp.name)
        if sp.name == _MAP and (sp.attrs.get("unseen_blocks")
                                or block_spans[sp.id] < sp.attrs.get("blocks", 0)):
            broken.add(_MAP)
    return {name for name, _unit, needs in LAYER_METRICS if broken.intersection(needs)}
