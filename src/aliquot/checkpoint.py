"""Restartable block sums for long runs.

A checkpoint file stores, for one summation keyed by its full
configuration, the per-block compensated partial sums produced so far,
each block known by its bounds.  The store checks only the key; the
summation that resumes decides whether the records are its own blocks
(beta.EulerPass recomputes the first and the last and compares every
record's bounds), and a mismatch discards the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path


def config_hash(key: dict) -> str:
    """Stable short hash of a JSON-serializable configuration."""
    canon = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class BlockRecord:
    """Partial sums of block [lo, hi]: per tracked series (value, abs_sum, n_terms)."""

    lo: int
    hi: int
    parts: dict[str, tuple[float, float, int]]

    def to_json_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "parts": {k: [v[0], v[1], v[2]] for k, v in self.parts.items()},
        }

    @staticmethod
    def from_json_dict(d: dict) -> "BlockRecord":
        return BlockRecord(
            lo=int(d["lo"]),
            hi=int(d["hi"]),
            parts={k: (float(v[0]), float(v[1]), int(v[2])) for k, v in d["parts"].items()},
        )


class CheckpointStore:
    """One summation's checkpoint file under ``directory``.

    The filename is the key's ``"kind"`` and its configuration hash, so
    runs with different parameters can never collide.
    """

    def __init__(self, directory: str | Path, key: dict):
        self.directory = Path(directory)
        self.key = key
        self.path = self.directory / f"{key['kind']}-{config_hash(key)}.json"

    def load(self) -> list[BlockRecord]:
        """Stored block records in file order; [] if absent, malformed or keyed otherwise."""
        try:
            with open(self.path) as fh:
                doc = json.load(fh)
            if doc["key"] != self.key:
                return []
            return [BlockRecord.from_json_dict(b) for b in doc["blocks"]]
        except (OSError, ValueError, LookupError, TypeError, AttributeError, OverflowError):
            return []

    def save(self, records: list[BlockRecord]) -> None:
        """Atomically rewrite the file with the given records."""
        self.directory.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema_version": 1,
            "key": self.key,
            "blocks": [r.to_json_dict() for r in records],
        }
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, self.path)

    def discard(self) -> None:
        self.path.unlink(missing_ok=True)
