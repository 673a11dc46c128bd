"""The persisted regression corpus: JSON reproducers under version control.

Every disagreement a campaign finds is shrunk and saved as one small
JSON file in ``tests/fuzz/corpus/``; the tier-1 pytest run replays every
file deterministically, so a fixed bug stays fixed and a reproducer
found on any machine fails the suite everywhere until the bug is fixed.

Reproducer schema (version 1)::

    {
      "schema": 1,
      "pattern": "ab|c{2,3}",        # concrete pattern syntax
      "inputs": ["", "ab", "ccc"],   # probe inputs to replay
      "oracles": ["vm-pre", "old", ...], # oracle subset (default: all)
      "seed": 3405691582,            # campaign seed that found it
      "shrunk_from": "….",           # pre-shrink pattern (provenance)
      "note": "human triage note",
      "disagreement": {...}          # the diff observed at save time
    }

File names are content-addressed (``case-<digest>.json``) so re-finding
the same reproducer is idempotent and parallel campaigns never collide.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .oracles import DEFAULT_ORACLES, CaseResult, run_case

SCHEMA_VERSION = 1

#: The in-repo corpus location (resolved relative to the repo root when
#: running from a checkout; the CLI accepts ``--corpus-dir`` overrides).
DEFAULT_CORPUS_DIR = os.path.join("tests", "fuzz", "corpus")


@dataclass
class Reproducer:
    """One saved differential failure (or sentinel regression case)."""

    pattern: str
    inputs: List[str] = field(default_factory=list)
    oracles: Sequence[str] = DEFAULT_ORACLES
    seed: Optional[int] = None
    shrunk_from: Optional[str] = None
    note: str = ""
    disagreement: Optional[Dict] = None

    def to_dict(self) -> Dict:
        payload: Dict = {
            "schema": SCHEMA_VERSION,
            "pattern": self.pattern,
            "inputs": list(self.inputs),
            "oracles": list(self.oracles),
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.shrunk_from:
            payload["shrunk_from"] = self.shrunk_from
        if self.note:
            payload["note"] = self.note
        if self.disagreement is not None:
            payload["disagreement"] = self.disagreement
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "Reproducer":
        schema = payload.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported reproducer schema {schema}")
        return cls(
            pattern=payload["pattern"],
            inputs=list(payload.get("inputs", [])),
            oracles=tuple(payload.get("oracles", DEFAULT_ORACLES)),
            seed=payload.get("seed"),
            shrunk_from=payload.get("shrunk_from"),
            note=payload.get("note", ""),
            disagreement=payload.get("disagreement"),
        )

    def digest(self) -> str:
        """Content address over the replay-relevant fields only."""
        key = json.dumps(
            {"pattern": self.pattern, "inputs": sorted(self.inputs)},
            sort_keys=True,
        )
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]

    def filename(self) -> str:
        return f"case-{self.digest()}.json"

    def replay(self, metrics=None) -> CaseResult:
        """Run the saved case through the harness again."""
        return run_case(
            self.pattern,
            self.inputs,
            oracles=tuple(self.oracles),
            metrics=metrics,
        )


def save_reproducer(reproducer: Reproducer, corpus_dir: str) -> str:
    """Write one reproducer; returns its path (idempotent by content)."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, reproducer.filename())
    with open(path, "w") as handle:
        json.dump(reproducer.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_corpus(corpus_dir: str) -> List[Reproducer]:
    """Every reproducer in ``corpus_dir``, sorted by file name."""
    if not os.path.isdir(corpus_dir):
        return []
    reproducers: List[Reproducer] = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(corpus_dir, name)) as handle:
            reproducers.append(Reproducer.from_dict(json.load(handle)))
    return reproducers


def replay_corpus(corpus_dir: str, metrics=None) -> List[CaseResult]:
    """Replay the whole corpus; one :class:`CaseResult` per file."""
    return [
        reproducer.replay(metrics=metrics)
        for reproducer in load_corpus(corpus_dir)
    ]
