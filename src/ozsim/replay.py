"""Replay verification: re-run a recorded scenario and compare digests.

An events.jsonl file embeds its scenario config in the first record and the
stream digest in the final record.  Verification recomputes the stream hash
(detecting a tampered file) and re-runs the embedded config (detecting any
nondeterminism), then compares both against the recorded digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .config import ConfigError, load_config
from .runner import run_scenario

MATCH = "match"
DIGEST_MISMATCH = "digest_mismatch"


@dataclass
class ReplayResult:
    verdict: str
    recorded_digest: str
    stream_digest: str
    rerun_digest: Optional[str]
    detail: str

    @property
    def ok(self) -> bool:
        return self.verdict == MATCH


def _read_log(path: Path) -> tuple[list[str], list[dict]]:
    lines = [line.rstrip("\n") for line in path.read_text(encoding="utf-8").splitlines()]
    records = [json.loads(line) for line in lines]
    return lines, records


def replay(path: str | Path, rerun: bool = True) -> ReplayResult:
    lines, records = _read_log(Path(path))
    if not records or records[0]["kind"] != "scenario_start":
        return ReplayResult(DIGEST_MISMATCH, "", "", None, "missing scenario_start record")
    if records[-1]["kind"] != "scenario_end":
        return ReplayResult(DIGEST_MISMATCH, "", "", None, "missing scenario_end record")
    recorded = records[-1]["detail"]["digest"]

    hasher = hashlib.sha256()
    for line in lines[:-1]:
        hasher.update(line.encode())
        hasher.update(b"\n")
    stream_digest = hasher.hexdigest()
    if stream_digest != recorded:
        return ReplayResult(
            DIGEST_MISMATCH, recorded, stream_digest, None,
            "stream hash differs from the recorded digest (log modified?)",
        )
    if not rerun:
        return ReplayResult(MATCH, recorded, stream_digest, None, "stream hash verified")

    try:
        config = load_config(records[0]["detail"]["config"])
    except ConfigError as exc:
        return ReplayResult(DIGEST_MISMATCH, recorded, stream_digest, None,
                            f"embedded config invalid: {exc}")
    result = run_scenario(config)
    if result.digest != recorded:
        return ReplayResult(
            DIGEST_MISMATCH, recorded, stream_digest, result.digest,
            "re-run produced a different event stream (nondeterminism)",
        )
    return ReplayResult(MATCH, recorded, stream_digest, result.digest, "re-run digest matches")


def diff_logs(path_a: str | Path, path_b: str | Path, limit: int = 20) -> dict:
    """First divergence and per-kind deltas between two event logs."""
    _, records_a = _read_log(Path(path_a))
    _, records_b = _read_log(Path(path_b))
    first_divergence = None
    for i, (ra, rb) in enumerate(zip(records_a, records_b)):
        if ra != rb:
            first_divergence = {"index": i, "a": ra, "b": rb}
            break
    if first_divergence is None and len(records_a) != len(records_b):
        i = min(len(records_a), len(records_b))
        first_divergence = {
            "index": i,
            "a": records_a[i] if i < len(records_a) else None,
            "b": records_b[i] if i < len(records_b) else None,
        }

    def kind_counts(records):
        counts: dict[str, int] = {}
        for r in records:
            counts[r["kind"]] = counts.get(r["kind"], 0) + 1
        return counts

    counts_a, counts_b = kind_counts(records_a), kind_counts(records_b)
    deltas = {
        kind: {"a": counts_a.get(kind, 0), "b": counts_b.get(kind, 0)}
        for kind in sorted(set(counts_a) | set(counts_b))
        if counts_a.get(kind, 0) != counts_b.get(kind, 0)
    }
    divergent_samples = []
    if first_divergence is not None:
        start = first_divergence["index"]
        for ra, rb in zip(records_a[start:start + limit], records_b[start:start + limit]):
            if ra != rb:
                divergent_samples.append({"a": ra, "b": rb})
    return {
        "identical": first_divergence is None,
        "records": {"a": len(records_a), "b": len(records_b)},
        "first_divergence": first_divergence,
        "kind_deltas": deltas,
        "divergent_samples": divergent_samples,
    }
