"""Replay verification: re-run a recorded scenario and compare digests.

An events.jsonl file embeds its scenario config in the first record and the
stream digest in the final record.  Verification recomputes the stream hash
(detecting a tampered file) and re-runs the embedded config (detecting any
nondeterminism), then compares both against the recorded digest.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Optional

from .config import ConfigError, load_config
from .runner import run_scenario
from .sim import canonical_line

MATCH = "match"
DIGEST_MISMATCH = "digest_mismatch"
MALFORMED = "(malformed)"  # diff_logs' kind for a line that is not a record


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


def _field(line: str, kind: str, *keys: str):
    """The one-line record if it is of this kind, or the value under `keys`
    in it; None if the line is not JSON or has no such record or value."""
    try:
        value = json.loads(line)
        if value["kind"] != kind:
            return None
        for key in keys:
            value = value[key]
        return value
    except (ValueError, LookupError, TypeError):  # not JSON, not an object, no such key
        return None


def replay(path: str | Path, rerun: bool = True) -> ReplayResult:
    """Verify a log read line by line: memory does not grow with its length.

    Only the first record (the config) and the last (the digest) are parsed;
    the lines between are hashed as they are read, so a malformed one shows
    as a stream-hash mismatch.
    """
    hasher = hashlib.sha256()
    try:
        with open(path, encoding="utf-8") as fh:  # the newline handling of read_text()
            first = last = fh.readline()
            for line in fh:
                hasher.update(last.encode())  # every line but the last ends in "\n"
                last = line
    except UnicodeDecodeError as exc:
        return ReplayResult(DIGEST_MISMATCH, "", "", None, f"log is not UTF-8: {exc}")
    if _field(first, "scenario_start") is None:
        return ReplayResult(DIGEST_MISMATCH, "", "", None,
                            "missing or malformed scenario_start record")
    recorded = _field(last, "scenario_end", "detail", "digest")
    if recorded is None:
        return ReplayResult(DIGEST_MISMATCH, "", "", None,
                            "missing or malformed scenario_end record")

    stream_digest = hasher.hexdigest()
    if stream_digest != recorded:
        return ReplayResult(
            DIGEST_MISMATCH, recorded, stream_digest, None,
            "stream hash differs from the recorded digest (log modified?)",
        )
    if not rerun:
        return ReplayResult(MATCH, recorded, stream_digest, None, "stream hash verified")

    try:
        config = load_config(_field(first, "scenario_start", "detail", "config"))
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


def _record(line: str) -> tuple:
    """(record, kind) of a log line; a line that is not a JSON record with a
    string kind is kept as its text, of kind MALFORMED."""
    try:
        record = json.loads(line)
        kind = record["kind"]
    except (ValueError, LookupError, TypeError):  # not JSON, not an object, no kind
        kind = None
    if not isinstance(kind, str):
        return line.rstrip("\n"), MALFORMED
    return record, kind


def diff_logs(path_a: str | Path, path_b: str | Path, limit: int = 20) -> dict:
    """First divergence and per-kind deltas between two event logs.

    The logs are read in step, one record of each at a time; besides the
    counts, only the first divergence and at most `limit` divergent pairs
    from it on (where both logs have a record) are kept.  A malformed line
    is a record shown by its text, so it diverges from any parsed record.
    Two records that Python finds equal but whose canonical encodings differ,
    as 1, 1.0 and true do, diverge; key order and spacing do not count.
    """
    counts_a: Counter[str] = Counter()
    counts_b: Counter[str] = Counter()
    first_divergence = None
    divergent_samples = []
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        for i, (line_a, line_b) in enumerate(zip_longest(fa, fb)):
            ra = rb = None  # past the end of a log
            if line_a is not None:
                ra, kind = _record(line_a)
                counts_a[kind] += 1
            if line_b is not None:
                rb, kind = (ra, kind) if line_b == line_a else _record(line_b)
                counts_b[kind] += 1
            if ra != rb or (line_a != line_b and canonical_line(ra) != canonical_line(rb)):
                if first_divergence is None:
                    first_divergence = {"index": i, "a": ra, "b": rb}
                if ra is not None and rb is not None and i < first_divergence["index"] + limit:
                    divergent_samples.append({"a": ra, "b": rb})
    deltas = {
        kind: {"a": counts_a[kind], "b": counts_b[kind]}
        for kind in sorted(counts_a | counts_b)
        if counts_a[kind] != counts_b[kind]
    }
    return {
        "identical": first_divergence is None,
        "records": {"a": counts_a.total(), "b": counts_b.total()},
        "first_divergence": first_divergence,
        "kind_deltas": deltas,
        "divergent_samples": divergent_samples,
    }
