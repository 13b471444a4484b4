"""The streamed replay() and diff_logs() against the list-based code they replace.

Logs are a recorded run's lines after random edits: dropped, inserted,
changed, appended or truncated lines, a line re-encoded with its keys in
another order (the same record, different text) or with its time as a float
(a record Python finds equal, other canonical bytes), and CRLF line ends or no
final newline.  The reference functions below read the whole log into lists,
as replay.py did before it streamed; the reference diff also tells apart
records that are equal only as Python values.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from ozsim.config import ConfigError, load_config
from ozsim.replay import DIGEST_MISMATCH, MATCH, ReplayResult, diff_logs, replay
from ozsim.runner import run_scenario
from ozsim.sim import canonical_line


def reference_read_log(path):
    lines = [line.rstrip("\n") for line in path.read_text(encoding="utf-8").splitlines()]
    records = [json.loads(line) for line in lines]
    return lines, records


def reference_replay(path, rerun=True):
    lines, records = reference_read_log(path)
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


def differ(ra, rb):
    """Records differ when unequal, or equal only as Python values (1 == 1.0 == True)."""
    return ra != rb or canonical_line(ra) != canonical_line(rb)


def reference_diff_logs(path_a, path_b, limit=20):
    _, records_a = reference_read_log(path_a)
    _, records_b = reference_read_log(path_b)
    first_divergence = None
    for i, (ra, rb) in enumerate(zip(records_a, records_b)):
        if differ(ra, rb):
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
        counts = {}
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
            if differ(ra, rb):
                divergent_samples.append({"a": ra, "b": rb})
    return {
        "identical": first_divergence is None,
        "records": {"a": len(records_a), "b": len(records_b)},
        "first_divergence": first_divergence,
        "kind_deltas": deltas,
        "divergent_samples": divergent_samples,
    }


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A short run's log lines and a directory to write edited copies into."""
    out = tmp_path_factory.mktemp("replay")
    run_scenario(load_config({"name": "t", "seed": 1, "duration_ms": 15_000}), out_dir=out)
    return (out / "events.jsonl").read_text().splitlines(), out


KINDS = ["scenario_start", "scenario_end", "block", "fault"]
values = st.integers(-2, 2) | st.floats(-2, 2) | st.booleans() | st.text("ab\"\\\n", max_size=3)
details = st.dictionaries(st.sampled_from(["digest", "config", "height", "n"]), values, max_size=3)
records = st.fixed_dictionaries({
    "t": st.integers(0, 20_000), "source": st.sampled_from(["ledger", "harness"]),
    "kind": st.sampled_from(KINDS), "detail": details,
})
changes = (
    st.tuples(st.just("t"), st.integers(0, 20_000))
    | st.tuples(st.just("kind"), st.sampled_from(KINDS))
    | st.tuples(st.just("detail"), details)
)
EDITS = ["drop", "insert", "change", "append", "reorder", "retype", "truncate"]


def edit(draw, lines: list[str]) -> bytes:
    """The log text after zero to three random edits, with a drawn line end."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(EDITS))
        if op in ("insert", "append") or not lines:
            at = len(lines) if op == "append" else draw(st.integers(0, len(lines)))
            lines.insert(at, canonical_line(draw(records)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "truncate":
            lines[i] = lines[i][:-draw(st.integers(1, 3))]
        else:
            try:
                record = json.loads(lines[i])
            except ValueError:
                continue  # a line truncated earlier
            if op == "change":
                key, value = draw(changes)
                lines[i] = canonical_line({**record, key: value})
            elif op == "retype":  # 1000 -> 1000.0: an equal dict, other bytes
                lines[i] = canonical_line({**record, "t": float(record["t"])})
            else:  # the same record, keys in reverse order and spaced out
                lines[i] = json.dumps(dict(reversed(record.items())), separators=(", ", ": "))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = newline if draw(st.booleans()) else ""
    return (newline.join(lines) + end).encode()


def outcome(fn, *args):
    """fn's result, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the reference raises on malformed lines
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_replay_verdict_matches_the_list_based_code(recorded, data):
    lines, out = recorded
    path = out / "edited.jsonl"
    path.write_bytes(edit(data.draw, lines))
    expected = outcome(reference_replay, path)
    got = replay(path)
    if isinstance(expected, type):  # a malformed log now gets a verdict
        assert got.verdict == DIGEST_MISMATCH
    else:
        fields = ("verdict", "recorded_digest", "stream_digest", "rerun_digest")
        assert [getattr(got, f) for f in fields] == [getattr(expected, f) for f in fields]


def first_malformed(*logs):
    """Index of the first line that is not JSON, in any of the logs."""
    def malformed(line):
        return isinstance(outcome(json.loads, line), type)

    return min(i for lines in logs for i, line in enumerate(lines) if malformed(line))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), limit=st.integers(0, 8))
def test_diff_report_matches_the_list_based_code(recorded, data, limit):
    lines, out = recorded
    path_a, path_b = out / "a.jsonl", out / "b.jsonl"
    path_a.write_bytes(edit(data.draw, lines))
    path_b.write_bytes(edit(data.draw, lines))
    expected = outcome(reference_diff_logs, path_a, path_b, limit)
    got = diff_logs(path_a, path_b, limit)
    if isinstance(expected, type):  # a malformed line is now a divergent record
        lines_a, lines_b = (p.read_text(encoding="utf-8").splitlines() for p in (path_a, path_b))
        i = first_malformed(lines_a, lines_b)
        if lines_a[i:i + 1] != lines_b[i:i + 1]:
            assert not got["identical"] and got["first_divergence"]["index"] <= i
        else:  # the same bad line in both logs does not diverge
            assert got["identical"] or got["first_divergence"]["index"] != i
    else:
        assert got == expected

