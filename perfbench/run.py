"""Wall-clock benchmark of the ozsim simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload day-24h --seed 0 --seconds 35 --trace 0

The simulator is imported from ./src.  One process runs one workload: it
repeats the workload's unit of work until --seconds have passed (at least
MIN_REPS times) and reports medians over the repetitions.  With --trace 0 the
last line of output holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of traced repetitions, which alternate with untraced ones so
that the tracing overhead is measured in the same process.  Every repetition
passes the correctness gates or counts as failed.  The full record, with
digests, simulated outputs and the self-time table, is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer

MIN_REPS = {False: 3, True: 2}


def load_program(root: Path) -> str | None:
    """Put ./src first on the import path; returns an error message or None."""
    package = root / "src" / "ozsim"
    if not (package / "__init__.py").is_file():
        return f"no simulator source at {package}: run from the root of a checkout"
    sys.path.insert(0, str(root / "src"))
    import ozsim

    if Path(ozsim.__file__).resolve().parent != package.resolve():
        return f"imported ozsim from {ozsim.__file__}, not from {package}"
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["day-24h", "closed-saturated", "drills"])
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs every scenario at its bundled seed")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def repeat(workload, seconds: float, trace: bool) -> list:
    """Repetitions as (Rep, Tracer or None) pairs in the order run.

    When tracing, traced repetitions alternate with untraced ones.
    """
    deadline = time.perf_counter() + seconds
    reps = []
    last_s = {}  # duration of the latest repetition, by whether it was traced
    while True:
        traced = trace and len(reps) % 2 == 1
        start = time.perf_counter()
        gc.collect()
        if traced:
            tracer = Tracer()
            with tracer:
                reps.append((workload.rep(tracer, replay_logs=True), tracer))
        else:
            reps.append((workload.rep(None, replay_logs=not (trace or reps)), None))
        last_s[traced] = time.perf_counter() - start
        expected = last_s.get(trace and len(reps) % 2 == 1, last_s[traced])
        if len(reps) >= MIN_REPS[trace] and time.perf_counter() + expected > deadline:
            return reps


def source_hash(root: Path) -> str:
    """Hash of the simulator's package files and of the workload definitions."""
    package = root / "src" / "ozsim"
    files = sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    digest.update(Path(__file__).with_name("workloads.py").read_bytes())
    return digest.hexdigest()


def check_earlier_runs(reps, path: Path) -> None:
    """Compare digests with the first process that ran the same code, workload and seed.

    Catches nondeterminism that differs between processes, such as iteration
    over sets of strings under hash randomization.  The file name holds the
    source hash, so a process running other code is never compared.
    """
    digests = reps[0].digests
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return
    earlier = json.loads(path.read_text(encoding="utf-8"))
    for run, digest in digests.items():
        if earlier.get(run) != digest:
            for rep in reps:
                rep.fail(run, f"digest {digest[:16]} differs from {str(earlier.get(run))[:16]} "
                              f"recorded by an earlier process in {path.name}")


def gate(reps) -> tuple[int, int, list[str]]:
    """(attempted runs, failed runs, messages): failures plus digest mismatches."""
    reference = reps[0].digests
    attempted = failed = 0
    messages = []
    for i, rep in enumerate(reps):
        for run, digest in rep.digests.items():
            if digest != reference.get(run):
                rep.fail(run, f"digest {digest[:16]} differs from first repetition's "
                              f"{reference.get(run, '')[:16]}")
        attempted += rep.runs
        failed += len(rep.failures)
        messages += [f"rep {i} {run}: {m}" for run, ms in rep.failures.items() for m in ms]
    return attempted, failed, messages


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    error = load_program(root)
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports ozsim, so only once ./src is on the path

    out_dir = Path(__file__).resolve().parent / "out"
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    runs = repeat(workload, args.seconds, bool(args.trace))
    reps = [rep for rep, _ in runs]
    untraced = [rep for rep, tracer in runs if tracer is None]
    traced = [(rep, tracer) for rep, tracer in runs if tracer is not None]
    pin = f"{args.workload}-seed{args.seed}-{source_hash(root)[:16]}.json"
    check_earlier_runs(reps, out_dir / "digests" / pin)
    attempted, failed, messages = gate(reps)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digests": reps[0].digests,
        "outputs": reps[0].outputs,
        "failures": messages,
        "reps": [
            {"setup_s": r.setup_s, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "traced": t is not None}
            for r, t in runs
        ],
    }
    untraced_wall = statistics.median([r.wall_s for r in untraced])
    if args.trace:
        per_rep = [tracer.metrics() for _, tracer in traced]
        # median_low keeps the counts integral: they are identical in every repetition.
        metrics = {name: statistics.median_low([m[name] for m in per_rep]) for name in per_rep[0]}
        metrics["trace.overhead_s"] = statistics.median([r.wall_s for r, _ in traced]) - untraced_wall
        tracer = traced[0][1]
        record["self_s"] = tracer.self_times()
        record["absent"] = sorted(tracer.absent)
        record["kinds"] = tracer.kinds()
        record["kinds_not_scheduled"] = tracer.kinds_not_scheduled()
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": untraced_wall,
            "setup_s": statistics.median([r.setup_s for r in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    # CPU time over the wall_s interval: close to wall_s means the run is CPU-bound.
    record["cpu_s"] = statistics.median([r.cpu_s for r in untraced])
    record["metrics"] = metrics

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _report(record, path)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms.p50") or name.endswith("_ms.p99"):
        return "sim_ms"  # simulated milliseconds, not host time
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _report(record: dict, path: Path) -> None:
    """Human-readable lines ahead of the result line."""
    reps = record["reps"]
    print(f"{record['workload']} seed {record['seed']}: {len(reps)} repetitions")
    for i, rep in enumerate(reps):
        tag = "traced" if rep["traced"] else "untraced"
        print(f"  rep {i} {tag:8s} setup {rep['setup_s']:.4f} s  wall {rep['wall_s']:.3f} s"
              f"  cpu {rep['cpu_s']:.3f} s")
    for run, digest in record["digests"].items():
        print(f"  digest {run}: {digest}")
    for message in record["failures"]:
        print(f"  FAILED {message}")
    if "self_s" in record:
        print("  self time, largest first:")
        for name, seconds in list(record["self_s"].items())[:12]:
            print(f"    {name:40s} {seconds:9.4f} s")
        print(f"  tracing overhead {record['metrics']['trace.overhead_s']:.3f} s")
        if record["absent"]:
            print(f"  absent: {', '.join(record['absent'])}")
        print(f"  kinds not scheduled: {', '.join(record['kinds_not_scheduled']) or 'none'}")
    print(f"  record written to {path}")


if __name__ == "__main__":
    sys.exit(main())
