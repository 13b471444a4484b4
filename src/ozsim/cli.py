"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 scenario check failure,
3 determinism failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import format_table, run_bench
from .checks import run_checks
from .config import ConfigError, bundled_scenario_names, load_bundled, resolve_scenario
from .replay import diff_logs, replay
from .runner import run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECKS = 2
EXIT_DETERMINISM = 3


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = resolve_scenario(args.scenario)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    result = run_scenario(config, out_dir=args.out)
    summary = result.summary
    print(f"scenario {config.name} seed {config.seed}: "
          f"{summary['samples']} samples, digest {result.digest[:16]}")
    print(f"  tps mean {summary['tps']['mean']:.1f} peak {summary['tps']['peak']:.1f}; "
          f"trades {summary['trades']['count']}")
    for kind, stats in sorted(summary["latency_ms"].items()):
        mean = stats.get("mean_ms")
        mean_txt = f"mean {mean:.0f} ms" if mean is not None else "no completions"
        print(f"  {kind}: {stats['completed']}/{stats['requests']} ok, {mean_txt}")
    for alert in summary["alerts"]:
        print(f"  alert {alert['kind']} at {alert['raised_at']} ms: {alert['action']}")
    if args.out:
        print(f"  outputs in {result.out_dir}")
    if not args.check:
        return EXIT_OK
    failures = 0
    for name, ok, message in run_checks(result):
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {message}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_CHECKS


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        config = resolve_scenario(args.scenario)
        counts = [int(x) for x in args.users.split(",") if x]
        if counts != sorted(counts):
            raise ValueError("user counts must be ascending")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = run_bench(config, counts, warmup_ms=args.warmup_ms, jobs=args.jobs)
    print(format_table(report))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "bench_report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {out / 'bench_report.json'}")
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.diff_against:
        report = diff_logs(args.log, args.diff_against)
        if report["identical"]:
            print("logs identical")
            return EXIT_OK
        print(f"logs diverge at record {report['first_divergence']['index']}")
        for kind, counts in report["kind_deltas"].items():
            print(f"  {kind}: {counts['a']} vs {counts['b']}")
        for pair in report["divergent_samples"][:5]:
            print(f"  a: {pair['a']}")
            print(f"  b: {pair['b']}")
        return EXIT_OK
    result = replay(args.log, rerun=not args.no_rerun)
    print(f"{result.verdict}: {result.detail}")
    return EXIT_OK if result.ok else EXIT_DETERMINISM


def _cmd_scenarios(args: argparse.Namespace) -> int:
    for name in bundled_scenario_names():
        config = load_bundled(name)
        print(f"{name:20s} {config.description}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ozsim",
        description="Deterministic simulator of an agent-run gold-backed token exchange",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True, help="bundled name or JSON path")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--check", action="store_true", help="evaluate bundled checks")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="scaling benchmark over user counts")
    p_bench.add_argument("--scenario", default="bench-base")
    p_bench.add_argument("--users", required=True, help="comma-separated ascending counts")
    p_bench.add_argument("--warmup-ms", type=int, default=15_000)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_replay = sub.add_parser("replay", help="verify a recorded event log")
    p_replay.add_argument("--log", required=True)
    p_replay.add_argument("--no-rerun", action="store_true", help="hash check only")
    p_replay.add_argument("--diff-against", default=None, help="diff two logs")
    p_replay.set_defaults(func=_cmd_replay)

    p_scen = sub.add_parser("scenarios", help="list bundled scenarios")
    p_scen.add_argument("action", choices=["list"])
    p_scen.set_defaults(func=_cmd_scenarios)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
