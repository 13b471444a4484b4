"""Run the benchmark over several seeds and summarise the spread of each metric.

Run from the root of a source checkout:

    python3 perfbench/sweep.py --workloads day-24h,drills --seeds 1-10 \
        --out perfbench/out/sweep.json

Each (workload, seed) is one `perfbench/run.py` process, run one after another.
For every metric the summary gives the ten values, their median and quartiles
(`statistics.quantiles(values, n=4)`), and the spread: the distance between
the quartiles as a share of the median.  End-to-end spreads are printed next
to the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="day-24h,closed-saturated,drills")
    parser.add_argument("--seeds", default="1-10", help="range lo-hi or comma list")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": parse_seeds(args.seeds), "trace": args.trace,
               "seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in summary["seeds"]:
            results.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']}", flush=True)
        entry = summary["workloads"][workload] = summarise(results)
        for name, m in entry["metrics"].items():
            line = (f"  {name:42s} median {m['median']:.6g} {m['unit']}"
                    f"  spread {m['spread']:.3f}")
            if name in bounds:
                line += f" (bound {bounds[name]})"
            print(line)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
