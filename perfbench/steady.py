"""Steadiness check: run one workload repeatedly in fresh processes.

    python3 perfbench/steady.py --workload decode --runs 10
    python3 perfbench/steady.py --workload decode --runs 10 --against ../other

Each run is ``perfbench/run.py`` in a new process with its own seed
(1, 2, ...), as long as ``run_seconds`` of ``BENCHMARK.json``.  With ``--against`` the runs alternate between this
checkout and another one (A B, B A, A B, ...), so slow phases of the
host fall on both sides alike.  For every metric the command prints
each side's median and quartiles and the quartile spread as a share of
the median; with two sides it also prints how far the second side's
median lies from the first, against the metric's bound in
``BENCHMARK.json``.  Counts that must repeat exactly (cycle figures and
the share of failed operations) are flagged when they differ between
runs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
#: figures each run prints for reference but does not report as metrics
REFERENCE_FIGURES = re.compile(
    r"latency p99 (?P<p99>[\d.]+) ms .*cpu (?P<cpu>[\d.]+) ms/req"
)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(
            f"{checkout}: {workload} seed {seed} exited {done.returncode}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    figures = REFERENCE_FIGURES.search(done.stdout)
    if figures:
        result["reference"] = {
            "latency_p99_ms": float(figures["p99"]),
            "cpu_ms_per_req": float(figures["cpu"]),
        }
    return result


def summarize(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--against", type=Path, default=None,
                        help="root of a second checkout to alternate with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 to give quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = [ROOT] + ([args.against.resolve()] if args.against else [])
    results: dict[Path, list[dict]] = {side: [] for side in sides}
    for i in range(args.runs):
        seed = 1 + i
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            result = run_once(side, args.workload, seed, seconds)
            results[side].append(result)
            line = " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            )
            print(f"[{side.name} seed {seed}] {line}", flush=True)

    medians: dict[Path, dict[str, float]] = {}
    for side in sides:
        runs = results[side]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{side}: {len(runs)} runs of {args.workload}, "
              f"failed share {sorted(shares)}"
              + ("" if len(shares) == 1 else "  <-- DIFFERS"))
        medians[side] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = summarize(values)
            medians[side][name] = median
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if name.startswith("sim_") and len(set(values)) > 1:
                flag = "  <-- must repeat exactly"
            elif bound is not None and spread > bound:
                flag = "  <-- spread over bound"
            print(f"  {name:32s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}"
                  + (f" (bound {bound:.0%})" if bound is not None else "")
                  + flag)
        if all("reference" in r for r in runs):
            for name in runs[0]["reference"]:
                q1, median, q3 = summarize(
                    [r["reference"][name] for r in runs])
                print(f"  {name + ' (reference)':32s} median {median:12.6g}"
                      f"  q1 {q1:12.6g}  q3 {q3:12.6g}  spread "
                      f"{(q3 - q1) / median:7.2%}")
    if len(sides) == 2:
        first, second = sides
        print(f"\n{second.name} against {first.name}, change of median:")
        for name, base in medians[first].items():
            other = medians[second][name]
            change = (other - base) / base if base else 0.0
            metric = bounds.get(name)
            worse = ""
            if metric is not None:
                worse_by = change if metric["better"] == "lower" else -change
                if worse_by > metric["bound"]:
                    worse = "  <-- worse than bound"
            print(f"  {name:32s} {change:+8.2%}{worse}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
