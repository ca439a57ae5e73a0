#!/usr/bin/env python3
"""Steadiness check: repeat each workload over seeds and compare spreads with bounds.

    python3 perfbench/steady.py --seeds 1-10 --held-out 101-110
    python3 perfbench/steady.py --workloads cli-theory-defaults --seeds 1-5

For every workload, run.py runs once per seed (untraced, `run_seconds` from
BENCHMARK.json).  For each end-to-end metric the table shows the median,
the quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) /
median, against the metric's bound.  A spread must stay within the bound
and should stay below a third of it.  With --held-out,
a second set of seeds runs after the first, and its medians must not be
worse than the first set's by more than the bound.  The summary is
written to .bench_runs/steadiness-<time>.json.  With --record, the output
digests of the correct runs are merged into references.json (do this only
at a commit whose outputs are the intended reference).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec: dict, workloads: list[str], seeds: list[int]) -> dict:
    results: dict[str, list[dict]] = {}
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"], result["wall_s"] = seed, wall
            result["details"] = next(ln.split()[-1] for ln in lines if ln.startswith("  details "))
            results.setdefault(workload, []).append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values} "
                  f"(run {wall:.1f} s)", flush=True)
    return results


def _compact(value):
    """Floats to 12 significant digits: ample for the 1e-6 check tolerance."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _compact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_compact(v) for v in value]
    return value


def record_references(details: list[Path]) -> int:
    """Merge the output digests of the correct runs among `details` into references.json."""
    path = BENCH / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    added = 0
    for detail in details:
        run = json.loads(detail.read_text())
        if run["result"]["correct"]:
            args = run["args"]
            refs.setdefault(args["workload"], {}).setdefault(str(args["seed"]), {}).update(
                _compact(run["digests"]))
            added += len(run["digests"])
    path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    return added


def summarize(spec: dict, results: dict) -> dict:
    out: dict = {}
    for workload, runs in results.items():
        out[workload] = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            out[workload][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"],
                "within_bound": spread <= metric["bound"],
                "below_third": spread < metric["bound"] / 3, "values": values}
        out[workload]["all_correct"] = all(r["correct"] for r in runs)
        out[workload]["max_run_s"] = max(r["wall_s"] for r in runs)
        out[workload]["mean_run_s"] = statistics.fmean(r["wall_s"] for r in runs)
    return out


def print_table(title: str, summary: dict) -> None:
    print(f"\n{title}")
    print(f"{'workload':<22} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            if not isinstance(m, dict):
                continue
            verdict = ("steady" if m["below_third"] else
                       "within bound" if m["within_bound"] else "TOO WIDE")
            print(f"{workload:<22} {name:<12} {m['median']:10.4f} {m['q1']:10.4f} "
                  f"{m['q3']:10.4f} {m['spread']:7.3f} {m['bound']:6.2f}  {verdict}")
        print(f"{workload:<22} all correct: {metrics['all_correct']}, run wall mean "
              f"{metrics['mean_run_s']:.1f} s, max {metrics['max_run_s']:.1f} s")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--held-out", default=None, help="second seed range, e.g. 101-110")
    p.add_argument("--record", action="store_true",
                   help="merge the output digests of correct runs into references.json")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    report: dict = {"run_seconds": spec["run_seconds"]}
    first = run_set(spec, workloads, seed_range(args.seeds))
    report["first"] = summarize(spec, first)
    print_table(f"seeds {args.seeds}", report["first"])
    ok = all(m["within_bound"] for w in report["first"].values()
             for m in w.values() if isinstance(m, dict))
    if args.held_out:
        second = run_set(spec, workloads, seed_range(args.held_out))
        report["held_out"] = summarize(spec, second)
        print_table(f"held-out seeds {args.held_out}", report["held_out"])
        print("\nsecond median against first (worse by at most the bound):")
        for workload, metrics in report["held_out"].items():
            for name, m in metrics.items():
                if not isinstance(m, dict):
                    continue
                base = report["first"][workload][name]["median"]
                better = next(e["better"] for e in spec["end_to_end"] if e["name"] == name)
                change = (m["median"] - base) / base * (1 if better == "lower" else -1)
                agree = change <= m["bound"]
                ok &= agree and m["within_bound"]
                print(f"  {workload:<22} {name:<12} {change:+.3f} "
                      f"{'ok' if agree else 'WORSE THAN BOUND'}")
    if args.record:
        runs = [r for rs in (first, second if args.held_out else {}) for w in rs.values() for r in w]
        added = record_references([ROOT / r["details"] for r in runs])
        print(f"recorded {added} output digests in perfbench/references.json")
    out = ROOT / ".bench_runs" / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\nsummary written to {out.relative_to(ROOT)}; {'all within bounds' if ok else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
