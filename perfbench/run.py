#!/usr/bin/env python3
"""The voldens benchmark: CLI time-to-density per estimator, warm Monte Carlo
throughput, and a traced per-module split.

    python3 perfbench/run.py --workload cli-dense-sums --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; `src/` is put on the path of every
child process (no install is needed).  Workloads:

* cli-dense-sums: `voldens --estimator kernel` on a 100,000-row price CSV
  written here from the ou-exp preset (Delta = 0.05), and
  `--estimator regression` on nonlinear-ar at n = 20,000.
* cli-theory-defaults: `--estimator wavelet` on ou-exp at n = 20,000
  (L = n) and `--estimator ppe` on regime-switch at n = 5,000 (K_n = n).
* mc-warm-replications: in-process `run_experiment` sessions; one warm-up
  replication per estimator, then rounds of kernel (regime-switch), wavelet
  and ppe (pure-convolution) replications at n = 2,600.

Every CLI operation is a child process that runs `voldens.cli.main` as
`python3 -m voldens.cli` does, timed from spawn to exit, with its peak RSS
read by `os.wait4`; the child also notes when `import voldens.cli` finished,
which gives one set-up sample per operation.  A CLI run repeats its
operations in rounds, at least MIN_CLI_ROUNDS of them and more while
`--seconds` of operation time has not been measured.  This process starts
one child at a time and pins BLAS and OpenMP pools to one thread.  Every
output is checked (see checks.py); an operation whose output fails a check
counts as failed.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with `--trace 1` the workload is
run once untraced and once traced, and the object holds the per-layer
metrics from the traced spans and the tracing overhead.  Details of every
run (samples, spans, checks, provenance) go to `.bench_runs/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# Each workload's index keys its inputs: (seed, index) seeds everything.
WORKLOADS = {"cli-dense-sums": 0, "cli-theory-defaults": 1, "mc-warm-replications": 2}
MIN_CLI_ROUNDS = 2         # a CLI run measures at least this many rounds
MC_SESSIONS = 4            # fresh sessions per Monte Carlo run; each also sets up
TRACE_MC_ROUNDS = 2        # timed rounds of a traced (and its untraced twin) session
RUN_DEADLINE_S = 170.0     # a run must exit within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CSV_ROWS = 100_000
CSV_DELTA = 0.05
GRID_POINTS = 512
DENOMINATOR_FLOOR = 1e-4

# What `python -m voldens.cli ARGS` does, after writing the CLOCK_MONOTONIC
# time at which `import voldens.cli` finished to the file named first.
CLI_STAMPED = ("import sys, time; import voldens.cli as cli; "
               "open(sys.argv[1], 'w').write(repr(time.monotonic())); "
               "sys.exit(cli.main(sys.argv[2:]))")


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


# --------------------------------------------------------------------------- child processes

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "VOLDENS_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Spawner:
    """Runs one child at a time; kills any child still running at the deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list[str], log: str) -> dict:
        """Wall seconds from spawn to exit, peak RSS (MiB) and exit code of one child."""
        with open(self.work / log, "wb") as err:
            start_mono = time.monotonic()
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.1, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
                "exit_code": proc.returncode, "spawned": start_mono}


# --------------------------------------------------------------------------- inputs

def derived_seeds(seed: int, workload: str, count: int) -> list[int]:
    import numpy as np
    state = np.random.SeedSequence([seed, WORKLOADS[workload]]).generate_state(count)
    return [int(v) % (2 ** 30) + 1 for v in state]


def simulate(preset: str, n: int, delta: float, cli_seed: int):
    """The series `voldens --scenario preset --seed cli_seed` simulates."""
    from voldens.metrics import scenario_preset
    from voldens.svsim import simulate_scenario
    scenario = scenario_preset(preset, n, delta).with_seeds(2 * cli_seed + 1, 2 * cli_seed + 2)
    return simulate_scenario(scenario)[0]


def log_squared(log_prices, delta: float):
    import numpy as np
    x = np.diff(log_prices) / math.sqrt(delta)
    return np.log(np.maximum(x * x, 1e-300)), int(np.count_nonzero(x == 0.0))


def cli_ops(workload: str, seed: int, work: Path) -> tuple[list[dict], dict]:
    """The workload's CLI operations with the data each check needs, and input sizes."""
    import numpy as np
    s = derived_seeds(seed, workload, 2)
    if workload == "cli-dense-sums":
        series = simulate("ou-exp", CSV_ROWS - 1, CSV_DELTA, s[0])
        prices = np.exp(series.log_prices)
        with open(work / "prices.csv", "w") as fh:
            fh.write("t,price\n")
            fh.writelines(f"{i * CSV_DELTA!r},{p!r}\n" for i, p in enumerate(prices.tolist()))
        y, zeros = log_squared(np.log(prices), CSV_DELTA)
        reg = simulate("nonlinear-ar", 20_000, 1.0, s[1])
        y_reg, zeros_reg = log_squared(reg.log_prices, 1.0)
        ops = [
            {"name": "kernel", "estimator": "kernel", "y": y, "zero_increment_count": zeros,
             "args": ["--input", "prices.csv", "--delta", str(CSV_DELTA),
                      "--estimator", "kernel"]},
            {"name": "regression", "estimator": "regression", "y": y_reg,
             "zero_increment_count": zeros_reg, "floor": DENOMINATOR_FLOOR,
             "args": ["--scenario", "nonlinear-ar", "--n", "20000", "--seed", str(s[1]),
                      "--estimator", "regression"]},
        ]
        sizes = {"csv_rows": CSV_ROWS, "csv_delta": CSV_DELTA, "csv_seed": s[0],
                 "regression_n": 20_000, "regression_cli_seed": s[1]}
    else:
        wav = simulate("ou-exp", 20_000, 1.0, s[0])
        y_wav, zeros_wav = log_squared(wav.log_prices, 1.0)
        ppe = simulate("regime-switch", 5_000, 1.0, s[1])
        y_ppe, _ = log_squared(ppe.log_prices, 1.0)
        ops = [
            {"name": "wavelet", "estimator": "wavelet", "y": y_wav,
             "zero_increment_count": zeros_wav,
             "args": ["--scenario", "ou-exp", "--n", "20000", "--seed", str(s[0]),
                      "--estimator", "wavelet"]},
            {"name": "ppe", "estimator": "ppe", "y": y_ppe,
             "zero_increment_count": ppe.zero_increment_count,
             "args": ["--scenario", "regime-switch", "--n", "5000", "--seed", str(s[1]),
                      "--estimator", "ppe"]},
        ]
        sizes = {"wavelet_n": 20_000, "wavelet_cli_seed": s[0],
                 "ppe_n": 5_000, "ppe_cli_seed": s[1]}
    for op in ops:
        op["n"] = op["y"].size
        op["grid_points"] = GRID_POINTS
        sizes[f"{op['name']}_zero_increment_count"] = op["zero_increment_count"]
    return ops, sizes


# --------------------------------------------------------------------------- provenance

def provenance(seed: int, workload: str) -> dict:
    import numpy
    import scipy
    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "seed": seed, "workload": workload,
            "thread_env_children": {v: "1" for v in THREAD_VARS},
            "thread_env_inherited": {v: os.environ.get(v) for v in
                                     (*THREAD_VARS, "VOLDENS_THREADS")}}
    for name, mod in (("numpy_blas", numpy), ("scipy_blas", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[name] = f"{blas.get('name')} {blas.get('version')}"
        except Exception as exc:  # provenance must never fail a run
            info[name] = f"unknown ({type(exc).__name__})"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches_cpu0"] = caches
    info["git_commit"] = None  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return info


# --------------------------------------------------------------------------- helpers

def median(values: list[float]) -> float:
    """Median; 0 when every sample failed (the run then reports correct = false)."""
    return float(statistics.median(values)) if values else 0.0


def describe(values: list[float]) -> str:
    if not values:
        return "no samples"
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"median of {len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def output_hash(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Checker:
    """Checks outputs, once per distinct output; identical reruns share the verdict."""

    def __init__(self, tol, references: dict):
        self.tol = tol
        self.references = references
        self.first_hash: dict[str, str] = {}
        self.digests: dict[str, dict] = {}
        self.problems: list[str] = []
        self.reference_hits = 0
        self.grids: dict = {}

    def cli(self, op: dict, out: Path, exit_code: int) -> bool:
        try:
            return self._cli(op, out, exit_code)
        except Exception as exc:  # a malformed output must fail the check, not the run
            self.problems.append(f"{op['name']}: check raised {exc!r}")
            return False

    def _cli(self, op: dict, out: Path, exit_code: int) -> bool:
        import checks
        name = op["name"]
        if name in self.first_hash:
            if exit_code == 0 and output_hash(out) == self.first_hash[name]:
                return True
            problems = ["output differs from the first run (reruns must be byte-identical)"
                        if exit_code == 0 else f"exit code {exit_code}"]
        else:
            problems = checks.check_cli(op, out, exit_code, self.tol)
            digest = None
            if not problems:
                digest = checks.digest_cli(op["estimator"], out)
                digest["input"] = checks.digest_input(op["y"])
            ref = self.references.get(name)
            if digest is not None and ref is not None:
                self.reference_hits += 1
                problems = checks.compare_digest(digest, ref, self.tol, name)
            if not problems:
                self.first_hash[name] = output_hash(out)
                self.digests[name] = digest
        self.problems += [f"{name}: {p}" for p in problems]
        return not problems

    def replication(self, rep: dict) -> bool:
        key = f"{rep['estimator']}@{rep['seed_base']}"
        try:
            return self._replication(key, rep)
        except Exception as exc:  # a malformed result must fail the check, not the run
            self.problems.append(f"{key}: check raised {exc!r}")
            return False

    def _replication(self, key: str, rep: dict) -> bool:
        import checks
        expect = mc_expectation(rep, self.grids)
        problems = checks.check_replication(rep, expect, self.tol)
        digest = checks.digest_replication(rep, expect["y"])
        ref = self.references.get(key)
        if ref is not None and not problems:
            self.reference_hits += 1
            problems = checks.compare_digest(digest, ref, self.tol, key)
        if not problems:
            self.digests[key] = digest
        self.problems += [f"{key}: {p}" for p in problems]
        return not problems


# --------------------------------------------------------------------------- workloads

def run_cli_workload(args, spawner: Spawner, checker: Checker) -> dict:
    ops, sizes = cli_ops(args.workload, args.seed, spawner.work)
    samples = {"setup_s": [], **{op["name"]: [] for op in ops}, "round_s": [], "rss_mb": []}
    attempted = failed = 0
    measured = 0.0
    rounds = 0
    spans: list = []

    def one(op: dict, traced: bool) -> float:
        nonlocal attempted, failed
        out = spawner.work / f"out-{op['name']}"
        shutil.rmtree(out, ignore_errors=True)
        cli_args = [*op["args"], "--out", out.name]
        if traced:
            report = spawner.work / f"trace-{op['name']}.json"
            r = spawner.run([str(BENCH / "worker.py"), "cli", "--trace", "1",
                             "--report", report.name, "--", *cli_args], f"{op['name']}.err")
            if report.exists():
                spans.append(json.loads(report.read_text())["spans"])
        else:
            stamp = spawner.work / "imported"
            stamp.unlink(missing_ok=True)
            r = spawner.run(["-c", CLI_STAMPED, stamp.name, *cli_args], f"{op['name']}.err")
            if stamp.exists():  # set-up: spawn until `import voldens.cli` is done
                samples["setup_s"].append(float(stamp.read_text()) - r["spawned"])
        attempted += 1
        if not checker.cli(op, out, r["exit_code"]):
            failed += 1
        samples["rss_mb"].append(r["rss_mb"])
        return r["wall_s"]

    def another_round() -> bool:
        if rounds == 0:
            return True
        if args.trace or time.monotonic() + 2 * samples["round_s"][-1] > spawner.deadline:
            return False
        return rounds < MIN_CLI_ROUNDS or measured < args.seconds

    while another_round():
        walls = [one(op, traced=False) for op in ops]
        for op, wall in zip(ops, walls):
            samples[op["name"]].append(wall)
        samples["round_s"].append(sum(walls))
        measured += sum(walls)
        rounds += 1
    overhead = None
    if args.trace:  # the same operations again, traced; the difference is the overhead
        overhead = sum(one(op, traced=True) for op in ops) - samples["round_s"][0]
    return {"samples": samples, "attempted": attempted, "failed": failed, "rounds": rounds,
            "spans": spans, "overhead_s": overhead, "input_sizes": sizes}


def mc_expectation(rep: dict, cache: dict) -> dict:
    """Data, truth and grid of a replication, for the oracle and input checks."""
    import numpy as np
    from voldens.kerneldeconv import default_bandwidth
    from voldens.metrics import (PureConvolution, default_evaluation_grid,
                                 scenario_preset)
    from voldens.svsim import simulate_scenario
    import worker
    n, seed_base = worker.MC_N, rep["seed_base"]
    scenario = scenario_preset(rep["scenario"], n)
    grid = cache.setdefault(rep["scenario"], default_evaluation_grid(scenario, GRID_POINTS))
    if isinstance(scenario, PureConvolution):
        sc = PureConvolution(n=n, seed=seed_base)
        y = sc.draw()
        truth = np.exp(-grid ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    else:
        series, vol = simulate_scenario(scenario.with_seeds(seed_base, seed_base + 1))
        y, truth = series.log_squared, vol.truth(grid)
    return {"y": y, "grid": grid, "truth": truth, "bandwidth": default_bandwidth(n, 1.0)}


def run_mc_workload(args, spawner: Spawner, checker: Checker) -> dict:
    import worker
    bases = derived_seeds(args.seed, args.workload, MC_SESSIONS)
    samples = {"setup_s": [], "round_s": [], "rss_mb": [], "kernel": [], "wavelet": [],
               "ppe": [], "timed_s": [], "timed_reps": [], "mise": []}
    attempted = failed = 0
    spans, walls = [], []
    if args.trace:
        plan = [(bases[0], 0, ["--rounds", str(TRACE_MC_ROUNDS)]),
                (bases[0], 1, ["--rounds", str(TRACE_MC_ROUNDS)])]
    else:
        per_session = args.seconds / MC_SESSIONS
        plan = [(base, 0, ["--seconds", repr(per_session)]) for base in bases]
    for i, (base, trace, extra) in enumerate(plan):
        if time.monotonic() + 30.0 > spawner.deadline and i > 0:
            break
        report_path = spawner.work / f"mc{i}.json"
        r = spawner.run([str(BENCH / "worker.py"), "mc", "--trace", str(trace),
                         "--report", report_path.name, "--seed-base", str(base), *extra],
                        f"mc{i}.err")
        samples["rss_mb"].append(r["rss_mb"])
        walls.append(r["wall_s"])
        if r["exit_code"] != 0 or not report_path.exists():
            attempted += 1
            failed += 1
            checker.problems.append(f"mc session {i}: exit code {r['exit_code']}")
            continue
        report = json.loads(report_path.read_text())
        spans.append(report["spans"])
        samples["setup_s"].append(report["setup_done"] - r["spawned"])
        rounds: dict[int, float] = {}
        for rep in report["reps"]:
            attempted += 1
            if not checker.replication(rep):
                failed += 1
            if rep["round"] > 0:
                samples[rep["estimator"]].append(rep["seconds"])
                samples["mise"].append(rep["mise"])
                rounds[rep["round"]] = rounds.get(rep["round"], 0.0) + rep["seconds"]
        samples["round_s"] += list(rounds.values())
        samples["timed_s"].append(report["timed_s"])
        samples["timed_reps"].append(sum(1 for rep in report["reps"] if rep["round"] > 0))
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "rounds": len(samples["round_s"]), "spans": spans,
            "overhead_s": walls[1] - walls[0] if args.trace and len(walls) == 2 else None,
            "input_sizes": {"n": worker.MC_N, "seed_bases": bases}}


# --------------------------------------------------------------------------- metrics

def end_to_end(workload: str, res: dict) -> tuple[dict, list[str]]:
    """The metrics BENCHMARK.json gates, and a line for every metric, gated or not."""
    s = res["samples"]
    metrics = {
        "setup_s": {"value": median(s["setup_s"]), "unit": "s"},
        "round_s": {"value": median(s["round_s"]), "unit": "s"},
        "peak_rss_mb": {"value": max(s["rss_mb"], default=0.0), "unit": "MiB"},
    }
    lines = [f"  setup_s       {metrics['setup_s']['value']:10.4f} s     lower is better  "
             f"({describe(s['setup_s'])})",
             f"  round_s       {metrics['round_s']['value']:10.4f} s     lower is better  "
             f"({describe(s['round_s'])})",
             f"  peak_rss_mb   {metrics['peak_rss_mb']['value']:10.1f} MiB   lower is better  "
             f"(max of {len(s['rss_mb'])} processes)"]
    if workload.startswith("cli-"):
        for name in ("kernel", "regression", "wavelet", "ppe"):
            if name in s:
                lines.append(f"  {name + '_s':<13} {median(s[name]):10.4f} s     lower is better"
                             f"  ({describe(s[name])}; spawn to exit)")
    else:
        reps_per_s = sum(s["timed_reps"]) / sum(s["timed_s"]) if s["timed_s"] else float("nan")
        lines.append(f"  reps_per_s    {reps_per_s:10.4f} 1/s   higher is better "
                     f"({sum(s['timed_reps'])} timed replications)")
        mise_mean = statistics.fmean(s["mise"]) if s["mise"] else float("nan")
        lines.append(f"  mise_mean     {mise_mean:10.5f} -     lower is better  "
                     f"(mean ISE over {len(s['mise'])} timed replications)")
        for name in ("kernel", "wavelet", "ppe"):
            if s[name]:
                lines.append(f"  {name + '_rep_s':<13} {median(s[name]):10.4f} s     "
                             f"lower is better  ({describe(s[name])})")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    lines.append(f"  failed_frac   {frac:10.4f} -     lower is better  "
                 f"({res['failed']} of {res['attempted']} operations)")
    return metrics, lines


def per_layer(span_lists: list[list[dict]], overhead: float | None) -> dict[str, float]:
    """Self time of each span, summed by name, plus the counts recorded at the boundaries."""
    out: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0.0) + value

    for spans in span_lists:
        child_time = [0.0] * len(spans)
        has_build = [False] * len(spans)
        for sp in spans:
            if sp["parent"] is not None:
                child_time[sp["parent"]] += sp["end"] - sp["start"]
                if sp["name"] == "tables.fourier_table":
                    has_build[sp["parent"]] = True
        for i, sp in enumerate(spans):
            dur = sp["end"] - sp["start"]
            name = sp["name"]
            if name == "tables.lookup":
                add("tables.build_cold_s" if has_build[i] else "tables.build_warm_s", dur)
                add("tables.cold_builds" if has_build[i] else "tables.warm_lookups", 1)
                continue
            if name == "tables.fourier_table":
                add("tables.table_points", sp["counts"]["table_points"])
                rss = sp["counts"]["rss_mb_after_build"]
                out["tables.rss_mb_after_build"] = max(out.get("tables.rss_mb_after_build", 0.0), rss)
                continue
            self_name = {"cli.run_pipeline": "cli.unaccounted_s"}.get(name, name + "_s")
            add(self_name, dur - child_time[i])
            for key, value in sp["counts"].items():
                layer = name.split(".")[0]
                add(f"{layer}.{key}", value)
    out["tables.table_mb"] = out.get("tables.table_points", 0.0) * 8 / 2 ** 20
    out["trace.overhead_s"] = overhead if overhead is not None else 0.0
    return out


# --------------------------------------------------------------------------- main

def load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="voldens benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "voldens" / "cli.py").is_file():
        return fail(f"no voldens sources under {SRC}; run from a source checkout")
    bench_spec = load_json(ROOT / "BENCHMARK.json")
    baseline = load_json(BENCH / "baseline.json")
    if not bench_spec or "tolerance" not in baseline:
        return fail("BENCHMARK.json or perfbench/baseline.json is missing")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import checks

    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    record = {"provenance": provenance(args.seed, args.workload), "args": vars(args)}
    references = load_json(BENCH / "references.json").get(args.workload, {}).get(str(args.seed), {})
    checker = Checker(checks.Tolerance(baseline["tolerance"]), references)
    spawner = Spawner(work, started + RUN_DEADLINE_S)
    try:
        runner = run_mc_workload if args.workload.startswith("mc-") else run_cli_workload
        res = runner(args, spawner, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = res["failed"] == 0 and not checker.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['rounds']} rounds, {res['attempted']} operations, {res['failed']} failed, "
          f"{checker.reference_hits} compared with recorded references")
    for problem in checker.problems[:20]:
        print(f"  CHECK FAILED {problem}")
    if args.trace:
        layer = per_layer(res["spans"], res["overhead_s"])
        metrics = {}
        for m in bench_spec["per_layer"]:
            value = layer.get(m["name"], 0.0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<32} {value:14.6g} {m['unit']}")
    else:
        metrics, lines = end_to_end(args.workload, res)
        print("\n".join(lines))
    print(f"  provenance {json.dumps(record['provenance'], sort_keys=True)}")
    record.update({"result": {"correct": correct, "attempted": res["attempted"],
                              "failed": res["failed"], "metrics": metrics},
                   "input_sizes": res["input_sizes"],
                   "samples": res["samples"], "check_problems": checker.problems,
                   "digests": checker.digests, "spans": res["spans"],
                   "wall_s": time.monotonic() - started})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (RUNS / name).write_text(json.dumps(record, default=float))
    print(f"  details {(RUNS / name).relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
