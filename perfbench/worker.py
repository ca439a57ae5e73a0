"""Child process of the benchmark: one traced CLI run, or one Monte Carlo session.

    python3 perfbench/worker.py cli --trace 1 --report R.json -- <voldens CLI args>
    python3 perfbench/worker.py mc --trace 0 --report R.json --seed-base B (--seconds T | --rounds K)

`src/` must be on PYTHONPATH.  The CLI form runs `voldens.cli.main` in this
process; with `--trace 1` it first wraps the public functions of each
module that the pipeline calls, so every call becomes a span.  The Monte
Carlo form runs `voldens.metrics.run_experiment` one replication at a time:
a warm-up replication per estimator, then rounds of the fixed estimator mix
for `--seconds` (or exactly `--rounds`).

Spans are kept in memory and written to the report when the process ends,
together with time stamps on the CLOCK_MONOTONIC clock that the parent
shares.  Nothing here is imported by the program.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

# The fixed Monte Carlo mix: (estimator, scenario preset).  n is the same
# for all three; kernel uses the theory bandwidth with gamma = 1, wavelet
# and ppe run at their defaults (L = K_n = n).
MC_N = 2600
MC_MIX = (("kernel", "regime-switch"), ("wavelet", "pure-convolution"),
          ("ppe", "pure-convolution"))
MC_METRICS = ("mise", "mode_count", "normal_fit_mean")


def current_rss_mb() -> float:
    """Resident set size now, from /proc when it is readable, else the peak."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans (name, start, end, parent, operation id) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op, "start": time.monotonic(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        sig = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec["counts"].update(count(bound.arguments, result))
                return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def patch_property(self, cls, attr: str, name: str):
        prop = getattr(cls, attr)
        setattr(cls, attr, property(self.wrap(prop.fget, name)))


def _size(x) -> int:
    return int(getattr(x, "size", len(x)))


def install_spans(tracer: Tracer) -> None:
    """Wrap the calls at every layer boundary of the pipeline and the harness."""
    import voldens.cli as cli
    import voldens.kerneldeconv as kd
    import voldens.metrics as mt
    import voldens.ppe as ppe
    import voldens.svsim as sv
    import voldens.volreg as vr
    import voldens.waveletdeconv as wd

    def table_built(args, table):
        return {"table_points": _size(table.raw()), "rss_mb_after_build": current_rss_mb()}

    for mod in (kd, wd, ppe):
        tracer.patch(mod, "fourier_table", "tables.fourier_table", table_built)
    for mod, attr in ((kd, "deconv_kernel_table"), (vr, "deconv_kernel_table"),
                      (wd, "um_table"), (wd, "scaling_table"), (ppe, "u_zero_table")):
        tracer.patch(mod, attr, "tables.lookup")

    def observations(args, result):
        series = result[0] if isinstance(result, tuple) else None
        return {"observations": series.n if series is not None else _size(result)}

    tracer.patch(cli, "simulate_scenario", "svsim.simulate", observations)
    tracer.patch(mt, "simulate_scenario", "svsim.simulate", observations)
    tracer.patch(mt.PureConvolution, "draw", "svsim.simulate", observations)
    tracer.patch_property(sv.ObservationSeries, "log_squared", "svsim.transform")
    tracer.patch(cli, "ingest_prices", "cli.ingest",
                 lambda a, r: {"ingest_rows": _size(r.log_prices)})

    def kernel_evals(args, report):
        return {"kernel_evals": report.diagnostics["n"] * _size(report.density.x)}

    tracer.patch(cli, "estimate_density", "kerneldeconv.estimate", kernel_evals)
    tracer.patch(mt, "estimate_density", "kerneldeconv.estimate", kernel_evals)
    tracer.patch(cli, "regression_estimate", "volreg.estimate", lambda a, r: {
        "kernel_evals": 2 * r.diagnostics["n_pairs"] * _size(r.x),
        "masked_points": int(r.mask.sum())})
    tracer.patch(wd, "wavelet_coefficients", "waveletdeconv.coeff",
                 lambda a, r: {"coefficients": _size(r)})
    tracer.patch(wd, "render_scaling_expansion", "waveletdeconv.render",
                 lambda a, r: {"render_evals": _size(a["coeffs"]) * _size(a["grid"])})
    tracer.patch(ppe, "ppe_coefficients", "ppe.coeff",
                 lambda a, r: {"levels": 1, "coefficients": _size(r)})
    tracer.patch(ppe, "render_sinc_expansion", "ppe.render",
                 lambda a, r: {"render_evals": _size(a["coeffs"]) * _size(a["grid"])})
    tracer.patch(mt, "mode_count", "metrics.shape")
    tracer.patch(mt, "normal_fit", "metrics.shape")
    tracer.patch(mt, "mise", "metrics.mise")
    tracer.patch(cli, "run_pipeline", "cli.run_pipeline")


def run_cli(args, tracer: Tracer | None) -> tuple[int, dict]:
    t0 = time.monotonic()
    import voldens.cli as cli
    report = {"import_s": time.monotonic() - t0}
    if tracer is not None:
        tracer.spans.append({"name": "cli.import", "op": 0, "start": t0,
                             "end": t0 + report["import_s"], "parent": None, "counts": {}})
        install_spans(tracer)
        tracer.op = 1
    code = cli.main(args.cli_args)
    return code, report


def run_mc(args, tracer: Tracer | None) -> tuple[int, dict]:
    t0 = time.monotonic()
    import voldens.metrics as mt
    from voldens.kerneldeconv import default_bandwidth
    import_s = time.monotonic() - t0
    if tracer is not None:
        install_spans(tracer)

    scenarios = {name: mt.scenario_preset(name, MC_N) for _, name in MC_MIX}
    configs = {"kernel": {"bandwidth": default_bandwidth(MC_N, 1.0)},
               "wavelet": {}, "ppe": {}}
    reps = []

    def replicate(round_no: int, estimator: str, scenario: str) -> None:
        seed_base = args.seed_base + 2 * round_no
        spec = mt.ExperimentSpec(scenarios[scenario], estimator, configs[estimator],
                                 replications=1, seed_base=seed_base, metrics=MC_METRICS)
        if tracer is not None:
            tracer.op += 1
        start = time.monotonic()
        if tracer is not None:
            with tracer.span("metrics.replication"):
                row = mt.run_experiment(spec).rows[0]
        else:
            row = mt.run_experiment(spec).rows[0]
        reps.append({"round": round_no, "estimator": estimator, "scenario": scenario,
                     "seed_base": seed_base, "seconds": time.monotonic() - start,
                     **{k: row[k] for k in MC_METRICS}})

    for estimator, scenario in MC_MIX:  # round 0 is the warm-up
        replicate(0, estimator, scenario)
    setup_done = time.monotonic()
    round_no = 0
    while (round_no < args.rounds if args.rounds is not None
           else time.monotonic() - setup_done < args.seconds):
        round_no += 1
        for estimator, scenario in MC_MIX:
            replicate(round_no, estimator, scenario)
    return 0, {"import_s": import_s, "setup_done": setup_done,
               "timed_s": time.monotonic() - setup_done, "rounds": round_no, "reps": reps}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = p.add_subparsers(dest="mode", required=True)
    cli_mode, mc_mode = modes.add_parser("cli"), modes.add_parser("mc")
    for mode in (cli_mode, mc_mode):
        mode.add_argument("--trace", type=int, choices=(0, 1), required=True)
        mode.add_argument("--report", required=True, help="JSON file written at exit")
    mc_mode.add_argument("--seed-base", type=int, required=True)
    length = mc_mode.add_mutually_exclusive_group(required=True)
    length.add_argument("--seconds", type=float, help="timed rounds for this long")
    length.add_argument("--rounds", type=int, help="exactly this many timed rounds")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = p.parse_args(argv[:split])
    args.cli_args = argv[split + 1:]
    tracer = Tracer() if args.trace else None
    code, report = (run_cli if args.mode == "cli" else run_mc)(args, tracer)
    report["spans"] = tracer.spans if tracer is not None else []
    report["exit_code"] = code
    with open(args.report, "w") as fh:
        json.dump(report, fh, allow_nan=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
