"""The workload process: one workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports fgr from
the checkout's ``src``, builds the workload's fixed inputs, warms up on
the smallest inputs (with every output check on), and then runs whole
passes of the operation stream in a closed loop until ``--seconds``
have elapsed.  The last line of stdout is one JSON object for run.py.

Modes: ``setup`` stops where the first timed operation would start and
reports the set-up time; ``smoke`` runs only the warm-up; ``measure``
runs untraced; ``trace`` runs every pass twice, untraced and with the
tracer installed, so the overhead ratio compares identical work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from array import array
from pathlib import Path
from statistics import median

import cliqueries
import families
import suites
from stats import growth_exponent, percentile, tail

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {"families": families, "suites": suites, "cli-queries": cliqueries}
# The shared machine this benchmark was tuned on runs Python up to about
# 50 % slower for minutes at a time.  Timing metrics are rescaled to a
# machine on which calibration_kernel() takes this long (its median
# there), which cancels much of that drift; raw figures stay in the
# record.
REFERENCE_CALIBRATION_S = 0.0025


def import_fgr():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fgr
    import fgr.cli  # noqa: F401  (the package does not import its CLI)

    if Path(fgr.__file__).resolve().parent != (src / "fgr").resolve():
        raise SystemExit(f"perfbench: imported fgr from {fgr.__file__}, not {src}")
    return fgr


def run_op(op, tracer=None, op_id: int = 0):
    """Time one op; returns (seconds, error message or None)."""
    if tracer is not None:
        tracer.op_id = op_id
    op.steps.clear()
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an unexpected raise is a failed op
        return time.perf_counter() - start, f"{op.kind}: raised {exc!r}"
    seconds = time.perf_counter() - start
    try:
        error = op.check(result)
    except Exception as exc:  # a malformed output fails its check
        error = f"{op.kind}: check raised {exc!r}"
    return seconds, error


def calibration_kernel() -> None:
    """A fixed stdlib-only load: integer arithmetic, tuple and dict churn."""
    table = {}
    for j in range(4000):
        table[(j, j & 7)] = [j, (j, j * j)]
    sorted(table, key=lambda key: -key[0])


class Calibrator:
    """Times the calibration kernel between operations, at most every
    INTERVAL seconds, to track how fast the machine runs Python now."""

    INTERVAL = 0.2

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = 0.0

    def maybe(self) -> None:
        now = time.perf_counter()
        if now - self.last >= self.INTERVAL:
            calibration_kernel()
            self.last = time.perf_counter()
            self.samples.append(self.last - now)


class Tally:
    """Per-operation timings of one side of a run.

    Kept in flat arrays so that the benchmark's own bookkeeping barely
    moves the process's peak RSS, however many operations complete.
    """

    def __init__(self, calibrate: bool = False) -> None:
        self.calibrator = Calibrator() if calibrate else None
        self.times = array("d")
        self.pass_rates: list[float] = []
        self.by_kind: dict[str, array] = {}
        self.steps: dict[str, dict[str, list[float]]] = {}
        self.failures: list[str] = []

    def run_pass(self, ops, tracer=None, first_id: int = 0) -> None:
        total = 0.0
        for op_id, op in enumerate(ops, start=first_id):
            if self.calibrator is not None:
                self.calibrator.maybe()
            seconds, error = run_op(op, tracer, op_id)
            total += seconds
            self.times.append(seconds)
            self.by_kind.setdefault(op.kind, array("d")).append(seconds)
            for step, t in op.steps.items():
                self.steps.setdefault(op.kind, {}).setdefault(step, []).append(t)
            if error:
                self.failures.append(error)
        self.pass_rates.append(len(ops) / total)

    def summary(self, tail_percentile: float) -> dict:
        """End-to-end figures of the run.

        Throughput is the median over passes of operations per second of
        operation time, which a stall in one pass does not move.  The
        calibrated figures rescale times to a machine on which the
        calibration kernel takes REFERENCE_CALIBRATION_S.
        """
        times = list(self.times)
        tail_p, tail_v, tail_n = tail(times, tail_percentile)
        calibration = median(self.calibrator.samples)
        scale = REFERENCE_CALIBRATION_S / calibration
        raw = {
            "ops_per_s": median(self.pass_rates),
            "op_p50_ms": percentile(times, 50) * 1e3,
            "op_tail_ms": tail_v * 1e3,
        }
        return {
            "ops": len(times),
            "passes": len(self.pass_rates),
            "op_seconds": sum(times),
            "ops_per_s_all_passes": len(times) / sum(times),
            "tail_percentile": tail_p,
            "tail_samples_beyond": tail_n,
            "calibration_s": calibration,
            "raw": raw,
            "calibrated": {
                "ops_per_s": raw["ops_per_s"] / scale,
                "op_p50_ms": raw["op_p50_ms"] * scale,
                "op_tail_ms": raw["op_tail_ms"] * scale,
            },
            "kinds": {
                kind: {"count": len(v), "median_ms": median(v) * 1e3}
                for kind, v in sorted(self.by_kind.items())
            },
        }


def run_passes(workload, seconds: float, tracer=None) -> tuple[Tally, Tally]:
    """Closed loop over whole passes until ``seconds`` have elapsed.

    With a tracer, every pass runs twice, untraced and traced, in
    alternating order so that neither side always meets a cold process.
    Returns the untraced and the traced tallies.
    """
    untraced, traced = Tally(calibrate=True), Tally()
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        ops = workload.pass_ops(index)
        if tracer is None:
            untraced.run_pass(ops)
        else:
            for with_trace in (False, True) if index % 2 == 0 else (True, False):
                if not with_trace:
                    untraced.run_pass(ops)
                    continue
                tracer.install()
                try:
                    traced.run_pass(ops, tracer, index * len(ops))
                finally:
                    tracer.uninstall()
        index += 1
    return untraced, traced


def ladder_report(tally: Tally, tracer=None) -> dict:
    """Per-rung median times and growth exponents on the families ladder."""
    series: dict[str, list[tuple[int, float]]] = {}
    rungs = {}
    for kind in sorted(tally.by_kind, key=families.rung_sizes):
        family, m = families.rung_sizes(kind)
        times = tally.by_kind[kind]
        series.setdefault(family, []).append((m, median(times)))
        steps = {step: median(t) for step, t in tally.steps.get(kind, {}).items()}
        for step, t in steps.items():
            series.setdefault(f"{family} {step}", []).append((m, t))
        rungs[kind] = {
            "family": family,
            "m": m,
            "samples": len(times),
            "median_s": median(times),
            "steps_median_s": steps,
        }
    if tracer is not None:
        by_m: dict[int, list[float]] = {}
        for m, seconds in tracer.series("constructions.lm_graph"):
            by_m.setdefault(m, []).append(seconds)
        series["lm_graph (traced)"] = [(m, median(t)) for m, t in sorted(by_m.items())]
    return {
        "rungs": rungs,
        "series": {
            name: {
                "points": [{"m": m, "median_s": t} for m, t in points],
                "growth_exp": growth_exponent(points),
            }
            for name, points in sorted(series.items())
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "smoke", "measure", "trace"), required=True)
    parser.add_argument("--launched-ns", type=int, required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    fgr = import_fgr()
    workdir = ROOT / "perfbench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        module = WORKLOADS[args.workload]
        workload = module.build(fgr, args.seed, workdir)
        warm = [run_op(op)[1] for op in workload.warmup]
        # CLOCK_MONOTONIC is system-wide, so it compares with run.py's launch time.
        setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.launched_ns) / 1e9
        warm_failures = [e for e in warm if e]
        out = {
            "setup_s": setup_s,
            "warmup_ops": len(warm),
            "warmup_failures": warm_failures,
        }
        if args.mode in ("measure", "trace"):
            tracer = None
            if args.mode == "trace":
                from tracer import Tracer

                tracer = Tracer(fgr)
            untraced, traced = run_passes(workload, args.seconds, tracer)
            failures = warm_failures + untraced.failures + traced.failures
            out.update(
                attempted=len(untraced.times) + len(traced.times) + len(warm),
                failed=len(failures),
                failures=failures[:20],
                untraced=untraced.summary(module.TAIL_PERCENTILE),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
            if tracer is not None:
                traced_seconds = sum(traced.times)
                out["traced"] = {
                    "op_seconds": traced_seconds,
                    "overhead_ratio": traced_seconds / out["untraced"]["op_seconds"],
                    "layers": tracer.layers(),
                }
                if args.spans:
                    out["traced"]["spans"] = tracer.write_spans(args.spans)
            if args.workload == "families":
                out["ladder"] = ladder_report(untraced, tracer)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
