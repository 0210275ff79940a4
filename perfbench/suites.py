"""``suites``: the seven property suites, one trial per operation.

Thousands of tiny instances (index <= 12, words <= 40 letters), so
per-call fixed costs dominate: Word and CoreGraph validation, small
folds, ``schreier_graph`` and the rejection samplers.  An optimisation
aimed at large ``m`` should predict no change here; one that adds
per-graph overhead shows up here as a loss.
"""

from __future__ import annotations

import random

from common import Op, Workload, derive_seed

# About 50,000 operations per run leave about 50 beyond p99.9, but
# there it is set by a handful of rare slow trials and moved by 40 %
# between seeds; p99 (about 500 beyond) is the highest steady one.
TAIL_PERCENTILE = 99.0

# Trials per pass, in the ratio of the acceptance trial counts
# (1000 / 200 / 200 / 500 / 500 / 1000 / 200).
MIX = {
    "transfer-visibility": 10,
    "single-cycle-power": 2,
    "normal-power": 2,
    "rank2-intersection": 5,
    "rank-bound-rk3": 5,
    "hanna-neumann": 10,
    "schreier-formula": 2,
}


def _trial_op(fgr, name: str, trial_seed: int) -> Op:
    def run():
        return fgr.retracts.run_suite(name, 1, trial_seed)

    def check(report) -> str | None:
        if report.trials == 1 and report.passes == 1 and not report.failures:
            return None
        return f"suite {name} seed {trial_seed} failed: {report.to_json()}"

    return Op(name, run, check)


def build(fgr, seed: int, workdir) -> Workload:
    warmup = [_trial_op(fgr, name, derive_seed(seed, "warmup", name)) for name in MIX]

    def pass_ops(index: int) -> list[Op]:
        ops = [
            _trial_op(fgr, name, derive_seed(seed, index, name, j))
            for name, count in MIX.items()
            for j in range(count)
        ]
        random.Random(derive_seed(seed, "suites", index)).shuffle(ops)
        return ops

    return Workload(warmup, pass_ops)
