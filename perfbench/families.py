"""``families``: the paper's explicit constructions on a fixed size ladder.

Few but large inputs: folding (``from_generators`` through ``lm_graph``),
``pullback``, ``transfer`` and ``homology_projection`` do almost all the
work; ``parse_word`` and the CLI do none.  The seed only shuffles the
rung order of each pass; the sizes are fixed so that runs with
different seeds measure the same work.
"""

from __future__ import annotations

import random
from collections import deque
from math import gcd
from time import perf_counter

from common import Op, Workload, derive_seed

# About 26 operations per run (two passes of 13 rungs): p50 is the
# highest percentile with ten samples beyond it.  An odd rung count puts
# the median inside one rung's samples, not between two rungs.
TAIL_PERCENTILE = 50.0

BERGMAN_M = (51, 101, 201)
BERGMAN_N = (2, 3)
GAMMA_M = (100, 200, 400)
HM_M = (101, 201, 301, 401)


def gamma_pullback_index(m: int) -> int:
    """Orbit size of (v_0, v_0) under the product of the gamma(m) and
    gamma(m+1) permutation actions, counted pair by pair."""
    sizes = (m, m + 1)

    def step(pair, label):
        if label == 1:
            return tuple((s - p) % s for p, s in zip(pair, sizes))
        return tuple((p + 1) % s for p, s in zip(pair, sizes))

    seen = {(0, 0)}
    queue = deque(seen)
    while queue:
        pair = queue.popleft()
        for label in (1, 2):
            other = step(pair, label)
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return len(seen)


def wk_square_symbols(m: int) -> tuple[int, ...]:
    """The paper's rewrite of wk^2 over x, t_1..t_{m-1}, y^m (m = 2k+1):
    x^2 t_{m-1}^-1 t_{m-2} .. t_2^-1 t_1 t_{m-1} t_{m-2}^-1 .. t_2 t_1^-1,
    with symbol 1 for x and j+1 for t_j."""
    falling = range(m - 1, 0, -1)
    first = [(j + 1) * (1 if j % 2 else -1) for j in falling]
    second = [(j + 1) * (-1 if j % 2 else 1) for j in falling]
    return (1, 1, *first, *second)


def _bergman_op(fgr, n: int, m: int) -> Op:
    def run():
        return fgr.retracts.bergman_counterexample(n, m, n - 1)

    def check(report) -> str | None:
        got = (
            report.rank_h,
            report.rank_r,
            report.rank_intersection,
            report.smallest_power,
            report.verdict,
        )
        # The report gives a smallest power only for a cyclic retract.
        want = (m, n - 1, 1, 2 if n == 2 else None, "no")
        return None if got == want else f"bergman n={n} m={m}: {got} != {want}"

    return Op(f"bergman n={n} m={m}", run, check)


def _pullback_op(fgr, m: int, references: dict) -> Op:
    def run():
        c = fgr.constructions
        return fgr.stallings.pullback(c.gamma_graph(m), c.gamma_graph(m + 1))

    def check(graph) -> str | None:
        if m not in references:
            references[m] = gamma_pullback_index(m)
        index = references[m]
        rank = len(graph.edges) - graph.vertex_count + 1
        want = (index, index + 1)
        got = (graph.vertex_count, rank)
        return None if got == want else f"gamma pullback m={m}: (V, rank) {got} != {want}"

    return Op(f"pullback m={m}", run, check)


def _hm_op(fgr, m: int) -> Op:
    op = Op(f"hm m={m}", None, None)

    def run():
        graph, tree = fgr.constructions.hm_graph(m)
        w = fgr.constructions.wk_word((m - 1) // 2)
        t0 = perf_counter()
        image = fgr.abelian.transfer(graph, tree, w)
        t1 = perf_counter()
        matrix = fgr.abelian.homology_projection(graph, tree)
        t2 = perf_counter()
        projected = fgr.abelian.apply_projection(matrix, image)
        t3 = perf_counter()
        rewrite = fgr.stallings.rewrite_in_basis(graph, tree, w * w)
        t4 = perf_counter()
        op.steps.update(
            transfer=t1 - t0, homology_projection=t2 - t1, rewrite_in_basis=t4 - t3
        )
        return image, projected, rewrite

    def check(result) -> str | None:
        image, projected, rewrite = result
        errors = []
        # wk = x[x,y]^k has exponent sums (1, 0).
        if tuple(projected.entries) != (1, 0):
            errors.append(f"projected transfer {projected.entries} != (1, 0)")
        if gcd(*image.entries) != 1:
            errors.append("transfer of a visible word is not visible")
        if tuple(rewrite.letters) != wk_square_symbols(m):
            errors.append("wk^2 rewrite differs from the closed form")
        return f"hm m={m}: " + "; ".join(errors) if errors else None

    op.run, op.check = run, check
    return op


def build(fgr, seed: int, workdir) -> Workload:
    references: dict[int, int] = {}
    ladder = (
        [_bergman_op(fgr, n, m) for n in BERGMAN_N for m in BERGMAN_M]
        + [_pullback_op(fgr, m, references) for m in GAMMA_M]
        + [_hm_op(fgr, m) for m in HM_M]
    )
    warmup = [
        _bergman_op(fgr, n, BERGMAN_M[0]) for n in BERGMAN_N
    ] + [_pullback_op(fgr, GAMMA_M[0], references), _hm_op(fgr, HM_M[0])]

    def pass_ops(index: int) -> list[Op]:
        order = list(ladder)
        random.Random(derive_seed(seed, "families", index)).shuffle(order)
        return order

    return Workload(warmup, pass_ops)


def rung_sizes(kind: str) -> tuple[str, int]:
    """('bergman n=2', 101) from 'bergman n=2 m=101'."""
    family, _, m = kind.rpartition(" m=")
    return family, int(m)
