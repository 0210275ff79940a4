"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime (run with ``pytest -s`` to see them)."""

import time
from contextlib import contextmanager

from fgr import (
    Permutation,
    SpanningTree,
    basis,
    bergman_counterexample,
    canonicalize,
    contains,
    from_generators,
    intersection_report,
    parse_word,
    rewrite_in_basis,
    run_suite,
    schreier_graph,
)
from fgr.abelian import abelianize_in_subgroup
from fgr.constructions import gamma_graph, hm_graph, wk_square_rewrite, wk_word
from fgr.retracts import cyclic_retract


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {number:2d}: {description} ({elapsed:.2f}s, limit {limit_seconds}s)"
    if elapsed < limit_seconds:
        print(f"PASS {line}")
    else:
        print(f"FAIL {line} [over time limit]")
        raise AssertionError(f"criterion {number} took {elapsed:.2f}s > {limit_seconds}s")


def test_criterion_01_simple_counterexample_exact():
    with criterion(1, "rank-3 subgroup vs cyclic retract, exact data", 1):
        K = from_generators(2, [parse_word(t, 2) for t in ("a", "baBB", "bbaB")])
        tree = SpanningTree(K, [(0, 1, 2), (1, 2, 2)])
        w1 = wk_word(1)
        symbols = rewrite_in_basis(K, tree, w1**2)
        assert symbols.letters == (1, 1, -3, 2, 3, -2)
        vector = abelianize_in_subgroup(K, tree, w1**2)
        assert vector.entries == (2, 0, 0)
        assert vector.coordinate_gcd() == 2
        report = intersection_report(K, cyclic_retract(w1))
        assert report.rank_intersection == 1
        assert report.smallest_power == 2
        assert report.intersection_visible_in_h is False
        assert report.verdict == "no"
        from fgr import pullback

        generator = basis(pullback(K, cyclic_retract(w1).graph))[0]
        assert generator in (w1**2, (w1**2).inverse())


def test_criterion_02_square_rewrites_odd_m():
    with criterion(2, "closed-form rewrites of wk^2 for m in {3,5,7,9,11}", 1):
        for m in (3, 5, 7, 9, 11):
            k = (m - 1) // 2
            graph, tree = hm_graph(m)
            assert not contains(graph, wk_word(k))
            assert contains(graph, wk_word(k) ** 2)
            assert rewrite_in_basis(graph, tree, wk_word(k) ** 2) == wk_square_rewrite(m)


def test_criterion_03_membership_divisibility_law():
    # the m = 1 cover is excluded by the m >= 2 precondition, leaving
    # the 132 cases with 2 <= m <= 12
    with criterion(3, "membership of wk matches m | 2k (132 cases)", 1):
        for m in range(2, 13):
            graph, _ = hm_graph(m)
            for k in range(1, 13):
                assert contains(graph, wk_word(k)) == ((2 * k) % m == 0)


def test_criterion_04_schreier_cross_check():
    with criterion(4, "coset-action graphs match the covers for m <= 50", 5):
        for m in range(2, 51):
            # independent enumeration of the dihedral group of order 2m
            # as pairs (reflection, rotation), multiplied directly
            elements = [(r, a) for r in (0, 1) for a in range(m)]

            def multiply(x, y):
                return (x[0] ^ y[0], (y[1] + x[1] * (-1 if y[0] else 1)) % m)

            reflection_subgroup = {(0, 0), (1, 0)}
            coset_ids = {}
            for g in elements:
                key = frozenset(multiply(h, g) for h in reflection_subgroup)
                coset_ids.setdefault(key, len(coset_ids))
            assert len(coset_ids) == m

            def coset_of(g):
                return coset_ids[frozenset(multiply(h, g) for h in reflection_subgroup)]

            reps = {}
            for g in elements:
                reps.setdefault(coset_of(g), g)
            t, s = (1, 0), (0, 1)
            perms = [
                Permutation(tuple(coset_of(multiply(reps[i], x)) for i in range(m)))
                for x in (t, s)
            ]
            cover = schreier_graph(2, perms, coset_of((0, 0)))
            assert canonicalize(cover) == canonicalize(gamma_graph(m))


def test_criterion_05_transfer_suite():
    with criterion(5, "transfer visibility and commuting diagram, 1000 trials", 30):
        report = run_suite("transfer-visibility", 1000, 42)
        assert report.passes == 1000, report.failures


def test_criterion_06_single_cycle_case():
    with criterion(6, "single-cycle actions: transfer is the power's class", 30):
        report = run_suite("single-cycle-power", 200, 2026)
        assert report.passes == 200, report.failures


def test_criterion_07_normal_subgroup_case():
    with criterion(7, "normal finite-index subgroups keep powers visible", 30):
        report = run_suite("normal-power", 200, 11)
        assert report.passes == 200, report.failures


def test_criterion_08_rank2_intersections_are_retracts():
    with criterion(8, "rank-2 subgroups: intersection verdict yes, 500 trials", 60):
        report = run_suite("rank2-intersection", 500, 13)
        assert report.passes == 500, report.failures


def test_criterion_09_rank_bound():
    with criterion(9, "rank(H cap R) <= rank(H) for rank <= 3, 500 trials", 60):
        report = run_suite("rank-bound-rk3", 500, 7)
        assert report.passes == 500, report.failures


def test_criterion_10_counterexample_grid():
    with criterion(10, "counterexample grid over n, m, k", 10):
        for n in (2, 3, 4):
            for m in range(3, 10):
                for k in range(1, n):
                    report = bergman_counterexample(n, m, k)
                    assert report.rank_h == m
                    assert report.rank_r == k
                    assert report.verdict == "no"


def test_criterion_11_hanna_neumann_bound():
    with criterion(11, "Hanna Neumann bound on 1000 random pullbacks", 60):
        report = run_suite("hanna-neumann", 1000, 1)
        assert report.passes == 1000, report.failures


def test_criterion_12_schreier_formula():
    with criterion(12, "Schreier formula on 200 random finite-index graphs", 10):
        report = run_suite("schreier-formula", 200, 17)
        assert report.passes == 200, report.failures
