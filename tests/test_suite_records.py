"""What a failing suite records, and how long each sampler retries.

No suite fails on the library, so each failure-record test forces one
to: it replaces a name in ``fgr.retracts`` that only the trial's verdict
reads, which leaves every draw where it was.  The report's digest then
pins the record's keys and values.  The budget tests make a
sampler's acceptance impossible and count the draws it makes before it
gives up.
"""

import dataclasses
import hashlib
import json
import random

import pytest

import fgr.retracts
from fgr import Word, from_generators, run_suite

SEED = 20190206


def rank_ten(a, b):
    """Stands in for ``pullback``: a rank-10 subgroup, above every bound."""
    return from_generators(a.rank, [Word(a.rank, (2,) * i + (1,) + (-2,) * i) for i in range(10)])


def rejecting(real):
    """Stands in for ``intersection_report``: the real report, verdict "no"."""
    return lambda subgroup, retract: dataclasses.replace(real(subgroup, retract), verdict="no")


# suite -> (name replaced in fgr.retracts, its stand-in, the record's keys, report digest)
FORCED = {
    "transfer-visibility": (
        "exponent_sums",
        lambda real: lambda w: (),
        {"trial", "graph", "word"},
        "c627942b52d81d4ab7e6b5fd2939880053d1db7d7481a93f1f31db68b1ce64f2",
    ),
    "single-cycle-power": (
        "is_visible_in_subgroup",
        lambda real: lambda graph, tree, w: False,
        {"trial", "graph", "word"},
        "3f17e5d13fd1aec5f3e2f9cfbb4d0219fec8a7c1faa5911dd24054b482e1f7aa",
    ),
    "normal-power": (
        "_visible_member",
        lambda real: lambda graph, w: False,
        {"trial", "graph", "word"},
        "6c7dd040aaf2e2e129588f3e4ce39eb886520b79081c33adea82faa8a556ca07",
    ),
    "rank2-intersection": (
        "intersection_report",
        rejecting,
        {"trial", "subgroup", "retract_basis", "report"},
        "081c8f868417ccbb2e780d98a16122d4c6056cc2c26ecdc37b39d30a27026f0a",
    ),
    "rank-bound-rk3": (
        "pullback",
        lambda real: rank_ten,
        {"trial", "subgroup", "retract_basis"},
        "732d5c58854b1ed1e7a7d5bad1353e5d364f0d5931751931810fe2905601b735",
    ),
    "hanna-neumann": (
        "pullback",
        lambda real: rank_ten,
        {"trial", "a", "b"},
        "aabbac20d5bc90f6c1f8fc454d24596183ce3eb3d0fd692e9b261dc9b0bee66a",
    ),
    "schreier-formula": (
        "subgroup_index",
        lambda real: lambda graph: None,
        {"trial", "graph"},
        "621c3de528cbd88d20fba049e83eee10d1de6fb7f25201b5ae8b528fe3c0185a",
    ),
}


@pytest.mark.parametrize("suite", sorted(FORCED))
def test_a_failing_suite_keeps_its_first_record(monkeypatch, suite):
    name, stand_in, keys, digest = FORCED[suite]
    monkeypatch.setattr(fgr.retracts, name, stand_in(getattr(fgr.retracts, name)))
    report = run_suite(suite, 3, SEED)
    assert (report.trials, report.passes, len(report.failures)) == (3, 0, 1)
    assert report.failures[0]["trial"] == 0
    assert set(report.failures[0]) == keys
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def counted(monkeypatch, name, stand_in=None):
    """Replace ``fgr.retracts.<name>`` by a wrapper counting its calls."""
    real = getattr(fgr.retracts, name) if stand_in is None else stand_in
    calls = [0]

    def wrapper(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(fgr.retracts, name, wrapper)
    return calls


def never_transitive(rank, perms, base):
    raise ValueError("action is not transitive")


def test_visible_word_sampler_gives_up_after_1000_draws(monkeypatch):
    monkeypatch.setattr(fgr.retracts, "is_visible", lambda w: False)
    draws = counted(monkeypatch, "_random_reduced_word")
    with pytest.raises(RuntimeError, match="^failed to draw a visible word$"):
        fgr.retracts._random_visible_word(random.Random(SEED), 2, 40)
    assert draws == [1000]


def test_transitive_sampler_gives_up_after_1000_draws(monkeypatch):
    draws = counted(monkeypatch, "schreier_graph", never_transitive)
    permutations = counted(monkeypatch, "_random_permutation")
    with pytest.raises(RuntimeError, match="^failed to draw a transitive action$"):
        fgr.retracts._random_transitive_graph(random.Random(SEED), 3, 12)
    assert draws == [1000]
    assert permutations == [3000]


def test_normal_sampler_gives_up_after_1000_draws(monkeypatch):
    draws = counted(monkeypatch, "schreier_graph", never_transitive)
    with pytest.raises(RuntimeError, match="^failed to draw a generating tuple$"):
        fgr.retracts._random_normal_graph(random.Random(SEED), 2)
    assert draws == [1000]


def test_rank2_sampler_gives_up_after_200_draws(monkeypatch):
    monkeypatch.setattr(fgr.retracts, "subgroup_rank", lambda graph: 0)
    draws = counted(monkeypatch, "_random_subgroup")
    with pytest.raises(RuntimeError, match="^failed to draw a rank-2 subgroup$"):
        fgr.retracts._random_rank2_subgroup(random.Random(SEED), 3, 30)
    assert draws == [200]


def test_single_cycle_trial_gives_up_after_200_graphs_of_60_words(monkeypatch):
    monkeypatch.setattr(fgr.retracts, "smallest_power_in", lambda graph, w: None)
    graphs = counted(monkeypatch, "_random_transitive_graph")
    words = counted(monkeypatch, "_random_visible_word")
    with pytest.raises(RuntimeError, match="^failed to condition on a single-cycle action$"):
        fgr.retracts._trial_single_cycle_power(random.Random(SEED))
    assert graphs == [200]
    assert words == [200 * 60]
