import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgr.retracts
from fgr import (
    Permutation,
    RetractPresentation,
    Word,
    basis,
    bergman_counterexample,
    contains,
    coset_permutation,
    cyclic_retract,
    from_generators,
    intersection_report,
    parse_word,
    pullback,
    random_retract,
    run_suite,
    schreier_graph,
    smallest_power_in,
    subgroup_index,
    subgroup_rank,
    substitute,
)
from fgr.constructions import hm_graph, lm_graph, wk_word
from fgr.retracts import _random_reduced_word as random_reduced_word
from fgr.retracts import _random_transitive_graph, _random_visible_word
from test_automorphism_invariance import h_m, wk_and_x3
from test_stallings import cycles


def words(rank, *texts):
    return [parse_word(t, rank) for t in texts]


# --- cyclic retracts -----------------------------------------------------------

def test_cyclic_retract_presentation():
    presented = cyclic_retract(wk_word(1))
    assert presented.rank == 1
    assert presented.section_images == (wk_word(1),)
    # the retraction fixes the section image by construction
    assert substitute(wk_word(1), presented.retraction_images, 1) == Word(1, (1,))


def test_cyclic_retract_needs_visibility():
    with pytest.raises(ValueError):
        cyclic_retract(parse_word("aa", 2))


def test_cyclic_retract_with_negative_exponents():
    presented = cyclic_retract(parse_word("AAAbb", 2))  # sums (-3, 2)
    assert presented.rank == 1


# --- section/retraction presentations ----------------------------------------

def test_retract_presentation_validates_section():
    with pytest.raises(ValueError):
        RetractPresentation(
            2, (parse_word("ab", 2),), (Word(1, (1,)), Word(1, (1,)))
        )


def test_retract_presentation_checks_its_shape():
    a, b = Word(2, (1,)), Word(2, (2,))
    one = Word(1, (1,))
    for section, retraction, message in (
        ((), (one, one), "needs at least one section image"),
        ((a,), (one,), "one retraction image per ambient generator"),
        ((Word(3, (1,)),), (one, Word(1)), "section images must live in the ambient group"),
        ((a, b), (one, one), "retraction images must live in the rank-k group"),
    ):
        with pytest.raises(ValueError, match=message):
            RetractPresentation(2, section, retraction)


def test_random_retract_zero_complexity_is_coordinate_factor():
    presented = random_retract(3, 2, seed=5, complexity=0)
    assert presented.section_images == (Word(3, (1,)), Word(3, (2,)))
    assert presented.rank == 2


def test_random_retract_has_exact_rank():
    # construction re-verifies the section property on every draw
    for seed in range(100):
        n = 2 + seed % 3
        k = 1 + seed % (n - 1)
        presented = random_retract(n, k, seed=seed, complexity=seed % 4)
        assert presented.rank == k
        assert subgroup_rank(presented.graph) == k
    # The retraction undoes the section, so the section is injective and
    # the retract's graph has rank k on every draw: none is redone.
    for n in range(2, 6):
        for k in range(1, n):
            for complexity in range(4):
                for seed in range(8):
                    presented = random_retract(n, k, seed=seed, complexity=complexity)
                    assert subgroup_rank(presented.graph) == k, (n, k, complexity, seed)


def test_random_retract_is_reproducible():
    assert random_retract(4, 2, seed=99, complexity=3) == random_retract(
        4, 2, seed=99, complexity=3
    )


def test_random_retract_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_retract(2, 2, seed=0)


def test_random_retract_checks_the_ambient_rank_before_drawing(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("drew a word")

    monkeypatch.setattr(fgr.retracts, "_random_reduced_word", draw)
    for n in (27, 10**12):
        with pytest.raises(ValueError, match=f"^rank must be in 1\\.\\.26, got {n}$"):
            random_retract(n, 1, seed=0)


def test_random_retract_rejects_a_complexity_past_the_word_bound():
    # 1 + c(3c + 1) letters: 999,365 at c = 577 and 1,002,831 at c = 578.
    # Only rejected values are tried; a draw at c = 577 would be slow.
    for complexity in (578, 10**9):
        with pytest.raises(ValueError, match=f"letters: c = {complexity}$"):
            random_retract(3, 1, seed=0, complexity=complexity)


def test_random_retract_rejects_a_negative_complexity():
    with pytest.raises(ValueError, match="complexity must be nonnegative"):
        random_retract(3, 1, seed=0, complexity=-1)


# --- smallest power --------------------------------------------------------------

def test_smallest_power_examples():
    graph, _ = hm_graph(3)
    assert smallest_power_in(graph, wk_word(1)) == 2
    whole = from_generators(2, words(2, "a", "b"))
    assert smallest_power_in(whole, parse_word("ba", 2)) == 1
    assert smallest_power_in(from_generators(2, words(2, "a")), parse_word("b", 2)) is None


def test_smallest_power_infinite_index_case():
    K = lm_graph(3)
    assert smallest_power_in(K, wk_word(1)) == 2
    assert smallest_power_in(K, parse_word("a", 2)) == 1
    # a conjugate whose powers only meet the subgroup trivially
    assert smallest_power_in(from_generators(2, words(2, "aa")), parse_word("bab", 2)) is None


def test_smallest_power_of_conjugated_word():
    g = from_generators(2, words(2, "b(aaa)B"))
    assert smallest_power_in(g, parse_word("baB", 2)) == 3


def test_smallest_power_rejects_trivial_word():
    with pytest.raises(ValueError):
        smallest_power_in(hm_graph(3)[0], Word(2))


def test_smallest_power_agrees_with_pullback_route():
    # the finite-index cycle computation must match the intersection
    # with the cyclic subgroup computed by pullback
    graph, _ = hm_graph(5)
    for text in ("a", "b", "ab", "aab", "ba"):
        w = parse_word(text, 2)
        m = smallest_power_in(graph, w)
        generator = basis(pullback(graph, from_generators(2, [w])))[0]
        assert generator in (w**m, (w**m).inverse())



def power_loop_exponent(graph, w):
    """The multiplying loop ``smallest_power_in`` ran at infinite index,
    kept as the reference for its closed-form exponent."""
    intersection = pullback(graph, from_generators(graph.rank, [w]))
    if subgroup_rank(intersection) == 0:
        return None
    generator = basis(intersection)[0]
    power, m = w, 1
    while len(power) <= len(generator):
        if power == generator or power.inverse() == generator:
            return m
        power, m = power * w, m + 1
    raise AssertionError("cyclic intersection generator is not a power of the word")


def test_smallest_power_matches_power_loop_at_infinite_index():
    rng = random.Random(5150)
    checked = 0
    while checked < 150:
        rank = rng.randint(2, 3)
        w = random_reduced_word(rng, rank, 6)
        # Half the time w^k is conjugated, so w's powers may miss it.
        conjugator = random_reduced_word(rng, rank, 3) if rng.random() < 0.5 else w ** 0
        gens = [conjugator * w ** rng.randint(1, 7) * conjugator.inverse()]
        gens += [random_reduced_word(rng, rank, 5) for _ in range(rng.randint(0, 2))]
        graph = from_generators(rank, gens)
        if subgroup_index(graph) is not None:
            continue
        assert smallest_power_in(graph, w) == power_loop_exponent(graph, w)
        checked += 1


def coset_cycle_exponent(graph, w):
    """The loop ``smallest_power_in`` ran at finite index, kept as the
    reference for its walk from the base: the length of the cycle of
    the whole coset permutation of w through the base."""
    perm = coset_permutation(graph, w)
    length = 1
    vertex = perm(0)
    while vertex != 0:
        vertex = perm(vertex)
        length += 1
    return length


def test_smallest_power_matches_coset_cycle_at_finite_index():
    rng = random.Random(6160)
    checked = 0
    while checked < 200:
        rank = rng.randint(1, 3)
        points = rng.randint(1, 14)
        perms = []
        for _ in range(rank):
            images = list(range(points))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
        try:
            graph = schreier_graph(rank, perms, rng.randrange(points))
        except ValueError:
            continue
        w = random_reduced_word(rng, rank, 12)
        assert smallest_power_in(graph, w) == coset_cycle_exponent(graph, w)
        checked += 1
    graph, _ = hm_graph(41)
    for k in (1, 2, 10, 20):
        assert smallest_power_in(graph, wk_word(k)) == coset_cycle_exponent(graph, wk_word(k))


def test_smallest_power_rank_mismatch_at_finite_index():
    graph, _ = hm_graph(3)
    with pytest.raises(ValueError, match=r"rank mismatch: 3 != 2"):
        coset_cycle_exponent(graph, Word(3, (1,)))
    # One message at every index: lm_graph(3) has infinite index.
    for subgroup in (graph, lm_graph(3)):
        with pytest.raises(ValueError, match=r"rank mismatch: 3 != 2"):
            smallest_power_in(subgroup, Word(3, (1,)))


def first_member_power(graph, w):
    """The first j in 1..vertex_count with w^j in the subgroup, or None.

    The bound is complete: the orbit ``smallest_power_in`` walks has at
    most one step per vertex."""
    for j in range(1, graph.vertex_count + 1):
        if contains(graph, w**j):
            return j
    return None


@st.composite
def reduced_words(draw, rank, min_size, max_size):
    letters = []
    for _ in range(draw(st.integers(min_size, max_size))):
        options = [l for l in range(-rank, rank + 1) if l and (not letters or l != -letters[-1])]
        letters.append(draw(st.sampled_from(options)))
    return Word(rank, tuple(letters))


@st.composite
def subgroups(draw, rank):
    """Folds of 1-3 short words, or covers of transitive actions."""
    if draw(st.booleans()):
        gens = draw(st.lists(reduced_words(rank, 0, 6), min_size=1, max_size=3))
        return from_generators(rank, gens)
    points = draw(st.integers(1, 8))
    perms = [Permutation(tuple(draw(st.permutations(range(points))))) for _ in range(rank)]
    try:
        return schreier_graph(rank, perms, 0)
    except ValueError:
        # Not transitive: let generator 1 run through the points in one cycle.
        order = draw(st.permutations(range(points)))
        images = [0] * points
        for i, point in enumerate(order):
            images[point] = order[(i + 1) % points]
        return schreier_graph(rank, [Permutation(tuple(images))] + perms[1:], 0)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_smallest_power_is_the_first_member_power(data):
    rank = data.draw(st.integers(1, 3))
    graph = data.draw(subgroups(rank))
    w = data.draw(reduced_words(rank, 1, 6))
    if data.draw(st.integers(0, 2)) == 0:
        conjugator = data.draw(reduced_words(rank, 1, 3))
        w = conjugator * w * conjugator.inverse()
    assert smallest_power_in(graph, w) == first_member_power(graph, w)


def test_smallest_power_on_a_long_orbit():
    graph = from_generators(2, [Word(2, (2,) + (1,) * 20000 + (-2,))])
    w = parse_word("baB", 2)
    assert smallest_power_in(graph, w) == 20000
    assert contains(graph, w**20000) and not contains(graph, w**19999)


@pytest.mark.parametrize("m", [51, 101, 201, 1601])
def test_smallest_power_on_the_counterexample_family(m):
    assert smallest_power_in(lm_graph(m), wk_word((m - 1) // 2)) == 2


# --- intersection reports ---------------------------------------------------------

def test_intersection_report_example():
    K = lm_graph(3)
    report = intersection_report(K, cyclic_retract(wk_word(1)))
    assert report.rank_h == 3
    assert report.rank_r == 1
    assert report.rank_intersection == 1
    assert report.smallest_power == 2
    assert report.intersection_visible_in_h is False
    assert report.verdict == "no"


def test_intersection_report_self():
    g = from_generators(2, words(2, "ab", "ba"))
    report = intersection_report(g, g)
    assert report.verdict == "yes"
    assert report.rank_intersection == report.rank_h


def test_intersection_report_trivial():
    report = intersection_report(
        from_generators(2, words(2, "a")), from_generators(2, words(2, "b"))
    )
    assert report.rank_intersection == 0
    assert report.verdict == "yes"


def test_intersection_report_visible_cyclic():
    # <ab> inside the whole group: visible generator, so a retract
    whole = from_generators(2, words(2, "a", "b"))
    report = intersection_report(whole, from_generators(2, words(2, "ab")))
    assert report.rank_intersection == 1
    assert report.verdict == "yes"


def test_intersection_report_rank2_proper_same_rank():
    # proper rank-2 subgroup of a rank-2 subgroup: not a retract
    h = from_generators(2, words(2, "a", "b"))
    r = from_generators(2, words(2, "aa", "b"))
    report = intersection_report(h, r)
    assert report.rank_h == 2
    assert report.rank_intersection == 2
    assert report.verdict == "no"


def test_intersection_report_proper_of_full_rank_in_rank3():
    # <a, b, cc> has the rank of F_3 but is proper, so it is no retract
    h = from_generators(3, words(3, "a", "b", "c"))
    r = from_generators(3, words(3, "a", "b", "cc"))
    report = intersection_report(h, r)
    assert report.rank_h == 3
    assert report.rank_intersection == 3
    assert report.verdict == "no"


def test_intersection_report_restriction_in_rank3():
    # rho = section o retraction sends a, b, c to a, b, 1, all in H = F_3,
    # so it restricts to a retraction of H onto K = <a, b>
    h = from_generators(3, words(3, "a", "b", "c"))
    r = RetractPresentation(3, tuple(words(3, "a", "b")), (*words(2, "a", "b"), Word(2)))
    report = intersection_report(h, r)
    assert (report.rank_h, report.rank_intersection) == (3, 2)
    assert report.verdict == "yes"
    # Given only as a graph, R has no rho to restrict.
    assert intersection_report(h, r.graph).verdict == "undecided"


def test_intersection_report_restriction_leaves_h_m_undecided():
    # H_m = lm_graph(m) * <c> meets R = <wk_word((m-1)//2), c> in no retract,
    # so rho cannot map H_m into itself
    for m in (3, 5, 9):
        report = intersection_report(h_m(m), wk_and_x3(m))
        assert (report.rank_intersection, report.verdict) == (2, "undecided"), m


def test_intersection_report_restriction_yes_is_a_retraction():
    rng = random.Random(12_001)
    decided = 0
    for _ in range(300):
        n = rng.randint(3, 4)
        retract = random_retract(n, rng.randint(2, n - 1), rng.getrandbits(63), rng.randint(0, 2))
        gens = [random_reduced_word(rng, n, 6) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            # Part of R's basis in H, so that rho often maps H into itself.
            gens += rng.sample(retract.section_images, rng.randint(1, retract.rank))
        subgroup = from_generators(n, gens)
        report = intersection_report(subgroup, retract)
        intersection = pullback(subgroup, retract.graph)
        if report.verdict != "yes" or not 2 <= report.rank_intersection < report.rank_h:
            continue
        decided += 1

        def rho(w):
            return substitute(
                substitute(w, retract.retraction_images, retract.rank), retract.section_images, n
            )

        # rho maps H into K = H n R and fixes K: its restriction retracts H onto K.
        assert all(contains(intersection, rho(h)) for h in basis(subgroup))
        assert all(rho(k) == k for k in basis(intersection))
    assert decided >= 20, decided


def test_intersection_report_undecided():
    # even-length-words subgroup (rank 3) meets <aa, bb> in all of <aa, bb>
    h = from_generators(2, words(2, "aa", "ab", "ba"))
    r = from_generators(2, words(2, "aa", "bb"))
    report = intersection_report(h, r)
    assert report.rank_h == 3
    assert report.rank_intersection == 2
    assert report.verdict == "undecided"


def test_intersection_report_rank_mismatch():
    with pytest.raises(ValueError):
        intersection_report(
            from_generators(2, words(2, "a")), from_generators(3, words(3, "a"))
        )


# --- the counterexample grid ---------------------------------------------------

def test_bergman_example_case():
    report = bergman_counterexample(2, 3, 1)
    assert (report.rank_h, report.rank_r, report.rank_intersection) == (3, 1, 1)
    assert report.smallest_power == 2
    assert report.verdict == "no"


def test_bergman_higher_rank_case():
    report = bergman_counterexample(4, 5, 3)
    assert report.rank_h == 5
    assert report.rank_r == 3
    assert report.verdict == "no"


def test_bergman_even_case_uses_previous_cover():
    report = bergman_counterexample(3, 4, 1)
    assert report.rank_h == 4
    assert report.verdict == "no"


def test_bergman_parameter_validation():
    with pytest.raises(ValueError):
        bergman_counterexample(1, 3, 1)
    with pytest.raises(ValueError):
        bergman_counterexample(2, 2, 1)
    with pytest.raises(ValueError):
        bergman_counterexample(2, 3, 2)
    # The rank is checked after m, k and the word's letter bound.
    with pytest.raises(ValueError, match=r"^rank must be in 1\.\.26, got 27$"):
        bergman_counterexample(27, 3, 1)
    with pytest.raises(ValueError, match="^wk word longer than"):
        bergman_counterexample(27, 10**7, 1)
    with pytest.raises(ValueError, match="^retract rank must be in"):
        bergman_counterexample(10**9, 3, 10**9)


# --- suites ------------------------------------------------------------------

def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("no-such-suite", 1, 0)


def test_run_suite_rejects_negative_trials():
    with pytest.raises(ValueError, match="non-negative"):
        run_suite("hanna-neumann", -3, 0)
    assert run_suite("hanna-neumann", 0, 0).to_json()["trials"] == 0


def test_run_suite_is_deterministic():
    first = run_suite("hanna-neumann", 20, 123)
    second = run_suite("hanna-neumann", 20, 123)
    assert first == second
    assert first.seed == 123
    assert first.to_json()["passes"] == first.passes


def test_suites_pass_small_runs():
    for name in (
        "transfer-visibility",
        "single-cycle-power",
        "normal-power",
        "rank2-intersection",
        "rank-bound-rk3",
        "hanna-neumann",
        "schreier-formula",
    ):
        report = run_suite(name, 25, 7)
        assert report.passes == 25, (name, report.failures)


def test_single_cycle_trial_agrees_with_the_cycles_of_the_permutation():
    # The single-cycle-power suite asks whether w acts as one cycle as
    # "the base's orbit under w is every vertex"; counting the cycles of
    # the coset permutation is the oracle, on the suite's own samplers.
    rng = random.Random(4613)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        rank = rng.choice((2, 3))
        graph = _random_transitive_graph(rng, rank, 12)
        w = _random_visible_word(rng, rank, 40)
        one_cycle = len(cycles(coset_permutation(graph, w))) == 1
        assert (smallest_power_in(graph, w) == graph.vertex_count) == one_cycle
        outcomes[one_cycle] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_intersection_with_random_retract_stays_in_both():
    rng = random.Random(61)
    for seed in range(10):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        presented = random_retract(n, k, seed=seed, complexity=2)
        h = from_generators(n, [random_reduced_word(rng, n, 10) for _ in range(2)])
        inter = pullback(h, presented.graph)
        for w in basis(inter):
            assert contains(h, w)
            assert contains(presented.graph, w)
