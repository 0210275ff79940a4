import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fgr
from fgr.cli import _build_parser, main
from fgr.constructions import gamma_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


H3_FLAGS = ("--rank", "2", "--gens", "a,baBB,bbaB,bbb")


def test_member_golden_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "member", *H3_FLAGS, "--word", "(a[a,b])^2"
    )
    assert code == 0
    assert out == '{"member": true}\n'


def test_member_negative(capsys):
    assert run_json(capsys, "member", *H3_FLAGS, "--word", "a[a,b]") == {"member": False}


def test_wk_golden(capsys):
    code, out, _ = run_cli(capsys, "wk", "--k", "1")
    assert code == 0
    assert out == '"aabAB"\n'


def test_bergman_verdict(capsys):
    report = run_json(capsys, "bergman", "--n", "2", "--m", "3", "--k", "1")
    assert report["verdict"] == "no"
    assert report["rank_h"] == 3
    assert report["rank_r"] == 1
    assert report["rank_intersection"] == 1
    assert report["smallest_power"] == 2


def test_basis_verb(capsys):
    payload = run_json(capsys, "basis", *H3_FLAGS, "--tree", "0:1:2,1:2:2")
    assert payload == ["a", "baBB", "bbaB", "bbb"]


def test_rewrite_verb(capsys):
    payload = run_json(
        capsys, "rewrite", *H3_FLAGS, "--tree", "0:1:2,1:2:2", "--word", "(a[a,b])^2"
    )
    assert payload == [1, 1, -3, 2, 3, -2]


def test_visible_ambient(capsys):
    assert run_json(capsys, "visible", "--rank", "2", "--word", "a[a,b]") == {
        "visible": True
    }
    assert run_json(capsys, "visible", "--rank", "2", "--word", "aabb") == {
        "visible": False
    }


def test_visible_in_subgroup(capsys):
    payload = run_json(
        capsys, "visible", *H3_FLAGS, "--tree", "0:1:2,1:2:2", "--word", "(a[a,b])^2"
    )
    assert payload == {"visible": False}


def test_transfer_verb(capsys):
    payload = run_json(
        capsys, "transfer", *H3_FLAGS, "--tree", "0:1:2,1:2:2", "--word", "a[a,b]"
    )
    assert payload == {"basis": "subgroup", "entries": [1, 1, 1, 0]}


def test_gamma_graph_json(capsys):
    payload = run_json(capsys, "gamma", "--m", "3")
    assert payload["rank"] == 2
    assert payload["vertices"] == 3
    assert payload["base"] == 0
    assert {"from": 0, "to": 0, "label": 1} in payload["edges"]
    assert len(payload["edges"]) == 6


def test_hm_includes_tree(capsys):
    payload = run_json(capsys, "hm", "--m", "3")
    assert payload["tree"] == ["0:1:2", "1:2:2"]


def test_lm_verb(capsys):
    payload = run_json(capsys, "lm", "--m", "3")
    assert payload["vertices"] == 3
    assert len(payload["edges"]) == 5


def test_lemma33_verb(capsys):
    assert run_json(capsys, "lemma33", "--m", "3") == [1, 1, -3, 2, 3, -2]


def test_fold_from_gens(capsys):
    payload = run_json(capsys, "fold", "--rank", "2", "--gens", "aa,a")
    assert payload["vertices"] == 1
    assert payload["edges"] == [{"from": 0, "to": 0, "label": 1}]


def test_fold_from_raw_graph_file(capsys, tmp_path):
    raw = {
        "rank": 2,
        "vertices": 3,
        "base": 0,
        "edges": [
            {"from": 0, "to": 1, "label": 1},
            {"from": 0, "to": 2, "label": 1},
            {"from": 1, "to": 2, "label": 2},
        ],
    }
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(raw))
    payload = run_json(capsys, "fold", "--graph", str(path))
    assert payload["vertices"] == 2


def test_graph_file_input(capsys, tmp_path):
    graph = run_json(capsys, "gamma", "--m", "4")
    path = tmp_path / "g4.json"
    path.write_text(json.dumps(graph))
    payload = run_json(capsys, "member", "--graph", str(path), "--word", "bbbb")
    assert payload == {"member": True}


def test_intersect_verb(capsys):
    report = run_json(
        capsys,
        "intersect",
        "--rank",
        "2",
        "--gens",
        "a,baBB,bbaB",
        "--gens2",
        "a[a,b]",
    )
    assert report["verdict"] == "no"
    assert report["rank_intersection"] == 1
    assert report["smallest_power"] == 2


def test_suite_verb(capsys):
    report = run_json(
        capsys, "suite", "schreier-formula", "--trials", "10", "--seed", "3"
    )
    assert report == {
        "suite": "schreier-formula",
        "trials": 10,
        "passes": 10,
        "failures": [],
        "seed": 3,
    }


def test_tsv_format(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "tsv", "member", *H3_FLAGS, "--word", "bbb"
    )
    assert code == 0
    assert out == "member\ttrue\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (("basis", *H3_FLAGS, "--tree", "0:1:2,1:2:2"), "a\nbaBB\nbbaB\nbbb\n"),
        (
            ("rewrite", *H3_FLAGS, "--tree", "0:1:2,1:2:2", "--word", "(a[a,b])^2"),
            "1\n1\n-3\n2\n3\n-2\n",
        ),
        (("lemma33", "--m", "3"), "1\n1\n-3\n2\n3\n-2\n"),
        (("wk", "--k", "1"), "aabAB\n"),
    ],
)
def test_tsv_format_of_list_and_scalar_payloads(capsys, argv, out):
    # A list payload prints one item a line, a scalar one line; strings bare.
    assert run_cli(capsys, "--format", "tsv", *argv) == (0, out, "")


def test_empty_tree_flag_is_the_tree_with_no_edges(capsys):
    # It is the one-vertex graph's only spanning tree, and too few edges
    # for any larger graph.
    rewrite = ("rewrite", "--rank", "2", "--word", "ab", "--gens")
    assert run_cli(capsys, *rewrite, "a,b", "--tree", "") == (0, "[1, 2]\n", "")
    assert run_cli(capsys, *rewrite, "a,b") == (0, "[1, 2]\n", "")
    message = "fgr: error: spanning tree has the wrong number of edges\n"
    assert run_cli(capsys, *rewrite, "a,bb", "--tree", "") == (1, "", message)


def test_identical_invocations_are_byte_identical(capsys):
    first = run_cli(capsys, "suite", "hanna-neumann", "--trials", "25", "--seed", "9")
    second = run_cli(capsys, "suite", "hanna-neumann", "--trials", "25", "--seed", "9")
    assert first == second
    third = run_cli(capsys, "bergman", "--n", "3", "--m", "4", "--k", "2")
    fourth = run_cli(capsys, "bergman", "--n", "3", "--m", "4", "--k", "2")
    assert third == fourth


def test_domain_error_exits_one(capsys):
    code, out, err = run_cli(capsys, "member", *H3_FLAGS, "--word", "c")
    assert code == 1
    assert out == ""
    assert "beyond rank" in err


def test_parse_error_reports_position(capsys):
    code, _, err = run_cli(capsys, "member", *H3_FLAGS, "--word", "a^")
    assert code == 1
    assert "position" in err


def test_missing_subgroup_flags_is_an_error(capsys):
    code, _, err = run_cli(capsys, "member", "--word", "a")
    assert code == 1
    assert "exactly one" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("member", "--gens", "a", "--word", "a"), "--gens needs --rank"),
        (("visible", "--word", "a"), "ambient visibility needs --rank"),
        (("intersect", "--graph", "{graph}", "--gens2", "ab"), "--gens2 needs --rank"),
    ],
)
def test_word_flags_without_a_rank_are_errors(capsys, tmp_path, argv, message):
    # "{graph}" stands for the path of a graph file.
    path = tmp_path / "gamma3.json"
    path.write_text(json.dumps(fgr.graph_to_json(gamma_graph(3))))
    argv = [str(path) if arg == "{graph}" else arg for arg in argv]
    assert run_cli(capsys, *argv) == (1, "", f"fgr: error: {message}\n")


def test_usage_error_exits_two(capsys):
    code, _, _ = run_cli(capsys, "no-such-verb")
    assert code == 2
    code, _, _ = run_cli(capsys, "wk")
    assert code == 2


def test_bad_domain_parameter_exits_one(capsys):
    code, _, err = run_cli(capsys, "gamma", "--m", "1")
    assert code == 1
    assert "m >= 2" in err


def test_module_entry_point():
    # The child imports the same fgr as this process, also when only
    # pytest's own pythonpath setting put it on sys.path.
    src = str(Path(fgr.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "fgr", "wk", "--k", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stdout == '"aabABabAB"\n'


def test_repeated_calls_match_fresh_processes(capsys, monkeypatch):
    # main builds its parser once per process; each call in a sequence of
    # successes, usage errors, domain errors and help still gives the
    # bytes and exit code of a fresh process.
    src = str(Path(fgr.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    monkeypatch.setenv("COLUMNS", "80")
    calls = (
        ("wk", "--k", "3"),
        ("wk",),
        ("gamma", "--m", "1"),
        ("--help",),
        ("member", *H3_FLAGS, "--word", "(a[a,b])^2"),
        ("visible", "--rank", "2", "--word", "a[a,b]"),
        ("intersect", "--rank", "2", "--gens", "a,b", "--gens2", "ab, b^x"),
        ("hm", "--m", "5"),
    )
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "fgr", *argv], capture_output=True, text=True, env=env
        )
        got = run_cli(capsys, *argv)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(got[0])
    assert codes == [0, 2, 1, 0, 0, 0, 1, 0]


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("fgr: error: ")
    assert "Traceback" not in err


def test_fold_graph_without_edges_is_an_error(capsys, tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"rank": 2, "vertices": 1}))
    code, out, err = run_cli(capsys, "fold", "--graph", str(path))
    assert_one_error_line(code, out, err)
    assert "malformed graph JSON" in err


@pytest.mark.parametrize("verb", ["basis", "fold"])
def test_graph_fields_must_be_integers(capsys, tmp_path, verb):
    loop = {"rank": 1, "vertices": 1, "edges": [{"from": 0, "to": 0, "label": 1}]}
    path = tmp_path / "loop.json"
    # JSON true and false read as 1 and 0.
    path.write_text('{"rank": true, "vertices": 1, "edges": [{"from": false, "to": 0, "label": 1}]}')
    assert run_cli(capsys, verb, "--graph", str(path))[0] == 0
    bad = [
        {**loop, "rank": 1.7},
        {**loop, "vertices": 1.0},
        {**loop, "edges": [{"from": 0, "to": 0.9, "label": 1}]},
        {**loop, "edges": [{"from": 0, "to": "0", "label": 1}]},
        {**loop, "edges": [{"from": 0, "to": 0, "label": float("nan")}]},
        {**loop, "edges": [{"from": 0, "to": 0, "label": float("inf")}]},
    ]
    for raw in bad:
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, verb, "--graph", str(path))
        assert_one_error_line(code, out, err)
        assert "malformed graph JSON" in err
        assert "cannot be interpreted as an integer" in err


def test_graph_with_huge_vertex_count(capsys, tmp_path):
    raw = {"rank": 2, "vertices": 10**12, "edges": [{"from": 0, "to": 0, "label": 1}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    assert run_json(capsys, "fold", "--graph", str(path))["vertices"] == 1
    code, out, err = run_cli(capsys, "member", "--graph", str(path), "--word", "a")
    assert_one_error_line(code, out, err)


def test_suite_negative_trials_is_an_error(capsys):
    code, out, err = run_cli(capsys, "suite", "hanna-neumann", "--trials", "-3")
    assert_one_error_line(code, out, err)
    assert "non-negative" in err


def test_deeply_nested_word_is_a_parse_error(capsys):
    word = "(" * 3000 + "a" + ")" * 3000
    code, out, err = run_cli(capsys, "member", *H3_FLAGS, "--word", word)
    assert_one_error_line(code, out, err)
    assert "nested too deeply" in err


def test_words_over_the_length_budget_are_errors(capsys):
    nested = "b"
    for _ in range(40):
        nested = f"[a,{nested}]"
    for word in ("(ab)^10000000000", nested):
        code, out, err = run_cli(capsys, "visible", "--rank", "2", "--word", word)
        assert_one_error_line(code, out, err)
        assert "longer than 1000000 letters" in err


def test_word_families_over_the_length_budget_are_errors(capsys):
    for argv in (("wk", "--k", "1000000000000"), ("lemma33", "--m", "1000000000001")):
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert "longer than 1000000" in err


def test_graph_families_over_the_size_bound_are_errors(capsys):
    # m = 10**12 would ask for terabytes; the bound is checked first.
    for argv in (
        ("gamma", "--m", "1000000000000"),
        ("hm", "--m", "1000000000000"),
        ("lm", "--m", "1000000000000"),
        ("bergman", "--n", "2", "--m", "1000000000000", "--k", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert "1000000" in err


def test_ranks_past_the_text_form_are_errors(capsys):
    # The rank bound of the text form, checked before anything is built.
    for argv, rank in (
        (("bergman", "--n", "27", "--m", "3", "--k", "1"), "27"),
        (("bergman", "--n", "1000000000", "--m", "3", "--k", "1"), "1000000000"),
        (("visible", "--rank", "27", "--word", "a"), "27"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert err == f"fgr: error: rank must be in 1..26, got {rank}\n"


def test_lm_bound_names_the_m_given(capsys):
    # An even m builds gamma_graph(m - 1); the bound is checked first, on m.
    for m in ("1000000000000", "1000000000001", "1000002", "1000001"):
        code, out, err = run_cli(capsys, "lm", "--m", m)
        assert_one_error_line(code, out, err)
        assert err == f"fgr: error: this family needs m <= 1000000, got {m}\n"


def test_deeply_nested_graph_json_is_an_error(capsys, tmp_path):
    # Decoding this document exhausts the recursion limit.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for verb in ("basis", "fold"):
        code, out, err = run_cli(capsys, verb, "--graph", str(path))
        assert_one_error_line(code, out, err)
        assert err == "fgr: error: graph JSON nested too deeply\n"


def test_fold_takes_exactly_one_of_gens_or_graph(capsys, tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"rank": 2, "vertices": 1, "edges": []}))
    for flags in (("--graph", str(path), "--rank", "2", "--gens", "a"), ()):
        code, out, err = run_cli(capsys, "fold", *flags)
        assert_one_error_line(code, out, err)
        assert err == "fgr: error: give exactly one of --gens or --graph\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # Past the first generator: the position counts from the flag.
        (("member", "--gens", "ab, c", "--word", "a"), "letter 'c' beyond rank 2 at position 4"),
        (
            ("member", "--gens", "ab,a^", "--word", "a"),
            "expected an integer exponent at position 5",
        ),
        (
            ("intersect", "--gens", "a,b", "--gens2", "ab, b^x"),
            "expected an integer exponent at position 6",
        ),
        (("fold", "--gens", "a,]"), "unexpected character ']' at position 2"),
        # In the first generator, or across a comma, as before.
        (("member", "--gens", "c,ab", "--word", "a"), "letter 'c' beyond rank 2 at position 0"),
        (
            ("intersect", "--gens", "a^,b", "--gens2", "a"),
            "expected an integer exponent at position 2",
        ),
        (("fold", "--gens", "a],[b,c]"), "unexpected character ']' at position 1"),
        (("fold", "--gens", "(a,b"), "expected ')' at position 2"),
    ],
)
def test_generator_parse_errors_count_from_the_start_of_the_flag(capsys, argv, message):
    assert run_cli(capsys, *argv, "--rank", "2") == (1, "", f"fgr: error: {message}\n")


def test_empty_generators_are_the_identity(capsys):
    def fold(gens):
        return run_json(capsys, "fold", "--rank", "2", "--gens", gens)

    assert fold("a,,b") == fold("a,b")
    assert fold("a,") == fold("a")
    assert fold("") == {"rank": 2, "vertices": 1, "base": 0, "edges": []}


# The CLI's surface as it stood before each verb carried its answer: the
# verbs in order with their help lines, and per parser each action's
# option strings, dest, required, type, default, choices and help.
# argparse's formatted help lays these out differently across Python
# versions; the fields themselves do not change.
VERBS = [
    ("fold", "fold a raw graph or generator wedge into a core graph"),
    ("basis", "free basis induced by a spanning tree"),
    ("member", "test membership of a word in a subgroup"),
    ("rewrite", "express a member word over the subgroup basis"),
    ("intersect", "intersection report for a subgroup and a retract"),
    ("visible", "visibility of a word, ambient or inside a subgroup"),
    ("transfer", "transfer of a word into a finite-index subgroup"),
    ("gamma", "emit the gamma graph for a given m"),
    ("hm", "emit the hm graph for a given m"),
    ("lm", "emit the lm graph for a given m"),
    ("wk", "emit the word x[x,y]^k"),
    ("lemma33", "closed-form basis rewrite of wk^2 for odd m"),
    ("bergman", "retract-intersection counterexample report"),
    ("suite", "run a randomized property suite"),
]
HELP = (("-h", "--help"), "help", False, None, argparse.SUPPRESS, None)
HELP += ("show this help message and exit",)
RANK = (("--rank",), "rank", False, "int", None, None, None)
GENS_HELP = "comma-separated generator word expressions"
GENS = (("--gens",), "gens", False, None, None, None, GENS_HELP)
GRAPH = (("--graph",), "graph", False, None, None, None, "path to a graph JSON file")
TREE = (("--tree",), "tree", False, None, None, None, None)
WORD = (("--word",), "word", True, None, None, None, None)
SUBGROUP = [HELP, RANK, GENS, GRAPH]
SUITES = (
    "hanna-neumann",
    "normal-power",
    "rank-bound-rk3",
    "rank2-intersection",
    "schreier-formula",
    "single-cycle-power",
    "transfer-visibility",
)


def int_flags(*names):
    return [HELP] + [((f"--{name}",), name, True, "int", None, None, None) for name in names]


SURFACE = {
    "fgr": [
        HELP,
        (("--format",), "format", False, None, "json", ("json", "tsv"), None),
        ((), "verb", True, None, None, tuple(name for name, _ in VERBS), None),
    ],
    "fold": SUBGROUP,
    "basis": SUBGROUP + [TREE[:-1] + ("comma list of from:to:label tree edges",)],
    "member": SUBGROUP + [WORD],
    "rewrite": SUBGROUP + [TREE, WORD],
    "intersect": SUBGROUP + [
        (("--gens2",), "gens2", False, None, None, None, GENS_HELP),
        (("--graph2",), "graph2", False, None, None, None, "path to a graph JSON file"),
    ],
    "visible": SUBGROUP + [TREE, WORD],
    "transfer": SUBGROUP + [TREE, WORD],
    "gamma": int_flags("m"),
    "hm": int_flags("m"),
    "lm": int_flags("m"),
    "wk": int_flags("k"),
    "lemma33": int_flags("m"),
    "bergman": int_flags("n", "m", "k"),
    "suite": [
        HELP,
        ((), "name", True, None, None, SUITES, None),
        (("--trials",), "trials", False, "int", 100, None, None),
        (("--seed",), "seed", False, "int", 0, None, None),
    ],
}


def verb_parsers():
    parser = _build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, verbs


def surface(parser):
    return [
        (
            tuple(action.option_strings),
            action.dest,
            action.required,
            getattr(action.type, "__name__", action.type),
            action.default,
            None if action.choices is None else tuple(action.choices),
            action.help,
        )
        for action in parser._actions
    ]


def test_cli_surface_is_unchanged():
    parser, verbs = verb_parsers()
    assert [(choice.dest, choice.help) for choice in verbs._choices_actions] == VERBS
    got = {"fgr": surface(parser), **{name: surface(p) for name, p in verbs.choices.items()}}
    assert got == SURFACE


def test_every_verb_carries_its_answer():
    _, verbs = verb_parsers()
    for name, p in verbs.choices.items():
        assert callable(p.get_default("answer")), name


def test_words_outside_the_subgroup_are_errors(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(run_json(capsys, "fold", "--rank", "2", "--gens", "a")))
    for argv in (
        ("rewrite", "--rank", "2", "--gens", "a", "--word", "ab"),
        ("rewrite", "--rank", "2", "--gens", "a", "--word", "aB"),
        ("visible", "--graph", str(path), "--word", "b"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert err == "fgr: error: word leaves the graph at vertex 0\n"


def test_fold_graph_with_a_bad_label_or_base_is_an_error(capsys, tmp_path):
    path = tmp_path / "raw.json"
    for raw, message in (
        ({"rank": 2, "vertices": 2, "edges": [{"from": 0, "to": 1, "label": 3}]},
         "edge label out of range: (0, 1, 3)"),
        ({"rank": 2, "vertices": 2, "base": 5, "edges": [{"from": 0, "to": 1, "label": 1}]},
         "base vertex out of range"),
    ):
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "fold", "--graph", str(path))
        assert_one_error_line(code, out, err)
        assert err == f"fgr: error: {message}\n"


def test_out_of_memory_is_one_error_line(tmp_path):
    # gamma(2001) x gamma(2002) reaches all 4.0 million product pairs and
    # peaks near 360 MB, far more than a 200 MiB address space holds. The
    # limit is set in the child only, so this process keeps its own.
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    flags = []
    for flag, m in (("--graph", 2001), ("--graph2", 2002)):
        graph_file = tmp_path / f"gamma{m}.json"
        graph_file.write_text(json.dumps(fgr.graph_to_json(gamma_graph(m))))
        flags += [flag, str(graph_file)]
    src = str(Path(fgr.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "fgr", "intersect", *flags],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=limit_address_space,
        timeout=60,
    )
    assert_one_error_line(result.returncode, result.stdout, result.stderr)
    assert result.stderr == "fgr: error: out of memory\n"
