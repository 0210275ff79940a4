"""``tools/bench_layers.py`` on its smallest rung with one repeat, in
process; it takes well under a second."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"
LAYERS = {
    "json_load",
    "graph_from_json",
    "check_core",
    "spanning_tree_default",
    "spanning_tree_override",
    "tree_flag",
    "basis_render",
    "basis_text",
    "rewrite_in_basis",
    "contains",
    "from_generators",
    "substitute",
    "cli_rewrite",
    "cli_basis",
    "intersect_cyclic",
    "bergman_cyclic",
    "bergman_rank2",
    "degrees",
    "bergman_report",
    "hm_graph",
    "pullback_orbit",
    "pullback_diagonal",
    "pullback_covers",
}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_rung_times_every_layer(capsys):
    assert load_script().main(["--rungs", "r2i100", "--repeats", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    times = report["rungs"]["r2i100"]
    assert set(times) == LAYERS
    assert all(t > 0 for t in times.values())
    assert report["growth_exponents"] == {}


def test_growth_exponent_is_the_log_log_slope():
    script = load_script()
    # Time proportional to index squared on the rank-2 covers.
    names = ("r2i100", "r2i200", "r2i400")
    rungs = {name: {"layer": (script.RUNGS[name][2] / 100) ** 2} for name in names}
    assert script.growth_exponents(rungs) == {"rank-2 covers": {"layer": 2.0}}
