"""Print the families ladder rows that the ROADMAP Baseline table shares.

    python3 perfbench/ladder_table.py perfbench/results/families-trace1.json

Reads one results record of the ``families`` workload (a traced record
also has the ``lm_graph`` rows) and prints a Markdown table of median
seconds per rung with the growth exponent of each series against m.
"""

from __future__ import annotations

import json
import sys

SERIES = (
    ("lm_graph (traced)", "`lm_graph` (folding via `from_generators`), traced"),
    ("bergman n=2", "`bergman_counterexample(2, m, 1)`"),
    ("bergman n=3", "`bergman_counterexample(3, m, 2)`"),
    ("pullback", "`pullback(gamma_graph(m), gamma_graph(m+1))`"),
    ("hm transfer", "`transfer(hm_graph(m), wk_word((m-1)//2))`"),
    ("hm homology_projection", "`homology_projection(hm_graph(m))`"),
)


def main(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    series = record["result"]["ladder"]["series"]
    print(f"seed {record['seed']}, Python {record['python']}, revision {record['git_revision']}")
    print()
    print("| layer | m | median time | growth exponent in m |")
    print("| --- | --- | --- | --- |")
    for name, label in SERIES:
        if name not in series:
            continue
        points = series[name]["points"]
        sizes = " / ".join(str(p["m"]) for p in points)
        times = " / ".join(f"{p['median_s']:.3g} s" for p in points)
        print(f"| {label} | {sizes} | {times} | {series[name]['growth_exp']:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
