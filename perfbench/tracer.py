"""Span tracing of fgr's public functions, installed at run time.

The tracer wraps each public module-level function of the six fgr
modules and rebinds the wrapper in every fgr namespace that binds the
original, so calls between layers (``abelian`` calling
``stallings.basis``) are caught as well as the benchmark's own calls.
No file under ``src/`` changes.  Spans live in flat arrays in memory and
are written out when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from collections import defaultdict
from time import perf_counter_ns

from stats import growth_exponent

MODULES = ("words", "stallings", "abelian", "constructions", "retracts", "cli")

# Hot leaf helpers left unwrapped: they are called hundreds of thousands
# of times per run, so their spans would cost more than they tell.
LEAF_HELPERS = frozenset(
    {
        "words.checked_int64",
        "words.add_vectors",
        "words.identity",
        "words.reduce_word",
        "words.render_word",
        "words.with_rank",
        "words.commutator",
        "stallings.trivial_graph",
        "stallings.subgroup_rank",
        "abelian.ambient_vector",
    }
)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


# Input size a span is charged with, seen from outside the call:
# function -> (unit name, size from the call's arguments).
UNITS = {
    "words.parse_word": ("characters", lambda a, k: len(_arg(a, k, 0, "text"))),
    "words.substitute": ("letters", lambda a, k: len(_arg(a, k, 0, "w"))),
    "words.exponent_sums": ("letters", lambda a, k: len(_arg(a, k, 0, "w"))),
    "stallings.from_generators": (
        "generator letters",
        lambda a, k: sum(len(g) for g in _arg(a, k, 1, "generators")),
    ),
    "stallings.pullback": (
        "product pairs (V1*V2)",
        lambda a, k: _arg(a, k, 0, "g1").vertex_count * _arg(a, k, 1, "g2").vertex_count,
    ),
    "stallings.basis": ("edges", lambda a, k: len(_arg(a, k, 0, "graph").edges)),
    "stallings.rewrite_in_basis": ("letters", lambda a, k: len(_arg(a, k, 2, "w"))),
    "stallings.contains": ("letters", lambda a, k: len(_arg(a, k, 1, "w"))),
    "stallings.walk": ("letters", lambda a, k: len(_arg(a, k, 2, "letters"))),
    "constructions.lm_graph": ("m", lambda a, k: _arg(a, k, 0, "m")),
    "abelian.transfer": (
        "edges + letters",
        lambda a, k: len(_arg(a, k, 0, "graph").edges) + len(_arg(a, k, 2, "w")),
    ),
    "abelian.homology_projection": ("edges", lambda a, k: len(_arg(a, k, 0, "graph").edges)),
    "retracts.bergman_counterexample": ("m", lambda a, k: _arg(a, k, 1, "m")),
}


class Tracer:
    """Records one span per call of a wrapped fgr function."""

    def __init__(self, package) -> None:
        self.names: list[str] = []
        self.op_id = 0
        self.stack: list[int] = []
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.units = array("q")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        # (namespace, attribute, original, wrapper) for every binding.
        self._bindings: list[tuple[object, str, object, object]] = []
        namespaces = [package] + [getattr(package, module) for module in MODULES]
        for module_name in MODULES:
            module = getattr(package, module_name)
            for attr, fn in sorted(vars(module).items()):
                qualified = f"{module_name}.{attr}"
                if (
                    attr.startswith("_")
                    or qualified in LEAF_HELPERS
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                _, units_of = UNITS.get(qualified, (None, None))
                wrapper = self._wrap(len(self.names), fn, units_of)
                self.names.append(qualified)
                for ns in namespaces:
                    for bound, value in vars(ns).items():
                        if value is fn:
                            self._bindings.append((ns, bound, fn, wrapper))

    def install(self) -> None:
        for ns, bound, _, wrapper in self._bindings:
            setattr(ns, bound, wrapper)

    def uninstall(self) -> None:
        for ns, bound, fn, _ in self._bindings:
            setattr(ns, bound, fn)

    def _wrap(self, index: int, fn, units_of):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            span = len(tracer.end)
            tracer.name.append(index)
            tracer.op.append(tracer.op_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.units.append(units_of(args, kwargs) if units_of else 0)
            tracer.child.append(0)
            tracer.end.append(0)
            stack.append(span)
            start = perf_counter_ns()
            tracer.start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.end[span] = end
                if stack:
                    tracer.child[stack[-1]] += end - start

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def layers(self) -> dict[str, dict]:
        """Per-function calls, self/total seconds, units and growth."""
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        units = defaultdict(int)
        points = defaultdict(list)
        for i in range(len(self.end)):
            name = self.name[i]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += duration
            self_ns[name] += duration - self.child[i]
            if self.units[i] > 0:
                units[name] += self.units[i]
                points[name].append((self.units[i], duration))
        out = {}
        for index, qualified in enumerate(self.names):
            n_units = units[index]
            out[qualified] = {
                "calls": calls[index],
                "self_s": self_ns[index] / 1e9,
                "total_s": total[index] / 1e9,
                "units": n_units,
                "unit": UNITS.get(qualified, (None,))[0],
                "ns_per_unit": self_ns[index] / n_units if n_units else None,
                "growth_exp": growth_exponent(points[index]),
            }
        return out

    def series(self, qualified: str) -> list[tuple[int, float]]:
        """(units, seconds) of every span of one function."""
        index = self.names.index(qualified)
        return [
            (self.units[i], (self.end[i] - self.start[i]) / 1e9)
            for i in range(len(self.end))
            if self.name[i] == index
        ]

    def write_spans(self, path) -> int:
        """Write every span as gzip'd CSV; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,op,name,parent,start_ns,end_ns,child_ns,units\n")
            for i in range(len(self.end)):
                out.write(
                    f"{i},{self.op[i]},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{self.start[i]},{self.end[i]},{self.child[i]},{self.units[i]}\n"
                )
        return len(self.end)
