"""Operation and workload records shared by the three workloads."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Op:
    """One closed-loop operation: a call into fgr plus its output check.

    ``run`` is timed; ``check`` is not, and returns an error message or
    None.  ``steps`` collects sub-step times an op chooses to record.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    steps: dict[str, float] = field(default_factory=dict)


@dataclass
class Workload:
    """Fixed inputs of one workload.

    ``warmup`` holds the smallest input of each operation kind; it runs
    before timing starts and is also the smoke test.  ``pass_ops(i)``
    returns the i-th pass of the measured stream; every pass has the
    same composition, so whole passes keep the mix exact.
    """

    warmup: list[Op]
    pass_ops: Callable[[int], list[Op]]


def derive_seed(*parts: object) -> int:
    """A 63-bit seed derived by hashing ``parts``; stable across runs."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
