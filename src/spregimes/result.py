"""The result type every solver returns.

It sits below the solvers, so the metrics and the file formats can read
results without importing the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Partition
from .linreg import RegionModel

__all__ = ["SolveResult"]


@dataclass
class SolveResult:
    """Final partition, per-region models, and run diagnostics.

    ``trace`` holds the total SSR after each iteration of the improvement
    loop (starting from the initial solution) and is non-increasing. For
    K-Models it covers the partition stage; the merge stage only enforces
    constraints and can raise the final SSR above ``trace[-1]``.
    ``stop_reason`` is ``"converged"`` when the loop's last iteration moved
    nothing, ``"max_iter"`` when the cap ended it, and None for results
    reloaded from files.
    """

    partition: Partition
    models: list[RegionModel]
    total_ssr: float
    iterations_used: int
    seed: int
    wall_time: float
    trace: list[float] = field(default_factory=list)
    stop_reason: str | None = None
