"""Trace-driven execution of DAG workflows with parallel branches.

Extends the analytic backend to branching workflows (paper §VII future
work): a function starts as soon as *all* its predecessors finished, runs
concurrently with sibling branches, and the request completes when every
sink has finished. End-to-end latency is therefore the critical-path length
under the realised per-stage durations.

Sizing decisions happen at each function's start time with the elapsed
wall-clock at that moment — the same information a provider-side adapter
would have. Serving is the analytic backend's kernel walked over the full
graph in topological order; only the walk differs. Stage records come back
in per-request completion order. Registered as ``"dag"`` — the
auto-selected backend for branching workflows; on a chain it is exactly
the analytic backend's sequential replay.
"""

from __future__ import annotations

from .executor import AnalyticExecutor
from .registry import register_executor

__all__ = ["DagAnalyticExecutor"]


@register_executor("dag")
class DagAnalyticExecutor(AnalyticExecutor):
    """Replays request streams through a DAG under a sizing policy."""

    def _walk(self) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
        """``(nodes, predecessor indices)`` in topological order."""
        dag = self.workflow.dag
        nodes = tuple(dag.nodes)
        index = {name: j for j, name in enumerate(nodes)}
        return nodes, tuple(
            tuple(index[p] for p in dag.predecessors(name)) for name in nodes
        )
