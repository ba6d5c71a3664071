"""Workflow DAG model.

A serverless workflow is a directed acyclic graph whose nodes are functions
and whose edges are data dependencies (paper §I). The evaluation workflows
(IA, VA) are chains; the model supports general DAGs with validation,
topological ordering, and a critical-path linearisation used to apply the
chain-based synthesis algorithms to branching workflows (paper §VII lists
complex workflows as the natural extension).
"""

from __future__ import annotations

import typing as _t

import networkx as nx

from ..errors import WorkflowError

__all__ = ["WorkflowDAG"]


class WorkflowDAG:
    """Directed acyclic graph of function names."""

    def __init__(
        self,
        nodes: _t.Iterable[str],
        edges: _t.Iterable[tuple[str, str]] = (),
    ) -> None:
        node_list = list(nodes)
        if not node_list:
            raise WorkflowError("workflow must contain at least one function")
        if len(set(node_list)) != len(node_list):
            raise WorkflowError(f"duplicate function names: {node_list}")
        g = nx.DiGraph()
        g.add_nodes_from(node_list)
        for u, v in edges:
            if u not in g or v not in g:
                raise WorkflowError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise WorkflowError(f"self-loop on {u!r}")
            g.add_edge(u, v)
        if not nx.is_directed_acyclic_graph(g):
            cycle = nx.find_cycle(g)
            raise WorkflowError(f"workflow contains a cycle: {cycle}")
        self._g = g
        self._order = list(nx.topological_sort(g))
        self._is_chain = self._path_shaped()

    # -- introspection ------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        """Function names in topological order."""
        return list(self._order)

    @property
    def num_nodes(self) -> int:
        return self._g.number_of_nodes()

    @property
    def edges(self) -> list[tuple[str, str]]:
        return list(self._g.edges())

    def successors(self, node: str) -> list[str]:
        """Immediate downstream functions of ``node``."""
        self._check(node)
        return list(self._g.successors(node))

    def predecessors(self, node: str) -> list[str]:
        """Immediate upstream functions of ``node``."""
        self._check(node)
        return list(self._g.predecessors(node))

    def sources(self) -> list[str]:
        """Entry functions (no predecessors)."""
        return [n for n in self._order if self._g.in_degree(n) == 0]

    def sinks(self) -> list[str]:
        """Exit functions (no successors)."""
        return [n for n in self._order if self._g.out_degree(n) == 0]

    def _check(self, node: str) -> None:
        if node not in self._g:
            raise WorkflowError(f"unknown function {node!r}")

    # -- shape --------------------------------------------------------------
    @property
    def is_chain(self) -> bool:
        """True when the DAG is a simple path f1 -> f2 -> ... -> fN."""
        return self._is_chain

    def _path_shaped(self) -> bool:
        n = self.num_nodes
        if n == 1:
            return True
        if self._g.number_of_edges() != n - 1:
            return False
        degrees_ok = all(
            self._g.in_degree(v) <= 1 and self._g.out_degree(v) <= 1
            for v in self._g
        )
        return degrees_ok and len(self.sources()) == 1 and len(self.sinks()) == 1

    def as_chain(self) -> list[str]:
        """The node sequence when the DAG is a chain; raises otherwise."""
        if not self.is_chain:
            raise WorkflowError("workflow is not a chain; use critical_path()")
        return list(self._order)

    def critical_path(self, weights: _t.Mapping[str, float]) -> list[str]:
        """Longest path by node weight — the chain approximation for DAGs.

        ``weights`` maps every function to a representative execution time;
        the returned path is the latency-dominant chain on which the
        synthesis algorithms operate for non-chain workflows.
        """
        missing = [n for n in self._order if n not in weights]
        if missing:
            raise WorkflowError(f"missing weights for {missing}")
        if any(weights[n] < 0 for n in self._order):
            raise WorkflowError("weights must be >= 0")
        best: dict[str, tuple[float, list[str]]] = {}
        for node in self._order:  # topological order: predecessors done first
            preds = self.predecessors(node)
            if preds:
                prev_cost, prev_path = max(
                    (best[p] for p in preds), key=lambda item: item[0]
                )
            else:
                prev_cost, prev_path = 0.0, []
            best[node] = (prev_cost + float(weights[node]), prev_path + [node])
        return max(best.values(), key=lambda item: item[0])[1]

    def subgraph(self, nodes: _t.Iterable[str]) -> "WorkflowDAG":
        """Induced sub-DAG over ``nodes`` (order preserved)."""
        keep = [n for n in self._order if n in set(nodes)]
        if not keep:
            raise WorkflowError("subgraph would be empty")
        keep_set = set(keep)
        edges = [(u, v) for u, v in self._g.edges() if u in keep_set and v in keep_set]
        return WorkflowDAG(keep, edges)

    def __contains__(self, node: str) -> bool:
        return node in self._g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkflowDAG):
            return NotImplemented
        return (
            set(self._g.nodes) == set(other._g.nodes)
            and set(self._g.edges) == set(other._g.edges)
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._g.nodes), frozenset(self._g.edges)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkflowDAG(nodes={self.nodes}, edges={self.edges})"
