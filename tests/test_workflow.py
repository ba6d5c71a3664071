"""Workflow DAGs, specs, catalog, sub-workflows, requests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FunctionModelError, WorkflowError
from repro.functions.model import InvocationDynamics
from repro.workflow.catalog import Workflow, intelligent_assistant, video_analytics
from repro.workflow.chain import chain_dag
from repro.workflow.dag import WorkflowDAG
from repro.workflow.request import (
    RequestBatch,
    RequestOutcome,
    StageRecord,
    WorkflowRequest,
)
from repro.workflow.spec import chain_spec, parse_spec
from repro.workflow.subworkflow import (
    chain_suffixes,
    remaining_after,
    suffix_for_stage,
)
from tests.conftest import make_function


class TestDAG:
    def test_chain_properties(self):
        dag = chain_dag(["A", "B", "C"])
        assert dag.is_chain
        assert dag.as_chain() == ["A", "B", "C"]
        assert dag.sources() == ["A"] and dag.sinks() == ["C"]

    def test_single_node_is_chain(self):
        assert WorkflowDAG(["X"]).is_chain

    def test_cycle_rejected(self):
        with pytest.raises(WorkflowError, match="cycle"):
            WorkflowDAG(["A", "B"], [("A", "B"), ("B", "A")])

    def test_self_loop_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowDAG(["A"], [("A", "A")])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowDAG(["A", "A"])

    def test_empty_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowDAG([])

    def test_unknown_edge_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowDAG(["A"], [("A", "B")])

    def test_diamond_not_chain(self):
        dag = WorkflowDAG(
            ["A", "B", "C", "D"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
        assert not dag.is_chain
        with pytest.raises(WorkflowError):
            dag.as_chain()

    def test_critical_path_picks_heavier_branch(self):
        dag = WorkflowDAG(
            ["A", "B", "C", "D"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
        weights = {"A": 1.0, "B": 10.0, "C": 2.0, "D": 1.0}
        assert dag.critical_path(weights) == ["A", "B", "D"]

    def test_critical_path_missing_weight(self):
        dag = chain_dag(["A", "B"])
        with pytest.raises(WorkflowError):
            dag.critical_path({"A": 1.0})

    def test_topological_order(self):
        dag = WorkflowDAG(["C", "A", "B"], [("A", "B"), ("B", "C")])
        assert dag.nodes == ["A", "B", "C"]

    def test_successors_predecessors(self):
        dag = chain_dag(["A", "B", "C"])
        assert dag.successors("A") == ["B"]
        assert dag.predecessors("C") == ["B"]
        with pytest.raises(WorkflowError):
            dag.successors("Z")

    def test_subgraph(self):
        dag = chain_dag(["A", "B", "C"])
        sub = dag.subgraph(["B", "C"])
        assert sub.nodes == ["B", "C"] and sub.edges == [("B", "C")]

    def test_equality_and_hash(self):
        a, b = chain_dag(["A", "B"]), chain_dag(["A", "B"])
        assert a == b and hash(a) == hash(b)
        assert a != chain_dag(["A", "C"])

    def test_contains(self):
        assert "A" in chain_dag(["A"])


class TestSpec:
    def test_chain_roundtrip(self):
        doc = chain_spec(["OD", "QA", "TS"], comment="IA")
        dag = parse_spec(doc)
        assert dag.as_chain() == ["OD", "QA", "TS"]

    def test_parse_json_text(self):
        dag = parse_spec(json.dumps(chain_spec(["A", "B"])))
        assert dag.as_chain() == ["A", "B"]

    def test_invalid_json_rejected(self):
        with pytest.raises(WorkflowError, match="invalid JSON"):
            parse_spec("{not json")

    def test_missing_states_rejected(self):
        with pytest.raises(WorkflowError):
            parse_spec({"StartAt": "A"})

    def test_bad_startat_rejected(self):
        with pytest.raises(WorkflowError):
            parse_spec({"StartAt": "Z", "States": {"A": {"Type": "Task", "End": True}}})

    def test_dangling_next_rejected(self):
        with pytest.raises(WorkflowError):
            parse_spec(
                {"StartAt": "A",
                 "States": {"A": {"Type": "Task", "Next": "Missing"}}}
            )

    def test_state_without_next_or_end_rejected(self):
        with pytest.raises(WorkflowError):
            parse_spec({"StartAt": "A", "States": {"A": {"Type": "Task"}}})

    def test_parallel_fan_out_fan_in(self):
        doc = {
            "StartAt": "P",
            "States": {
                "P": {
                    "Type": "Parallel",
                    "Branches": [
                        {"StartAt": "B1",
                         "States": {"B1": {"Type": "Task", "End": True}}},
                        {"StartAt": "B2",
                         "States": {"B2": {"Type": "Task", "End": True}}},
                    ],
                    "Next": "Join",
                },
                "Join": {"Type": "Task", "End": True},
            },
        }
        dag = parse_spec(doc)
        assert set(dag.nodes) == {"B1", "B2", "Join"}
        assert ("B1", "Join") in dag.edges and ("B2", "Join") in dag.edges

    def test_empty_chain_spec_rejected(self):
        with pytest.raises(WorkflowError):
            chain_spec([])


class TestCatalog:
    def test_ia_defaults(self):
        wf = intelligent_assistant()
        assert wf.chain == ["OD", "QA", "TS"]
        assert wf.slo_ms == 3000.0
        assert wf.limits.kmin == 1000 and wf.limits.kmax == 3000

    def test_va_defaults(self):
        wf = video_analytics()
        assert wf.chain == ["FE", "ICL", "ICO"]
        assert wf.slo_ms == 1500.0
        assert wf.max_concurrency == 1

    def test_ia_concurrency_variant(self):
        wf = intelligent_assistant(slo_ms=4000.0, concurrency=2)
        assert wf.max_concurrency == 2

    def test_va_rejects_concurrency(self):
        # FE/ICO are not batchable.
        wf = video_analytics()
        with pytest.raises(WorkflowError):
            wf.with_concurrency(2)

    def test_with_slo(self):
        wf = intelligent_assistant().with_slo(5000.0)
        assert wf.slo_ms == 5000.0

    def test_missing_model_rejected(self):
        m = make_function("A")
        with pytest.raises(WorkflowError):
            Workflow(
                name="w", dag=chain_dag(["A", "B"]),
                functions={"A": m}, slo_ms=1000.0,
            )

    def test_extra_model_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow(
                name="w", dag=chain_dag(["A"]),
                functions={"A": make_function("A"), "B": make_function("B")},
                slo_ms=1000.0,
            )

    def test_model_lookup(self):
        wf = intelligent_assistant()
        assert wf.model("OD").name == "OD"
        with pytest.raises(WorkflowError):
            wf.model("nope")

    def test_chain_is_cached_but_returned_fresh(self):
        wf = intelligent_assistant()
        first = wf.chain
        first.append("bogus")
        assert wf.chain == ["OD", "QA", "TS"]
        assert wf.chain is not wf.chain
        assert wf.topology == "chain"

    def test_critical_path_chain_is_cached_but_returned_fresh(self):
        heavy = make_function("B", serial=500.0)
        functions = {
            "A": make_function("A"), "B": heavy,
            "C": make_function("C"), "D": make_function("D"),
        }
        dag = WorkflowDAG(
            ["A", "B", "C", "D"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
        wf = Workflow(name="w", dag=dag, functions=functions, slo_ms=1000.0)
        assert wf.topology == "dag"
        wf.chain.clear()
        assert wf.chain == ["A", "B", "D"]
        # Cached order stays out of equality, so copies still compare equal.
        assert wf == Workflow(name="w", dag=dag, functions=functions, slo_ms=1000.0)


class TestSubworkflows:
    def test_chain_suffixes(self):
        assert chain_suffixes(["A", "B", "C"]) == [
            ("A", "B", "C"), ("B", "C"), ("C",),
        ]

    def test_suffix_for_stage(self):
        assert suffix_for_stage(["A", "B", "C"], 1) == ("B", "C")
        with pytest.raises(WorkflowError):
            suffix_for_stage(["A"], 5)

    def test_empty_chain_rejected(self):
        with pytest.raises(WorkflowError):
            chain_suffixes([])

    def test_remaining_after_prefix(self):
        dag = chain_dag(["A", "B", "C"])
        rest = remaining_after(dag, ["A"])
        assert rest is not None and rest.nodes == ["B", "C"]

    def test_remaining_after_all(self):
        dag = chain_dag(["A", "B"])
        assert remaining_after(dag, ["A", "B"]) is None

    def test_remaining_after_non_prefix_rejected(self):
        dag = chain_dag(["A", "B", "C"])
        with pytest.raises(WorkflowError):
            remaining_after(dag, ["B"])  # A unfinished but B done

    def test_remaining_after_unknown_rejected(self):
        with pytest.raises(WorkflowError):
            remaining_after(chain_dag(["A"]), ["Z"])


class TestRequests:
    def _dyn(self):
        return InvocationDynamics(workset=1.0, noise_z=0.0)

    def test_stage_record_duration(self):
        rec = StageRecord("F", 1000, 10.0, 25.0)
        assert rec.execution_ms == 15.0

    def test_stage_record_invalid(self):
        with pytest.raises(WorkflowError):
            StageRecord("F", 1000, 10.0, 5.0)

    def test_request_validation(self):
        with pytest.raises(WorkflowError):
            WorkflowRequest(0, 0.0, -1.0, {"F": self._dyn()})
        with pytest.raises(WorkflowError):
            WorkflowRequest(0, 0.0, 100.0, {})
        with pytest.raises(WorkflowError):
            WorkflowRequest(0, 0.0, 100.0, {"F": self._dyn()}, concurrency=0)

    def test_dynamics_lookup(self):
        req = WorkflowRequest(0, 0.0, 100.0, {"F": self._dyn()})
        assert req.dynamics_for("F") == self._dyn()
        with pytest.raises(WorkflowError):
            req.dynamics_for("G")

    def test_outcome_metrics(self):
        out = RequestOutcome(
            request_id=1, arrival_ms=100.0, slo_ms=1000.0,
            stages=[
                StageRecord("A", 1000, 100.0, 400.0),
                StageRecord("B", 2000, 400.0, 900.0),
            ],
        )
        assert out.e2e_ms == 800.0
        assert out.slo_met
        assert out.slack == pytest.approx(0.2)
        assert out.allocated_millicores == 3000
        assert out.millicore_ms == pytest.approx(1000 * 300 + 2000 * 500)
        assert out.sizes() == [1000, 2000]
        assert set(out.stage_map()) == {"A", "B"}

    def test_outcome_violation(self):
        out = RequestOutcome(
            request_id=1, arrival_ms=0.0, slo_ms=100.0,
            stages=[StageRecord("A", 1000, 0.0, 150.0)],
        )
        assert not out.slo_met and out.slack < 0

    def test_empty_outcome(self):
        out = RequestOutcome(request_id=1, arrival_ms=0.0, slo_ms=100.0)
        assert out.e2e_ms == 0.0


def batch_columns(n, nodes):
    """Valid columns of an ``n``-request batch over ``nodes``."""
    shape = (n, len(nodes))
    return dict(
        nodes=nodes,
        ids=np.arange(n),
        arrivals=np.linspace(0.0, 50.0, n),
        slos=np.full(n, 3000.0),
        concurrency=np.ones(n, dtype=np.int64),
        worksets=np.arange(1.0, n * len(nodes) + 1.0).reshape(shape),
        noise=np.linspace(-1.0, 1.0, n * len(nodes)).reshape(shape),
        interference=np.ones(shape),
    )


def rows_of(columns):
    """The same requests built one object at a time, in request order."""
    nodes = columns["nodes"]
    return [
        WorkflowRequest(
            request_id=int(columns["ids"][i]),
            arrival_ms=float(columns["arrivals"][i]),
            slo_ms=float(columns["slos"][i]),
            stage_dynamics={
                node: InvocationDynamics(
                    workset=float(columns["worksets"][i, j]),
                    noise_z=float(columns["noise"][i, j]),
                    interference=float(columns["interference"][i, j]),
                )
                for j, node in enumerate(nodes)
            },
            concurrency=int(columns["concurrency"][i]),
        )
        for i in range(len(columns["ids"]))
    ]


#: (column, invalid value, error): one cell per WorkflowRequest or
#: InvocationDynamics check.
INVALID = [
    ("worksets", 0.0, FunctionModelError),
    ("worksets", -2.5, FunctionModelError),
    ("interference", 0.5, FunctionModelError),
    ("slos", 0.0, WorkflowError),
    ("slos", -1.0, WorkflowError),
    ("concurrency", 0, WorkflowError),
]


class TestRequestBatch:
    def test_rows_are_built_from_columns(self):
        columns = batch_columns(4, ("A", "B"))
        batch = RequestBatch(**columns, workflow="W")
        assert len(batch) == 4
        for row, expected in zip(batch, rows_of(columns)):
            expected.workflow = "W"
            assert row == expected
        assert batch[2] is batch[2]  # built once
        assert batch[-1].request_id == 3

    def test_from_requests_keeps_the_objects(self):
        requests = rows_of(batch_columns(3, ("A", "B")))
        batch = RequestBatch.from_requests(requests, ("B",))
        assert all(a is b for a, b in zip(batch, requests))
        assert batch.worksets[:, 0].tolist() == [
            r.dynamics_for("B").workset for r in requests
        ]
        assert batch.worksets[:, 0].flags.c_contiguous
        with pytest.raises(WorkflowError, match="no dynamics for 'C'"):
            RequestBatch.from_requests(requests, ("C",))

    def test_slices_and_joins(self):
        columns = batch_columns(5, ("A", "B", "C"))
        batch = RequestBatch(**columns)
        head, tail = batch[:2], batch[2:]
        assert [r.request_id for r in tail] == [2, 3, 4]
        joined = head.concatenate(tail)
        assert joined.ids.tolist() == list(range(5))
        assert np.array_equal(joined.worksets, batch.worksets)
        assert joined.noise[:, 1].flags.c_contiguous
        assert list(joined) == list(batch)
        with pytest.raises(WorkflowError, match="cannot join"):
            batch.concatenate(RequestBatch(**batch_columns(1, ("A",))))
        with pytest.raises(WorkflowError, match="has no dynamics"):
            batch.column("D")

    def test_shape_and_stage_checks(self):
        with pytest.raises(WorkflowError, match=">= 1 stage"):
            RequestBatch(**{**batch_columns(2, ("A",)), "nodes": ()})
        with pytest.raises(WorkflowError, match="request columns"):
            RequestBatch(**{**batch_columns(2, ("A",)), "slos": [1.0]})
        with pytest.raises(WorkflowError, match="dynamics columns"):
            RequestBatch(
                **{**batch_columns(2, ("A",)), "noise": np.zeros((2, 2))}
            )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        width=st.integers(1, 3),
        invalid=st.sampled_from(INVALID),
        where=st.tuples(st.integers(0, 5), st.integers(0, 2)),
    )
    def test_property_every_check_raises_as_the_objects_do(
        self, n, width, invalid, where
    ):
        name, value, error = invalid
        columns = batch_columns(n, ("A", "B", "C")[:width])
        row, node = where[0] % n, where[1] % width
        column = columns[name].copy()
        if column.ndim == 2:
            column[row, node] = value
        else:
            column[row] = value
        columns[name] = column
        with pytest.raises(error) as scalar:
            rows_of(columns)
        with pytest.raises(error) as batched:
            RequestBatch(**columns)
        assert str(batched.value) == str(scalar.value)
