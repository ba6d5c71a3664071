"""The benchmark's workloads: the CLI invocation each one runs, how its
outputs are checked, and which modelled numbers are read from them.

Why each workload exists, and which metric each layer should move on it,
is written down in ``MAPPING.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "serve"
    default_seed: int
    cli_args: tuple[str, ...]
    #: sweeps: expected cells and the policies every cell must report.
    cells: int = 0
    policies: tuple[str, ...] = ()
    #: requests per tenant (sweeps) or in total (serve).
    requests: int = 0
    #: policy-requests one run attempts.
    attempted: int = 0
    #: extra modules the CLI imports lazily before its first dispatch;
    #: imported up front so the counting probes can wrap them.
    imports: tuple[str, ...] = ()

    def argv(self, seed: int, outdir: str) -> list[str]:
        """The ``janus-repro`` command line for one run."""
        out = os.path.join(outdir, "report.json" if self.kind == "sweep"
                           else "snapshot.json")
        flag = "--json" if self.kind == "sweep" else "--snapshot-out"
        return [*self.cli_args, "--seed", str(seed), flag, out]

    def read(self, outdir: str) -> "Outputs":
        """Check one run's output file and extract what the metrics need."""
        path = os.path.join(outdir, "report.json" if self.kind == "sweep"
                            else "snapshot.json")
        with open(path, "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        data = json.loads(raw)
        if self.kind == "serve":
            return self._read_serve(data, digest)
        return self._read_sweep(data, digest)

    def _read_serve(self, snap: dict, digest: str) -> "Outputs":
        problems = []
        arrivals, completed = int(snap["arrivals"]), int(snap["completed"])
        if arrivals != self.requests:
            problems.append(f"{arrivals} arrivals, wanted {self.requests}")
        if completed != arrivals:
            problems.append(f"{arrivals - completed} of {arrivals} dropped")
        return Outputs(
            digest=digest,
            served=completed,
            problems=problems,
            modelled={
                "janus_mc_per_request": snap["mean_allocated_millicores"],
                "janus_p99_ms": snap["p99"],
                "janus_slo_attainment": snap["slo_attainment"],
                # Serving runs one policy, so there is no Optimal to
                # normalise by.
                "janus_norm_cpu": 0.0,
            },
        )

    def _read_sweep(self, report: dict, digest: str) -> "Outputs":
        problems = []
        cells = report["results"]
        if report["skipped"]:
            problems.append(f"skipped cells: {sorted(report['skipped'])}")
        if len(cells) != self.cells:
            problems.append(f"{len(cells)} cells, wanted {self.cells}")
        served = 0
        for cell in cells:
            missing = [p for p in self.policies if p not in cell["table"]]
            if missing:
                problems.append(f"{cell['scenario_id']}: no {missing}")
            served += self.requests * cell["tenants"] * len(cell["table"])
        janus = [c["table"]["Janus"] for c in cells if "Janus" in c["table"]]

        def mean(key: str) -> float:
            # The sweep report's aggregate: a plain mean over cells.
            return sum(row[key] for row in janus) / max(len(janus), 1)

        optimal = [c for c in cells if c["baseline"] == "Optimal"]
        return Outputs(
            digest=digest,
            served=served,
            problems=problems,
            modelled={
                "janus_mc_per_request": mean("mean_allocated_millicores"),
                "janus_p99_ms": mean("p99_e2e_ms"),
                "janus_slo_attainment": 1.0 - mean("violation_rate"),
                "janus_norm_cpu": (
                    mean("normalized_cpu") if len(optimal) == len(cells)
                    else 0.0
                ),
            },
        )


@dataclass(frozen=True)
class Outputs:
    digest: str
    served: int
    problems: list[str]
    modelled: dict[str, float]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The CLI's default matrix, serial: IA,VA x 4 arrival processes x
        # SLO x1/x1.25 x tenants 1/2 = 32 cells x 4 policies.
        Workload(
            name="sweep-default",
            kind="sweep",
            default_seed=2025,
            cli_args=("sweep", "--jobs", "1", "--no-cache"),
            cells=32,
            policies=("Optimal", "ORION", "GrandSLAM", "Janus"),
            requests=200,
            # 16 one-tenant and 16 two-tenant cells: 9,600 requests per
            # policy.
            attempted=38_400,
        ),
        # IA on a two-VM DES cluster at 8 req/s: capacity polling
        # dominates; the preempt cell drives cluster.faults.
        Workload(
            name="cluster-saturated",
            kind="sweep",
            default_seed=2025,
            cli_args=(
                "sweep", "--jobs", "1", "--no-cache",
                "--workflows", "IA", "--slo-scales", "1.0", "--tenants", "1",
                "--executor", "cluster", "--cluster-config", "n_vms=2",
                "--arrivals", "poisson@8", "--requests", "120",
                "--policies", "GrandSLAM,Janus", "--faults", "none,preempt@6",
            ),
            cells=2,
            policies=("GrandSLAM", "Janus"),
            requests=120,
            attempted=480,
        ),
        # The always-on loop, unpaced, with two forced workload drifts
        # that trigger live re-synthesis and hint hot-swaps. At the CLI's
        # 1 % miss threshold, noise alone re-synthesises 3 to 25 times
        # depending on the seed; at 5 % only the two drifts do, so the
        # work per run does not depend on the seed.
        Workload(
            name="serve-drift",
            kind="serve",
            default_seed=0,
            cli_args=(
                "serve", "--workflow", "IA", "--policy", "Janus",
                "--source", "diurnal@8", "--max-requests", "20000",
                "--drift", "5000:4.0,12000:1.0", "--miss-threshold", "0.05",
                "--samples", "2000",
            ),
            requests=20000,
            attempted=20000,
            imports=("repro.serving",),
        ),
    )
}
