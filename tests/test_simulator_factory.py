"""Every public simulation path builds its simulator one way.

The pinned digests below were captured from the public entry points —
``ExperimentSession.simulate_policy``, ``optimize_operations`` and a served
session run to its horizon — before their hand-wired simulator construction
was folded into :func:`~repro.core.levers.build_simulator`.  Matching digests
mean bit-identical job records, so the consolidation changed no behaviour.
A structural test keeps the factory the only place a ``ClusterSimulator`` is
constructed, and another keeps ``cluster/resources.py`` the only module that
touches the cluster's state rows and counters.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro.cluster
from repro.cluster import resources
from repro.cluster.cooling import CoolingModel
from repro.cluster.observers import SimulatorObserver
from repro.cluster.simulator import SimulationConfig
from repro.core.levers import OperatingPoint, Substrates, build_simulator
from repro.experiments import ExperimentSession
from repro.serve.session import ServeSession

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

SCENARIO = "supercloud-small"
N_JOBS = 200
HORIZON_H = 5 * 24.0
BUDGET_W = 18000.0


#: ``simulate_policy`` on supercloud-small: (policy, cap, facility budget) -> digest.
SIMULATE_POLICY_HASHES = {
    ("backfill", None, None): "2ab3659092da0d103110a1c5144802b75178abeb91e89d73dc2d7160eca5ea59",
    ("energy-aware", 0.7, BUDGET_W): "205079ec707054070a7fc06bfbd7cf9c42f3281db04b22613dcf708bbb52e559",
}

#: The optimizer's evaluated points, by operating point label (and budget).
OPTIMIZE_POINTS = (
    OperatingPoint(),
    OperatingPoint(supply_fraction=0.75, policy_name="carbon-aware", power_cap_fraction=0.7),
    OperatingPoint(policy_name="energy-aware", facility_power_budget_w=BUDGET_W),
)
OPTIMIZE_HASHES = {
    (OPTIMIZE_POINTS[0].label(), None): "2ab3659092da0d103110a1c5144802b75178abeb91e89d73dc2d7160eca5ea59",
    (OPTIMIZE_POINTS[1].label(), None): "4200b7c7fcebd79ae6ccb3e41492887085afed93524b213f19245135b2c5ecbb",
    (OPTIMIZE_POINTS[2].label(), BUDGET_W): "ec3b968e5ff3453f6801a9afcbece1d0a7d2d93a82004c2a632984a91d41cbf3",
}

#: A served carbon-aware session with a preloaded trace, advanced to its horizon.
SERVE_HASH = "ee53ac140f935f618efad49a876b63396944ed1c61ad481e18246fd00815c383"


@pytest.fixture(scope="module")
def session():
    return ExperimentSession(SCENARIO)


@pytest.mark.parametrize("key", sorted(SIMULATE_POLICY_HASHES, key=repr))
def test_simulate_policy_records_pinned(session, key):
    policy, cap, budget = key
    result = session.simulate_policy(
        policy,
        n_jobs=N_JOBS,
        horizon_h=HORIZON_H,
        power_cap_fraction=cap,
        facility_power_budget_w=budget,
    )
    assert result.digest() == SIMULATE_POLICY_HASHES[key]


def test_optimize_operations_records_pinned(session):
    outcome = session.optimize_operations(
        n_jobs=N_JOBS, horizon_h=HORIZON_H, points=OPTIMIZE_POINTS
    )
    digests = {
        (e.point.label(), e.point.facility_power_budget_w): e.result.digest()
        for e in outcome.evaluated
    }
    assert digests == OPTIMIZE_HASHES


def test_served_session_records_pinned(session):
    served = ServeSession.create(
        session_id="pinned",
        scenario_name=SCENARIO,
        overrides={},
        policy="carbon-aware",
        horizon_h=HORIZON_H,
        tick_h=1.0,
        facility_power_budget_w=None,
        power_cap_fraction=None,
        preload_jobs=N_JOBS,
        world=session,
    )
    served.advance_to(HORIZON_H)
    served.finalize()
    assert served.result.digest() == SERVE_HASH


# ---------------------------------------------------------------------------
# The factory itself
# ---------------------------------------------------------------------------


def test_supply_fraction_drains_before_construction(session):
    spec = session.spec
    full = build_simulator(spec, session.scenario(), "backfill", SimulationConfig())
    reduced = build_simulator(
        spec, session.scenario(), "backfill", SimulationConfig(), supply_fraction=0.75
    )
    assert reduced.cluster.n_drained_nodes == round(0.25 * spec.facility.n_nodes)
    # The simulator's idle power baseline already reflects the drained nodes.
    assert reduced.current_it_power_w < full.current_it_power_w


def test_cooling_and_substrates_are_attached(session):
    scenario = session.scenario()
    simulator = build_simulator(
        session.spec, Substrates(scenario.weather_hourly_c, scenario.grid), "fifo", SimulationConfig()
    )
    assert isinstance(simulator.cooling, CoolingModel)
    assert simulator.grid is scenario.grid


def test_observers_run_ahead_of_the_schedulers(session):
    class Marker(SimulatorObserver):
        pass

    marker = Marker()
    simulator = build_simulator(
        session.spec,
        session.scenario(),
        "carbon-aware",
        SimulationConfig(),
        observers=[marker],
    )
    assert simulator._observers[0] is marker


class _ConstructionFinder(ast.NodeVisitor):
    """Records the innermost enclosing function of each ``ClusterSimulator(...)``."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.scope = ["<module>"]
        self.sites: list[str] = []

    def visit_FunctionDef(self, node: ast.AST) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "ClusterSimulator":
            self.sites.append(f"{self.module}:{self.scope[-1]}")
        self.generic_visit(node)


def _simulator_constructions() -> list[str]:
    """``module:function`` of every ``ClusterSimulator(...)`` call under src."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        finder = _ConstructionFinder(path.relative_to(SRC).as_posix())
        finder.visit(ast.parse(path.read_text(), filename=str(path)))
        sites.extend(finder.sites)
    return sites


def test_cluster_simulator_is_constructed_in_one_function():
    assert _simulator_constructions() == ["core/levers.py:build_simulator"]


#: The cluster's job-id rows and maintained counters, private to resources.py.
CLUSTER_STATE_NAMES = frozenset(
    {
        "_job_ids",
        "_node_free",
        "_drained",
        "_buckets",
        "_busy_power_w",
    }
)


def _cluster_state_references() -> list[str]:
    """``module:line name`` of every use of a cluster state name outside resources.py."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "cluster/resources.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "attr", getattr(node, "id", getattr(node, "value", None)))
            if isinstance(name, str) and name in CLUSTER_STATE_NAMES:
                sites.append(f"{module}:{node.lineno} {name}")
    return sites


def test_only_resources_touches_the_cluster_rows():
    assert _cluster_state_references() == []


def test_cluster_exports_no_object_views():
    for module in (repro.cluster, resources):
        assert not {"Node", "GpuResource", "NodeState"} & set(vars(module)), module.__name__
