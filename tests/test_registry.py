"""One contract for every name table: policies, stages, routers, experiments,
scenarios, sites and fleets.

Each case re-registers an entry that is already there, so no test here leaves
a new name behind (``tests/test_experiments.py`` pins ``experiment_names()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import pytest

from repro.core.levers import SCHEDULER_REGISTRY, register_policy, registered_policies
from repro.errors import ConfigurationError, FleetError, OptimizationError, SchedulingError
from repro.experiments.registry import (
    experiment_names,
    get_experiment,
    list_experiments,
    register_experiment,
)
from repro.experiments.spec import (
    get_scenario,
    get_site,
    list_scenarios,
    register_scenario,
    register_site,
    scenario_names,
    site_names,
)
from repro.fleet.routing import (
    get_router_definition,
    list_router_definitions,
    register_router,
    router_names,
)
from repro.fleet.spec import fleet_names, get_fleet, list_fleets, register_fleet
from repro.scheduler.compose import get_stage, list_stage_definitions, register_stage, stage_names


@dataclass(frozen=True)
class Table:
    names: Callable[[], tuple[str, ...]]
    get: Callable[[str], Any]
    register: Callable[..., Any]
    error: type[Exception]
    values: Optional[Callable[[], Any]] = None


def _register_policy(definition, *, overwrite=False):
    return register_policy(
        definition.name,
        definition.spec,
        help=definition.help,
        cap_mode=definition.cap_mode,
        overwrite=overwrite,
    )


TABLES = {
    "policies": Table(
        lambda: tuple(SCHEDULER_REGISTRY),
        SCHEDULER_REGISTRY.get,
        _register_policy,
        OptimizationError,
        registered_policies,
    ),
    "stages": Table(
        stage_names, get_stage, register_stage, SchedulingError, list_stage_definitions
    ),
    "routers": Table(
        router_names,
        get_router_definition,
        register_router,
        FleetError,
        list_router_definitions,
    ),
    "experiments": Table(
        experiment_names, get_experiment, register_experiment, ConfigurationError, list_experiments
    ),
    "scenarios": Table(
        scenario_names, get_scenario, register_scenario, ConfigurationError, list_scenarios
    ),
    "sites": Table(site_names, get_site, register_site, ConfigurationError),
    "fleets": Table(fleet_names, get_fleet, register_fleet, ConfigurationError, list_fleets),
}


@pytest.fixture(params=list(TABLES))
def table(request) -> Table:
    return TABLES[request.param]


def test_names_follow_registration_order(table):
    names = table.names()
    assert names and len(set(names)) == len(names)
    if table.values is not None:
        assert tuple(value.name for value in table.values()) == names


def test_duplicate_registration_raises(table):
    before = table.names()
    with pytest.raises(table.error, match="already registered"):
        table.register(table.get(before[0]))
    assert table.names() == before


def test_overwrite_with_the_same_value_keeps_names(table):
    before = table.names()
    first = table.get(before[0])
    table.register(first, overwrite=True)
    assert table.names() == before
    assert table.get(before[0]) == first


def test_unknown_lookup_lists_registered_names(table):
    with pytest.raises(table.error, match="unknown .*'no-such-entry'") as excinfo:
        table.get("no-such-entry")
    assert str(sorted(table.names())) in str(excinfo.value)
