"""Tests for the multi-site fleet subsystem (repro.fleet).

Covers, per the subsystem's acceptance bar:

* **Conservation** — every generated job is dispatched exactly once, and
  fleet totals equal the sum of the per-site totals bit-for-bit.
* **Reproducibility** — seeded fleet runs are hash-pinned per router.
* **Degenerate parity** — a one-site fleet reproduces the single-site
  :class:`~repro.experiments.ExperimentSession` results bit-identically.
* The router grammar/registry, the stepping simulator API the lockstep loop
  is built on, the ``fleet`` experiment, campaign sweeps over ``router``,
  and the CLI surfaces.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import main
from repro.cluster.cooling import CoolingModel
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.levers import make_scheduler
from repro.errors import ConfigurationError, FleetError, SimulationError
from repro.experiments import CampaignSpec, ExperimentSession, get_scenario, run_campaign
from repro.experiments.campaign import split_value_list
from repro.fleet import (
    CompositeRouter,
    FleetSimulator,
    FleetSpec,
    REGION_GRIDS,
    RouterDefinition,
    SiteScorer,
    SiteSnapshot,
    get_fleet,
    make_router,
    parse_router,
    register_router,
    resolve_member,
    router_names,
)
from repro.scheduler.job import Job, JobState

SEED = 7
N_MONTHS = 2
HORIZON_H = 72.0
N_JOBS = 120

#: Routers exercised by the seeded pinned world (incl. a binding filter).
PINNED_ROUTERS = (
    "round-robin",
    "least-queued",
    "carbon-min",
    "price-min",
    "renewable-max",
    "carbon-min+free-gpus(min=48)",
)

#: sha256 over the repr of the assignment table plus every site's job-record
#: tuples, captured from the run that introduced the subsystem.  Matching
#: hashes mean bit-identical routing decisions *and* per-site outcomes.
PINNED_FLEET_HASHES = {
    "round-robin": "12af48094a7c53997bae1d4c77c087fb2cfbc82151a76e171ff2201f7edb97dd",
    "least-queued": "b456ad124832b0dce2f8eccc9106a8b09175ada1ca5e27021f71c2795169ac47",
    "carbon-min": "091284e4e854228e5715e3a6ce68657dd2cb629a7f25f37d0a30fb12f7593e49",
    "price-min": "c0a20b9ef1a9c5797b4e8acbd7c056868f29bede710bada16aefd6771d1c0deb",
    "renewable-max": "c8d1d2e433050b2156fc29e9f28f1341a50df91cf39ff490bb10816d9351bb8c",
    "carbon-min+free-gpus(min=48)": (
        "da2f670af5709a196eaf2e06abdbe9d697d187e6d8a7f14ed90b8741200f2277"
    ),
}


@pytest.fixture(scope="module")
def tri_world():
    """The seeded tri-site world plus one fleet run per pinned router."""
    fleet = get_fleet("tri-site-small").with_member_overrides(n_months=N_MONTHS, seed=SEED)
    session = ExperimentSession(fleet.members[0])
    trace = session.job_trace(n_jobs=N_JOBS, horizon_h=HORIZON_H, spec=fleet.members[0])
    results = {
        router: FleetSimulator(
            fleet, router=router, horizon_h=HORIZON_H, session=session
        ).run(trace)
        for router in PINNED_ROUTERS
    }
    return fleet, session, trace, results


# ---------------------------------------------------------------------------
# Router grammar and registry
# ---------------------------------------------------------------------------


def _snapshot(index, *, queue=0, free=64, total=64, carbon=None, price=None,
              renewable=None, name=None):
    return SiteSnapshot(
        index=index,
        name=name or f"site-{index}",
        queue_length=queue,
        running_jobs=0,
        free_gpus=free,
        total_gpus=total,
        it_power_w=0.0,
        carbon_intensity_g_per_kwh=carbon,
        price_per_mwh=price,
        renewable_share=renewable,
    )


def _job(job_id="j0", n_gpus=1, submit=0.0):
    return Job(job_id=job_id, user_id="u", n_gpus=n_gpus, duration_h=1.0, submit_time_h=submit)


class TestRouterGrammar:
    def test_round_trip_canonical_spelling(self):
        router = make_router("carbon-min+queue-cap(max=50)")
        assert router.name == "carbon-min+queue-cap(max=50)"
        assert make_router(router.name).name == router.name

    def test_filters_only_defaults_to_round_robin(self):
        router = make_router("queue-cap(max=3)")
        assert isinstance(router, CompositeRouter)
        assert router.scorer.name == "round-robin"

    def test_unknown_token_raises(self):
        with pytest.raises(FleetError, match="unknown router token"):
            make_router("warp-speed")

    def test_two_scorers_raise(self):
        with pytest.raises(FleetError, match="at most one"):
            parse_router("carbon-min+price-min")

    def test_unbalanced_parens_raise(self):
        with pytest.raises(FleetError, match="unbalanced"):
            make_router("queue-cap(max=3")

    def test_unknown_argument_raises(self):
        with pytest.raises(FleetError, match="unknown argument"):
            make_router("queue-cap(maximum=3)")

    def test_missing_required_argument_raises(self):
        with pytest.raises(FleetError, match="missing required argument"):
            make_router("carbon-cap")

    def test_register_router_duplicate_raises(self):
        with pytest.raises(FleetError, match="already registered"):
            register_router(
                RouterDefinition(name="round-robin", kind="scorer", help="dup")
            )

    def test_register_router_open_registry(self):
        name = "always-first"
        if name not in router_names():
            register_router(
                RouterDefinition(
                    name=name,
                    kind="scorer",
                    help="test stub",
                    build=lambda params: _FirstScorer(),
                )
            )
        assert name in router_names()
        router = make_router(name)
        assert router.select(_job(), [_snapshot(0), _snapshot(1)], 0.0) == 0


class _FirstScorer:
    name = "always-first"

    def begin_fleet(self, n_sites):
        pass

    def choose(self, job, candidates, now_h):
        return candidates[0]


class _LeastDispatchedScorer(SiteScorer):
    """Balance by cumulative dispatches (the SiteSnapshot.dispatched hook)."""

    name = "least-dispatched"

    def score(self, job, site, now_h):
        return float(site.dispatched)


class TestRouterSemantics:
    def test_round_robin_cycles_sites(self):
        router = make_router("round-robin")
        router.begin_fleet(3)
        sites = [_snapshot(i) for i in range(3)]
        picks = [router.select(_job(f"j{i}"), sites, 0.0) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_infeasible_without_losing_turn(self):
        router = make_router("round-robin")
        router.begin_fleet(3)
        sites = [_snapshot(0, total=2), _snapshot(1), _snapshot(2)]
        picks = [router.select(_job(f"j{i}", n_gpus=4), sites, 0.0) for i in range(4)]
        assert picks == [1, 2, 1, 2]

    def test_least_queued_prefers_short_queue_then_lowest_index(self):
        router = make_router("least-queued")
        sites = [_snapshot(0, queue=5), _snapshot(1, queue=2), _snapshot(2, queue=2)]
        assert router.select(_job(), sites, 0.0) == 1

    def test_carbon_min_and_price_min_and_renewable_max(self):
        sites = [
            _snapshot(0, carbon=400.0, price=50.0, renewable=0.05),
            _snapshot(1, carbon=100.0, price=80.0, renewable=0.30),
            _snapshot(2, carbon=250.0, price=20.0, renewable=0.10),
        ]
        assert make_router("carbon-min").select(_job(), sites, 0.0) == 1
        assert make_router("price-min").select(_job(), sites, 0.0) == 2
        assert make_router("renewable-max").select(_job(), sites, 0.0) == 1

    def test_missing_signal_sites_sort_last(self):
        sites = [_snapshot(0, carbon=None), _snapshot(1, carbon=300.0)]
        assert make_router("carbon-min").select(_job(), sites, 0.0) == 1

    def test_filters_prune_then_scorer_picks(self):
        router = make_router("carbon-min+queue-cap(max=2)")
        sites = [
            _snapshot(0, carbon=100.0, queue=10),  # cleanest but over-queued
            _snapshot(1, carbon=200.0, queue=1),
            _snapshot(2, carbon=300.0, queue=0),
        ]
        assert router.select(_job(), sites, 0.0) == 1

    def test_overconstrained_filters_are_waived(self):
        router = make_router("carbon-min+queue-cap(max=0)")
        sites = [_snapshot(0, carbon=200.0, queue=5), _snapshot(1, carbon=100.0, queue=9)]
        assert router.select(_job(), sites, 0.0) == 1

    def test_job_too_large_for_every_member_raises(self):
        router = make_router("round-robin")
        router.begin_fleet(2)
        sites = [_snapshot(0, total=4), _snapshot(1, total=8)]
        with pytest.raises(FleetError, match="largest fleet member has 8"):
            router.select(_job(n_gpus=16), sites, 0.0)

    def test_infeasible_sites_never_picked_even_by_filters(self):
        router = make_router("least-queued")
        sites = [_snapshot(0, queue=0, total=2), _snapshot(1, queue=9, total=64)]
        assert router.select(_job(n_gpus=4), sites, 0.0) == 1


# ---------------------------------------------------------------------------
# Fleet spec and registry
# ---------------------------------------------------------------------------


class TestFleetSpec:
    def test_member_shorthand_relocates_and_adopts_region_grid(self):
        member = resolve_member("supercloud-small@phoenix-az")
        assert member.name == "supercloud-small@phoenix-az"
        assert member.site.name == "phoenix-az"
        assert member.grid == REGION_GRIDS["AZPS"]
        assert member.facility == get_scenario("supercloud-small").facility

    def test_member_plain_name_keeps_home_grid(self):
        member = resolve_member("supercloud-small")
        assert member == get_scenario("supercloud-small")

    def test_duplicate_member_names_raise(self):
        with pytest.raises(ConfigurationError, match="unique"):
            FleetSpec(name="dup", members=("supercloud-small", "supercloud-small"))

    def test_empty_fleet_raises(self):
        with pytest.raises(ConfigurationError, match="at least one member"):
            FleetSpec(name="empty", members=())

    def test_bad_default_router_fails_registration(self):
        with pytest.raises(FleetError):
            FleetSpec(name="bad", members=("supercloud-small",), router="warp-speed")

    def test_unknown_fleet_raises(self):
        with pytest.raises(ConfigurationError, match="unknown fleet"):
            get_fleet("atlantis")

    def test_with_member_overrides_applies_to_every_member(self):
        fleet = get_fleet("tri-site-small").with_member_overrides(n_months=3, seed=11)
        assert all(m.n_months == 3 and m.seed == 11 for m in fleet.members)
        assert fleet.member_names == get_fleet("tri-site-small").member_names


# ---------------------------------------------------------------------------
# Conservation, pins, and router distinctness on the seeded tri-site world
# ---------------------------------------------------------------------------


class TestFleetConservation:
    def test_every_job_dispatched_exactly_once(self, tri_world):
        _, _, trace, results = tri_world
        trace_ids = sorted(job.job_id for job in trace)
        for result in results.values():
            assert sorted(a.job_id for a in result.assignments) == trace_ids
            site_ids = sorted(
                record.job_id
                for site_result in result.site_results
                for record in site_result.job_records
            )
            assert site_ids == trace_ids

    def test_input_trace_left_pristine(self, tri_world):
        _, _, trace, _ = tri_world
        assert all(job.state is JobState.PENDING for job in trace)

    def test_fleet_totals_equal_sum_of_sites_bit_for_bit(self, tri_world):
        _, _, _, results = tri_world
        for result in results.values():
            assert result.it_energy_kwh == sum(
                r.it_energy_kwh for r in result.site_results
            )
            assert result.facility_energy_kwh == sum(
                r.facility_energy_kwh for r in result.site_results
            )
            assert result.cooling_energy_kwh == sum(
                r.cooling_energy_kwh for r in result.site_results
            )
            assert result.total_emissions_kg == sum(
                r.total_emissions_kg for r in result.site_results
            )
            assert result.total_cost_usd == sum(
                r.total_cost_usd for r in result.site_results
            )
            assert result.delivered_gpu_hours == sum(
                r.delivered_gpu_hours for r in result.site_results
            )
            assert result.completed_jobs == sum(
                r.completed_jobs for r in result.site_results
            )
            # Element-wise, tick by tick, in member order.
            expected_power = result.site_results[0].facility_power_w
            for site_result in result.site_results[1:]:
                expected_power = expected_power + site_result.facility_power_w
            np.testing.assert_array_equal(result.fleet_facility_power_w, expected_power)
            rows = result.site_rows()
            assert [row["site"] for row in rows] == list(result.site_names)
            for row, site_result in zip(rows, result.site_results):
                assert row["it_energy_kwh"] == site_result.it_energy_kwh
                assert row["facility_energy_kwh"] == site_result.facility_energy_kwh
                assert row["cooling_energy_kwh"] == site_result.cooling_energy_kwh

    def test_service_metrics_pool_every_site_record(self, tri_world):
        # Waits and deadline misses are taken over the union of the sites'
        # records, not averaged per site; energy per GPU-hour uses fleet totals.
        _, _, _, results = tri_world
        for result in results.values():
            records = [rec for r in result.site_results for rec in r.job_records]
            waits = [rec.wait_time_h for rec in records if rec.wait_time_h is not None]
            assert result.mean_wait_h == float(np.mean(waits))
            assert result.p95_wait_h == float(np.percentile(waits, 95))
            deadline = [rec for rec in records if rec.had_deadline]
            missed = [rec for rec in deadline if rec.missed_deadline or not rec.completed]
            expected_miss = len(missed) / len(deadline) if deadline else 0.0
            assert result.deadline_miss_rate == expected_miss
            assert result.energy_per_gpu_hour_kwh == (
                result.facility_energy_kwh / result.delivered_gpu_hours
            )

    def test_assignment_table_matches_site_record_locations(self, tri_world):
        _, _, _, results = tri_world
        for result in results.values():
            by_site = {
                name: {r.job_id for r in site_result.job_records}
                for name, site_result in zip(result.site_names, result.site_results)
            }
            for assignment in result.assignments:
                assert assignment.job_id in by_site[assignment.site_name]

    @pytest.mark.parametrize("router", PINNED_ROUTERS)
    def test_seeded_run_matches_pinned_hash(self, tri_world, router):
        _, _, _, results = tri_world
        assert results[router].digest() == PINNED_FLEET_HASHES[router]

    def test_digest_covers_the_assigned_site(self, tri_world):
        _, _, _, results = tri_world
        result = results["round-robin"]
        first, *rest = result.assignments
        moved = dataclasses.replace(first, site_index=(first.site_index + 1) % result.n_sites)
        assert dataclasses.replace(result, assignments=(moved, *rest)).digest() != result.digest()

    def test_routers_make_distinct_decisions(self, tri_world):
        _, _, _, results = tri_world
        assignments = {
            router: tuple((a.job_id, a.site_index) for a in result.assignments)
            for router, result in results.items()
        }
        core = ["round-robin", "least-queued", "carbon-min", "price-min", "renewable-max"]
        seen = set(assignments[router] for router in core)
        assert len(seen) == len(core), "every core router must route differently"

    def test_custom_router_balances_on_dispatched_counts(self, tri_world):
        """The snapshot's cumulative `dispatched` field drives balance routers."""
        fleet, session, trace, _ = tri_world
        if "least-dispatched" not in router_names():
            register_router(
                RouterDefinition(
                    name="least-dispatched",
                    kind="scorer",
                    help="balance by cumulative dispatch count",
                    build=lambda params: _LeastDispatchedScorer(),
                )
            )
        result = FleetSimulator(
            fleet, router="least-dispatched", horizon_h=HORIZON_H, session=session
        ).run(trace)
        counts = list(result.dispatch_counts().values())
        assert max(counts) - min(counts) <= 1, counts

    def test_dispatch_counts_sum_to_trace(self, tri_world):
        _, _, trace, results = tri_world
        for result in results.values():
            assert sum(result.dispatch_counts().values()) == len(trace)


# ---------------------------------------------------------------------------
# Degenerate one-site fleet == single-site session, bit-identically
# ---------------------------------------------------------------------------


class TestDegenerateFleetParity:
    @pytest.fixture(scope="class")
    def solo_world(self):
        spec = get_scenario("supercloud-small").replace(n_months=N_MONTHS, seed=SEED)
        session = ExperimentSession(spec)
        single = session.simulate_policy("backfill", n_jobs=80, horizon_h=HORIZON_H)
        fleet = FleetSpec(name="solo-test", members=(spec,))
        fleet_result = FleetSimulator(
            fleet, policy="backfill", horizon_h=HORIZON_H, session=session
        ).run(n_jobs=80)
        return single, fleet_result

    def test_job_records_bit_identical(self, solo_world):
        single, fleet_result = solo_world
        (site_result,) = fleet_result.site_results
        assert site_result.job_records == single.job_records

    def test_power_series_bit_identical(self, solo_world):
        single, fleet_result = solo_world
        (site_result,) = fleet_result.site_results
        np.testing.assert_array_equal(site_result.it_power_w, single.it_power_w)
        np.testing.assert_array_equal(
            site_result.facility_power_w, single.facility_power_w
        )
        np.testing.assert_array_equal(site_result.pue, single.pue)

    def test_totals_bit_identical(self, solo_world):
        single, fleet_result = solo_world
        assert fleet_result.it_energy_kwh == single.it_energy_kwh
        assert fleet_result.facility_energy_kwh == single.facility_energy_kwh
        assert fleet_result.total_emissions_kg == single.total_emissions_kg
        assert fleet_result.total_cost_usd == single.total_cost_usd
        assert fleet_result.delivered_gpu_hours == single.delivered_gpu_hours
        assert fleet_result.mean_wait_h == single.mean_wait_h

    def test_registered_solo_fleet_has_one_member(self):
        assert get_fleet("solo-small").n_sites == 1


# ---------------------------------------------------------------------------
# The stepping simulator API underneath the lockstep loop
# ---------------------------------------------------------------------------


class TestSteppingApi:
    @pytest.fixture(scope="class")
    def stepping_world(self):
        spec = get_scenario("supercloud-small").replace(n_months=1, seed=3)
        session = ExperimentSession(spec)
        scenario = session.scenario()
        trace = session.job_trace(n_jobs=60, horizon_h=48.0)
        return spec, scenario, trace

    def _simulator(self, spec, scenario, horizon_h=48.0):
        return ClusterSimulator(
            Cluster(spec.facility, gpu_model=spec.workload.gpu_model),
            make_scheduler("backfill"),
            SimulationConfig(horizon_h=horizon_h),
            weather_hourly_c=scenario.weather_hourly_c,
            cooling=CoolingModel(),
            grid=scenario.grid,
        )

    def test_hourly_stepping_equals_monolithic_run(self, stepping_world):
        spec, scenario, trace = stepping_world
        monolithic = self._simulator(spec, scenario).run(
            [job.clone_pending() for job in trace]
        )

        stepped_sim = self._simulator(spec, scenario)
        stepped_sim.begin()
        jobs = sorted((job.clone_pending() for job in trace), key=lambda j: j.submit_time_h)
        cursor = 0
        for hour in range(48):
            while cursor < len(jobs) and jobs[cursor].submit_time_h < hour + 1:
                stepped_sim.submit(jobs[cursor])
                cursor += 1
            stepped_sim.advance(hour + 1)
        for job in jobs[cursor:]:
            stepped_sim.submit(job)
        stepped = stepped_sim.finalize()

        assert stepped.job_records == monolithic.job_records
        np.testing.assert_array_equal(stepped.it_power_w, monolithic.it_power_w)

    def test_lifecycle_misuse_raises(self, stepping_world):
        spec, scenario, _ = stepping_world
        simulator = self._simulator(spec, scenario)
        with pytest.raises(SimulationError, match="before begin"):
            simulator.advance(1.0)
        with pytest.raises(SimulationError, match="before begin"):
            simulator.submit(_job())
        with pytest.raises(SimulationError, match="before begin"):
            simulator.finalize()
        simulator.begin()
        with pytest.raises(SimulationError, match="begin\\(\\) called twice"):
            simulator.begin()
        simulator.finalize()
        with pytest.raises(SimulationError, match="finalize\\(\\) called twice"):
            simulator.finalize()
        with pytest.raises(SimulationError, match="after finalize"):
            simulator.submit(_job())


# ---------------------------------------------------------------------------
# The fleet experiment, campaign sweeps, and the CLI
# ---------------------------------------------------------------------------


class TestFleetExperiment:
    @pytest.fixture(scope="class")
    def session(self):
        return ExperimentSession("default", n_months=N_MONTHS, seed=SEED)

    def test_single_router_result_shape(self, session):
        result = session.run("fleet", jobs=60, horizon_days=2.0)
        assert result.name == "fleet"
        assert result.scalars["n_sites"] == 3
        assert result.scalars["router"] == "round-robin"
        # One fleet row plus one row per site.
        assert len(result.rows) == 4
        assert result.rows[0]["site"] == "(fleet)"
        site_sum = sum(row["facility_energy_kwh"] for row in result.rows[1:])
        assert result.rows[0]["facility_energy_kwh"] == pytest.approx(site_sum, rel=0, abs=0)

    def test_multi_router_comparison_in_one_run(self, session):
        result = session.run(
            "fleet", router="round-robin,carbon-min", jobs=60, horizon_days=2.0
        )
        assert result.scalars["n_routers"] == 2
        routers = {row["router"] for row in result.rows}
        assert routers == {"round-robin", "carbon-min"}
        assert len(result.rows) == 8
        assert result.scalars["greenest_router"] in routers

    def test_invalid_router_is_a_configuration_error(self, session):
        with pytest.raises(ConfigurationError, match="router catalogue"):
            session.run("fleet", router="warp-speed", jobs=10, horizon_days=1.0)

    def test_unknown_fleet_is_a_configuration_error(self, session):
        with pytest.raises(ConfigurationError, match="unknown fleet"):
            session.run("fleet", fleet="atlantis", jobs=10, horizon_days=1.0)

    def test_campaign_sweeps_router_as_a_grid_lever(self):
        campaign = CampaignSpec(
            experiments=("fleet",),
            base=get_scenario("default").replace(n_months=N_MONTHS, seed=SEED),
            param_grid={
                "router": ["round-robin", "carbon-min"],
                "jobs": [60],
                "horizon_days": [2.0],
            },
        )
        result = run_campaign(campaign)
        rows = result.rows
        assert len(rows) == 2
        assert {row["router"] for row in rows} == {"round-robin", "carbon-min"}
        energies = {row["facility_energy_kwh"] for row in rows}
        emissions = {row["emissions_kg"] for row in rows}
        assert len(energies) == 2 and len(emissions) == 2, "routers must differ"


class TestFleetCli:
    def test_fleet_subcommand_json(self, capsys):
        exit_code = main(
            [
                "--months",
                str(N_MONTHS),
                "--seed",
                str(SEED),
                "fleet",
                "--jobs",
                "40",
                "--horizon-days",
                "2.0",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fleet"
        assert payload["scalars"]["n_sites"] == 3
        assert payload["scalars"]["facility_energy_kwh"] > 0

    def test_fleet_subcommand_multi_router_text(self, capsys):
        exit_code = main(
            [
                "--months",
                str(N_MONTHS),
                "fleet",
                "--router",
                "round-robin,carbon-min+queue-cap(max=50)",
                "--jobs",
                "40",
                "--horizon-days",
                "2.0",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "carbon-min+queue-cap(max=50)" in out

    def test_sweep_router_grid_end_to_end(self, capsys):
        exit_code = main(
            [
                "--months",
                str(N_MONTHS),
                "sweep",
                "--experiments",
                "fleet",
                "--grid",
                "router=round-robin,carbon-min",
                "--grid",
                "jobs=40",
                "--grid",
                "horizon_days=2.0",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_points"] == 2
        routers = {row["router"] for row in payload["rows"]}
        assert routers == {"round-robin", "carbon-min"}

    def test_bad_router_spec_is_a_clean_cli_error(self, capsys):
        exit_code = main(
            ["--months", str(N_MONTHS), "fleet", "--router", "warp-speed", "--jobs", "10"]
        )
        assert exit_code == 1
        assert "greenhpc: error" in capsys.readouterr().err

    def test_policies_listing_includes_routers(self, capsys):
        assert main(["policies", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["router"] for row in payload["routers"]}
        assert {"round-robin", "carbon-min", "queue-cap"} <= names


class TestSplitValueList:
    def test_paren_aware_split_shared_helper(self):
        values = split_value_list("round-robin,carbon-min+queue-cap(max=50)")
        assert values == ("round-robin", "carbon-min+queue-cap(max=50)")

    def test_empty_list_raises(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            split_value_list("  , ", "routers")

    def test_unbalanced_parens_raise(self):
        with pytest.raises(ConfigurationError, match="routers"):
            split_value_list("queue-cap(max=3", "routers")
