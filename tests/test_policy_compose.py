"""Tests for the composable policy pipeline, its grammar and its parity.

Four layers of evidence:

1. **Grammar** — ``PolicySpec`` parse -> str round-trips (property-based over
   both arbitrary grammar-valid tokens and the registered vocabulary), and
   invalid specs raise :class:`SchedulingError` naming the offending token.
2. **Composition parity (hash-pinned)** — every named registry policy builds
   a pipeline whose job records are *bit-identical* to the pre-refactor
   schedulers, pinned on the seeded ``supercloud-small`` /
   ``supercloud-medium`` scenarios across cap and facility-budget settings.
   (``tests/test_cluster_state_parity.py`` pins the same pipelines on the
   pre-pipeline *and* pre-array-refactor seed implementation's world.)
3. **Explicit spellings** — the explicit pipeline spelling of each
   default-constructed pre-refactor scheduler reproduces its pinned records,
   and every other composition exercised here (plus perfbench's sweep
   policies) is pinned on a light and a deep-queue ``supercloud-small``.
4. **Lifecycle hooks** — simulator observers fire at the documented points,
   attaching them does not perturb results, and the adaptive power-cap stage
   drives running-job caps through the hook API.
"""

import pytest
from hypothesis import given, settings, strategies as st

import test_cluster_state_parity as state_parity

from repro.climate.weather import WeatherModel
from repro.config import FacilityConfig
from repro.cluster.cooling import CoolingModel
from repro.cluster.observers import SimulatorObserver
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.levers import make_scheduler
from repro.errors import SchedulingError
from repro.experiments.spec import get_scenario
from repro.grid.iso_ne import IsoNeLikeGrid
from repro.scheduler.compose import (
    PolicySpec,
    StageSpec,
    build_pipeline,
    list_stage_definitions,
    parse_policy,
    split_top_level,
)
from repro.scheduler.job import Job
from repro.scheduler.pipeline import PolicyPipeline
from repro.scheduler.stages import AdaptiveCapStage
from repro.timeutils import SimulationCalendar
from repro.workloads.demand import DeadlineDemandModel
from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator

# ---------------------------------------------------------------------------
# 1. Grammar
# ---------------------------------------------------------------------------

_token_names = st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True)
_param_keys = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


def _is_bare_word(text: str) -> bool:
    """Strings that survive value parsing unchanged (not numbers/keywords)."""
    if text.lower() in ("true", "false", "none"):
        return False
    try:
        float(text)
        return False
    except ValueError:
        return True


_param_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.none(),
    st.from_regex(r"[A-Za-z0-9_.:-]{1,12}", fullmatch=True).filter(_is_bare_word),
)

_stage_specs = st.builds(
    StageSpec,
    name=_token_names,
    params=st.lists(
        st.tuples(_param_keys, _param_values), max_size=4, unique_by=lambda kv: kv[0]
    ).map(tuple),
)

_policy_specs = st.builds(
    PolicySpec, stages=st.lists(_stage_specs, min_size=1, max_size=5).map(tuple)
)


class TestGrammarRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(_policy_specs)
    def test_parse_str_round_trip(self, spec):
        assert parse_policy(str(spec)) == spec

    @settings(max_examples=60, deadline=None)
    @given(_policy_specs)
    def test_canonical_form_is_stable(self, spec):
        assert str(parse_policy(str(spec))) == str(spec)

    def test_whitespace_tolerated_but_not_canonical(self):
        spec = parse_policy("  backfill + carbon( cap = 0.7 , grace = 3 ) ")
        assert str(spec) == "backfill+carbon(cap=0.7,grace=3)"

    def test_registered_vocabulary_round_trips_through_build(self):
        # Every registered stage, with its declared defaults rendered
        # explicitly, builds and its pipeline name round-trips.
        for definition in list_stage_definitions():
            params = tuple(
                (p.name, p.default) for p in definition.params if not p.required
            )
            token = StageSpec(name=definition.name, params=params)
            text = str(PolicySpec(stages=(token,)))
            if any(p.required for p in definition.params):
                with pytest.raises(SchedulingError, match="required"):
                    build_pipeline(text)
                continue
            pipeline = build_pipeline(text)
            assert pipeline.name == text
            assert parse_policy(pipeline.name) == parse_policy(text)

    def test_split_top_level_respects_parentheses(self):
        assert split_top_level("backfill,backfill+carbon(cap=0.7,grace=3),fifo") == [
            "backfill",
            "backfill+carbon(cap=0.7,grace=3)",
            "fifo",
        ]


INVALID_SPECS = [
    ("", "non-empty"),
    ("   ", "non-empty"),
    ("warp-speed", "warp-speed"),
    ("backfill+", "empty stage token"),
    ("backfill++fifo", "empty stage token"),
    ("Backfill", "Backfill"),
    ("backfill+carbon(cap)", "cap"),
    ("backfill+carbon(cap=0.7", "unbalanced"),
    ("backfill)", "unbalanced"),
    ("carbon(cap=0.7)+carbon(cap=0.7,cap=0.8)", "duplicate argument 'cap'"),
    ("cap(frac=0.5)", "frac"),
    ("carbon(cap=maybe?)", "maybe"),
    ("adaptive()", "budget_w"),
    ("adaptive(budget_w=none)", "does not accept 'none'"),
    ("cap(fraction=none)", "does not accept 'none'"),
    ("edf+backfill+slack(margin=none)", "does not accept 'none'"),
    ("cap(fraction=true)", "fraction"),
    ("backfill+fifo", "second placement"),
    ("edf+sjf+backfill", "second ordering"),
    ("cap(fraction=1.7)", "cap_fraction"),
]


class TestInvalidSpecs:
    @pytest.mark.parametrize("text,needle", INVALID_SPECS)
    def test_invalid_spec_raises_with_offending_token(self, text, needle):
        with pytest.raises(SchedulingError) as excinfo:
            build_pipeline(text)
        assert needle in str(excinfo.value)


# ---------------------------------------------------------------------------
# 2. Hash-pinned composition parity on supercloud-small / supercloud-medium
# ---------------------------------------------------------------------------

SEED = 20220527
HORIZON_H = 14 * 24.0

#: world -> (n_jobs, binding facility power budget in W)
PARITY_WORLDS = {"supercloud-small": (300, 18000.0), "supercloud-medium": (900, 60000.0)}

#: sha256 fingerprints of the job records produced by the *pre-refactor*
#: ``make_scheduler(name, cap)`` schedulers on the seeded worlds
#: above, per (world, policy, cap, facility_power_budget_w).  The canned
#: pipeline compositions must reproduce every one bit-for-bit.
PRE_REFACTOR_PIPELINE_HASHES = {
    ("supercloud-small", "fifo", None, None): "08a8b33a51cce6a185882d3f77363901676969bdbb5e0014400c73e5f078121d",
    ("supercloud-small", "fifo", None, 18000.0): "08a8b33a51cce6a185882d3f77363901676969bdbb5e0014400c73e5f078121d",
    ("supercloud-small", "fifo", 0.7, None): "08a8b33a51cce6a185882d3f77363901676969bdbb5e0014400c73e5f078121d",
    ("supercloud-small", "fifo", 0.7, 18000.0): "08a8b33a51cce6a185882d3f77363901676969bdbb5e0014400c73e5f078121d",
    ("supercloud-small", "backfill", None, None): "790271c402fe3b2e91fe4ca838a1b09ebb5e66baab9600dff3ee9a0b7a003da3",
    ("supercloud-small", "backfill", None, 18000.0): "790271c402fe3b2e91fe4ca838a1b09ebb5e66baab9600dff3ee9a0b7a003da3",
    ("supercloud-small", "backfill", 0.7, None): "790271c402fe3b2e91fe4ca838a1b09ebb5e66baab9600dff3ee9a0b7a003da3",
    ("supercloud-small", "backfill", 0.7, 18000.0): "790271c402fe3b2e91fe4ca838a1b09ebb5e66baab9600dff3ee9a0b7a003da3",
    ("supercloud-small", "energy-aware", None, None): "4dfee38a3e59d6bdd63c381a3cfd4d596ce700c81b4c6d8188340f4533003b7d",
    ("supercloud-small", "energy-aware", None, 18000.0): "9311f724f7f0c45cdcf85f9e8ebbce4d0749e303e2f1636076f9f0c2f9558235",
    ("supercloud-small", "energy-aware", 0.7, None): "88cbc147bc4c7dfe304f3bf992c549eedda040d170aaf720a089415ed56e9326",
    ("supercloud-small", "energy-aware", 0.7, 18000.0): "2c8405ec79adc9e9ae39503ca456e7a8e2dedd646d3dadcb14f5485b0b9317e5",
    ("supercloud-small", "carbon-aware", None, None): "32d7be31afce589e533aa528c75a979e83e7cac9355bfc2da34cad366569c53f",
    ("supercloud-small", "carbon-aware", None, 18000.0): "32d7be31afce589e533aa528c75a979e83e7cac9355bfc2da34cad366569c53f",
    ("supercloud-small", "carbon-aware", 0.7, None): "cbaebd31e21166c5f10987635ed66bbe06bdf9cbdec4fd9c6061500ccc86a8fd",
    ("supercloud-small", "carbon-aware", 0.7, 18000.0): "cbaebd31e21166c5f10987635ed66bbe06bdf9cbdec4fd9c6061500ccc86a8fd",
    ("supercloud-small", "deadline-aware", None, None): "6a6453b641196873ac24e472dbc55e11dcd868528dc52aeea665ff3483f2bae2",
    ("supercloud-small", "deadline-aware", None, 18000.0): "6a6453b641196873ac24e472dbc55e11dcd868528dc52aeea665ff3483f2bae2",
    ("supercloud-small", "deadline-aware", 0.7, None): "b7d2279772257c643472e4895d2019ce00aa3bccb8924b9f453fc23fe2fd0cfc",
    ("supercloud-small", "deadline-aware", 0.7, 18000.0): "b7d2279772257c643472e4895d2019ce00aa3bccb8924b9f453fc23fe2fd0cfc",
    ("supercloud-medium", "fifo", None, None): "44775a47fe14727f4452d3d8e12573cc016561521296f1608e5431861cb3b5c4",
    ("supercloud-medium", "fifo", None, 60000.0): "44775a47fe14727f4452d3d8e12573cc016561521296f1608e5431861cb3b5c4",
    ("supercloud-medium", "fifo", 0.7, None): "44775a47fe14727f4452d3d8e12573cc016561521296f1608e5431861cb3b5c4",
    ("supercloud-medium", "fifo", 0.7, 60000.0): "44775a47fe14727f4452d3d8e12573cc016561521296f1608e5431861cb3b5c4",
    ("supercloud-medium", "backfill", None, None): "44775a47fe14727f4452d3d8e12573cc016561521296f1608e5431861cb3b5c4",
    ("supercloud-medium", "backfill", None, 60000.0): "44775a47fe14727f4452d3d8e12573cc016561521296f1608e5431861cb3b5c4",
    ("supercloud-medium", "backfill", 0.7, None): "44775a47fe14727f4452d3d8e12573cc016561521296f1608e5431861cb3b5c4",
    ("supercloud-medium", "backfill", 0.7, 60000.0): "44775a47fe14727f4452d3d8e12573cc016561521296f1608e5431861cb3b5c4",
    ("supercloud-medium", "energy-aware", None, None): "015e8bd111154489fa61224108ded0333c1c3920ada9bc970066ca3716ddbb77",
    ("supercloud-medium", "energy-aware", None, 60000.0): "f5ff8f3e7a62dad2ccd9f56924a0c8d8d4cb88175c9a81d7080943bb95cccf36",
    ("supercloud-medium", "energy-aware", 0.7, None): "34f100588d050df56d54576e8db69868cbea896128ae227a20690fc587bd8a97",
    ("supercloud-medium", "energy-aware", 0.7, 60000.0): "5c86975b48875f3800feb51a5cf51af6e5cf35374b82aa2461dd59f5dd9972a3",
    ("supercloud-medium", "carbon-aware", None, None): "1abeef00251bba5aa23d3bfabdecb6db311b1e863e6246eda8286e3f9ebc0875",
    ("supercloud-medium", "carbon-aware", None, 60000.0): "1abeef00251bba5aa23d3bfabdecb6db311b1e863e6246eda8286e3f9ebc0875",
    ("supercloud-medium", "carbon-aware", 0.7, None): "4dea56aee2a45d9cfb958c023dd12511b1616fcb3a06512985a4979b25645036",
    ("supercloud-medium", "carbon-aware", 0.7, 60000.0): "4dea56aee2a45d9cfb958c023dd12511b1616fcb3a06512985a4979b25645036",
    ("supercloud-medium", "deadline-aware", None, None): "e88c95aed220ff99aef9731ac1df6a5696c024b5a0fd2c332640e514c5043ed8",
    ("supercloud-medium", "deadline-aware", None, 60000.0): "e88c95aed220ff99aef9731ac1df6a5696c024b5a0fd2c332640e514c5043ed8",
    ("supercloud-medium", "deadline-aware", 0.7, None): "1b1ef7c3760805fa5a6d597b84e6cfa49b9ec2fce64b14747d05424dcdf34b66",
    ("supercloud-medium", "deadline-aware", 0.7, 60000.0): "1b1ef7c3760805fa5a6d597b84e6cfa49b9ec2fce64b14747d05424dcdf34b66",
}

#: Fingerprints of the default-constructed pre-refactor schedulers, spelled
#: explicitly as ``state_parity.SCHEDULERS``, on ``supercloud-small`` at its
#: binding budget.  Four equal registry pins above; the energy-aware one (cap
#: 0.75 plus the budget gate) was captured from the pre-refactor class.
EXPLICIT_SPELLING_HASHES = {
    policy: PRE_REFACTOR_PIPELINE_HASHES[("supercloud-small", policy, None, 18000.0)]
    for policy in ("fifo", "backfill", "carbon-aware", "deadline-aware")
}
EXPLICIT_SPELLING_HASHES["energy-aware"] = (
    "7d36e835ddf1a2738561583b8ab479dc6cbb4dc377bb220bcba66fd1a7563e9f"
)


@pytest.fixture(scope="module")
def compose_worlds():
    worlds = {}
    for name, (n_jobs, _budget) in PARITY_WORLDS.items():
        facility = get_scenario(name).facility
        calendar = SimulationCalendar(start_year=2020, n_months=1)
        weather = WeatherModel(seed=SEED).hourly_temperature_c(calendar)
        grid = IsoNeLikeGrid(calendar, seed=SEED)
        generator = SuperCloudTraceGenerator(
            SuperCloudTraceConfig(facility=facility),
            demand_model=DeadlineDemandModel(seed=SEED),
            seed=SEED,
        )
        jobs = generator.generate_jobs(n_jobs=n_jobs, horizon_h=HORIZON_H - 48.0)
        worlds[name] = (facility, weather, grid, jobs)
    return worlds


def _run_policy(world, scheduler, budget=None, **simulator_kwargs):
    facility, weather, grid, jobs = world
    simulator = ClusterSimulator(
        Cluster(facility),
        scheduler,
        SimulationConfig(horizon_h=HORIZON_H, facility_power_budget_w=budget),
        weather_hourly_c=weather,
        cooling=CoolingModel(),
        grid=grid,
        **simulator_kwargs,
    )
    return simulator.run([job.clone_pending() for job in jobs])


class TestPinnedCompositionParity:
    @pytest.mark.parametrize("world_name", sorted(PARITY_WORLDS))
    @pytest.mark.parametrize(
        "policy", ["fifo", "backfill", "energy-aware", "carbon-aware", "deadline-aware"]
    )
    @pytest.mark.parametrize("cap", [None, 0.7])
    def test_registry_pipelines_match_pre_refactor(
        self, compose_worlds, world_name, policy, cap
    ):
        for with_budget in (False, True):
            budget = PARITY_WORLDS[world_name][1] if with_budget else None
            scheduler = make_scheduler(policy, cap)
            assert isinstance(scheduler, PolicyPipeline)
            result = _run_policy(compose_worlds[world_name], scheduler, budget=budget)
            expected = PRE_REFACTOR_PIPELINE_HASHES[(world_name, policy, cap, budget)]
            assert result.digest() == expected

    @pytest.mark.parametrize("policy", sorted(state_parity.SCHEDULERS))
    def test_explicit_spelling_equals_canned_composition(self, compose_worlds, policy):
        spelled = build_pipeline(state_parity.SCHEDULERS[policy])
        world = compose_worlds["supercloud-small"]
        budget = PARITY_WORLDS["supercloud-small"][1]
        spelled_fp = _run_policy(world, spelled, budget=budget).digest()
        assert spelled_fp == EXPLICIT_SPELLING_HASHES[policy]


# ---------------------------------------------------------------------------
# 3. Composed policies end-to-end
# ---------------------------------------------------------------------------

COMPOSED_POLICIES = [
    "backfill+carbon(cap=0.7)+budget",
    "edf+backfill+slack(margin=2.0)+cap(fraction=0.8)",
    "sjf+backfill+renewable(min_share=0.25)",
    "fifo+price(ceiling=55.0)",
    "backfill+carbon(cap=none,defer_all=true,grace=4.0)+dirty-cap(fraction=0.6)",
    "edf+backfill+deadline-cap(min_fraction=0.5,step=0.05)",
    "backfill+adaptive(budget_w=15000.0,min_fraction=0.5)",
]


#: The six policies of perfbench's ``sweep-oversub`` workload.
SWEEP_POLICIES = [
    "backfill",
    "deadline-aware",
    "edf+backfill+carbon(cap=0.7)",
    "sjf+backfill+renewable(min_share=0.3)+cap(fraction=0.75)",
    "backfill+carbon(cap=0.7)+budget",
    "backfill+adaptive(budget_w=15000)",
]

#: Job counts of the pinned ``supercloud-small`` worlds: the parity world's
#: 300 jobs, and 1200 over the same horizon, whose queues peak 43-127 deep so
#: that the orderings tell apart.
PINNED_JOB_COUNTS = (300, 1200)

#: sha256 fingerprints of the job records of every composition above and
#: every sweep policy, per (jobs, spec, facility budget), captured before the
#: pending queue was kept in policy order.  Only the budget gate reads the
#: facility budget, so only its composition is pinned at the binding one.
COMPOSED_POLICY_HASHES = {
    (300, "backfill+carbon(cap=0.7)+budget", None):
        "32d7be31afce589e533aa528c75a979e83e7cac9355bfc2da34cad366569c53f",
    (300, "backfill+carbon(cap=0.7)+budget", 18000.0):
        "41b5bae18c7943ccdadb91f6c4f93a472ebe97b95acb41edc890f66ea408c988",
    (300, "edf+backfill+slack(margin=2.0)+cap(fraction=0.8)", None):
        "7dee4ebbf5cf77673d4dfc212ba1a7a020edd6a329818f315440fdd09fd89066",
    (300, "sjf+backfill+renewable(min_share=0.25)", None):
        "0d9d2998f9258073849c09af3c7520da9c015bfc32c0002ae611f355b6acf1fe",
    (300, "fifo+price(ceiling=55.0)", None):
        "08a8b33a51cce6a185882d3f77363901676969bdbb5e0014400c73e5f078121d",
    (300, "backfill+carbon(cap=none,defer_all=true,grace=4.0)+dirty-cap(fraction=0.6)", None):
        "f3aaebb9e2b238bcacbea864755e63c25326103533dc5d418f217b7b00640be3",
    (300, "edf+backfill+deadline-cap(min_fraction=0.5,step=0.05)", None):
        "ee46e3921b92638ca33908eacc447768125d21770c259386c31361781cc4f356",
    (300, "backfill+adaptive(budget_w=15000.0,min_fraction=0.5)", None):
        "fb20f8fad86f9a46c51fefe073625888d31c70f5657d8047e12a8531ff19375d",
    (300, "backfill", None):
        "790271c402fe3b2e91fe4ca838a1b09ebb5e66baab9600dff3ee9a0b7a003da3",
    (300, "deadline-aware", None):
        "6a6453b641196873ac24e472dbc55e11dcd868528dc52aeea665ff3483f2bae2",
    (300, "edf+backfill+carbon(cap=0.7)", None):
        "32d7be31afce589e533aa528c75a979e83e7cac9355bfc2da34cad366569c53f",
    (300, "sjf+backfill+renewable(min_share=0.3)+cap(fraction=0.75)", None):
        "6d132e0e56e16c293c819cae5c1611c889b4519c3d5712343a32d9c8d33f5dfa",
    (300, "backfill+adaptive(budget_w=15000)", None):
        "fb20f8fad86f9a46c51fefe073625888d31c70f5657d8047e12a8531ff19375d",
    (1200, "backfill+carbon(cap=0.7)+budget", None):
        "8a5803e4d99da69be05ae22bc2e538236e7876e55e7326137a70cb01e2c9d9d7",
    (1200, "backfill+carbon(cap=0.7)+budget", 18000.0):
        "96d33e97d265282432985f9a5dae0feb3ab8844b142a504c7ce7159255352b4e",
    (1200, "edf+backfill+slack(margin=2.0)+cap(fraction=0.8)", None):
        "44e68ddb97e5fd76d46f4d9afd7af78830ae1ca39f43e1e35e22e8035fc54e8e",
    (1200, "sjf+backfill+renewable(min_share=0.25)", None):
        "3b5020f9940800ade4a6ac37e402a04b9ff619efd45bf816a7fdc225b87129ef",
    (1200, "fifo+price(ceiling=55.0)", None):
        "2c935c8fd2e665d0dc2745e98303a19876c95791a20fa3ddf06969e652cf1c64",
    (1200, "backfill+carbon(cap=none,defer_all=true,grace=4.0)+dirty-cap(fraction=0.6)", None):
        "c9fbe0e0b01d6834aa147e007859add33de21923c37ca1b60ea7398c76813cc1",
    (1200, "edf+backfill+deadline-cap(min_fraction=0.5,step=0.05)", None):
        "0df931ce653afcecfb8763e7c080c36ca8217dc32a6b40c2c62b243e0e6c7900",
    (1200, "backfill+adaptive(budget_w=15000.0,min_fraction=0.5)", None):
        "ba77f373fe3eb7f3e6ee119ed0bf0d2f603b631276cf262d0229a7082913a959",
    (1200, "backfill", None):
        "a1f566c2d42575da29140f0edfe05061f5831329c3601f7352a22b8251c88a16",
    (1200, "deadline-aware", None):
        "47d0c2173e5ff0c6614443d375dba4ae3f2f237ca1e11216ee959e0485aeda5f",
    (1200, "edf+backfill+carbon(cap=0.7)", None):
        "7b4d5cacbc09cb98f31bdb1b0ec403ddce5ddf316eb49a4e284b6f378f5df2a6",
    (1200, "sjf+backfill+renewable(min_share=0.3)+cap(fraction=0.75)", None):
        "946e5e4662ff0a3e5976cbfb095aa787328509b859a0e888f2650233073672f8",
    (1200, "backfill+adaptive(budget_w=15000)", None):
        "ba77f373fe3eb7f3e6ee119ed0bf0d2f603b631276cf262d0229a7082913a959",
}


class TestComposedPoliciesEndToEnd:
    @pytest.mark.parametrize("spec", COMPOSED_POLICIES)
    def test_composed_policy_runs_and_delivers_work(self, compose_worlds, spec):
        result = _run_policy(compose_worlds["supercloud-small"], make_scheduler(spec))
        assert result.scheduler_name == spec
        assert result.completed_jobs > 0
        assert result.delivered_gpu_hours > 0

    def test_composed_policies_sweep_through_a_campaign(self):
        from repro.experiments import CampaignSpec, run_campaign
        from repro.experiments.spec import ScenarioSpec

        campaign = CampaignSpec(
            experiments=("schedule",),
            base=ScenarioSpec(n_months=2),
            param_grid={
                "policy": COMPOSED_POLICIES[:3] + ["backfill"],
                "jobs": [40],
                "horizon_days": [2.0],
            },
        )
        result = run_campaign(campaign)
        assert len(result) == 4
        assert result.column("policy") == COMPOSED_POLICIES[:3] + ["backfill"]
        assert all(row["delivered_gpu_hours"] > 0 for row in result.rows)


@pytest.fixture(scope="module")
def pinned_worlds(compose_worlds):
    """The pinned ``supercloud-small`` worlds by job count."""
    facility, weather, grid, jobs = compose_worlds["supercloud-small"]
    generator = SuperCloudTraceGenerator(
        SuperCloudTraceConfig(facility=facility),
        demand_model=DeadlineDemandModel(seed=SEED),
        seed=SEED,
    )
    deep_jobs = generator.generate_jobs(n_jobs=1200, horizon_h=HORIZON_H - 48.0)
    return {300: (facility, weather, grid, jobs), 1200: (facility, weather, grid, deep_jobs)}


class TestPinnedCompositions:
    @pytest.mark.parametrize("n_jobs", PINNED_JOB_COUNTS)
    @pytest.mark.parametrize("spec", list(dict.fromkeys(COMPOSED_POLICIES + SWEEP_POLICIES)))
    def test_composition_records_are_pinned(self, pinned_worlds, n_jobs, spec):
        budgets = [
            budget for (jobs, pinned, budget) in COMPOSED_POLICY_HASHES
            if (jobs, pinned) == (n_jobs, spec)
        ]
        assert budgets
        for budget in budgets:
            result = _run_policy(pinned_worlds[n_jobs], make_scheduler(spec), budget=budget)
            expected = COMPOSED_POLICY_HASHES[(n_jobs, spec, budget)]
            assert result.digest() == expected


# ---------------------------------------------------------------------------
# 4. Simulator lifecycle hooks
# ---------------------------------------------------------------------------


class RecordingObserver(SimulatorObserver):
    def __init__(self):
        self.starts = []
        self.finishes = []
        self.rounds = 0
        self.ticks = []

    def on_job_start(self, simulator, job, now_h):
        self.starts.append((job.job_id, now_h))

    def on_job_finish(self, simulator, job, now_h, *, completed):
        self.finishes.append((job.job_id, now_h, completed))

    def on_round(self, simulator, now_h, context, decisions):
        self.rounds += 1

    def on_tick(self, simulator, now_h, it_power_w):
        self.ticks.append((now_h, it_power_w))


class TestLifecycleHooks:
    def test_observer_sees_every_lifecycle_event(self, compose_worlds):
        observer = RecordingObserver()
        result = _run_policy(
            compose_worlds["supercloud-small"],
            make_scheduler("backfill"),
            observers=[observer],
        )
        started = [r for r in result.job_records if r.start_time_h is not None]
        finished = [r for r in result.job_records if r.finish_time_h is not None]
        assert len(observer.starts) == len(started)
        assert len(observer.finishes) == len(finished)
        assert {jid for jid, _, completed in observer.finishes if completed} == {
            r.job_id for r in result.job_records if r.completed
        }
        assert observer.rounds > 0
        # One tick callback per recorded tick, with the recorded sample.
        assert len(observer.ticks) == result.tick_times_h.shape[0]
        assert [p for _, p in observer.ticks] == list(result.it_power_w)

    def test_hooks_reach_overrides_and_instance_attributes(self, compose_worlds):
        # Hook sites dispatch only to observers that override a hook; a hook
        # assigned on the instance counts as an override too.
        class TickOnly(SimulatorObserver):
            def __init__(self):
                self.ticks = 0

            def on_tick(self, simulator, now_h, it_power_w):
                self.ticks += 1

        tick_only = TickOnly()
        assigned = SimulatorObserver()
        finishes = []
        assigned.on_job_finish = lambda simulator, job, now_h, *, completed: finishes.append(
            job.job_id
        )
        result = _run_policy(
            compose_worlds["supercloud-small"],
            make_scheduler("backfill"),
            observers=[tick_only, assigned],
        )
        assert tick_only.ticks == result.tick_times_h.shape[0]
        assert sorted(finishes) == sorted(
            r.job_id for r in result.job_records if r.finish_time_h is not None
        )

    def test_observers_do_not_perturb_results(self, compose_worlds):
        world = compose_worlds["supercloud-small"]
        plain = _run_policy(world, make_scheduler("carbon-aware"))
        observed = _run_policy(
            world, make_scheduler("carbon-aware"), observers=[RecordingObserver()]
        )
        assert observed.digest() == plain.digest()

    def test_pipeline_observers_attach_automatically(self, compose_worlds):
        scheduler = make_scheduler("backfill+adaptive(budget_w=15000.0)")
        assert len(scheduler.observers()) == 1
        facility, weather, grid, jobs = compose_worlds["supercloud-small"]
        parity = state_parity.PowerParityObserver()  # recap deltas must stay exact
        simulator = ClusterSimulator(
            Cluster(facility),
            scheduler,
            SimulationConfig(horizon_h=HORIZON_H),
            weather_hourly_c=weather,
            cooling=CoolingModel(),
            grid=grid,
            observers=[parity],
        )
        result = simulator.run([job.clone_pending() for job in jobs])
        assert simulator.observers == (parity, *scheduler.observers())
        assert parity.checks > len(result.tick_times_h)
        assert result.completed_jobs > 0
        # The controller tightened caps on running jobs through the hook API.
        assert any(r.power_cap_w is not None for r in result.job_records)

    def test_adaptive_stage_reduces_sustained_power(self, compose_worlds):
        world = compose_worlds["supercloud-small"]
        uncapped = _run_policy(world, make_scheduler("backfill"))
        budget_w = 0.6 * float(uncapped.it_power_w.max())
        adaptive = _run_policy(
            world,
            make_scheduler(f"backfill+adaptive(budget_w={budget_w!r},min_fraction=0.5)"),
        )
        # The follower cannot hold the hard ceiling instantaneously, but the
        # time the cluster spends far above budget must drop.
        assert (adaptive.it_power_w > 1.1 * budget_w).sum() < (
            uncapped.it_power_w > 1.1 * budget_w
        ).sum()
        assert adaptive.it_energy_kwh < uncapped.it_energy_kwh

    def test_adaptive_relaxes_from_chained_cap_not_uncapped(self):
        """The stage takes a job into its loop at the pipeline-resolved starting cap.

        Under a slack budget the stage relaxes caps by ``step`` per tick
        *from the cap the power chain imposed* — it must not treat the job as
        uncapped and reset the static cap on its first control step.
        """
        cluster = Cluster(FacilityConfig(n_nodes=1, gpus_per_node=2))
        model = cluster.gpu_power_model
        tdp_w = cluster.gpu_spec.tdp_w
        scheduler = make_scheduler(
            "fifo+cap(fraction=0.6)+adaptive(budget_w=1000000000000.0,min_fraction=0.5,step=0.05)"
        )
        simulator = ClusterSimulator(cluster, scheduler, SimulationConfig(horizon_h=24.0))
        job = Job(job_id="a", user_id="u", n_gpus=2, duration_h=10.0, submit_time_h=0.5, utilization=1.0)

        simulator.begin([job])
        simulator.advance(1.0)  # started at 0.5 under the static cap
        assert job.assigned_power_cap_w == model.clamp_power_limit_scalar(0.6 * tdp_w)
        simulator.advance(1.5)  # the tick at 1.0 is far under budget: relax one step
        assert job.assigned_power_cap_w == model.clamp_power_limit_scalar(0.65 * tdp_w)

    def test_cap_exempt_none_disables_exemptions(self):
        pipeline = build_pipeline("backfill+cap(fraction=0.8,exempt=none)")
        (stage,) = pipeline.power
        assert stage.exempt_queues == frozenset()

    def test_numpy_cap_fractions_accepted(self):
        # np.linspace sweeps hand NumPy scalars to the cap lever; the spec
        # grammar must receive a plain float, not "np.float64(...)".
        import numpy as np

        from repro.core.levers import resolve_policy

        scheduler = make_scheduler("carbon-aware", np.float64(0.6))
        assert any(
            getattr(stage, "cap_fraction", None) == pytest.approx(0.6)
            for stage in scheduler.power
        )
        assert "0.6" in resolve_policy("energy-aware").effective_spec(np.float64(0.6))

    def test_adaptive_energy_attribution_is_time_weighted(self):
        """Re-capped jobs are billed per constant-cap segment, not at the last cap."""
        cluster = Cluster(FacilityConfig(n_nodes=1, gpus_per_node=2))
        model = cluster.gpu_power_model
        tdp_w = cluster.gpu_spec.tdp_w
        simulator = ClusterSimulator(cluster, make_scheduler("fifo"), SimulationConfig(horizon_h=24.0))
        job = Job(job_id="a", user_id="u", n_gpus=2, duration_h=10.0, submit_time_h=0.0, utilization=1.0)
        stage = AdaptiveCapStage(1.0, min_cap_fraction=0.5, step_fraction=0.25)

        simulator.begin([job])
        simulator.advance(4.0)
        power_uncapped = model.power_w_scalar(1.0, None)
        stage.on_tick(simulator, 4.0, it_power_w=1e9)  # over budget: 1.0 -> 0.75
        cap_1 = job.assigned_power_cap_w
        assert cap_1 == model.clamp_power_limit_scalar(0.75 * tdp_w)
        power_1 = model.power_w_scalar(1.0, cap_1)
        simulator.advance(7.0)
        stage.on_tick(simulator, 7.0, it_power_w=1e9)  # 0.75 -> 0.5 (min)
        power_2 = model.power_w_scalar(1.0, job.assigned_power_cap_w)

        (record,) = simulator.finalize().job_records
        assert record.finish_time_h == 10.0
        expected = 2 * (power_uncapped * 4.0 + power_1 * 3.0 + power_2 * 3.0) * 3600.0
        assert record.energy_j == pytest.approx(expected, rel=1e-12)

    def test_finish_hook_reads_the_final_energy(self, compose_worlds):
        """``on_job_finish`` observers see the energy the job's record keeps.

        Under the adaptive stage some jobs are re-capped mid-run, so their
        energy spans several cap segments.
        """
        seen = {}

        class EnergyAtFinish(SimulatorObserver):
            def on_job_finish(self, simulator, job, now_h, *, completed):
                seen[job.job_id] = job.energy_j

        result = _run_policy(
            compose_worlds["supercloud-small"],
            make_scheduler("backfill+adaptive(budget_w=15000)"),
            observers=[EnergyAtFinish()],
        )
        final = {r.job_id: r.energy_j for r in result.job_records if r.finish_time_h is not None}
        assert len(final) > 250
        assert seen == final
