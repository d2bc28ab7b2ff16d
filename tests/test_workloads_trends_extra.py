"""Additional property-style tests for the training/scaling models.

These complement the example-based tests with invariants that must hold for
*any* workload configuration, using hypothesis to explore the parameter space.
"""

from hypothesis import given, settings, strategies as st

from repro.core.mechanism import MechanismOption, TwoPartMechanism, UserPreference
from repro.workloads.training import ScalingEfficiencyModel, TrainingJobModel, TrainingJobSpec


class TestScalingProperties:
    @given(
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=0.0, max_value=0.05),
        st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=80, deadline=None)
    def test_speedup_bounded_by_gpu_count(self, serial_fraction, comm_overhead, n_gpus):
        model = ScalingEfficiencyModel(serial_fraction, comm_overhead)
        speedup = model.speedup(n_gpus)
        assert 0 < speedup <= n_gpus + 1e-9
        assert speedup / n_gpus <= 1.0 + 1e-9


class TestTrainingModelProperties:
    @given(
        st.floats(min_value=1.0, max_value=5000.0),
        st.floats(min_value=0.5, max_value=1.0),
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=0.5, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_capped_runs_never_use_more_gpu_energy(self, gpu_hours, utilization, n_gpus, cap):
        spec = TrainingJobSpec(name="prop", single_gpu_hours=gpu_hours, utilization=utilization)
        model = TrainingJobModel(spec)
        uncapped = model.run(n_gpus, None)
        capped = model.run(n_gpus, cap)
        assert capped.gpu_energy_kwh <= uncapped.gpu_energy_kwh + 1e-9
        assert capped.wall_clock_hours >= uncapped.wall_clock_hours - 1e-9

    @given(st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=32))
    @settings(max_examples=40, deadline=None)
    def test_more_gpus_never_slower(self, a, b):
        spec = TrainingJobSpec(name="prop", single_gpu_hours=100.0)
        model = TrainingJobModel(spec)
        few, many = min(a, b), max(a, b)
        assert model.wall_clock_hours(many) <= model.wall_clock_hours(few) + 1e-9


class TestMechanismProperties:
    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.0, max_value=0.1),
        st.floats(min_value=0.55, max_value=1.0),
        st.floats(min_value=1.0, max_value=2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_best_response_never_worse_than_status_quo(self, base_gpus, energy_weight, cap, multiplier):
        """Voluntary participation: a rational user's chosen option has utility no
        worse than the status quo, whatever the menu looks like."""
        menu = (
            MechanismOption("baseline", 1.0, 1.0),
            MechanismOption("offer", cap, multiplier),
        )
        mechanism = TwoPartMechanism(menu)
        user = UserPreference(
            "u",
            base_gpus=base_gpus,
            workload=TrainingJobSpec(name="prop", single_gpu_hours=40.0),
            energy_weight=energy_weight,
        )
        best = mechanism.best_response(user)
        baseline = mechanism.evaluate_option(user, menu[0])
        assert best.utility <= baseline.utility + 1e-9
