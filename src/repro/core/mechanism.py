"""The two-part mechanism of Section II.C.

The paper proposes a mechanism with "a fixed component that guarantees a
specified minimum amount of energy efficiency and a variable component that
allows for user choice": every job runs under a baseline power cap (the fixed
part), and users may *choose* stricter caps in exchange for more GPUs (the
variable part).  The key quantitative fact making the menu attractive is the
power-cap response of Frey et al. [15]: moderate caps barely slow training,
so a user who accepts, say, a 60% cap and receives 25% more GPUs finishes
*sooner* while the system burns less energy per unit of work.

This module models:

* the **menu** (:class:`MechanismOption`): (cap fraction, GPU multiplier) pairs;
* the **users** (:class:`UserPreference`): each user weighs completion time
  against a private "green preference" for saving energy;
* the **mechanism** (:class:`TwoPartMechanism`): computes each user's best
  response to the menu via the training-job model, then aggregates system
  energy, average completion time, and participation — the
  :class:`MechanismOutcome` the EQ2 benchmark tabulates against the no-mechanism
  baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import MechanismError
from ..rng import SeedLike, make_rng
from ..workloads.training import TrainingJobModel, TrainingJobSpec

__all__ = ["MechanismOption", "UserPreference", "UserChoice", "MechanismOutcome", "TwoPartMechanism"]


@dataclass(frozen=True)
class MechanismOption:
    """One entry of the menu: accept a cap, receive a GPU multiplier.

    Attributes
    ----------
    name:
        Display name.
    power_cap_fraction:
        Cap accepted by the user (fraction of TDP); 1.0 means uncapped.
    gpu_multiplier:
        Multiplier on the user's baseline GPU allocation.
    """

    name: str
    power_cap_fraction: float
    gpu_multiplier: float

    def __post_init__(self) -> None:
        if not 0.0 < self.power_cap_fraction <= 1.0:
            raise MechanismError("power_cap_fraction must lie in (0, 1]")
        if self.gpu_multiplier < 1.0:
            raise MechanismError("gpu_multiplier must be >= 1.0 (the mechanism only adds GPUs)")


#: The default three-option menu: status quo, a moderate trade, an aggressive trade.
DEFAULT_MENU: tuple[MechanismOption, ...] = (
    MechanismOption("baseline", power_cap_fraction=1.0, gpu_multiplier=1.0),
    MechanismOption("eco", power_cap_fraction=0.7, gpu_multiplier=1.15),
    MechanismOption("deep-eco", power_cap_fraction=0.55, gpu_multiplier=1.35),
)


@dataclass(frozen=True)
class UserPreference:
    """A user's private preferences over completion time and energy.

    The user's (dis)utility for an option is
    ``time_weight * wall_clock_hours + energy_weight * energy_kwh`` — lower is
    better.  ``energy_weight`` is the private "green preference" the mechanism
    cannot observe; heterogeneous values are what make a menu (rather than a
    single mandate) the right instrument.

    Attributes
    ----------
    user_id:
        Identifier.
    base_gpus:
        GPUs the user's job would receive without the mechanism.
    workload:
        The training workload the user runs.
    time_weight:
        Disutility per hour of wall-clock time.
    energy_weight:
        Disutility per kWh of energy (the green preference).
    """

    user_id: str
    base_gpus: int
    workload: TrainingJobSpec
    time_weight: float = 1.0
    energy_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.base_gpus <= 0:
            raise MechanismError("base_gpus must be positive")
        if self.time_weight < 0 or self.energy_weight < 0:
            raise MechanismError("preference weights must be non-negative")


@dataclass(frozen=True)
class UserChoice:
    """One user's best response to the menu."""

    user_id: str
    option: MechanismOption
    n_gpus: int
    wall_clock_hours: float
    energy_kwh: float
    utility: float


@dataclass(frozen=True)
class MechanismOutcome:
    """Population-level result of offering the menu."""

    choices: tuple[UserChoice, ...]
    baseline_energy_kwh: float
    mechanism_energy_kwh: float
    baseline_mean_hours: float
    mechanism_mean_hours: float
    participation_rate: float
    extra_gpu_hours: float

    @property
    def energy_savings_fraction(self) -> float:
        """System-wide fractional energy savings relative to the no-mechanism baseline."""
        if self.baseline_energy_kwh == 0:
            return 0.0
        return 1.0 - self.mechanism_energy_kwh / self.baseline_energy_kwh

    @property
    def mean_time_change_fraction(self) -> float:
        """Relative change in mean completion time (negative = users finish sooner)."""
        if self.baseline_mean_hours == 0:
            return 0.0
        return self.mechanism_mean_hours / self.baseline_mean_hours - 1.0


class TwoPartMechanism:
    """Computes best responses to a (cap, GPUs) menu over a user population."""

    def __init__(self, menu: Sequence[MechanismOption] = DEFAULT_MENU) -> None:
        if not menu:
            raise MechanismError("the menu must contain at least one option")
        names = [o.name for o in menu]
        if len(set(names)) != len(names):
            raise MechanismError(f"duplicate option names in menu: {names}")
        if not any(o.power_cap_fraction >= 1.0 and o.gpu_multiplier == 1.0 for o in menu):
            raise MechanismError(
                "the menu must include a status-quo option (uncapped, multiplier 1.0) "
                "so participation is voluntary"
            )
        self.menu = tuple(menu)

    # ------------------------------------------------------------------
    # Individual best response
    # ------------------------------------------------------------------
    def evaluate_option(self, user: UserPreference, option: MechanismOption) -> UserChoice:
        """Evaluate one menu option for one user (time, energy, utility)."""
        model = TrainingJobModel(user.workload)
        n_gpus = max(1, int(round(user.base_gpus * option.gpu_multiplier)))
        cap = None if option.power_cap_fraction >= 1.0 else option.power_cap_fraction
        run = model.run(n_gpus, cap)
        utility = user.time_weight * run.wall_clock_hours + user.energy_weight * run.total_energy_kwh
        return UserChoice(
            user_id=user.user_id,
            option=option,
            n_gpus=n_gpus,
            wall_clock_hours=run.wall_clock_hours,
            energy_kwh=run.total_energy_kwh,
            utility=utility,
        )

    def best_response(self, user: UserPreference) -> UserChoice:
        """The menu option minimising the user's disutility (ties keep the greener option)."""
        evaluations = [self.evaluate_option(user, option) for option in self.menu]
        return min(
            evaluations,
            key=lambda choice: (round(choice.utility, 9), choice.option.power_cap_fraction),
        )

    # ------------------------------------------------------------------
    # Population evaluation
    # ------------------------------------------------------------------
    def evaluate_population(self, users: Sequence[UserPreference]) -> MechanismOutcome:
        """Offer the menu to every user and aggregate the system-level outcome."""
        if not users:
            raise MechanismError("evaluate_population requires at least one user")
        baseline_option = next(
            o for o in self.menu if o.power_cap_fraction >= 1.0 and o.gpu_multiplier == 1.0
        )
        choices = []
        baseline_energy = 0.0
        baseline_hours = []
        mechanism_energy = 0.0
        mechanism_hours = []
        extra_gpu_hours = 0.0
        participants = 0
        for user in users:
            baseline_choice = self.evaluate_option(user, baseline_option)
            choice = self.best_response(user)
            choices.append(choice)
            baseline_energy += baseline_choice.energy_kwh
            baseline_hours.append(baseline_choice.wall_clock_hours)
            mechanism_energy += choice.energy_kwh
            mechanism_hours.append(choice.wall_clock_hours)
            if choice.option.name != baseline_option.name:
                participants += 1
                extra_gpu_hours += (
                    choice.n_gpus * choice.wall_clock_hours
                    - baseline_choice.n_gpus * baseline_choice.wall_clock_hours
                )
        return MechanismOutcome(
            choices=tuple(choices),
            baseline_energy_kwh=baseline_energy,
            mechanism_energy_kwh=mechanism_energy,
            baseline_mean_hours=float(np.mean(baseline_hours)),
            mechanism_mean_hours=float(np.mean(mechanism_hours)),
            participation_rate=participants / len(users),
            extra_gpu_hours=float(extra_gpu_hours),
        )

    # ------------------------------------------------------------------
    # Synthetic population helper
    # ------------------------------------------------------------------
    @staticmethod
    def synthetic_population(
        n_users: int,
        *,
        workload: TrainingJobSpec | None = None,
        green_fraction: float = 0.4,
        seed: SeedLike = None,
    ) -> list[UserPreference]:
        """A heterogeneous user population for mechanism experiments.

        ``green_fraction`` of users carry a non-trivial energy weight (they
        internalise part of the energy cost); the rest care only about time.
        GPU baselines follow the usual 1-8 GPU mix.
        """
        if n_users <= 0:
            raise MechanismError("n_users must be positive")
        if not 0.0 <= green_fraction <= 1.0:
            raise MechanismError("green_fraction must lie in [0, 1]")
        rng = make_rng(seed, "mechanism-population")
        spec = workload or TrainingJobSpec(name="resnet50-like", single_gpu_hours=60.0)
        users = []
        for i in range(n_users):
            base_gpus = int(rng.choice([1, 2, 4, 8], p=[0.35, 0.3, 0.25, 0.1]))
            is_green = rng.uniform() < green_fraction
            energy_weight = float(rng.uniform(0.02, 0.08)) if is_green else float(rng.uniform(0.0, 0.005))
            users.append(
                UserPreference(
                    user_id=f"user-{i:03d}",
                    base_gpus=base_gpus,
                    workload=spec,
                    time_weight=1.0,
                    energy_weight=energy_weight,
                )
            )
        return users
