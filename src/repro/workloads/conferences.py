"""The conference calendar of Table I and deadline counting for Fig. 5.

Table I of the paper lists the notable A.I. conferences (by area) whose
submission deadlines it counts per month for the Fig. 5 analysis.  The
catalogue below reproduces that list with each venue's typical submission
deadline month.  Exact deadline dates move a little year to year; what Fig. 5
uses — and what the reproduction preserves — is the *distribution* of
deadlines over the months of the year: a heavy spring/early-summer cluster,
a secondary early-autumn cluster, and sparse winters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import DataError
from ..timeutils import SimulationCalendar

__all__ = ["Conference", "CONFERENCE_CATALOG", "ConferenceCalendar"]


@dataclass(frozen=True)
class Conference:
    """One conference venue.

    Attributes
    ----------
    name:
        Venue acronym as listed in Table I.
    area:
        Area/discipline row of Table I.
    deadline_month:
        Typical submission-deadline month (1-12).
    deadline_overrides:
        Optional year-specific overrides ``{year: month}`` for editions whose
        deadline moved (used sparingly; the analysis is month-resolution).
    years_active:
        Years in which the venue actually had a deadline; ``None`` means every
        year.  Biennial venues (ICCV, COLING, ICPR, FG, ...) use this, and it
        is what makes the 2020 and 2021 deadline profiles differ — the
        asymmetry Fig. 5 highlights (the sharp early-2021 ramp ahead of a
        2021-specific spring deadline cluster).
    """

    name: str
    area: str
    deadline_month: int
    deadline_overrides: Mapping[int, int] = field(default_factory=dict)
    years_active: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.deadline_month <= 12:
            raise DataError(f"{self.name}: deadline_month must be in 1..12")
        for year, month in self.deadline_overrides.items():
            if not 1 <= month <= 12:
                raise DataError(f"{self.name}: override for {year} must be in 1..12")

    def has_deadline_in(self, year: int) -> bool:
        """Whether the venue has a submission deadline during ``year``."""
        return self.years_active is None or year in self.years_active

    def deadline_month_for(self, year: int) -> int:
        """Deadline month for a specific year (override or the typical month)."""
        return self.deadline_overrides.get(year, self.deadline_month)


#: The Table I catalogue.  Areas follow the table's rows; deadline months are
#: the venues' typical paper-submission deadlines.
CONFERENCE_CATALOG: tuple[Conference, ...] = (
    # NLP / Speech
    Conference("EACL", "NLP/Speech", 10),
    Conference("InterSpeech", "NLP/Speech", 3),
    Conference("EMNLP", "NLP/Speech", 5),
    Conference("AKBC", "NLP/Speech", 11),
    Conference("ICASSP", "NLP/Speech", 10),
    Conference("ISMIR", "NLP/Speech", 4),
    Conference("AACL-IJCNLP", "NLP/Speech", 5),
    Conference("COLING", "NLP/Speech", 7, years_active=(2020, 2022)),
    Conference("CoNLL", "NLP/Speech", 6),
    Conference("WMT", "NLP/Speech", 6),
    # Computer Vision
    Conference("ICME", "Computer Vision", 12),
    Conference("ICIP", "Computer Vision", 2),
    Conference("SIGGRAPH", "Computer Vision", 1),
    Conference("MIDL", "Computer Vision", 12),
    # ICCV runs in odd years only: its March 2021 deadline is part of the
    # 2021-specific spring cluster Fig. 5 points at.
    Conference("ICCV", "Computer Vision", 3, years_active=(2019, 2021, 2023)),
    Conference("FG", "Computer Vision", 7, years_active=(2020, 2021)),
    Conference("ICMI", "Computer Vision", 5),
    Conference("BMVC", "Computer Vision", 4),
    Conference("WACV", "Computer Vision", 8),
    # Robotics
    Conference("IROS", "Robotics", 3),
    Conference("RSS", "Robotics", 1),
    Conference("CoRL", "Robotics", 6),
    Conference("ICRA", "Robotics", 9),
    # General ML
    Conference("COLT", "General ML", 2),
    Conference("ICCC", "General ML", 2),
    # ICPR and COLING run in even years (deadlines fall in 2020 only within
    # the 2020-21 window).
    Conference("ICPR", "General ML", 3, years_active=(2020, 2022)),
    Conference("AAMAS", "General ML", 11),
    Conference("AISTATS", "General ML", 10),
    Conference("CHIL", "General ML", 10),
    Conference("ECML-PKDD", "General ML", 4),
    # NeurIPS moved its abstract/paper deadline earlier (May) in 2021 after a
    # June 2020 deadline — another contributor to the 2021 spring cluster.
    Conference("NeurIPS", "General ML", 6, deadline_overrides={2021: 5}),
    Conference("ACML", "General ML", 6),
    Conference("AAAI", "General ML", 9),
    Conference("ICLR", "General ML", 10),
    # Data Mining
    Conference("SDM", "Data Mining", 10),
    Conference("KDD", "Data Mining", 2),
    Conference("SIGIR", "Data Mining", 1),
    Conference("RecSys", "Data Mining", 4),
    Conference("CIKM", "Data Mining", 5),
    Conference("ICDM", "Data Mining", 6),
    Conference("WSDM", "Data Mining", 8),
    Conference("WWW", "Data Mining", 10),
)


class ConferenceCalendar:
    """Deadline counting and restructuring over a simulation horizon.

    Parameters
    ----------
    conferences:
        The venue catalogue (defaults to the Table I list above).
    """

    def __init__(self, conferences: Sequence[Conference] | None = None) -> None:
        self.conferences: tuple[Conference, ...] = (
            tuple(conferences) if conferences is not None else CONFERENCE_CATALOG
        )
        if not self.conferences:
            raise DataError("ConferenceCalendar requires at least one conference")
        names = [c.name for c in self.conferences]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate conference names in catalogue: {names}")

    # ------------------------------------------------------------------
    # Table I views
    # ------------------------------------------------------------------
    def by_area(self) -> dict[str, list[str]]:
        """Conference names grouped by area — the content of Table I."""
        table: dict[str, list[str]] = {}
        for conference in self.conferences:
            table.setdefault(conference.area, []).append(conference.name)
        return table

    def __len__(self) -> int:
        return len(self.conferences)

    # ------------------------------------------------------------------
    # Deadline counts (Fig. 5 x-axis)
    # ------------------------------------------------------------------
    def deadlines_per_month(self, calendar: SimulationCalendar) -> np.ndarray:
        """Number of conference deadlines falling in each month of the horizon."""
        counts = np.zeros(calendar.n_months, dtype=int)
        for index, month in enumerate(calendar.months):
            for conference in self.conferences:
                if not conference.has_deadline_in(month.year):
                    continue
                if conference.deadline_month_for(month.year) == month.month:
                    counts[index] += 1
        return counts

    def deadline_hours(self, calendar: SimulationCalendar) -> list[tuple[str, float]]:
        """(conference, deadline hour) pairs within the horizon.

        The deadline is placed at the middle of its month, which is all the
        month-resolution demand model needs.
        """
        out: list[tuple[str, float]] = []
        for index, month in enumerate(calendar.months):
            mid_hour = calendar.month_start_hour(index) + calendar.month_length_hours(index) / 2.0
            for conference in self.conferences:
                if not conference.has_deadline_in(month.year):
                    continue
                if conference.deadline_month_for(month.year) == month.month:
                    out.append((conference.name, mid_hour))
        return out

    def monthly_count_by_month_of_year(self) -> np.ndarray:
        """Deadline counts for a generic year (index 0 = January)."""
        counts = np.zeros(12, dtype=int)
        for conference in self.conferences:
            counts[conference.deadline_month - 1] += 1
        return counts

    # ------------------------------------------------------------------
    # Restructuring options (Section III proposals)
    # ------------------------------------------------------------------
    def restructured(self, option: str) -> "ConferenceCalendar":
        """A new calendar implementing one of the paper's restructuring options.

        ``"uniform"`` spreads deadlines evenly over the twelve months;
        ``"winter"`` concentrates them in November-March (so the compute
        surge precedes/overlaps the cold, green months); ``"rolling"``
        removes fixed deadlines entirely, which the demand model interprets
        as no anticipation spikes (the calendar still lists the venues, each
        nominally "due" every month — encoded as month 0 sentinel handled by
        the demand model via an empty deadline list).
        """
        if option == "uniform":
            new = [
                Conference(c.name, c.area, (i % 12) + 1)
                for i, c in enumerate(self.conferences)
            ]
            return ConferenceCalendar(new)
        if option == "winter":
            winter_months = (11, 12, 1, 2, 3)
            new = [
                Conference(c.name, c.area, winter_months[i % len(winter_months)])
                for i, c in enumerate(self.conferences)
            ]
            return ConferenceCalendar(new)
        if option == "rolling":
            return RollingSubmissionCalendar(self.conferences)
        raise DataError(
            f"unknown restructuring option {option!r}; expected 'uniform', 'winter' or 'rolling'"
        )


class RollingSubmissionCalendar(ConferenceCalendar):
    """A calendar where every venue accepts rolling submissions (no deadlines)."""

    def deadlines_per_month(self, calendar: SimulationCalendar) -> np.ndarray:  # noqa: D102
        return np.zeros(calendar.n_months, dtype=int)

    def deadline_hours(self, calendar: SimulationCalendar) -> list[tuple[str, float]]:  # noqa: D102
        return []

    def monthly_count_by_month_of_year(self) -> np.ndarray:  # noqa: D102
        return np.zeros(12, dtype=int)
