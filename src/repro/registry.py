"""One name table for everything users register.

Policies, pipeline stages, fleet routers, experiments, scenarios, sites and
fleets are each a :class:`Registry`: names in registration order, one
duplicate check and one unknown-name error.  Each table fixes its noun and
error class where it is defined, so every table reports alike::

    unknown fleet 'nope'; registered fleets: ['deca-continental-medium', ...]
    fleet 'solo-small' is already registered
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Values by name, in registration order.

    ``noun`` and ``plural`` name an entry in messages (``"router token"``,
    ``"tokens"``); ``error`` is the exception class both messages raise.
    """

    def __init__(self, noun: str, plural: str, error: type[Exception]) -> None:
        self._entries: dict[str, T] = {}
        self._noun = noun
        self._plural = plural
        self._error = error

    def register(self, name: str, value: T, *, overwrite: bool = False) -> T:
        """Add ``value`` under ``name``; returns it.  Duplicates raise unless ``overwrite``."""
        if name in self._entries and not overwrite:
            raise self._error(f"{self._noun} {name!r} is already registered")
        self._entries[name] = value
        return value

    def get(self, name: str) -> T:
        """The value registered under ``name``; unknown names raise, listing the table."""
        try:
            return self._entries[name]
        except KeyError:
            raise self._error(
                f"unknown {self._noun} {name!r}; registered {self._plural}: "
                f"{sorted(self._entries)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def values(self) -> Iterator[T]:
        """Iterate over a snapshot of the registered values, in registration order."""
        return iter(tuple(self._entries.values()))

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __delitem__(self, name: str) -> None:
        del self._entries[name]
