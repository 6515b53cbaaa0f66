"""Coverage ledger for the public verification operations.

Every operation that a suite is expected to exercise registers itself at
import time and records each call.  The aggregate runner uses this to
assert that a full run leaves no registered operation untouched, which
guards against suites silently bypassing the code they claim to verify.

Each operation owns one counter cell, a one-item list registered under
its name in :data:`_CALLS`; its wrapper bumps the cell it closed over, so
a counted call costs one list-item increment and no dictionary lookup.
:func:`all_ops` is every registered name, and :func:`call_counts` lists
only the operations called at least once, with their exact counts.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import wraps
from typing import TypeVar

_CALLS: dict[str, list[int]] = {}

F = TypeVar("F", bound=Callable)


def logged(name: str) -> Callable[[F], F]:
    """Register ``name`` and count every call of the decorated function."""

    def deco(fn: F) -> F:
        cell = _CALLS.setdefault(name, [0])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco


def all_ops() -> frozenset[str]:
    return frozenset(_CALLS)


def call_counts() -> dict[str, int]:
    return {name: cell[0] for name, cell in _CALLS.items() if cell[0]}


def missing_ops() -> frozenset[str]:
    return frozenset(name for name, cell in _CALLS.items() if not cell[0])
