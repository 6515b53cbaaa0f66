"""Coverage ledger for the public verification operations.

Every operation that a suite is expected to exercise registers itself at
import time and records each call.  The aggregate runner uses this to
assert that a full run leaves no registered operation untouched, which
guards against suites silently bypassing the code they claim to verify.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import wraps
from typing import TypeVar

_ALL: set[str] = set()
_CALLS: Counter[str] = Counter()

F = TypeVar("F", bound=Callable)


def logged(name: str) -> Callable[[F], F]:
    """Register ``name`` and count every call of the decorated function."""

    def deco(fn: F) -> F:
        _ALL.add(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            _CALLS[name] += 1
            return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco


def all_ops() -> frozenset[str]:
    return frozenset(_ALL)


def seen_ops() -> frozenset[str]:
    return frozenset(n for n, c in _CALLS.items() if c > 0)


def missing_ops() -> frozenset[str]:
    return frozenset(_ALL) - seen_ops()


def call_counts() -> dict[str, int]:
    return dict(_CALLS)
