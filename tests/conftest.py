"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
from typing import Any, Callable, ContextManager, Iterator

import pytest

from repro import Diablo
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext

#: The per-context settings a borrowed cluster takes over from a plain
#: ``DistributedContext(**settings)`` built the same way (metrics included,
#: so every borrow starts from zero counters).
_BORROWED_ATTRIBUTES = (
    "num_partitions",
    "broadcast_join_threshold",
    "plan_optimize",
    "columnar",
    "adaptive",
    "plan_cache",
    "spill_threshold_bytes",
    "shuffle_store",
    "metrics",
)


@pytest.fixture
def context() -> DistributedContext:
    """A small local DISC context."""
    return DistributedContext(num_partitions=4)


@pytest.fixture
def diablo(context: DistributedContext) -> Diablo:
    """A default Diablo compiler/runner pair."""
    return Diablo(context)


@pytest.fixture(scope="module")
def shared_cluster() -> Iterator[ClusterContext]:
    """One 2-worker cluster per module for the cross-executor differentials."""
    cluster = ClusterContext(num_partitions=4, cluster_workers=2)
    yield cluster
    cluster.shutdown()


@contextlib.contextmanager
def _borrow(cluster: ClusterContext, settings: dict[str, Any]) -> Iterator[ClusterContext]:
    template = DistributedContext(**settings)
    saved = {name: getattr(cluster, name) for name in _BORROWED_ATTRIBUTES}
    for name in _BORROWED_ATTRIBUTES:
        setattr(cluster, name, getattr(template, name))
    try:
        yield cluster
    finally:
        for name, value in saved.items():
            setattr(cluster, name, value)
        template.shutdown()


@pytest.fixture
def executor_context(
    request: pytest.FixtureRequest,
) -> Callable[..., ContextManager[DistributedContext]]:
    """``executor_context(mode, **settings)``: a context for one executor mode.

    ``"sequential"`` opens a fresh ``DistributedContext(**settings)``;
    ``"cluster"`` lends out the module's :func:`shared_cluster`, configured
    like that context (fresh metrics, same spill budget, columnar mode, ...)
    for the duration of the ``with`` block.
    """

    def open_context(mode: str, **settings: Any) -> ContextManager[DistributedContext]:
        if mode == "cluster":
            return _borrow(request.getfixturevalue("shared_cluster"), settings)
        return DistributedContext(**settings)

    return open_context


def assert_close(actual, expected, tolerance: float = 1e-9) -> None:
    """Assert numeric closeness with a relative tolerance."""
    assert abs(actual - expected) <= tolerance * max(1.0, abs(actual), abs(expected)), (
        f"{actual} != {expected}"
    )


def assert_dict_close(actual: dict, expected: dict, tolerance: float = 1e-9) -> None:
    """Assert two numeric dicts have the same keys and close values."""
    assert set(actual.keys()) == set(expected.keys())
    for key, value in expected.items():
        got = actual[key]
        if isinstance(value, (int, float)) and isinstance(got, (int, float)):
            assert abs(got - value) <= tolerance * max(1.0, abs(value)), f"{key}: {got} != {value}"
        else:
            assert got == value, f"{key}: {got} != {value}"
