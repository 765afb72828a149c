"""Span accounting: exact nesting, sliced coroutines, wrappers removed."""

import asyncio
import time

from repro.core.runner import EndpointRunner
from repro.deploy import SimDeployment

from bench.tracing import ROOT_LAYER, Tracer, _awaited, _sliced, _sync, installed


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def test_self_times_add_up_to_the_operation_wall_time():
    tracer = Tracer()
    inner = _sync(tracer, "links", "inner", lambda: _spin(0.002), None)

    def middle_body():
        _spin(0.001)
        inner()

    middle = _sync(tracer, "core", "middle", middle_body, None)

    async def op_body():
        middle()
        await asyncio.sleep(0)
        middle()

    asyncio.run(_awaited(tracer, ROOT_LAYER, "send", op_body, None)())
    assert tracer.op == 1
    assert sum(tracer.self_s.values()) == pytest_approx(tracer.wall)
    assert tracer.self_s["links"] >= 0.004
    assert 0.002 <= tracer.self_s["core"] < tracer.self_s["links"]


def test_work_outside_an_operation_is_not_attributed():
    tracer = Tracer()
    _sync(tracer, "core", "stray", lambda: _spin(0.001), None)()
    assert tracer.wall == 0.0 and not tracer.self_s


def test_a_sliced_coroutine_is_charged_only_while_it_runs():
    tracer = Tracer()

    async def worker():
        _spin(0.002)
        await asyncio.sleep(0.02)  # suspended: must not be charged
        _spin(0.002)

    traced_worker = _sliced(tracer, "runtime", "worker", worker, None)

    async def op_body():
        task = asyncio.ensure_future(_drive(traced_worker))
        await asyncio.sleep(0.03)
        await task

    async def _drive(fn):
        await fn()

    asyncio.run(_awaited(tracer, ROOT_LAYER, "settle", op_body, None)())
    assert 0.004 <= tracer.self_s["runtime"] < 0.015
    assert sum(tracer.self_s.values()) == pytest_approx(tracer.wall)


def test_wrappers_are_removed_again():
    before = (EndpointRunner.app_send, SimDeployment.send)
    with installed(Tracer()):
        assert EndpointRunner.app_send is not before[0]
    assert (EndpointRunner.app_send, SimDeployment.send) == before


def pytest_approx(value):
    import pytest

    return pytest.approx(value, rel=1e-9, abs=1e-9)
