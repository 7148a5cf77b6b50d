import multiprocessing
import threading
import time
from types import SimpleNamespace

import pytest

from losmimo.orientation import default_curve


@pytest.fixture(scope="session")
def curve_info():
    """The standard worst-case correlation curve plus its build time."""
    t0 = time.monotonic()
    c = default_curve()
    return SimpleNamespace(curve=c, build_seconds=time.monotonic() - t0)


@pytest.fixture(scope="session")
def curve(curve_info):
    return curve_info.curve


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread or a child process running that was not
    running before it."""
    before = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"
    left = [p.name for p in multiprocessing.active_children() if p not in children]
    assert not left, f"child processes left running: {left}"
