"""``workers.spread``: the schedule of a run's calls on one and two CPUs, and its errors."""

import functools
import os
import time

import pytest

from qbm import workers


def assert_reaped():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def recording_calls(seen, names):
    """One call per name, each recording in ``seen`` that it ran and returning its name upper-cased."""

    def reply(name):
        seen.append(f"call {name}")  # a child's list is its own copy
        return name.upper()

    return [(name, functools.partial(reply, name)) for name in names]


@pytest.mark.parametrize(
    "cpus, names, events",
    [
        (2, "abc", ["fork a", "fork b", "first", "call c"]),
        (1, "abc", ["first", "call a", "call b", "call c"]),
        (2, "c", ["first", "call c"]),
    ],
    ids=["three_calls_two_cpus", "three_calls_one_cpu", "one_call_two_cpus"],
)
def test_each_call_but_the_last_forks_on_two_cpus(monkeypatch, cpus, names, events):
    # a forked child makes each call but the last, and this process runs
    # ``first`` after the forks, then makes the last call; on one CPU
    # ``first`` comes first and this process makes every call.  The results
    # come back in the order of the calls
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    seen, fork_call = [], workers._fork_call

    def forking(call):
        seen.append(f"fork {call.args[0]}")
        return fork_call(call)

    monkeypatch.setattr(workers, "_fork_call", forking)
    if len(names) == 1:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a single call forked"))
    def first():
        seen.append("first")

    results = workers.spread(recording_calls(seen, names), RuntimeError, first=first)
    assert results == [name.upper() for name in names]
    assert seen == events
    assert_reaped()


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_error_of_first_ends_the_children(monkeypatch, cpus):
    # an error of ``first`` is raised in place of any call's: on two CPUs
    # the children are killed, not waited for, and reaped; on one no call
    # is made
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    parent = os.getpid()

    def stalling():
        if os.getpid() == parent:
            pytest.fail("a call was made in this process after first failed")
        time.sleep(60)

    def failing():
        raise ValueError("first failed")

    start = time.monotonic()
    with pytest.raises(ValueError, match="first failed"):
        workers.spread([(name, stalling) for name in "abc"], RuntimeError, first=failing)
    assert time.monotonic() - start < 30
    assert_reaped()


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_first_failing_call_in_order_is_raised(monkeypatch, cpus):
    # on two CPUs b fails in a child after c has failed in this process, and
    # b's error is raised all the same; on one CPU c is never made
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    seen = []

    def failing(name, delay):
        seen.append(name)
        time.sleep(delay)
        raise ValueError(f"call {name} failed")

    calls = [
        ("a", lambda: "A"),
        ("b", functools.partial(failing, "b", 0.2)),
        ("c", functools.partial(failing, "c", 0.0)),
    ]
    with pytest.raises(ValueError, match="^call b failed$"):
        workers.spread(calls, RuntimeError)
    assert seen == (["c"] if cpus == 2 else ["b"])
    # a forked call's error reaches this process as it was raised
    with pytest.raises(ValueError, match="^call c failed$"):
        workers.spread([calls[2], calls[0]], RuntimeError)
    assert_reaped()


def test_a_child_that_dies_without_replying_names_its_call(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    calls = [("the worker of a", lambda: os._exit(1)), ("b", lambda: "B")]
    message = "^the worker of a ended with exit status 1 before it replied$"
    with pytest.raises(RuntimeError, match=message):
        workers.spread(calls, RuntimeError)
    assert_reaped()
