"""Forked workers: run a function in a child process and read back its reply.

``fork_call`` starts a child made with ``os.fork`` that calls the function
and pickles its return value, or the exception it raised, into a pipe;
``replies`` reaps each child and unpickles what it sent.  The oracle steps
its modes this way, and ``qbm.runner`` writes part of a run's tables.  A
child starts from a copy of the caller's memory, so nothing is pickled on
the way in, and only bytes that this program wrote are unpickled.
"""

from __future__ import annotations

import os
import pickle


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def fork_call(func, *args) -> tuple:
    """Call ``func(*args)`` in a forked child: its pid and the read end of its reply pipe.

    The child pickles the return value, or the exception raised, into the
    pipe and ends with ``os._exit``, so it never returns into the caller's
    code or runs its exit handlers; an interrupt ends it with status 1 and
    no reply.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                reply = func(*args)
            except Exception as error:  # raised again by the caller
                reply = error
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def replies(children, error_type) -> list:
    """The reply of each ``(name, pid, read end)`` child, once every child is reaped.

    A child that ends without a reply gives an ``error_type`` naming the
    child and its exit status in place of one.
    """
    sent = []
    for name, pid, read in children:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status == 0:
            sent.append(pickle.loads(data))
        else:
            sent.append(error_type(f"{name} ended with exit status {status} before it replied"))
    return sent
