"""The run's parallel schedule: ``spread`` makes a list of calls, forking where it can.

Where more than one CPU is usable, ``spread`` makes each call but the last
in a child made with ``os.fork``, which pickles the call's return value, or
the exception it raised, into a pipe; this process runs ``first`` and then
makes the last call itself.  On one CPU ``first`` runs first and the calls
follow in turn.  ``qbm run`` spreads the oracle modes, with the analytic
modes as ``first``, and then the two halves of its tables.  A child starts
from a copy of the caller's memory, so nothing is pickled on the way in,
and only bytes that this program wrote are unpickled.  This is the only
module of ``qbm`` that forks.
"""

from __future__ import annotations

import os
import pickle
import signal


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def spread(calls, error_type, first=lambda: None) -> list:
    """The results of the ``(name, zero-argument callable)`` calls, in order.

    Where more than one CPU is usable, a forked child makes each call but
    the last, this process calls ``first()`` and then makes the last call;
    on one CPU ``first()`` runs first and the calls follow in turn.  An
    error of ``first`` kills and reaps the children and is raised; otherwise
    the error raised is that of the first failing call in list order, and a
    child that ends without replying gives an ``error_type`` naming its
    call.  No child outlives the call to ``spread``.
    """
    forked = calls[:-1] if usable_cpus() > 1 else []
    children = []
    try:
        for name, call in forked:
            children.append((name, *_fork_call(call)))
        first()
    except BaseException:
        for _name, pid, read in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
        raise
    try:
        own = [call() for _name, call in calls[len(forked) :]]
    except Exception as error:  # a forked call's error, listed earlier, is raised first
        own = [error]
    finally:
        sent = _replies(children, error_type)
    for reply in (*sent, *own):
        if isinstance(reply, Exception):
            raise reply
    return [*sent, *own]


def _fork_call(call) -> tuple:
    """Make ``call()`` in a forked child: its pid and the read end of its reply pipe.

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
                reply = call()
            except Exception as error:  # raised again by the caller
                reply = error
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _replies(children, error_type) -> list:
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
