"""Worker processes: the seeds of ``simulate_skt`` or the realizations of
``ensemble_eigenvalues`` in contiguous slices, each after the first forked."""

import contextlib
import ctypes
import functools
import os
import pickle
import signal
from typing import NoReturn

import numpy as np

from .errors import CrossnetError, require_int


def _forked(run, items, workers: int) -> list:
    """``[run(part) for part in parts]``, the non-empty sequence ``items`` cut
    into ``min(workers, len(items))`` contiguous ``parts`` as ``np.array_split``
    cuts it (one part where ``os.fork`` does not exist): the first part in
    this process and each other one, meanwhile, in a child forked for it.

    A child pickles its return value, or the exception it raised, into a
    pipe, and exits with status 0 once all of it is written.  The outcomes
    are read in order and the first part's exception is raised here, so a
    ``run`` that works through its part in order raises what one part would;
    a child that exits otherwise raises CrossnetError.  Every child is
    reaped, and killed first if it still runs, before this returns or
    raises.  A fork, not a ``multiprocessing`` pool: the children share the
    caller's arrays copy-on-write and import nothing, and no handler thread
    starts here.  A forked child has the calling thread alone, so no other
    thread may hold a lock the child needs (the CLI runs no other thread).
    Every part, in this process or a child, runs on one OpenBLAS thread, so
    the processes do not contend for the CPUs with BLAS threads.
    """
    require_int("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cuts = np.array_split(np.arange(len(items)), min(workers, len(items)) if hasattr(os, "fork") else 1)
    parts = [items[cut[0]:cut[-1] + 1] for cut in cuts]
    pipes, pids = [], []  # of the unreaped children, in the order of their parts
    with _one_blas_thread():  # entered before forking, so the children inherit it
        try:
            for part in parts[1:]:
                read, write = os.pipe()
                pipes.append(open(read, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _send(run, part, write, pipes)
                finally:
                    os.close(write)
                pids.append(pid)
            outcomes = [run(parts[0])]
            for cut, pipe in zip(cuts[1:], pipes):
                data = pipe.read()
                if os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1]) != 0:
                    raise CrossnetError(f"worker process for items {cut[0]} to {cut[-1]} exited without a result")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                outcomes.append(value)
            return outcomes
        finally:
            for pipe in pipes:
                pipe.close()
            for pid in pids:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _send(run, part, fd: int, inherited: list) -> NoReturn:
    """In a forked child: close the ``inherited`` read ends, pickle ``(True,
    run(part))``, or ``(False, exc)`` for the exception ``run`` raised, into
    the pipe ``fd``, and exit.  With no read end left here, a child whose
    parent died fails its write and exits instead of waiting for a reader."""
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        try:
            outcome = (True, run(part))
        except Exception as exc:
            outcome = (False, exc)
        with open(fd, "wb") as out:
            pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _one_blas_thread():
    """The body on one OpenBLAS thread, then on the former count again."""
    get, set_ = _openblas() or (lambda: None, lambda threads: None)
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


@functools.cache
def _openblas():
    """The get and set functions of the thread count of the OpenBLAS this
    process loaded, or None where ``/proc/self/maps`` names no such library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(lib, name.format("set")):
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None
