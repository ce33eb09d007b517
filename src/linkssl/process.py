"""How a training process uses the machine: OpenBLAS's threads, the CPUs it
shares with other training processes, and glibc's heap. Every ctypes call
of the package is here; where numpy bundles no OpenBLAS that answers, or
the C library is not glibc, these functions set nothing."""

import ctypes
import functools
import os

import numpy as np

NCE_MAX_THREADS = 2  # InfoNCE row blocks in flight at a time
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8  # for mallopt
# the thread-count getters of the OpenBLAS in numpy 2 and numpy 1 wheels
_OPENBLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_",
                         "openblas_get_num_threads64_")
_cpu_sharers = 1  # training processes that split this process's CPUs


@functools.lru_cache(maxsize=None)
def _openblas_thread_getter():
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libs) if "openblas" in f)
    except OSError:
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for symbol in _OPENBLAS_GET_THREADS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = ()
                return getter
    return None


def blas_threads():
    """The thread count of the OpenBLAS numpy loaded, or None."""
    getter = _openblas_thread_getter()
    return None if getter is None else getter()


def share_cpus(processes):
    """Record that this process is one of `processes` that train at once
    on the same CPUs (a worker of runner's process pool)."""
    global _cpu_sharers
    _cpu_sharers = processes


def nce_thread_budget():
    """Threads nce_denominator's one pass may run: this process's CPUs over
    OpenBLAS's threads times the processes sharing them, in
    [1, NCE_MAX_THREADS].

    A second Python thread helps only on a core nothing else keeps busy:
    with OpenBLAS on both cores of a 2-core box, 2 threads made the op
    slower, and 2 threads in each of 2 worker processes made 4 seeds
    slower than 1 thread in each. The cap bounds memory, not CPUs: each
    thread holds one block's scores, which become its softmax weights, so
    the op holds at most NCE_MAX_THREADS times the serial loop's scratch,
    whatever the core count.
    """
    blas = blas_threads()
    if not blas:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(NCE_MAX_THREADS, cpus // (blas * _cpu_sharers)))


@functools.lru_cache(maxsize=None)
def _libc():
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    return libc


def keep_freed_heap():
    """Have glibc keep the heap a finished step frees for the next step;
    False where the C library is not glibc.

    Under glibc's dynamic thresholds a step's graph, freed at once at the
    heap top, goes back to the system and the next step faults it in again
    (1.66M minor faults and 4 s of system time per NS-twin BGRL seed).
    Here arrays below 32 MiB come from the heap and a free top up to 2 GiB
    is kept; peak RSS is unchanged.
    """
    libc = _libc()
    if libc is None:
        return False
    libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(M_TRIM_THRESHOLD, 2 ** 31 - 1)
    return True


@functools.lru_cache(maxsize=None)
def share_one_heap():
    """Have glibc serve every thread from the main heap, so a helper
    thread builds no arena of its own (one cost 3.4-4.0 MB of
    usair-lgrace's peak RSS). Run before the first helper thread starts,
    so a process that never starts one keeps glibc's defaults."""
    libc = _libc()
    if libc is not None:
        libc.mallopt(M_ARENA_MAX, 1)
