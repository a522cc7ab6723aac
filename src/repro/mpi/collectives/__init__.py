"""Collective algorithms for the simulated MPI.

Every fixed-size collective is a *compiler* that emits a
:class:`~repro.mpi.schedule.Schedule` (a point-to-point step DAG) executed
by the single :class:`~repro.mpi.schedule.ScheduleExecutor`; there is no
other way to run one.  One registry names the allreduces:
``ALLREDUCE_COMPILERS`` maps name -> ``compile(n_ranks, count, itemsize,
*, segment_bytes=..., **kwargs) -> Schedule``, and
:func:`allreduce_compiler` looks a name up with the one error message
every caller shares.  Every registered compiler accepts ``segment_bytes``
(the unsegmented ones ignore it) and returns a zero-step schedule at one
rank.

Only the variable-size collectives — :func:`ring_allgatherv` and the
shuffle's :func:`alltoallv` — stay generator rank programs (embedded in
the shuffle's processes, or driven by
:func:`~repro.mpi.runner.run_rank_programs`): their message sizes depend
on other ranks' payloads, so they cannot be compiled ahead of time.

Registered allreduce algorithms:

* ``"multicolor"`` — the paper's k-color tree allreduce (§4.2).
* ``"ring"`` — the paper's pipelined reduce-to-root ring baseline (§5.1).
* ``"openmpi_default"`` — models OpenMPI's stock large-message allreduce
  (Rabenseifner halving/doubling): correct and bandwidth-reasonable, but
  unpipelined and rail-capped, giving the slowest curve in Figures 5–6.
* ``"rsag"`` — reduce-scatter+allgather ring (NCCL/Horovod reference).
* ``"recursive_doubling"`` / ``"rabenseifner"`` — classical algorithms
  under their own names for ablations.
* ``"hierarchical"`` — the 2-D group x cross-group ring.
* ``"binomial"`` — naive reduce-to-root + broadcast (latency baseline).
"""

from typing import Callable

from repro.mpi.collectives.alltoall import alltoallv, compile_alltoallv
from repro.mpi.collectives.basic import (
    compile_binomial_allreduce,
    compile_binomial_bcast,
    compile_binomial_reduce,
    compile_dissemination_barrier,
    ring_allgatherv,
)
from repro.mpi.collectives.hierarchical import compile_hierarchical
from repro.mpi.collectives.multicolor import (
    DEFAULT_SEGMENT_BYTES,
    compile_multicolor,
    segments_of,
)
from repro.mpi.collectives.recursive import (
    compile_rabenseifner,
    compile_recursive_doubling,
)
from repro.mpi.collectives.ring import compile_pipelined_ring
from repro.mpi.collectives.rsag import compile_rsag
from repro.mpi.collectives.trees import (
    Tree,
    binomial_tree,
    color_trees,
    internal_nodes,
    kary_bfs_tree,
)
from repro.mpi.schedule import Schedule

#: name -> ``compile(n_ranks, count, itemsize, **kwargs) -> Schedule``.
ALLREDUCE_COMPILERS: dict[str, Callable[..., Schedule]] = {
    "multicolor": compile_multicolor,
    "ring": compile_pipelined_ring,
    "rsag": compile_rsag,
    "recursive_doubling": compile_recursive_doubling,
    "rabenseifner": compile_rabenseifner,
    "openmpi_default": compile_rabenseifner,
    "hierarchical": compile_hierarchical,
    "binomial": compile_binomial_allreduce,
}

#: Structural families of the registered allreduces; the chaos smoke sweep
#: (CI) covers one representative per family instead of all eight.  The
#: first name in each tuple is the representative.
ALLREDUCE_FAMILIES = {
    "tree": ("multicolor", "binomial"),
    "ring": ("ring", "rsag", "hierarchical"),
    "recursive": ("recursive_doubling", "rabenseifner", "openmpi_default"),
}


def allreduce_compiler(name: str) -> Callable[..., Schedule]:
    """The registered compiler for allreduce ``name``.

    Raises ``ValueError`` naming the registered choices when ``name`` is
    unknown — the one check every name-taking entry point shares.
    """
    try:
        return ALLREDUCE_COMPILERS[name]
    except KeyError:
        raise ValueError(
            f"unknown allreduce algorithm {name!r}; "
            f"choose from {sorted(ALLREDUCE_COMPILERS)}"
        ) from None


__all__ = [
    "ALLREDUCE_COMPILERS",
    "ALLREDUCE_FAMILIES",
    "DEFAULT_SEGMENT_BYTES",
    "Tree",
    "allreduce_compiler",
    "alltoallv",
    "binomial_tree",
    "color_trees",
    "compile_alltoallv",
    "compile_binomial_allreduce",
    "compile_binomial_bcast",
    "compile_binomial_reduce",
    "compile_dissemination_barrier",
    "compile_hierarchical",
    "compile_multicolor",
    "compile_pipelined_ring",
    "compile_rabenseifner",
    "compile_recursive_doubling",
    "compile_rsag",
    "internal_nodes",
    "kary_bfs_tree",
    "ring_allgatherv",
    "segments_of",
]
