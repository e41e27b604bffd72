"""Coarse-grained parallel machine substrate (the "PRO machine").

The paper analyses its algorithms in the PRO model (Gebremedhin, Guerin
Lassous, Gustedt & Telle, 2002), a descendant of Valiant's BSP: ``p``
homogeneous processors, each with private memory of size ``O(n/p)``, linked
by a point-to-point network; computation proceeds in supersteps, and an
algorithm is only admissible when it is work- and space-optimal with respect
to a reference sequential algorithm.

This subpackage is an executable stand-in for the paper's experimental
environment (SSCRAP on top of MPI / shared memory).  It provides

* :class:`~repro.pro.machine.PROMachine` -- run an SPMD program on ``p``
  virtual processors,
* :mod:`~repro.pro.backends` -- the pluggable execution-backend registry.
  Backends are selected by name (``backend="inline" | "thread" |
  "process" | "sim"``) everywhere a machine is built -- drivers, CLI,
  bench harness -- and new ones are added with
  :func:`~repro.pro.backends.registry.register_backend`.  The contract a
  backend must honour (fabric semantics ``put``/``get``/``barrier_wait``/
  ``abort``, error-propagation rules mirroring the thread backend's
  abort-the-barrier behaviour, cost/variate repatriation for backends
  outside the calling address space) is documented in
  :mod:`repro.pro.backends.registry`.  For a fixed machine seed, results
  are bit-identical across backends because the per-rank streams are
  derived in the parent and shipped to wherever the rank runs,
* :mod:`~repro.pro.resilience` -- transient-failure recovery:
  :class:`~repro.pro.resilience.RetryPolicy` (attempt budget, backoff,
  wall-clock :class:`~repro.pro.resilience.Deadline`, graceful-degradation
  fallback chain) accepted by every machine and driver as ``retry=``;
  replayed attempts reuse the per-rank streams captured at the first
  attempt, so a recovered run is bit-identical to a fault-free one,
* :class:`~repro.pro.communicator.Communicator` -- message passing
  (point-to-point and collective operations built from point-to-point),
* :mod:`~repro.pro.cost` -- per-processor, per-superstep resource accounting
  (compute operations, words communicated, messages, random variates,
  memory), plus an analytic time model used to reproduce the paper's scaling
  table on hardware we do not have,
* :mod:`~repro.pro.topology` -- interconnect models (fully connected, ring,
  2-D mesh, hypercube) that feed hop counts into the time model.

Every algorithm of the paper (Algorithms 1, 5 and 6) is implemented as an
ordinary Python function ``program(ctx, ...)`` that receives a
:class:`~repro.pro.machine.ProcessorContext` and can be executed by the
machine on any number of virtual processors.
"""

from repro.pro.backends.registry import (
    BackendCapabilities,
    available_backends,
    backend_capabilities,
    get_backend,
    register_backend,
)
from repro.pro.machine import PROMachine, ProcessorContext, RunResult
from repro.pro.resilience import Deadline, RetryPolicy
from repro.pro.communicator import Communicator
from repro.pro.cost import (
    CostRecorder,
    CostReport,
    MachineParameters,
    SuperstepCost,
)
from repro.pro.topology import (
    Topology,
    FullyConnected,
    Ring,
    Mesh2D,
    Hypercube,
    topology_from_name,
)

_ANALYSIS = ("PROAssessment", "SequentialReference", "assess_run", "granularity")


def __getattr__(name):
    # The analysis exports load their module on first access (PEP 562):
    # no driver needs them.
    if name in _ANALYSIS:
        from repro.pro import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PROMachine",
    "ProcessorContext",
    "RunResult",
    "BackendCapabilities",
    "available_backends",
    "backend_capabilities",
    "get_backend",
    "register_backend",
    "PROAssessment",
    "SequentialReference",
    "assess_run",
    "granularity",
    "Communicator",
    "RetryPolicy",
    "Deadline",
    "CostRecorder",
    "CostReport",
    "MachineParameters",
    "SuperstepCost",
    "Topology",
    "FullyConnected",
    "Ring",
    "Mesh2D",
    "Hypercube",
    "topology_from_name",
]
