"""Reproduction of *Adaptive User-Centric Entanglement Routing in Quantum Data
Networks* (ICDCS 2024).

Start with :mod:`repro.api` — the public facade.  It exposes the policy
registry (``api.make_policy("oscar", ...)``, extensible via
``@api.register_policy``), the fluent :class:`~repro.api.Scenario` builder
covering single-user comparisons and multi-tenant runs alike, parallel trial
execution with streaming run events (:class:`~repro.api.Session`), and the
unified :class:`~repro.api.RunRecord` result schema with JSON round-trips::

    from repro import api
    record = api.Scenario.small().with_policies("oscar", "ma", "mf").run(workers=4)
    print(record.format_summary())

The package implements the paper's contribution — the OSCAR online
entanglement-routing algorithm — together with every substrate it depends on:

* :mod:`repro.api` — the public facade described above.
* :mod:`repro.network` — the quantum data network (QDN) model: graphs,
  topology generators, channel physics, candidate routes, and time-varying
  resource availability.
* :mod:`repro.physics` — a small quantum-information substrate (qubits, Bell
  pairs, entanglement generation, swapping, teleportation, decoherence and
  fidelity models).
* :mod:`repro.simulation` — slotted and event-driven simulators, including a
  batched Monte-Carlo link layer and the physical-layer co-simulation
  subsystem (one swap/purify/decohere delivery chain for both backends,
  with delivered-fidelity accounting).
* :mod:`repro.solvers` — the continuous-relaxation allocation solvers, the
  rounding procedure and a generic Gibbs sampler.
* :mod:`repro.core` — OSCAR itself (virtual queue, per-slot problem, qubit
  allocation, route selection) and the myopic baselines.
* :mod:`repro.workload` — EC request processes, budgets and traces.
* :mod:`repro.analysis` — metrics, statistics and the paper's theoretical
  bounds.
* :mod:`repro.experiments` — the configuration, runner and one module per
  figure of the paper's evaluation section.
"""

from repro.version import __version__

__all__ = ["__version__"]
