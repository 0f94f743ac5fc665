"""Bit-identity of the batched per-slot entanglement success sampling.

The vectorised paths (``sample_successes``, ``simulate_successes``,
``LinkLayerSimulator.realize_routes``) must consume the generator stream
exactly like the sequential per-edge draws they replace: same outcomes, same
post-draw generator state — so enabling them changes nothing but speed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make_policy
from repro.experiments.config import ExperimentConfig
from repro.physics.entanglement import EntanglementGenerator, sample_successes
from repro.simulation.engine import SlottedSimulator
from repro.simulation.link_layer import LinkLayerSimulator


class TestSampleSuccesses:
    def test_matches_sequential_scalar_draws(self):
        probabilities = [0.1, 0.9, 0.5, 0.33, 0.0, 1.0]
        batched_rng = np.random.default_rng(42)
        scalar_rng = np.random.default_rng(42)
        batched = sample_successes(probabilities, batched_rng)
        scalar = [scalar_rng.random() < p for p in probabilities]
        assert list(batched) == scalar
        assert batched_rng.random() == scalar_rng.random()

    def test_empty_batch_consumes_nothing(self):
        rng = np.random.default_rng(7)
        reference = np.random.default_rng(7)
        assert sample_successes([], rng).size == 0
        assert rng.random() == reference.random()


class TestSimulateSuccesses:
    def test_matches_scalar_loop_including_zero_channels(self):
        generator = EntanglementGenerator(attempt_success=2e-4, attempts_per_slot=4000)
        channels = [3, 0, 1, 5, 0, 2]
        batched_rng = np.random.default_rng(11)
        scalar_rng = np.random.default_rng(11)
        batched = generator.simulate_successes(channels, batched_rng)
        scalar = [generator.simulate_success(n, scalar_rng) for n in channels]
        assert list(batched) == scalar
        assert batched_rng.random() == scalar_rng.random()


class TestRealizeRoutes:
    @pytest.fixture()
    def setup(self):
        config = ExperimentConfig.tiny()
        graph = config.build_graph(seed=5)
        trace = config.build_trace(graph, seed=6)
        simulator = LinkLayerSimulator(graph=graph)
        items = []
        for t in range(trace.horizon):
            for request in trace.slot(t).requests:
                routes = trace.routes_for(request)
                if routes:
                    route = routes[0]
                    items.append(
                        (route, {key: 1 + (len(key[1:]) % 2) for key in route.edges})
                    )
        assert items
        return simulator, items

    def test_batched_equals_sequential_per_route(self, setup):
        simulator, items = setup
        batched_rng = np.random.default_rng(123)
        scalar_rng = np.random.default_rng(123)
        batched = simulator.realize_routes(items, seed=batched_rng)
        sequential = [
            simulator.realize_route(route, allocation, seed=scalar_rng)
            for route, allocation in items
        ]
        for fast, slow in zip(batched, sequential):
            assert fast.succeeded == slow.succeeded
            assert dict(fast.edge_outcomes) == dict(slow.edge_outcomes)
            assert fast.fidelity == slow.fidelity
        assert batched_rng.random() == scalar_rng.random()

    def test_zero_channel_edges_consume_no_randomness(self, setup):
        simulator, items = setup
        route, allocation = items[0]
        zeroed = {key: 0 for key in route.edges}
        rng = np.random.default_rng(9)
        reference = np.random.default_rng(9)
        [realization] = simulator.realize_routes([(route, zeroed)], seed=rng)
        assert not realization.succeeded
        assert all(not ok for ok in realization.edge_outcomes.values())
        assert rng.random() == reference.random()


class TestEngineUsesBatchedRealization:
    def test_simulation_identical_to_sequential_realization(self, monkeypatch):
        config = ExperimentConfig.tiny()
        graph = config.build_graph(seed=3)
        trace = config.build_trace(graph, seed=4)

        def run_once():
            simulator = SlottedSimulator(graph=graph, trace=trace, realize=True)
            return simulator.run(make_policy("oscar", config), seed=17)

        batched = run_once()

        sequential_impl = LinkLayerSimulator.realize_route

        def sequential_routes(self, items, seed=None):
            from repro.utils.rng import as_generator

            rng = as_generator(seed)
            return [
                sequential_impl(self, route, allocation, seed=rng)
                for route, allocation in items
            ]

        monkeypatch.setattr(LinkLayerSimulator, "realize_routes", sequential_routes)
        sequential = run_once()
        assert [r.realized_successes for r in batched.records] == [
            r.realized_successes for r in sequential.records
        ]
        assert [r.realized_fidelities for r in batched.records] == [
            r.realized_fidelities for r in sequential.records
        ]
