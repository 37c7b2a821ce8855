"""Tests for the runtime invariant sanitizer (repro.analysis.sanitizer)."""

import numpy as np
import pytest

import repro.parallel.louvain as louvain_mod
from repro.analysis import (
    NULL_SANITIZER,
    InvariantViolation,
    NullSanitizer,
    Sanitizer,
    resolve_sanitizer,
    sanitize_enabled,
)
from repro.observability import Tracer
from repro.observability.events import EventKind
from repro.parallel import detect_communities, parallel_louvain
from repro.parallel.vectorized import VectorBackend
from repro.runtime import Simulation
from repro.runtime.comm import MessageBus


class TestResolution:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        assert resolve_sanitizer(None) is NULL_SANITIZER

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_env_truthy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize_enabled()
        assert resolve_sanitizer(None).enabled

    def test_env_falsy(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert resolve_sanitizer(None) is NULL_SANITIZER

    def test_explicit_bool_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert resolve_sanitizer(False) is NULL_SANITIZER
        monkeypatch.delenv("REPRO_SANITIZE")
        assert resolve_sanitizer(True).enabled

    def test_instance_passthrough(self):
        san = Sanitizer()
        assert resolve_sanitizer(san) is san

    def test_simulation_create_wires_bus(self):
        sim = Simulation.create(2, sanitize=True)
        assert sim.sanitizer.enabled
        assert sim.bus.sanitizer is sim.sanitizer


class TestChecks:
    def test_pack_bounds_field_overflow(self):
        san = Sanitizer()
        with pytest.raises(InvariantViolation) as ei:
            san.check_pack_bounds(
                np.array([1 << 40]), np.array([0]), 32, rank=3, table="in"
            )
        exc = ei.value
        assert exc.invariant == "key-pack-range"
        assert exc.rank == 3
        assert exc.context["table"] == "in"

    def test_pack_bounds_negative_id(self):
        san = Sanitizer()
        with pytest.raises(InvariantViolation, match="negative id"):
            san.check_pack_bounds(np.array([-1]), np.array([0]), 32)

    def test_pack_bounds_sentinel_collision(self):
        san = Sanitizer()
        top = (1 << 32) - 1
        with pytest.raises(InvariantViolation, match="EMPTY"):
            san.check_pack_bounds(np.array([top]), np.array([top]), 32)
        # One below the sentinel is fine.
        san.check_pack_bounds(np.array([top]), np.array([top - 1]), 32)

    def test_epsilon_bounds(self):
        san = Sanitizer()
        san.check_epsilon(0.5, 1)
        for bad in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(InvariantViolation) as ei:
                san.check_epsilon(bad, 2)
            assert ei.value.invariant == "epsilon-bounds"

    def test_conservation(self):
        san = Sanitizer()
        san.check_conservation(100.0, 100.0 + 1e-9, what="sigma_tot")
        with pytest.raises(InvariantViolation) as ei:
            san.check_conservation(90.0, 100.0, what="sigma_tot")
        assert ei.value.invariant == "weight-conservation"
        assert ei.value.context["expected"] == 100.0
        assert ei.value.context["actual"] == 90.0

    def test_finite(self):
        san = Sanitizer()
        san.check_finite(np.array([1.0, 2.0]))
        with pytest.raises(InvariantViolation, match="non-finite"):
            san.check_finite(np.array([1.0, np.inf]), rank=1)

    def test_context_rides_on_violation(self):
        san = Sanitizer()
        san.enter_level(2)
        san.enter_iteration(5)
        san.enter_phase("REFINE")
        with pytest.raises(InvariantViolation) as ei:
            san.check_epsilon(9.0, 5)
        exc = ei.value
        assert (exc.level, exc.iteration, exc.phase) == (2, 5, "REFINE")
        assert "level=2" in str(exc) and "iteration=5" in str(exc)
        assert exc.to_dict()["phase"] == "REFINE"

    def test_enter_level_resets_iteration(self):
        san = Sanitizer()
        san.enter_iteration(7)
        san.enter_level(1)
        assert san.iteration is None

    def test_violation_mirrors_to_tracer(self):
        tracer = Tracer()
        san = Sanitizer(tracer=tracer)
        with pytest.raises(InvariantViolation):
            san.check_epsilon(-1.0, 1)
        kinds = [e.kind for e in tracer.events]
        assert EventKind.INVARIANT in kinds
        ev = tracer.events[-1]
        assert ev.data["invariant"] == "epsilon-bounds"

    def test_null_sanitizer_is_inert(self):
        null = NullSanitizer()
        assert not null.enabled
        null.check_epsilon(99.0, 1)  # would raise on a live sanitizer
        null.check_conservation(0.0, 1.0)
        null.check_pack_bounds(np.array([-1]), np.array([0]), 32)
        assert null.checks_run == 0


class TestExchangeParticipation:
    def test_skipped_rank_raises(self):
        san = Sanitizer()
        bus = MessageBus(2, sanitizer=san)
        box = (np.array([0]), np.array([7]))
        with pytest.raises(InvariantViolation) as ei:
            bus.exchange([None, box])
        exc = ei.value
        assert exc.invariant == "superstep-participation"
        assert exc.context["missing_ranks"] == [0]
        assert exc.rank == 0

    def test_all_participating_passes(self):
        san = Sanitizer()
        bus = MessageBus(2, sanitizer=san)
        box = (np.array([0]), np.array([7]))
        res = bus.exchange([box, box])
        assert res.inbox(0)[0].size == 2

    def test_all_idle_is_allowed(self):
        bus = MessageBus(2, sanitizer=Sanitizer())
        bus.exchange([None, None])  # quiescent superstep, not a violation


class TestSanitizedRuns:
    """Full runs under the sanitizer: clean passes, seeded faults raise."""

    def test_clean_run_passes_and_matches(self, two_cliques):
        plain = parallel_louvain(two_cliques, num_ranks=3, max_levels=4)
        checked = parallel_louvain(
            two_cliques, num_ranks=3, max_levels=4, sanitize=True
        )
        assert np.array_equal(plain.membership, checked.membership)
        assert checked.simulation.sanitizer.checks_run > 0

    def test_env_var_enables_run(self, two_cliques, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        res = parallel_louvain(two_cliques, num_ranks=2)
        assert res.simulation.sanitizer.checks_run > 0

    def test_detect_communities_sanitize(self, two_cliques):
        summary = detect_communities(two_cliques, num_ranks=2, sanitize=True)
        assert summary.raw.simulation.sanitizer.enabled

    def test_detect_sequential_rejects_sanitize(self, two_cliques):
        with pytest.raises(TypeError, match="parallel"):
            detect_communities(
                two_cliques, algorithm="sequential", sanitize=True
            )

    def test_seeded_in_table_mutation_raises(self, two_cliques, monkeypatch):
        real = louvain_mod._apply_moves

        def corrupting(sim, partition, ranks, *args, **kwargs):
            moved = real(sim, partition, ranks, *args, **kwargs)
            ranks[0].tables.add_in_edges(
                np.array([0]), np.array([0]), np.array([1.0])
            )
            return moved

        monkeypatch.setattr(louvain_mod, "_apply_moves", corrupting)
        with pytest.raises(InvariantViolation) as ei:
            parallel_louvain(two_cliques, num_ranks=3, sanitize=True)
        exc = ei.value
        assert exc.invariant == "in-table-immutable"
        assert exc.rank == 0
        assert exc.level == 0 and exc.iteration == 1

    def test_seeded_sigma_tot_corruption_raises(self, two_cliques, monkeypatch):
        real = louvain_mod._apply_moves

        def corrupting(sim, partition, ranks, *args, **kwargs):
            moved = real(sim, partition, ranks, *args, **kwargs)
            ranks[0].tot[0] += 5.0  # conjure sigma_tot out of thin air
            return moved

        monkeypatch.setattr(louvain_mod, "_apply_moves", corrupting)
        with pytest.raises(InvariantViolation) as ei:
            parallel_louvain(two_cliques, num_ranks=3, sanitize=True)
        exc = ei.value
        assert exc.invariant == "weight-conservation"
        assert "sigma_tot" in exc.message
        assert exc.level == 0 and exc.iteration == 1

    def test_seeded_reconstruction_weight_loss_raises(
        self, two_cliques, monkeypatch
    ):
        real = louvain_mod._HashBackend.reconstruct

        def lossy(self, sim, partition, ranks, config):
            new_ranks, new_partition, labels = real(
                self, sim, partition, ranks, config
            )
            table = new_ranks[0].tables.in_table
            keys, weights = table.items()
            if keys.size:  # drop one superedge's weight
                table.insert_accumulate(keys[:1], np.array([-weights[0]]))
            return new_ranks, new_partition, labels

        monkeypatch.setattr(louvain_mod._HashBackend, "reconstruct", lossy)
        with pytest.raises(InvariantViolation) as ei:
            parallel_louvain(two_cliques, num_ranks=3, sanitize=True)
        assert ei.value.invariant == "weight-conservation"
        assert "RECONSTRUCTION" in ei.value.message

    def test_seeded_bad_epsilon_raises(self, two_cliques):
        class BadSchedule:
            def epsilon(self, iteration):
                return 1.5  # move fraction above 1 breaks Eq. 7's contract

        with pytest.raises(InvariantViolation) as ei:
            parallel_louvain(
                two_cliques, num_ranks=2, schedule=BadSchedule(),
                sanitize=True,
            )
        assert ei.value.invariant == "epsilon-bounds"

    def test_seeded_nonfinite_weight_raises(self, two_cliques, monkeypatch):
        real = louvain_mod._HashBackend.state_propagation

        def poisoning(self, sim, partition, ranks):
            for st in ranks:
                if len(st.tables.in_table):
                    keys, weights = st.tables.in_table.items()
                    st.tables.in_table.insert_accumulate(
                        keys[:1], np.array([np.nan])
                    )
                    break
            return real(self, sim, partition, ranks)

        monkeypatch.setattr(
            louvain_mod._HashBackend, "state_propagation", poisoning
        )
        with pytest.raises(InvariantViolation) as ei:
            parallel_louvain(two_cliques, num_ranks=2, sanitize=True)
        assert ei.value.invariant in ("finite-weights", "in-table-immutable")


class TestSanitizedVectorRuns:
    """The same seeded faults, planted in the vector backend's CSR arrays.

    ``_ArrayTableView`` serves the sanitizer's table queries from those
    arrays, so each fault must trip the invariant it trips on the hash path.
    """

    def test_seeded_in_table_mutation_raises(self, two_cliques, monkeypatch):
        real = louvain_mod._apply_moves

        def corrupting(sim, partition, ranks, *args, **kwargs):
            moved = real(sim, partition, ranks, *args, **kwargs)
            ranks[0].in_w[0] += 1.0
            return moved

        monkeypatch.setattr(louvain_mod, "_apply_moves", corrupting)
        with pytest.raises(InvariantViolation) as ei:
            parallel_louvain(
                two_cliques, num_ranks=3, backend="vector", sanitize=True
            )
        exc = ei.value
        assert exc.invariant == "in-table-immutable"
        assert exc.rank == 0
        assert exc.level == 0 and exc.iteration == 1

    def test_seeded_reconstruction_weight_loss_raises(
        self, two_cliques, monkeypatch
    ):
        real = VectorBackend.reconstruct

        def lossy(self, sim, partition, ranks, config):
            new_ranks, new_partition, labels = real(
                self, sim, partition, ranks, config
            )
            state = next(st for st in new_ranks if st.in_w.size)
            state.in_w[0] = 0.0  # drop one superedge's weight
            return new_ranks, new_partition, labels

        monkeypatch.setattr(VectorBackend, "reconstruct", lossy)
        with pytest.raises(InvariantViolation) as ei:
            parallel_louvain(
                two_cliques, num_ranks=3, backend="vector", sanitize=True
            )
        assert ei.value.invariant == "weight-conservation"
        assert "RECONSTRUCTION" in ei.value.message

    def test_seeded_nonfinite_weight_raises(self, two_cliques, monkeypatch):
        import repro.parallel.vectorized as vectorized_mod

        real = vectorized_mod._VectorRankState.contraction_outbox

        def poisoning(st, new_ids, new_partition):
            frag, (dest, src, dst, w) = real(st, new_ids, new_partition)
            if w.size:
                w = w.copy()  # the Out_Table itself stays clean
                w[0] = np.nan
            return frag, (dest, src, dst, w)

        monkeypatch.setattr(
            vectorized_mod._VectorRankState, "contraction_outbox", poisoning
        )
        with pytest.raises(InvariantViolation) as ei:
            parallel_louvain(
                two_cliques, num_ranks=2, backend="vector", sanitize=True
            )
        assert ei.value.invariant == "finite-weights"
        assert "in-edge weights" in ei.value.message


class TestSanitizedExtensionPaths:
    """Sanitizer hooks on the LPA and dynamic-graph paths."""

    def test_lpa_clean_run_checks_and_matches(self, two_cliques):
        from repro.parallel import label_propagation

        plain = label_propagation(two_cliques, num_ranks=3, seed=0)
        checked = label_propagation(
            two_cliques, num_ranks=3, seed=0, sanitize=True
        )
        assert np.array_equal(plain.membership, checked.membership)
        assert checked.simulation.sanitizer.checks_run > 0

    def test_lpa_traces_run_and_iterations(self, two_cliques):
        from repro.parallel import label_propagation

        tracer = Tracer()
        res = label_propagation(two_cliques, num_ranks=2, tracer=tracer)
        kinds = [e.kind for e in tracer.events]
        assert EventKind.RUN_START in kinds and EventKind.RUN_END in kinds
        assert kinds.count(EventKind.ITERATION) == res.iterations

    def test_lpa_seeded_weight_corruption_raises(self, two_cliques, monkeypatch):
        import importlib

        # The package re-exports the function under the module's name, so
        # attribute-style imports would resolve to the function.
        lpa_mod = importlib.import_module("repro.parallel.label_propagation")
        real = lpa_mod._propagate_labels

        def corrupting(sim, partition, tables, labels, two_m=None):
            keys, weights = tables[0].in_table.items()
            if keys.size:  # conjure edge weight out of thin air mid-run
                tables[0].in_table.insert_accumulate(
                    keys[:1], np.array([7.0])
                )
            return real(sim, partition, tables, labels, two_m)

        monkeypatch.setattr(lpa_mod, "_propagate_labels", corrupting)
        with pytest.raises(InvariantViolation) as ei:
            lpa_mod.label_propagation(two_cliques, num_ranks=2, sanitize=True)
        assert ei.value.invariant == "weight-conservation"
        assert "2m" in ei.value.message

    def test_apply_edge_batch_conserves(self, two_cliques):
        from repro.parallel.dynamic import EdgeBatch, apply_edge_batch

        batch = EdgeBatch(
            add_src=np.array([0, 1]), add_dst=np.array([5, 6]),
            add_weight=np.array([2.0, 3.0]),
            remove_src=np.array([0]), remove_dst=np.array([1]),
        )
        san = Sanitizer()
        out = apply_edge_batch(two_cliques, batch, sanitize=san)
        assert san.checks_run > 0
        assert out.num_vertices == two_cliques.num_vertices

    def test_apply_edge_batch_seeded_drift_raises(
        self, two_cliques, monkeypatch
    ):
        import repro.parallel.dynamic as dyn_mod
        from repro.graph import Graph

        real = Graph.from_edges

        def lossy(src, dst, wt, **kwargs):
            return real(src, dst, wt * 0.5, **kwargs)  # halve every weight

        monkeypatch.setattr(dyn_mod.Graph, "from_edges", staticmethod(lossy))
        batch = dyn_mod.EdgeBatch(
            add_src=np.array([0]), add_dst=np.array([5])
        )
        with pytest.raises(InvariantViolation) as ei:
            dyn_mod.apply_edge_batch(two_cliques, batch, sanitize=True)
        assert ei.value.invariant == "weight-conservation"

    def test_incremental_louvain_sanitized(self, two_cliques):
        from repro.parallel.dynamic import EdgeBatch, incremental_louvain

        prev = np.zeros(two_cliques.num_vertices, dtype=np.int64)
        batch = EdgeBatch(add_src=np.array([0]), add_dst=np.array([3]))
        new_graph, result = incremental_louvain(
            two_cliques, batch, prev, num_ranks=2, sanitize=True
        )
        assert result.simulation.sanitizer.checks_run > 0
