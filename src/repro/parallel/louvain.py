"""Parallel Louvain for distributed memory (paper Algorithms 2-5).

The algorithm runs on the simulated SPMD runtime: ``P`` ranks own vertices
by a 1D modulo partition; each level executes

    STATE PROPAGATION  ->  REFINE (inner loop)  ->  GRAPH RECONSTRUCTION

where STATE PROPAGATION scans every rank's In_Table and ships
``((v, c), w)`` records to the owner of ``v`` who accumulates them in its
Out_Table (Algorithm 3); REFINE scans Out_Tables to find each vertex's best
community, throttles migration with the convergence heuristic's ΔQ̂ cutoff,
applies the moves, and recomputes modularity (Algorithm 4); GRAPH
RECONSTRUCTION turns Out_Table entries into the next level's In_Tables via an
all-to-all (Algorithm 5, Fig. 3).

Community labels are (level-local) vertex ids, so community ``c`` is owned by
``rank(c) = c % P`` -- the rank that authoritatively maintains ``Σ_tot^c``
and ``Σ_in^c``.  Ranks never read each other's state directly; everything
flows through :class:`~repro.runtime.MessageBus` exchanges, so each inner
iteration sees exactly the stale community snapshot the paper's algorithm
sees (§III, challenge 2).

Each phase's superstep schedule -- which per-rank kernel runs, which
exchange or collective follows, what each rank is charged -- is written
once, in :class:`_Schedule`.  The two data planes differ only in their
rank-state class, whose methods are the kernels: the paper-faithful
:class:`_RankState` here (EdgeHashTable In/Out tables) and the flat-array
state of :mod:`repro.parallel.vectorized`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..analysis.sanitizer import Sanitizer
from ..graph import Graph
from ..kernels import group_by_destination
from ..metrics.modularity import modularity_from_labels
from ..observability.tracer import NULL_TRACER, Tracer
from ..runtime import Simulation
from .heuristic import (
    HISTOGRAM_EDGES,
    ExponentialSchedule,
    ThresholdSchedule,
    gain_histogram,
    threshold_from_histogram,
)
from .partition import ModuloPartition
from .tables import RankTables

__all__ = [
    "ParallelLouvainConfig",
    "InnerIterationStats",
    "ParallelLevelStats",
    "ParallelLouvainResult",
    "parallel_louvain",
]

#: REFINE stops once an iteration gains less modularity than this.
_INNER_TOL = 1e-6
#: The outer loop stops once a level gains no more modularity than this.
_OUTER_TOL = 1e-6
#: A vertex moves only on a best gain above this.
_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class ParallelLouvainConfig:
    """Knobs of the parallel algorithm (defaults follow the paper)."""

    num_ranks: int = 4
    #: Migration throttle; ``None`` disables it (the naive parallel variant
    #: of Fig. 4 -- every positive-gain vertex moves every iteration).
    schedule: ThresholdSchedule | None = field(default_factory=ExponentialSchedule)
    max_inner: int = 64
    max_levels: int = 32
    hash_function: str = "fibonacci"
    load_factor: float = 0.25  # the paper's speed/memory compromise (§V-C2)
    key_shift: int = 32
    #: Reichardt-Bornholdt resolution γ (1.0 = the paper's plain modularity).
    resolution: float = 1.0
    #: Seed for failure-injection message reordering (None = in-order).
    reorder_seed: int | None = None
    #: Execution backend: ``"hash"`` is the paper-faithful EdgeHashTable
    #: path; ``"vector"`` runs the same supersteps over flat CSR arrays
    #: (:mod:`repro.parallel.vectorized`), converging identically but an
    #: order of magnitude faster.  ``None`` resolves to ``"vector"`` under
    #: process execution and to ``"hash"`` otherwise.
    backend: str | None = None
    #: Execution mode: ``"simulated"`` runs every rank in this process over
    #: the simulated bus (the vector backend's per-rank compute on executor
    #: threads on large levels, see ``Simulation.map_ranks``); ``"process"``
    #: forks one OS process per rank with rank state in shared memory and
    #: byte-level alltoallv (:mod:`repro.runtime.process`) -- same
    #: algorithm, bit-identical trajectory, real cores.  Process mode
    #: requires the vector backend.
    execution: str = "simulated"

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise ValueError("need at least one rank")
        if self.max_inner < 1 or self.max_levels < 1:
            raise ValueError("iteration limits must be positive")
        if self.backend is None:
            backend = "vector" if self.execution == "process" else "hash"
            object.__setattr__(self, "backend", backend)
        if self.backend not in ("hash", "vector"):
            raise ValueError(
                f"unknown backend {self.backend!r}; choose 'hash' "
                "(paper-faithful hash tables) or 'vector' (CSR arrays)"
            )
        if self.execution not in ("simulated", "process"):
            raise ValueError(
                f"unknown execution {self.execution!r}; choose 'simulated' "
                "(in-process SPMD simulation) or 'process' (one OS process "
                "per rank over shared memory)"
            )
        if self.execution == "process" and self.backend != "vector":
            raise ValueError(
                "execution='process' requires backend='vector': rank state "
                "must be flat CSR arrays to live in shared memory"
            )


@dataclass(frozen=True)
class InnerIterationStats:
    """One REFINE iteration: threshold state and outcome."""

    iteration: int
    epsilon: float
    dq_threshold: float
    candidates: int  # vertices with a strictly positive best gain
    movers: int
    modularity: float


@dataclass(frozen=True)
class ParallelLevelStats:
    """One outer-loop level."""

    level: int
    num_vertices: int
    num_adjacency_entries: int
    modularity: float
    iterations: tuple[InnerIterationStats, ...]


@dataclass
class ParallelLouvainResult:
    """Outcome of a parallel Louvain run plus full provenance."""

    membership: np.ndarray  # original vertex -> final community (compact)
    level_labels: list[np.ndarray]
    modularities: list[float]
    levels: list[ParallelLevelStats]
    simulation: Simulation
    config: ParallelLouvainConfig
    #: Raw bytes the shared-memory bus carried, summed over the workers of
    #: a process-mode run (0 under simulated execution); distinct from the
    #: profiler's modeled wire bytes.
    shm_bytes_moved: int = 0

    @property
    def num_levels(self) -> int:
        return len(self.level_labels)

    @property
    def final_modularity(self) -> float:
        return self.modularities[-1] if self.modularities else 0.0

    def membership_at_level(self, level: int) -> np.ndarray:
        if not 0 <= level < self.num_levels:
            raise IndexError(f"level {level} out of range [0, {self.num_levels})")
        member = self.level_labels[0]
        for i in range(1, level + 1):
            member = self.level_labels[i][member]
        return member


# ===================================================================== #
# Per-rank state
# ===================================================================== #


class _RankStateBase:
    """What every backend's rank state holds, and the kernels that read no table.

    A rank state is everything one rank owns at one level; its methods are
    the rank's share of each superstep (see :class:`_Schedule`).  The
    shared UPDATE and warm-start code reads ``owned`` / ``strength`` /
    ``community`` / ``tot`` / ``size``, and the tracer and sanitizer hooks
    read ``tables.in_table`` / ``tables.out_table`` through ``items()`` /
    ``len()`` / ``stats()``.  ``build_ops`` is the work of building the
    state from its in-edge shard, charged when RECONSTRUCTION builds it.
    """

    __slots__ = (
        "rank",
        "partition",
        "owned",  # global ids of owned vertices, ascending
        "strength",  # k_u per owned vertex (local index order)
        "self_adj",  # A_uu per owned vertex
        "community",  # global community label per owned vertex
        "tot",  # authoritative sigma_tot per owned *community* (local idx)
        "size",  # authoritative member count per owned community
        "tables",
        "build_ops",
    )

    def sigma_reply(self, inbox, in_order: bool):
        """Σ_tot fetch, second superstep: answer requests for owned communities.

        An in-order inbox concatenates per-source parts in rank order, so its
        requester column is sorted and splits by ``searchsorted``; failure
        injection permutes inboxes, and then the reply is regrouped.  Either
        way each requester's records keep their arrival order.

        Returns ``(reply, records_answered)``.
        """
        num_ranks = self.partition.num_ranks
        c_req, who = inbox
        c_req = np.asarray(c_req, dtype=np.int64)
        who = np.asarray(who, dtype=np.int64)
        local = self.partition.to_local(c_req)
        vals = self.tot[local] if c_req.size else np.empty(0)
        sizes = self.size[local] if c_req.size else np.empty(0, dtype=np.int64)
        if not in_order:
            reply = group_by_destination((who, c_req, vals, sizes), num_ranks)
            return reply, int(c_req.size)
        bounds = np.searchsorted(
            who, np.arange(num_ranks + 1, dtype=np.int64)
        ).tolist()
        reply = [
            (c_req[a:b], vals[a:b], sizes[a:b])
            for a, b in zip(bounds, bounds[1:])
        ]
        return reply, int(c_req.size)

    def modularity_partial(
        self, inbox, m: float, resolution: float
    ) -> tuple[float, int]:
        """MODULARITY receive half: this rank's Q term and records scanned.

        ``np.bincount`` folds the received Σ_in weights in arrival order, as
        ``np.add.at`` would.
        """
        c_in, w_in = inbox
        c_in = np.asarray(c_in, dtype=np.int64)
        if c_in.size:
            acc = np.bincount(
                self.partition.to_local(c_in),
                weights=np.asarray(w_in, dtype=np.float64),
                minlength=self.owned.size,
            )
        else:
            acc = np.zeros(self.owned.size, dtype=np.float64)
        two_m = 2.0 * m
        partial = float(
            (acc / two_m).sum() - resolution * ((self.tot / two_m) ** 2).sum()
        )
        return partial, int(c_in.size + self.owned.size)


class _RankState(_RankStateBase):
    """One rank of the hash reference: EdgeHashTable In/Out tables.

    Its kernels read and write the tables (Eq. 5 keys, Eq. 6 hash) and a
    sorted Σ_tot replica.  They run inline on the driver thread: table
    inserts call the sanitizer.
    """

    __slots__ = (
        "replica_comms",  # sorted community ids with cached sigma_tot
        "replica_tot",
        "replica_size",
    )

    def __init__(
        self,
        partition: ModuloPartition,
        rank: int,
        v: np.ndarray,
        u: np.ndarray,
        w: np.ndarray,
        config: ParallelLouvainConfig,
        sanitizer: Sanitizer,
    ):
        tables = RankTables(
            expected_in_edges=int(v.size) + 16,
            hash_function=config.hash_function,
            load_factor=config.load_factor,
            key_shift=config.key_shift,
            sanitizer=sanitizer,
            rank=rank,
        )
        tables.add_in_edges(v, u, np.asarray(w, dtype=np.float64))
        self.build_ops = tables.in_table.probe_count
        self.rank = rank
        self.partition = partition
        self.owned = partition.owned(rank)
        self.tables = tables
        v, u, w = tables.in_edges()
        n_local = self.owned.size
        local = partition.to_local(u)
        self.strength = np.zeros(n_local, dtype=np.float64)
        np.add.at(self.strength, local, w)
        self.self_adj = np.zeros(n_local, dtype=np.float64)
        loops = v == u
        np.add.at(self.self_adj, local[loops], w[loops])
        self.community = self.owned.copy()
        self.tot = self.strength.copy()
        self.size = np.ones(n_local, dtype=np.int64)
        self.replica_comms = np.empty(0, dtype=np.int64)
        self.replica_tot = np.empty(0, dtype=np.float64)
        self.replica_size = np.empty(0, dtype=np.int64)

    def _replica_index(self, comms: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.replica_comms, comms)
        idx = np.clip(idx, 0, max(0, self.replica_comms.size - 1))
        if self.replica_comms.size == 0:
            if comms.size:
                raise KeyError("community replica empty but lookups requested")
            return idx
        found = self.replica_comms[idx] == comms
        if not found.all():
            missing = np.asarray(comms)[~found][:5]
            raise KeyError(f"community replica missing {missing}")
        return idx

    def lookup_tot(self, comms: np.ndarray) -> np.ndarray:
        """Replica Σ_tot for community ids fetched this iteration."""
        if comms.size == 0:
            return np.empty(0, dtype=np.float64)
        return self.replica_tot[self._replica_index(comms)]

    def lookup_size(self, comms: np.ndarray) -> np.ndarray:
        """Replica member counts (for the singleton-swap tie-break)."""
        if comms.size == 0:
            return np.empty(0, dtype=np.int64)
        return self.replica_size[self._replica_index(comms)]

    # -------------------------------------------------------------- #
    # Kernels
    # -------------------------------------------------------------- #

    def propagation_outbox(self):
        """STATE PROPAGATION send half: each In_Table edge ``(v -> u)`` as
        ``((v, c_u), w)`` to the owner of ``v`` (Algorithm 3)."""
        partition = self.partition
        v, u, w = self.tables.in_edges()
        c = self.community[partition.to_local(u)] if u.size else u
        return group_by_destination(
            (partition.owner(v), v, c, w), partition.num_ranks
        )

    def rebuild_out_table(self, inbox) -> int:
        """STATE PROPAGATION receive half: hash the inbox into a fresh
        Out_Table.  Returns the probes it took."""
        u_in, c_in, w_in = inbox
        self.tables.reset_out_table()
        before = self.tables.out_table.probe_count
        self.tables.accumulate_out(
            u_in.astype(np.int64), c_in.astype(np.int64), w_in.astype(np.float64)
        )
        return self.tables.out_table.probe_count - before

    def sigma_request(self):
        """Σ_tot fetch, first superstep: every community this rank reads
        (its Out_Table's and its own vertices'), to the owners."""
        _, c, _ = self.tables.out_entries()
        want = np.unique(np.concatenate([c, self.community]))
        requester = np.full(want.size, self.rank, dtype=np.int64)
        return group_by_destination(
            (self.partition.owner(want), want, requester),
            self.partition.num_ranks,
        )

    def store_sigma(self, inbox) -> None:
        """Σ_tot fetch, receive side: refresh the sorted replica."""
        c_rep, t_rep, s_rep = inbox
        c_rep = c_rep.astype(np.int64)
        order = np.argsort(c_rep)
        self.replica_comms = c_rep[order]
        self.replica_tot = t_rep.astype(np.float64)[order]
        self.replica_size = s_rep.astype(np.int64)[order]

    def find_best(
        self, m: float, resolution: float, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """FIND_BEST for one rank: ``(m_u, c_hat)`` over its local vertices.

        ``m_u`` is the *move improvement*: ΔQ of joining the best foreign
        community minus ΔQ of staying home, both computed against the
        current (stale) Σ_tot replica.  ``m_u <= 0`` means staying is at
        least as good.  The lexsort below needs no ``idx``.
        """
        two_m2 = 2.0 * m * m
        n_local = self.owned.size
        u, c, w = self.tables.out_entries()
        mu = np.zeros(n_local, dtype=np.float64)
        chat = self.community.copy()
        if n_local == 0:
            return mu, chat
        local = self.partition.to_local(u)
        cu = self.community[local]
        ku = self.strength[local]
        sigma = self.lookup_tot(c)
        is_home = c == cu
        # Removal semantics: evaluating any candidate pretends u left home,
        # so the home community's sigma_tot must exclude k_u.
        sigma_eff = np.where(is_home, sigma - ku, sigma)
        w_eff = np.where(is_home, w - self.self_adj[local], w)
        gain = w_eff / m - resolution * sigma_eff * ku / two_m2

        # Per-vertex stay gain: the home entry if present, else the gain of
        # an empty home community (no intra edges).
        stay = np.zeros(n_local, dtype=np.float64)
        k_all = self.strength
        sigma_home_all = self.lookup_tot(self.community) - k_all
        stay[:] = -resolution * sigma_home_all * k_all / two_m2
        home_local = local[is_home]
        stay[home_local] = gain[is_home]

        # Singleton-swap guard ("minimum label" rule, cf. Lu et al. 2015,
        # Grappolo): two isolated vertices that each pick the other\'s
        # (singleton) community would swap forever under simultaneous
        # updates.  A singleton vertex may enter another *singleton*
        # community only if the target label is smaller; the lower-label
        # vertex then stays put and absorbs the other.
        cand_size = self.lookup_size(c)
        home_size = self.lookup_size(cu)
        blocked = (cand_size == 1) & (home_size == 1) & (c > cu)

        # Best foreign candidate per vertex: sort entries by (local id, c)
        # and take segment maxima; ties resolve to the smallest community id
        # for determinism.
        fmask = ~is_home & ~blocked
        if fmask.any():
            fl = local[fmask]
            fg = gain[fmask]
            fc = c[fmask]
            order = np.lexsort((fc, -fg, fl))
            fl, fg, fc = fl[order], fg[order], fc[order]
            first = np.ones(fl.size, dtype=bool)
            first[1:] = fl[1:] != fl[:-1]
            sel = np.flatnonzero(first)
            improvement = fg[sel] - stay[fl[sel]]
            mu[fl[sel]] = improvement
            chat[fl[sel]] = fc[sel]
        return mu, chat

    def modularity_outbox(self):
        """MODULARITY send half: home-community Out_Table weight to its owner."""
        partition = self.partition
        u, c, w = self.tables.out_entries()
        if u.size:
            home = c == self.community[partition.to_local(u)]
            c_h, w_h = c[home], w[home]
        else:
            c_h = np.empty(0, dtype=np.int64)
            w_h = np.empty(0, dtype=np.float64)
        return group_by_destination(
            (partition.owner(c_h), c_h, w_h), partition.num_ranks
        )

    def contraction_outbox(
        self, new_ids: np.ndarray, new_partition: ModuloPartition
    ):
        """RECONSTRUCTION: ``(label fragment, superedge outbox)``.

        The fragment renames the owned vertices to next-level ids; the
        outbox sends each Out_Table entry as a superedge to the owner of
        its destination supervertex (Fig. 3's all-to-all).
        """
        frag = np.searchsorted(new_ids, self.community)
        u, c, w = self.tables.out_entries()
        if u.size:
            src_comm = frag[self.partition.to_local(u)]
            dst_comm = np.searchsorted(new_ids, c)
        else:
            src_comm = np.empty(0, dtype=np.int64)
            dst_comm = np.empty(0, dtype=np.int64)
        return frag, (new_partition.owner(dst_comm), src_comm, dst_comm, w)


# ===================================================================== #
# Phases shared by every backend
# ===================================================================== #


def _compute_threshold(
    sim: Simulation,
    best_gain: list[np.ndarray],
    schedule: ThresholdSchedule | None,
    iteration: int,
    num_vertices: int,
) -> tuple[float, float, int]:
    """Global ΔQ̂ from the gain histogram (Algorithm 4 lines 10-11).

    Returns ``(epsilon, dq_threshold, candidates)``.
    """
    bus = sim.bus
    hists = [gain_histogram(g) for g in best_gain]
    global_hist = bus.allreduce_sum(hists)
    candidates = int(global_hist.sum())
    if schedule is None:
        return 1.0, 0.0, candidates  # naive: every positive gain moves
    eps = schedule.epsilon(iteration)
    if sim.sanitizer.enabled:
        sim.sanitizer.check_epsilon(eps, iteration)
    target = int(math.ceil(eps * num_vertices))
    dq_hat = threshold_from_histogram(global_hist, target, HISTOGRAM_EDGES)
    return eps, dq_hat, candidates


def _apply_moves(
    sim: Simulation,
    partition: ModuloPartition,
    ranks: list[_RankState],
    best_gain: list[np.ndarray],
    best_comm: list[np.ndarray],
    dq_hat: float,
) -> int:
    """Algorithm 4 lines 13-15: move thresholded vertices, update Σ_tot."""
    bus = sim.bus
    prof = sim.profiler
    outboxes = []
    moved_counts = []
    for st, mu, chat in zip(ranks, best_gain, best_comm):
        movers = np.flatnonzero((mu > dq_hat) & (mu > _MIN_GAIN) & (chat != st.community))
        moved_counts.append(int(movers.size))
        prof.add_ops(st.rank, movers.size)
        old_c = st.community[movers]
        new_c = chat[movers]
        k = st.strength[movers]
        st.community[movers] = new_c
        # Σ_tot and size deltas to the owners of both communities.
        comm_ids = np.concatenate([old_c, new_c])
        deltas = np.concatenate([-k, k])
        sdeltas = np.concatenate(
            [np.full(movers.size, -1, dtype=np.int64),
             np.full(movers.size, 1, dtype=np.int64)]
        )
        dest = partition.owner(comm_ids)
        outboxes.append((dest, comm_ids, deltas, sdeltas))
    result = bus.exchange(outboxes)
    for st in ranks:
        c_upd, d_upd, s_upd = result.inbox(st.rank)
        c_upd = c_upd.astype(np.int64)
        if c_upd.size:
            local = partition.to_local(c_upd)
            np.add.at(st.tot, local, d_upd.astype(np.float64))
            np.add.at(st.size, local, s_upd.astype(np.int64))
        prof.add_ops(st.rank, c_upd.size)
    # The superstep's closing collective doubles as the global mover count:
    # every rank needs it to take the same convergence branch.
    return int(bus.allreduce_sum(moved_counts))


def _apply_initial_membership(
    sim: Simulation,
    partition: ModuloPartition,
    ranks: list[_RankState],
    membership: np.ndarray,
) -> None:
    """Warm-start REFINE from an existing partition (dynamic-graph support).

    Community labels in the algorithm are vertex ids, so each input
    community is renamed to its minimum member vertex id; owners then rebuild
    their authoritative Σ_tot / size tables from an all-to-all of
    (community, strength, +1) records -- the same pattern the UPDATE phase
    uses for deltas.
    """
    membership = np.asarray(membership, dtype=np.int64)
    if membership.size != partition.num_vertices:
        raise ValueError("initial membership must cover every vertex")
    if membership.size and membership.min() < 0:
        raise ValueError("community labels must be non-negative")
    # Rename labels to representative vertex ids (minimum member).
    order = np.lexsort((np.arange(membership.size), membership))
    sorted_labels = membership[order]
    first = np.ones(sorted_labels.size, dtype=bool)
    first[1:] = sorted_labels[1:] != sorted_labels[:-1]
    reps_for_label = order[first]  # min vertex id per distinct label
    label_index = np.searchsorted(sorted_labels[first], membership)
    community_global = reps_for_label[label_index]

    bus = sim.bus
    prof = sim.profiler
    outboxes = []
    for st in ranks:
        st.community = community_global[st.owned].copy()
        st.tot = np.zeros_like(st.tot)
        st.size = np.zeros_like(st.size)
        dest = partition.owner(st.community)
        prof.add_ops(st.rank, st.owned.size)
        outboxes.append(
            (dest, st.community, st.strength, np.ones(st.owned.size, dtype=np.int64))
        )
    result = bus.exchange(outboxes)
    for st in ranks:
        c_in, k_in, one_in = result.inbox(st.rank)
        c_in = c_in.astype(np.int64)
        if c_in.size:
            local = partition.to_local(c_in)
            np.add.at(st.tot, local, k_in.astype(np.float64))
            np.add.at(st.size, local, one_in.astype(np.int64))
        prof.add_ops(st.rank, c_in.size)


# ===================================================================== #
# The superstep schedule
# ===================================================================== #


class _Schedule:
    """Each phase's superstep schedule, written once for both backends.

    For each phase the control plane (:func:`_louvain_core`) runs, this
    says which per-rank kernel runs, which exchange or collective follows,
    and what each rank is charged.  A backend subclasses it with a
    rank-state class (a :class:`_RankStateBase`) whose methods are the
    kernels, and :meth:`local_states`, which builds those states from
    in-edge shards.  Kernels run through :meth:`_map`; bus ops and profiler
    charges stay here, on the driver thread, in ascending rank order.  So
    the bitwise contract between the backends rests on this one code path,
    and a golden trace recorded under one backend gates the other.
    """

    name: str

    def __init__(self) -> None:
        self._idx = np.empty(0, dtype=np.int32)

    def local_states(self, sim, partition, shards, config) -> list:
        """Rank states from in-edge shards ``(rank, v, u, w)``."""
        raise NotImplementedError

    def _map(self, sim: Simulation, kernel, ranks: list) -> list:
        """Run one per-rank kernel for every local rank; results in rank order.

        The executor's size for a superstep is the level's adjacency
        entries: every kernel's arrays scale with the rank's in-edges.
        """
        return sim.map_ranks(
            kernel, ranks, work=sum(len(st.tables.in_table) for st in ranks)
        )

    def _indices(self, size: int) -> np.ndarray:
        """Cached ``arange(size)`` (int32) for the per-iteration gain scan.

        Driver thread only: size it for the largest rank before the map.
        """
        if self._idx.size < size:
            self._idx = np.arange(
                max(size, 2 * self._idx.size), dtype=np.int32
            )
        return self._idx[:size]

    def build_states(self, sim, partition, graph, config):
        return self.local_states(
            sim, partition, list(partition.in_edge_shards(graph)), config
        )

    def state_propagation(self, sim, partition, ranks):
        """Algorithm 3 plus the Σ_tot replica refresh.

        Three supersteps: every In_Table edge, tagged with its owned
        endpoint's community, to the owner of the other endpoint, who
        rebuilds its Out_Table from them; then Σ_tot requests for every
        community a rank reads to the community owners; then their replies.
        The paper folds the community-state traffic into STATE PROPAGATION;
        so does the phase accounting here.
        """
        bus = sim.bus
        prof = sim.profiler
        in_order = bus.reorder_rng is None
        outboxes = self._map(sim, lambda st: st.propagation_outbox(), ranks)
        for st in ranks:
            prof.add_ops(st.rank, len(st.tables.in_table))  # In_Table scan
        result = bus.exchange_grouped(outboxes)
        scanned = self._map(
            sim,
            lambda st: st.rebuild_out_table(result.inbox(st.rank)),
            ranks,
        )
        for st, ops in zip(ranks, scanned):
            prof.add_ops(st.rank, ops)
        got = bus.exchange_grouped(
            self._map(sim, lambda st: st.sigma_request(), ranks)
        )
        replies = self._map(
            sim, lambda st: st.sigma_reply(got.inbox(st.rank), in_order), ranks
        )
        for st, (_, ops) in zip(ranks, replies):
            prof.add_ops(st.rank, ops)
        back = bus.exchange_grouped([reply for reply, _ in replies])
        self._map(sim, lambda st: st.store_sigma(back.inbox(st.rank)), ranks)

    def find_best(self, sim, partition, ranks, m, resolution):
        """Algorithm 4 lines 6-9: per-rank ``(m_u, c_hat)`` arrays."""
        prof = sim.profiler
        for st in ranks:
            prof.add_ops(st.rank, len(st.tables.out_table))  # Out_Table scan
        idx = self._indices(
            max((len(st.tables.out_table) for st in ranks), default=0)
        )
        best = self._map(sim, lambda st: st.find_best(m, resolution, idx), ranks)
        return [mu for mu, _ in best], [chat for _, chat in best]

    def compute_modularity(self, sim, partition, ranks, m, resolution):
        """Algorithm 4 lines 17-25: Σ_in gather + global Q."""
        bus = sim.bus
        prof = sim.profiler
        outboxes = self._map(sim, lambda st: st.modularity_outbox(), ranks)
        for st in ranks:
            prof.add_ops(st.rank, len(st.tables.out_table))
        result = bus.exchange_grouped(outboxes)
        terms = self._map(
            sim,
            lambda st: st.modularity_partial(
                result.inbox(st.rank), m, resolution
            ),
            ranks,
        )
        for st, (_, ops) in zip(ranks, terms):
            prof.add_ops(st.rank, ops)
        return float(bus.allreduce_sum([partial for partial, _ in terms]))

    def reconstruct(self, sim, partition, ranks, config):
        """Algorithm 5: contract communities into the next level's In_Tables.

        Returns ``(new_rank_states, new_partition, labels)`` where ``labels``
        maps this level's vertex ids to compact next-level ids (driver-side
        bookkeeping for the dendrogram).
        """
        bus = sim.bus
        prof = sim.profiler
        # Compact relabeling: every rank contributes the labels it
        # references; the sorted union is the new vertex space.
        used = bus.allgather(
            self._map(sim, lambda st: np.unique(st.community), ranks)
        )
        new_ids = (
            np.unique(np.concatenate(used)) if used else np.empty(0, np.int64)
        )
        new_partition = ModuloPartition(int(new_ids.size), partition.num_ranks)

        contracted = self._map(
            sim, lambda st: st.contraction_outbox(new_ids, new_partition), ranks
        )
        # Gather the per-rank renamed shards so every rank (and the driver)
        # holds the full dendrogram row -- in process mode each worker only
        # computes its own fragment locally.
        frags = bus.side_gather([frag for frag, _ in contracted])
        labels = np.empty(partition.num_vertices, dtype=np.int64)
        for rank in range(partition.num_ranks):
            labels[partition.owned(rank)] = frags[rank]

        for st in ranks:
            prof.add_ops(st.rank, len(st.tables.out_table))
        result = bus.exchange([outbox for _, outbox in contracted])
        shards = [(st.rank, *result.inbox(st.rank)) for st in ranks]
        new_states = self.local_states(sim, new_partition, shards, config)
        for st in new_states:
            prof.add_ops(st.rank, st.build_ops)
        return new_states, new_partition, labels


class _HashBackend(_Schedule):
    """The paper-faithful data-plane: :class:`_RankState` over EdgeHashTables.

    Its kernels run inline on the driver thread, never on the rank
    executor: EdgeHashTable inserts call the sanitizer, which only the
    driver thread may touch.
    """

    name = "hash"

    def local_states(self, sim, partition, shards, config):
        return [
            _RankState(partition, *shard, config, sim.sanitizer)
            for shard in shards
        ]

    def _map(self, sim, kernel, ranks):
        return [kernel(st) for st in ranks]


def _make_backend(config: ParallelLouvainConfig):
    if config.backend == "vector":
        from .vectorized import VectorBackend

        return VectorBackend()
    return _HashBackend()


# ===================================================================== #
# Driver
# ===================================================================== #


def parallel_louvain(
    graph: Graph,
    config: ParallelLouvainConfig | None = None,
    *,
    initial_membership: np.ndarray | None = None,
    tracer: Tracer | None = None,
    sanitize: bool | Sanitizer | None = None,
    **kwargs,
) -> ParallelLouvainResult:
    """Run the full parallel Louvain algorithm (Algorithm 2).

    Either pass a :class:`ParallelLouvainConfig` or keyword overrides of its
    fields.  The returned result carries the simulation (profiler included),
    the dendrogram and per-iteration statistics.

    ``initial_membership`` warm-starts level 0 from an existing partition
    (labels over all vertices) instead of singletons -- the dynamic-graph
    workflow the paper's two-table design targets: mutate the graph, keep
    the previous communities, and let REFINE repair them.  See
    :mod:`repro.parallel.dynamic`.

    ``tracer`` captures the run as a typed event stream (run/level/iteration
    events, phase spans, per-superstep comm volumes, hash-table snapshots);
    see :mod:`repro.observability`.  Without one, a shared no-op tracer is
    used and the only cost is a handful of attribute checks.

    ``sanitize`` enables the runtime invariant contracts of
    :mod:`repro.analysis` (``True``/``False``, an explicit
    :class:`~repro.analysis.Sanitizer`, or ``None`` to defer to the
    ``REPRO_SANITIZE`` environment variable): key-packing bounds,
    per-level In_Table immutability, Σ_tot and edge-weight conservation,
    Eq.-7 epsilon bounds and per-superstep rank participation, each raising
    :class:`~repro.analysis.InvariantViolation` with the offending
    rank/level/iteration on failure.
    """
    if config is None:
        config = ParallelLouvainConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either config or keyword overrides, not both")
    tracer = tracer if tracer is not None else NULL_TRACER

    sim = Simulation.create(
        config.num_ranks, reorder_seed=config.reorder_seed, tracer=tracer,
        sanitize=sanitize,
    )
    partition = ModuloPartition(graph.num_vertices, config.num_ranks)

    def level0_q() -> float:
        return modularity_from_labels(
            graph,
            (
                np.arange(graph.num_vertices, dtype=np.int64)
                if initial_membership is None
                else initial_membership
            ),
            resolution=config.resolution,
        )

    shm_bytes_moved = 0
    # The run owns the rank executor's threads: join them on every exit
    # path, so none is alive when a later process-mode run forks.
    try:
        if config.execution == "process":
            from ..runtime.process import process_louvain

            # Workers hold only their own shards, so the parent computes the
            # level-0 Q every rank closes over.
            outcome, shm_bytes_moved = process_louvain(
                sim,
                partition,
                graph,
                config,
                initial_membership=initial_membership,
                level0_q=level0_q(),
                tracer=tracer,
                sanitize=sanitize,
            )
        else:
            backend = _make_backend(config)
            ranks = backend.build_states(sim, partition, graph, config)
            outcome = _louvain_core(
                sim,
                partition,
                backend,
                ranks,
                config,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                initial_membership=initial_membership,
                level0_q=level0_q,
                tracer=tracer,
            )
    finally:
        sim.close()
    membership, level_labels, modularities, levels = outcome
    return ParallelLouvainResult(
        membership=membership,
        level_labels=level_labels,
        modularities=modularities,
        levels=levels,
        simulation=sim,
        config=config,
        shm_bytes_moved=shm_bytes_moved,
    )


def _louvain_core(
    sim: Simulation,
    partition: ModuloPartition,
    backend,
    ranks: list,
    config: ParallelLouvainConfig,
    *,
    num_vertices: int,
    num_edges: int,
    initial_membership: np.ndarray | None,
    level0_q,
    tracer: Tracer,
) -> tuple[np.ndarray, list[np.ndarray], list[float], list[ParallelLevelStats]]:
    """The shared level/iteration control plane (Algorithm 2 proper).

    Runs identically under both execution modes: in simulated mode ``ranks``
    holds all ``P`` rank states and ``sim.bus`` is the in-process
    :class:`~repro.runtime.MessageBus`; in process mode every worker runs
    this exact function over its single local rank state and a
    :class:`~repro.runtime.shm.SharedMemoryBus`.  Every control-flow branch
    below depends only on collective results (``m``, mover counts, ``Q``,
    histogram thresholds, the gathered label fragments), which the one bus
    front end (:class:`~repro.runtime.comm.Bus`) folds in ascending rank
    order for both -- that is the whole bitwise equivalence argument.

    ``level0_q`` is a zero-argument callable returning the modularity of the
    starting partition (lazy so the empty-graph early return never pays for
    it; in process mode the parent precomputes the float once and workers
    close over it).

    The profiler is scoped as the run goes: its level is set when a level
    starts and its iteration when a REFINE iteration starts (0 outside
    iterations), so ``profiler.select(level[, iteration])`` reads back the
    counters of one level or one inner iteration.
    """
    san = sim.sanitizer
    if tracer.enabled:
        tracer.run_start(
            "parallel" if config.schedule is not None else "naive",
            num_vertices=num_vertices,
            num_edges=num_edges,
            num_ranks=config.num_ranks,
        )
    with sim.phase("INIT"):
        m = float(sim.bus.allreduce_sum([st.strength.sum() for st in ranks])) / 2.0
        if initial_membership is not None and num_vertices:
            _apply_initial_membership(sim, partition, ranks, initial_membership)

    membership = np.arange(num_vertices, dtype=np.int64)
    level_labels: list[np.ndarray] = []
    modularities: list[float] = []
    levels: list[ParallelLevelStats] = []
    if num_vertices == 0 or m <= 0.0:
        if tracer.enabled:
            tracer.run_end(modularity=0.0, num_levels=0)
        return membership, level_labels, modularities, levels

    prev_level_q = -1.0
    # Modularity of the partition each level starts from.  Simultaneous
    # positive-gain moves can jointly *overshoot* (two vertices each join
    # the other's target and the combined move lands below the start, a
    # known hazard of parallel Louvain's stale-state updates, §III), and
    # REFINE can never split a community back apart -- so a level that ends
    # below its own starting point is discarded wholesale below.
    level_start_q = float(level0_q())

    for level in range(config.max_levels):
        sim.profiler.level = level
        n_level = partition.num_vertices
        if tracer.enabled:
            tracer.level_start(level, num_vertices=n_level)
            for st in ranks:
                tracer.table_stats(level, st.rank, "in", st.tables.in_table.stats())
        if san.enabled:
            # In_Table contents are this level's graph; REFINE must not
            # touch them (paper §IV-A).  Fingerprint now, re-check per
            # iteration.
            san.enter_level(level)
            in_fingerprints = [
                san.table_fingerprint(st.tables.in_table) for st in ranks
            ]
        with sim.phase("STATE_PROPAGATION"):
            backend.state_propagation(sim, partition, ranks)

        iter_stats: list[InnerIterationStats] = []
        prev_q = -1.0
        q = prev_q
        with sim.phase("REFINE"):
            for iteration in range(1, config.max_inner + 1):
                sim.profiler.iteration = iteration
                if san.enabled:
                    san.enter_iteration(iteration)
                with sim.phase("FIND_BEST"):
                    best_gain, best_comm = backend.find_best(
                        sim, partition, ranks, m, config.resolution
                    )
                with sim.phase("THRESHOLD"):
                    eps, dq_hat, candidates = _compute_threshold(
                        sim, best_gain, config.schedule, iteration, n_level
                    )
                with sim.phase("UPDATE"):
                    moved = _apply_moves(
                        sim, partition, ranks, best_gain, best_comm, dq_hat
                    )
                with sim.phase("STATE_PROPAGATION"):
                    backend.state_propagation(sim, partition, ranks)
                with sim.phase("MODULARITY"):
                    q = backend.compute_modularity(
                        sim, partition, ranks, m, config.resolution
                    )
                if san.enabled:
                    # UPDATE ships (-k, +k) delta pairs, so the global
                    # Σ_tot over community owners must stay exactly 2m.
                    san.check_conservation(
                        float(
                            sim.bus.side_sum(
                                [float(st.tot.sum()) for st in ranks]
                            )
                        ),
                        2.0 * m,
                        what="sigma_tot",
                    )
                    for st, fp in zip(ranks, in_fingerprints):
                        san.check_table_unchanged(
                            st.tables.in_table, fp, rank=st.rank
                        )
                iter_stats.append(
                    InnerIterationStats(
                        iteration=iteration,
                        epsilon=eps,
                        dq_threshold=dq_hat,
                        candidates=candidates,
                        movers=moved,
                        modularity=q,
                    )
                )
                if tracer.enabled:
                    tracer.iteration(
                        level, iteration, movers=moved, epsilon=eps,
                        dq_threshold=dq_hat, candidates=candidates, modularity=q,
                    )
                if moved == 0:
                    break
                if q - prev_q < _INNER_TOL and prev_q > -1.0:
                    break
                prev_q = q
            sim.profiler.iteration = 0

        if tracer.enabled:
            for st in ranks:
                tracer.table_stats(level, st.rank, "out", st.tables.out_table.stats())
            tracer.level_end(level, modularity=q, iterations=len(iter_stats))

        if q < level_start_q - 1e-12:
            # The level's simultaneous moves overshot below its starting
            # partition; keep the pre-level membership instead of locking
            # in the regression (contraction cannot undo it).  At level 0 a
            # warm start means the pre-level partition is the caller's, not
            # the identity labeling.
            if level == 0 and initial_membership is not None:
                membership = np.asarray(
                    initial_membership, dtype=np.int64
                ).copy()
            break

        if q - prev_level_q <= _OUTER_TOL and level_labels:
            break

        level_entries = int(
            sim.bus.side_sum([len(st.tables.in_table) for st in ranks])
        )
        if san.enabled:
            weight_before = float(
                sim.bus.side_sum(
                    [float(st.tables.in_table.items()[1].sum()) for st in ranks]
                )
            )
        with sim.phase("GRAPH_RECONSTRUCTION"):
            ranks, new_partition, labels = backend.reconstruct(
                sim, partition, ranks, config
            )
        if san.enabled:
            # Contraction reroutes every adjacency entry to a supervertex
            # owner; no weight may be created or dropped (Algorithm 5).
            san.check_conservation(
                float(
                    sim.bus.side_sum(
                        [
                            float(st.tables.in_table.items()[1].sum())
                            for st in ranks
                        ]
                    )
                ),
                weight_before,
                what="total edge weight across RECONSTRUCTION",
            )

        level_labels.append(labels)
        modularities.append(q)
        levels.append(
            ParallelLevelStats(
                level=level,
                num_vertices=n_level,
                num_adjacency_entries=level_entries,
                modularity=q,
                iterations=tuple(iter_stats),
            )
        )
        membership = labels[membership]

        if q - prev_level_q <= _OUTER_TOL:
            break
        prev_level_q = q
        level_start_q = q  # contraction preserves Q exactly
        if new_partition.num_vertices == partition.num_vertices:
            break
        partition = new_partition

    if tracer.enabled:
        tracer.run_end(
            modularity=modularities[-1] if modularities else 0.0,
            num_levels=len(level_labels),
        )
    return membership, level_labels, modularities, levels
