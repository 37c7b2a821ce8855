"""Vectorized CSR execution backend (``backend="vector"``).

A second, independent implementation of the per-rank kernels of the
parallel Louvain algorithm, run by the superstep schedule both backends
share (:class:`repro.parallel.louvain._Schedule`); this module makes no
bus call and charges no profiler counter.  Where the paper-faithful hash
backend stores each rank's adjacency and Out_Table in
:class:`~repro.hashing.EdgeHashTable` instances and pays per-record probe
chains, this backend keeps

* the local adjacency as flat **CSR-style arrays** ``(in_v, in_ul, in_w)``
  -- one coalesced in-edge ``(v -> u)`` per row, with ``u`` owned locally --
  grouped once per level into per-destination-rank batches
  (:func:`repro.kernels.group_by_destination`) for the STATE PROPAGATION
  alltoallv (``exchange_grouped``);
* the Out_Table as sorted segment arrays ``(out_ul, out_c, out_w)`` rebuilt
  each superstep by :func:`repro.kernels.coalesce_pairs`: one stable sort
  of the ``(u_local, c)`` keys (:func:`repro.kernels.stable_sort`) +
  ``np.bincount`` coalesce;
* community ``sigma_tot`` / size replicas as **dense vectors** indexed by
  community id, replacing per-lookup ``searchsorted`` probes;
* the Eq.-4 gain scan and best-move selection as segment reductions
  (``np.maximum.reduceat`` with a first-hit tie-break that reproduces the
  hash path's "max gain, then smallest community id" ordering exactly).

The kernels emit the hash reference's logical records -- same request
sets, same record counts -- and fold every weight sum in the same order,
so a golden trace recorded under ``backend="hash"`` gates this backend at
zero tolerance.

Community/vertex ids are combined into ``int64`` keys via ``v * n + u``
instead of the hash path's Eq.-5 bit packing; the width precondition
(``n**2`` must fit ``int64``) is validated once per level and violations
raise :class:`repro.kernels.IndexWidthError` instead of silently wrapping.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..kernels import (
    check_combined_width,
    coalesce_pairs,
    coalesce_with_order,  # noqa: F401 -- uncalled; perfbench/spans.py times it here
    group_by_destination,
    segment_coalesce,
    segment_starts,
)
from .louvain import _RankStateBase, _Schedule
from .partition import ModuloPartition

__all__ = ["VectorBackend"]


class _ArrayTableView:
    """Duck-typed read-only stand-in for an ``EdgeHashTable``.

    The main loop's tracer and sanitizer hooks introspect per-rank tables
    through ``items()`` / ``len()`` / ``stats()``; this view serves those
    queries straight from the CSR arrays so In_Table immutability and
    weight-conservation checks run unchanged against the vector backend.

    The view reaches its state through a weak reference: the state holds
    its views, and a strong back-reference would make every rank state a
    reference cycle, left to the cyclic GC instead of being freed as soon
    as the run drops it.
    """

    __slots__ = ("_state", "_kind")

    def __init__(self, state: "_VectorRankState", kind: str) -> None:
        self._state = weakref.ref(state)
        self._kind = kind

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        st = self._state()
        n = np.int64(st.n_level)
        stride = np.int64(st.num_ranks)
        if self._kind == "in":
            u_global = st.in_ul * stride + np.int64(st.rank)
            return st.in_v * n + u_global, st.in_w
        u_global = st.out_ul * stride + np.int64(st.rank)
        return u_global * n + st.out_c, st.out_w

    def __len__(self) -> int:
        st = self._state()
        return int(st.in_v.size if self._kind == "in" else st.out_ul.size)

    def stats(self) -> dict[str, float | int | str]:
        entries = len(self)
        return {
            "entries": entries,
            "capacity": entries,
            "load_factor": 1.0,
            "hash": "csr",
            "probe_count": 0,
            "insert_count": entries,
            "probes_per_insert": 0.0,
            "avg_probe_length": 0.0,
            "max_probe_length": 0,
        }


class _ArrayTables:
    """``RankTables``-shaped holder of the two table views."""

    __slots__ = ("in_table", "out_table")

    def __init__(self, state: "_VectorRankState") -> None:
        self.in_table = _ArrayTableView(state, "in")
        self.out_table = _ArrayTableView(state, "out")


class _VectorRankState(_RankStateBase):
    """One rank of the vector backend: everything it owns, as flat arrays.

    Its methods are the rank's kernels.  The backend runs them through
    ``Simulation.map_ranks``, so they may execute concurrently on executor
    threads: each touches only its own state and the read-only inbox of the
    last exchange, never the profiler, tracer, sanitizer or bus.  Work
    counts that depend on the inbox are returned for the schedule to charge.
    """

    __slots__ = (
        "num_ranks",
        "n_level",
        "in_v",  # coalesced in-edges: neighbor (source) global id
        "in_ul",  # ... owned endpoint, local index
        "in_w",  # ... weight
        "send_parts",  # per-dest (v, ul, w) batches, grouped once per level
        "rep_tot",  # dense sigma_tot replica, indexed by community id
        "rep_size",  # dense community-size replica
        "out_ul",  # Out_Table: owned vertex local id (sorted segments)
        "out_c",  # ... neighbor community (ascending within a segment)
        "out_w",  # ... w_{u->c}
        "out_starts",  # first entry of each per-vertex segment
        "out_seg",  # entry -> segment index
        "sigma_flags",  # bool[n_level]: communities adjacent via in-edges
        "__weakref__",  # the table views' back-reference
    )

    def __init__(
        self,
        partition: ModuloPartition,
        rank: int,
        v: np.ndarray,
        u: np.ndarray,
        w: np.ndarray,
    ) -> None:
        self.rank = rank
        self.partition = partition
        self.num_ranks = partition.num_ranks
        self.n_level = int(partition.num_vertices)
        self.owned = partition.owned(rank)
        n = np.int64(self.n_level)
        # One check covers every combined key this level: in-edge (v, u),
        # Out_Table (u_local, c) and the table views all stay below n**2.
        check_combined_width(
            self.n_level, self.n_level, what=f"rank {rank} level adjacency key"
        )
        v = np.asarray(v, dtype=np.int64)
        u = np.asarray(u, dtype=np.int64)
        self.build_ops = int(v.size)  # records received
        keys, weights = segment_coalesce(
            v * n + u, np.asarray(w, dtype=np.float64)
        )
        self.in_v = keys // n
        u_glob = keys - self.in_v * n
        self.in_ul = partition.to_local(u_glob)
        self.in_w = weights
        n_local = self.owned.size
        self.strength = np.bincount(
            self.in_ul, weights=self.in_w, minlength=n_local
        )
        loops = self.in_v == u_glob
        self.self_adj = np.bincount(
            self.in_ul[loops], weights=self.in_w[loops], minlength=n_local
        )
        self.community = self.owned.copy()
        self.tot = self.strength.copy()
        self.size = np.ones(n_local, dtype=np.int64)
        # Ship the destination-local index of v instead of its global id:
        # same 8-byte word on the wire, but the receiver can key its
        # Out_Table coalesce directly without a to_local pass.
        self.send_parts = group_by_destination(
            (
                partition.owner(self.in_v),
                partition.to_local(self.in_v),
                self.in_ul,
                self.in_w,
            ),
            partition.num_ranks,
        )
        self.rep_tot = np.zeros(self.n_level, dtype=np.float64)
        self.rep_size = np.zeros(self.n_level, dtype=np.int64)
        self.out_ul = np.empty(0, dtype=np.int64)
        self.out_c = np.empty(0, dtype=np.int64)
        self.out_w = np.empty(0, dtype=np.float64)
        self.out_starts = np.empty(0, dtype=np.int64)
        self.out_seg = np.empty(0, dtype=np.int64)
        self.sigma_flags = np.zeros(self.n_level, dtype=bool)
        self.tables = _ArrayTables(self)

    def propagation_outbox(self) -> list[tuple[np.ndarray, ...]]:
        """STATE PROPAGATION send half: each in-edge tagged with u's community."""
        comm = self.community
        return [(v, comm[ul], w) for (v, ul, w) in self.send_parts]

    def rebuild_out_table(self, inbox) -> int:
        """STATE PROPAGATION receive half: coalesce the inbox into Out_Table.

        Returns the number of records scanned.
        """
        ul, c_in, w_in = inbox
        self.out_ul, self.out_c, self.out_w = coalesce_pairs(
            ul, c_in, self.owned.size, self.n_level, w_in
        )
        # The distinct community labels seen on in-edges double as the
        # sigma-fetch want set (distinct out_c == distinct c_in).
        flags = np.zeros(self.n_level, dtype=bool)
        flags[self.out_c] = True
        self.sigma_flags = flags
        starts = segment_starts(self.out_ul)
        self.out_starts = starts
        seg = np.zeros(self.out_ul.size, dtype=np.int32)
        if starts.size:
            seg[starts] = 1
            np.cumsum(seg, out=seg)
            seg -= 1
        self.out_seg = seg
        return int(c_in.size)

    def sigma_request(self):
        """Sigma fetch, first superstep: the communities this rank must read.

        Split per owner straight off the flag array: owner(c) = c mod P, so the
        wanted ids for destination ``d`` are the set flags at positions
        ``d::P`` -- the same ascending distinct-community set ``np.unique``
        would give.
        """
        num_ranks = self.num_ranks
        # sigma_flags already marks distinct(out_c); add home labels.
        flags = self.sigma_flags
        flags[self.community] = True
        parts = []
        for d in range(num_ranks):
            wd = np.flatnonzero(flags[d::num_ranks])
            wd *= num_ranks
            wd += d
            parts.append((wd, np.full(wd.size, self.rank, dtype=np.int64)))
        return parts

    def store_sigma(self, inbox) -> None:
        """Sigma fetch, receive side: refresh the dense replicas."""
        c_rep, t_rep, s_rep = inbox
        c_rep = np.asarray(c_rep, dtype=np.int64)
        self.rep_tot[c_rep] = np.asarray(t_rep, dtype=np.float64)
        self.rep_size[c_rep] = np.asarray(s_rep, dtype=np.int64)

    def find_best(
        self, m: float, resolution: float, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """FIND_BEST for one rank: ``(m_u, c_hat)`` over its local vertices.

        ``idx`` is an ``arange`` at least as long as the Out_Table.
        """
        two_m2 = 2.0 * m * m
        n_local = self.owned.size
        mu = np.zeros(n_local, dtype=np.float64)
        chat = self.community.copy()
        ul, c, w = self.out_ul, self.out_c, self.out_w
        if n_local == 0 or ul.size == 0:
            return mu, chat
        cu = self.community[ul]
        ku = self.strength[ul]
        sigma = self.rep_tot[c]
        is_home = c == cu
        # Same expressions and evaluation order as the hash reference's
        # find_best -- spelled with in-place/masked ufuncs (each step still
        # rounds identically), which halves the temporaries on the hot path.
        np.subtract(sigma, ku, out=sigma, where=is_home)  # sigma_eff
        w_eff = w.copy()
        np.subtract(w_eff, self.self_adj[ul], out=w_eff, where=is_home)
        np.multiply(sigma, resolution, out=sigma)
        np.multiply(sigma, ku, out=sigma)
        np.divide(sigma, two_m2, out=sigma)
        np.divide(w_eff, m, out=w_eff)
        np.subtract(w_eff, sigma, out=w_eff)
        gain = w_eff

        sigma_home_all = self.rep_tot[self.community] - self.strength
        stay = -resolution * sigma_home_all * self.strength / two_m2
        stay[ul[is_home]] = gain[is_home]

        cand_size = self.rep_size[c]
        home_size = self.rep_size[cu]
        blocked = (cand_size == 1) & (home_size == 1) & (c > cu)

        # Entries are sorted by (u_local, c); the first entry of a segment that
        # attains the segment maximum is therefore the smallest community id
        # among the maxima -- the hash path's lexsort tie-break, without the
        # lexsort.  Masked entries are -inf, which finite gains never are, so
        # the -inf test replaces a separately materialized feasibility mask.
        masked = np.where(is_home, -np.inf, gain)
        np.copyto(masked, -np.inf, where=blocked)
        starts = self.out_starts
        seg_max = np.maximum.reduceat(masked, starts)
        cond = masked == seg_max[self.out_seg]
        cond &= masked != -np.inf
        hit = np.where(cond, idx[:ul.size], np.int32(ul.size))
        first = np.minimum.reduceat(hit, starts)
        valid = first < ul.size
        sel = first[valid]
        usel = ul[sel]
        mu[usel] = gain[sel] - stay[usel]
        chat[usel] = c[sel]
        return mu, chat

    def modularity_outbox(self):
        """MODULARITY send half: home-community Out_Table weight to its owner."""
        if self.out_ul.size:
            home = self.out_c == self.community[self.out_ul]
            c_h, w_h = self.out_c[home], self.out_w[home]
        else:
            c_h = np.empty(0, dtype=np.int64)
            w_h = np.empty(0, dtype=np.float64)
        # Pregroup per destination: a handful of boolean scans beats the bus's
        # grouping sort (about 3x at 32k records over 2 ranks), and
        # within-destination arrival order (hence every downstream fold) is
        # unchanged.
        dest = self.partition.owner(c_h)
        parts = []
        for d in range(self.num_ranks):
            idx = np.flatnonzero(dest == d)
            parts.append((c_h[idx], w_h[idx]))
        return parts

    def contraction_outbox(
        self, new_ids: np.ndarray, new_partition: ModuloPartition
    ):
        """RECONSTRUCTION: ``(label fragment, superedge outbox)`` for one rank.

        The fragment renames the rank's owned vertices to next-level ids; the
        outbox turns each Out_Table entry into a superedge addressed to the
        owner of its destination supervertex (Fig. 3's all-to-all).
        """
        frag = np.searchsorted(new_ids, self.community)
        if self.out_ul.size:
            src_comm = frag[self.out_ul]
            dst_comm = np.searchsorted(new_ids, self.out_c)
        else:
            src_comm = np.empty(0, dtype=np.int64)
            dst_comm = np.empty(0, dtype=np.int64)
        return frag, (
            new_partition.owner(dst_comm), src_comm, dst_comm, self.out_w
        )


class VectorBackend(_Schedule):
    """Flat-array data-plane: :class:`_VectorRankState` under the shared schedule.

    Every kernel runs through ``Simulation.map_ranks`` (concurrently when
    the host has spare cores and the level is large enough); exchanges,
    collectives and profiler charges stay with the schedule on the driver
    thread.
    """

    name = "vector"

    def local_states(self, sim, partition, shards, config):
        """Rank states from in-edge shards ``(rank, v, u, w)``.

        The sanitizer's finite-weight contract runs on the driver thread
        first; the states are then built on the rank executor, which never
        touches the sanitizer.
        """
        if sim.sanitizer.enabled:
            for rank, _, _, w in shards:
                sim.sanitizer.check_finite(w, rank=rank, what="in-edge weights")
        return sim.map_ranks(
            lambda shard: _VectorRankState(partition, *shard),
            shards,
            work=sum(int(shard[3].size) for shard in shards),
        )
