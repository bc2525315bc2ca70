"""Array-native FEOL stub geometry shared by every pairwise consumer.

Three independent modules used to re-derive the same source/sink
pairwise quantities in per-pair Python loops — the greedy proximity
attack (:mod:`repro.attacks.proximity`), the candidate/feature builder
(:mod:`repro.adversary.features`) and the flow matcher's cost vectors
(:mod:`repro.adversary.netflow`).  This module hoists that geometry
into one place and onto contiguous NumPy arrays:

* :func:`stub_arrays` exposes a :class:`FeolView`'s stub coordinates
  and attributes as flat arrays (cached on the view; the compiled
  split engine pre-fills them at split time for free),
* :func:`score_block` evaluates the hint-1/2 composite proximity score
  for a whole ``sinks x sources`` block as broadcast operations,
* :func:`candidate_order` ranks every source for a block of sinks the
  way both the greedy attack and the candidate builder require.

Everything here is **bit-identical** to the scalar reference helpers
(:func:`repro.attacks.hints.proximity_score`) — the attack pipeline's
golden metrics are pinned exactly, so "vectorized" must never mean
"close".  The one trap is ``hypot``: ``np.hypot`` disagrees with
``math.hypot`` by 1 ulp on ~0.6% of inputs (CPython ships its own
correctly-rounded implementation; the C library's differs), which is
why :func:`exact_hypot` routes every element through ``math.hypot``
itself instead of the ufunc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.phys.split import FeolView

#: Row tolerance for trunk alignment; mirrors ``repro.attacks.hints``.
ALIGN_TOL_UM = 0.75

#: Penalty for candidate pairs whose FEOL breakage modes disagree.
MODE_MISMATCH_PENALTY = 25.0

#: Penalty for trunk-type pairs on different rows (extra BEOL jog).
ROW_MISMATCH_PENALTY = 40.0


def exact_hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise Euclidean distance, bit-identical to ``math.hypot``.

    ``np.hypot`` is *not* reproducible against the scalar reference
    (1-ulp disagreements), and pinned attack metrics ride on exact
    score ordering — so the batched path must call ``math.hypot``
    per element.  ``map`` keeps the loop in C apart from the call
    itself; this is ~6x slower than the ufunc but still far faster
    than the per-pair Python loops it replaces.
    """
    dx = np.ascontiguousarray(dx, dtype=np.float64)
    dy = np.ascontiguousarray(dy, dtype=np.float64)
    flat = np.fromiter(
        map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()),
        dtype=np.float64,
        count=dx.size,
    )
    return flat.reshape(dx.shape)


@dataclass
class StubArrays:
    """Contiguous-array view of one FEOL view's stubs.

    ``owners`` is one shared vocabulary for source and sink owners so
    the self-pair exclusion (``src.owner != sink.owner``) is an integer
    compare; ``nets`` likewise backs the per-net candidate dedupe and
    the ground-truth labels.  Stub lists are emitted in ascending
    ``stub_id`` order by both split engines, so positional index order
    equals stub-id order on each side — the tie-break every scalar
    sort relied on.
    """

    source_x: np.ndarray
    source_y: np.ndarray
    source_is_tie: np.ndarray
    source_trunk_x: np.ndarray
    source_stub_id: np.ndarray
    source_owner: np.ndarray
    source_net: np.ndarray
    sink_x: np.ndarray
    sink_y: np.ndarray
    sink_has_escape: np.ndarray
    sink_trunk_x: np.ndarray
    sink_stub_id: np.ndarray
    sink_owner: np.ndarray
    sink_net: np.ndarray
    owners: list[str]
    nets: list[str]

    @property
    def num_sources(self) -> int:
        return int(self.source_x.shape[0])

    @property
    def num_sinks(self) -> int:
        return int(self.sink_x.shape[0])


def _vocab_id(vocab: dict[str, int], names: list[str], name: str) -> int:
    index = vocab.get(name)
    if index is None:
        index = len(names)
        vocab[name] = index
        names.append(name)
    return index


def _cache_token(view: "FeolView") -> tuple:
    """Cheap mutation fingerprint of a view's stub lists.

    The defenses (routing perturbation, wire lifting) rebuild or
    reassign the stub lists of an existing view; the cached arrays (and
    the candidate set memoized by
    :func:`repro.adversary.features.build_candidates`) must not survive
    that.  ``FeolView.__setattr__`` bumps a version
    counter on every stub-list reassignment, and the lengths catch
    in-place appends — deterministic invalidation, no reliance on
    object identity (which the allocator can recycle).  In-place
    element replacement of an existing list is the one unsupported
    pattern; nothing in the tree does it.
    """
    return (
        getattr(view, "_stub_version", 0),
        len(view.source_stubs),
        len(view.sink_stubs),
    )


def stub_arrays(view: "FeolView") -> StubArrays:
    """The cached :class:`StubArrays` of *view* (built on first use)."""
    cached = getattr(view, "_stub_arrays", None)
    token = _cache_token(view)
    if cached is not None and cached[0] == token:
        return cached[1]
    owner_vocab: dict[str, int] = {}
    owners: list[str] = []
    net_vocab: dict[str, int] = {}
    nets: list[str] = []
    sources = view.source_stubs
    sinks = view.sink_stubs
    arrays = StubArrays(
        source_x=np.array([s.x for s in sources], dtype=np.float64),
        source_y=np.array([s.y for s in sources], dtype=np.float64),
        source_is_tie=np.array([s.is_tie for s in sources], dtype=bool),
        source_trunk_x=np.array(
            [s.trunk_axis == "x" for s in sources], dtype=bool
        ),
        source_stub_id=np.array(
            [s.stub_id for s in sources], dtype=np.intp
        ),
        source_owner=np.array(
            [_vocab_id(owner_vocab, owners, s.owner) for s in sources],
            dtype=np.intp,
        ),
        source_net=np.array(
            [_vocab_id(net_vocab, nets, s.net) for s in sources],
            dtype=np.intp,
        ),
        sink_x=np.array([s.x for s in sinks], dtype=np.float64),
        sink_y=np.array([s.y for s in sinks], dtype=np.float64),
        sink_has_escape=np.array(
            [s.has_escape for s in sinks], dtype=bool
        ),
        sink_trunk_x=np.array(
            [s.trunk_axis == "x" for s in sinks], dtype=bool
        ),
        sink_stub_id=np.array([s.stub_id for s in sinks], dtype=np.intp),
        sink_owner=np.array(
            [_vocab_id(owner_vocab, owners, s.owner) for s in sinks],
            dtype=np.intp,
        ),
        sink_net=np.array(
            [_vocab_id(net_vocab, nets, s.net) for s in sinks],
            dtype=np.intp,
        ),
        owners=owners,
        nets=nets,
    )
    view._stub_arrays = (token, arrays)
    return arrays


@dataclass
class ScoreBlock:
    """Pairwise geometry of one block of sinks against all sources.

    All matrices are ``(block_sinks, num_sources)``; ``score`` is
    bit-identical to :func:`repro.attacks.hints.proximity_score` per
    element.
    """

    sink_start: int
    dx: np.ndarray
    dy: np.ndarray
    dist: np.ndarray
    score: np.ndarray


def score_block(
    arrays: StubArrays, start: int = 0, stop: int | None = None
) -> ScoreBlock:
    """Hint-1/2 proximity scores for sinks ``start:stop`` x all sources."""
    stop = arrays.num_sinks if stop is None else stop
    sx = arrays.source_x[None, :]
    sy = arrays.source_y[None, :]
    kx = arrays.sink_x[start:stop, None]
    ky = arrays.sink_y[start:stop, None]
    dx = np.abs(sx - kx)
    dy = np.abs(sy - ky)
    dist = exact_hypot(dx, dy)
    trunk_pair = arrays.source_trunk_x[None, :] & arrays.sink_trunk_x[
        start:stop, None
    ]
    mode_mismatch = arrays.source_trunk_x[None, :] != arrays.sink_trunk_x[
        start:stop, None
    ]
    # Branch nesting mirrors proximity_score exactly: aligned trunk
    # pairs are scored by trunk length alone, misaligned trunk pairs
    # and mode mismatches add their penalty to the euclidean distance.
    score = np.where(
        trunk_pair,
        np.where(dy <= ALIGN_TOL_UM, dx, ROW_MISMATCH_PENALTY + dist),
        np.where(mode_mismatch, MODE_MISMATCH_PENALTY + dist, dist),
    )
    return ScoreBlock(start, dx, dy, dist, score)


def score_pairs(
    arrays: StubArrays, sink_index: np.ndarray, source_index: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(dx, dy, dist, score)`` for explicit ``(sink, source)`` pairs.

    Same formulas as :func:`score_block` but evaluated only on the
    selected pairs — the candidate builder works on ``sinks x K``
    subsets, not full matrices.
    """
    dx = np.abs(arrays.source_x[source_index] - arrays.sink_x[sink_index])
    dy = np.abs(arrays.source_y[source_index] - arrays.sink_y[sink_index])
    dist = exact_hypot(dx, dy)
    trunk_pair = (
        arrays.source_trunk_x[source_index]
        & arrays.sink_trunk_x[sink_index]
    )
    mode_mismatch = (
        arrays.source_trunk_x[source_index]
        != arrays.sink_trunk_x[sink_index]
    )
    score = np.where(
        trunk_pair,
        np.where(dy <= ALIGN_TOL_UM, dx, ROW_MISMATCH_PENALTY + dist),
        np.where(mode_mismatch, MODE_MISMATCH_PENALTY + dist, dist),
    )
    return dx, dy, dist, score


#: Soft cap on one score block's footprint (~24 MB of float64 at the
#: three matrices a block carries); keeps huge views out of swap.
_BLOCK_ELEMENTS = 1_000_000


def block_size_for(arrays: StubArrays) -> int:
    """Sinks per block so one block stays within the footprint cap."""
    if arrays.num_sources == 0:
        return max(1, arrays.num_sinks)
    return max(1, _BLOCK_ELEMENTS // arrays.num_sources)


def candidate_order(block: ScoreBlock) -> np.ndarray:
    """Per-sink source ranking of one score block.

    Row *i* lists source indices by ascending score; equal scores keep
    source-index order, which equals stub-id order (stub lists are
    emitted id-ascending) — exactly the ``(score, stub_id)`` ordering
    of the scalar ``sorted`` calls this replaces.  Owner-equal pairs
    are *not* filtered here; consumers skip them while walking a row,
    matching the generator-level filter of the reference loops.
    """
    return np.argsort(block.score, axis=1, kind="stable")
