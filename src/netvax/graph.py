"""Undirected contact networks: construction, random generation, edge-list I/O.

Units are integers ``0 .. n_units - 1``.  Edges are unordered pairs without
self-loops; duplicates collapse to a single edge.  Graphs are immutable once
built.
"""

from __future__ import annotations

from typing import IO, Iterable

import numpy as np

__all__ = [
    "ContactGraph",
    "EdgeListError",
    "erdos_renyi",
    "load_edge_list",
    "save_edge_list",
]

_SCAN_BLOCK = 2**16  # pairs per block of uniforms in erdos_renyi


class EdgeListError(ValueError):
    """Raised when an edge-list stream cannot be parsed."""


class ContactGraph:
    """Immutable undirected graph stored as a canonical edge array and the
    unit degrees; edges are deduplicated by sorting int64 keys
    ``i * n_units + j`` (i < j), so ``n_units**2 < 2**63`` is required.

    Parameters
    ----------
    n_units : number of units; must be >= 1.
    edges : iterable of (i, j) whole-number pairs, in any order and orientation.
    """

    def __init__(self, n_units: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        n_units = int(n_units)
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        if n_units * n_units >= 2**63:
            raise ValueError(f"n_units must satisfy n_units**2 < 2**63, got {n_units}")
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs of unit indices")
        if arr.dtype.kind not in "biu":
            arr = arr.astype(np.float64)
            if not np.all(np.isfinite(arr) & (arr == np.trunc(arr))):
                raise ValueError("edge endpoints must be whole numbers")
        if arr.size:
            if arr.min() < 0 or arr.max() >= n_units:
                raise ValueError("edge endpoint out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
        i, j = arr.astype(np.int64).T
        key = np.sort(np.minimum(i, j) * n_units + np.maximum(i, j))
        self._store(n_units, *np.divmod(key[np.diff(key, prepend=-1) != 0], n_units))

    def _store(self, n_units: int, lo: np.ndarray, hi: np.ndarray) -> ContactGraph:
        """Set and return the graph of sorted unique edges (lo, hi), lo < hi."""
        self.n_units = n_units
        self.edges = np.column_stack([lo, hi])  # (m, 2), i < j, lexicographically sorted
        self.edges.setflags(write=False)
        self.degree = np.bincount(np.concatenate([lo, hi]), minlength=n_units)
        self.degree.setflags(write=False)
        return self

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContactGraph):
            return NotImplemented
        return self.n_units == other.n_units and np.array_equal(self.edges, other.edges)

    def __repr__(self) -> str:
        return f"ContactGraph(n_units={self.n_units}, n_edges={self.n_edges})"


def erdos_renyi(n_units: int, density: float, seed: int) -> ContactGraph:
    """Draw a G(n, p) graph with edge probability ``density``.

    Deterministic for a fixed seed: uses NumPy's default PCG64 generator and
    scans unordered pairs in ascending (i, j) order, one uniform draw per
    pair.  density=0 gives the empty graph, density=1 the complete graph.

    Uniforms come in blocks of ``_SCAN_BLOCK`` pairs; PCG64 draws the same
    doubles in any blocking.  O(N^2) draws, O(block + M) memory for M edges.
    """
    n_units = int(n_units)
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    n_pairs = n_units * (n_units - 1) // 2
    hits = [np.empty(0, dtype=np.int64)]
    for offset in range(0, n_pairs, _SCAN_BLOCK):
        draws = rng.random(min(_SCAN_BLOCK, n_pairs - offset))
        hits.append(np.flatnonzero(draws < density) + offset)
    flat = np.concatenate(hits)
    rows = np.arange(n_units - 1, dtype=np.int64)
    start = rows * (n_units - 1) - rows * (rows - 1) // 2  # flat index of (i, i + 1)
    i = np.searchsorted(start, flat, side="right") - 1
    # ascending flat indices are sorted, unique, in-range pairs i < j
    return ContactGraph.__new__(ContactGraph)._store(n_units, i, flat - start[i] + i + 1)


def save_edge_list(graph: ContactGraph, sink: IO[str]) -> None:
    """Write ``n_units=N`` then one ``i j`` line per edge (i < j, sorted)."""
    sink.write(f"n_units={graph.n_units}\n")
    sink.write("".join(f"{i} {j}\n" for i, j in graph.edges.tolist()))


def load_edge_list(source: IO[str]) -> ContactGraph:
    """Parse the edge-list format written by :func:`save_edge_list`.

    Lines starting with ``#`` and blank lines are skipped.  Parse failures
    raise :class:`EdgeListError` naming the offending line number.
    """
    n_units = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n_units is None:
            if not line.startswith("n_units="):
                raise EdgeListError(f"missing n_units header at line {lineno}")
            try:
                n_units = int(line.split("=", 1)[1])
            except ValueError:
                raise EdgeListError(f"invalid n_units header at line {lineno}") from None
            if n_units < 1:
                raise EdgeListError(f"invalid n_units header at line {lineno}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"malformed edge at line {lineno}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"malformed edge at line {lineno}") from None
        if i == j:
            raise EdgeListError(f"self-loop at line {lineno}")
        if not (0 <= i < n_units and 0 <= j < n_units):
            raise EdgeListError(f"index out of range at line {lineno}")
        edges.append((i, j))
    if n_units is None:
        raise EdgeListError("missing n_units header at line 1")
    try:
        return ContactGraph(n_units, edges)
    except ValueError as exc:  # every edge is checked, so the header is at fault
        raise EdgeListError(f"invalid n_units header: {exc}") from None
