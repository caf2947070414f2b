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

_SAVE_EDGES = 2**14  # edge lines per write in save_edge_list, so its memory stays bounded


class EdgeListError(ValueError):
    """Raised when an edge-list stream cannot be parsed."""


def _unit_count(n_units: int) -> int:
    """n_units as an int, checked to be a whole number >= 1, not a bool, with
    n_units**2 < 2**63, so that every edge key i * n_units + j fits in int64."""
    if isinstance(n_units, (bool, np.bool_)):
        raise ValueError(f"n_units must be a whole number, not a bool, got {n_units}")
    if int(n_units) != n_units:
        raise ValueError(f"n_units must be a whole number, got {n_units}")
    n_units = int(n_units)
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units}")
    if n_units * n_units >= 2**63:
        raise ValueError(f"n_units must satisfy n_units**2 < 2**63, got {n_units}")
    return n_units


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
        n_units = _unit_count(n_units)
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
    """Draw a G(n, p) graph with edge probability ``density``, deterministic for a
    fixed seed: NumPy's default PCG64 generator draws one ``geometric(density)``
    gap to each next edge over the pairs (i, j), i < j, in ascending order, so
    chunking leaves the stream unchanged.  O(N + M) draws and O(M) memory for M
    edges (Batagelj and Brandes, Phys. Rev. E 71, 036113, 2005).  density=0 gives
    the empty graph, density=1 the complete graph."""
    n_units = _unit_count(n_units)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    n_pairs = n_units * (n_units - 1) // 2
    flat, left = [np.empty(0, dtype=np.int64)], n_pairs if density > 0 else 0
    while left:  # pairs after the last edge drawn
        mean = left * density
        # a gap past `left` ends the graph: clipped to left + 1 <= 2**62, `size` gaps sum < 2**63
        size = min(int(mean + 6 * mean**0.5) + 16, (2**63 - 1) // (left + 1))
        hit = np.minimum(rng.geometric(density, size), left + 1).cumsum()
        flat.append(n_pairs - 1 - left + hit[hit <= left])
        left = left - int(hit[-1]) if flat[-1].size == size else 0
    flat = np.concatenate(flat)
    rows = np.arange(n_units - 1, dtype=np.int64)
    start = rows * (n_units - 1) - rows * (rows - 1) // 2  # flat index of (i, i + 1)
    i = np.searchsorted(start, flat, side="right") - 1
    # ascending flat indices are sorted, unique, in-range pairs i < j
    return ContactGraph.__new__(ContactGraph)._store(n_units, i, flat - start[i] + i + 1)


def save_edge_list(graph: ContactGraph, sink: IO[str]) -> None:
    """Write ``n_units=N`` then one ``i j`` line per edge (i < j, sorted)."""
    sink.write(f"n_units={graph.n_units}\n")
    for lo in range(0, graph.n_edges, _SAVE_EDGES):
        sink.write("".join(f"{i} {j}\n" for i, j in graph.edges[lo:lo + _SAVE_EDGES].tolist()))


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
