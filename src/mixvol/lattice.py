"""Discrete isoperimetry on periodic lattice graphs.

A periodic lattice graph (PLG) is Z^d with translation-invariant adjacency
given by a symmetric set of primitive integer edge vectors.  The two discrete
boundary functionals — exiting edges and outside-adjacent vertices — are
minimized over n-cell sets by exact enumeration (small n) or simulated
annealing (larger n), and witnesses are compared against predicted continuum
limit shapes via a scaled Hausdorff diagnostic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import geom2d
from .errors import CapExceeded, NotPrimitive, RankDeficient
from .geom2d import Polygon

Cell = tuple[int, ...]

EDGE = "edge"
VERTEX = "vertex"


@dataclass(frozen=True)
class PLGGraph:
    """Symmetric, primitive, full-rank edge-vector set over Z^dimension."""

    dimension: int
    edge_vectors: tuple[Cell, ...]

    def neighbors(self, cell: Cell) -> list[Cell]:
        return [tuple(c + v for c, v in zip(cell, vec)) for vec in self.edge_vectors]


@dataclass(frozen=True)
class LatticeSet:
    """Finite set of lattice cells."""

    points: frozenset[Cell]

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = frozenset(tuple(int(c) for c in p) for p in points)
        if pts:
            d = len(next(iter(pts)))
            if any(len(p) != d for p in pts):
                raise ValueError("mixed dimensions in lattice set")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(sorted(self.points))

    def to_list(self) -> list[list[int]]:
        return [list(p) for p in sorted(self.points)]


def validate_plg(edge_vectors: Iterable[Sequence[int]]) -> PLGGraph:
    """Check primitivity and rank, apply symmetric closure, and freeze.

    Raises NotPrimitive for vectors with component gcd > 1 (e.g. (2, 0)) and
    RankDeficient when the vectors span less than the full space.
    """
    vecs = []
    for v in edge_vectors:
        t = tuple(int(c) for c in v)
        if any(c != v[i] for i, c in enumerate(t)):
            raise ValueError(f"edge vector must be integral: {v!r}")
        vecs.append(t)
    if not vecs:
        raise ValueError("need at least one edge vector")
    d = len(vecs[0])
    if d not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    closed: set[Cell] = set()
    for t in vecs:
        if len(t) != d:
            raise ValueError("mixed dimensions in edge vectors")
        g = math.gcd(*(abs(c) for c in t))
        if g == 0:
            raise ValueError("zero edge vector")
        if g > 1:
            raise NotPrimitive(f"edge vector {t} has gcd {g}")
        closed.add(t)
        closed.add(tuple(-c for c in t))
    if np.linalg.matrix_rank(np.array(sorted(closed))) < d:
        raise RankDeficient("edge vectors do not span the space")
    return PLGGraph(d, tuple(sorted(closed)))


def grid_graph(d: int = 2) -> PLGGraph:
    """Nearest-neighbor grid adjacency."""
    eye = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return validate_plg(eye)


def _cells(S) -> set[Cell]:
    if isinstance(S, LatticeSet):
        return set(S.points)
    return {tuple(int(c) for c in p) for p in S}


def edge_boundary(S, G: PLGGraph) -> int:
    """Number of adjacency edges with exactly one endpoint in S."""
    cells = _cells(S)
    return sum(w not in cells for u in cells for w in G.neighbors(u))


def vertex_boundary(S, G: PLGGraph) -> int:
    """Number of cells outside S adjacent to at least one cell of S."""
    cells = _cells(S)
    return len({w for u in cells for w in G.neighbors(u)} - cells)


def _boundary(S, G: PLGGraph, mode: str) -> int:
    if mode == EDGE:
        return edge_boundary(S, G)
    if mode == VERTEX:
        return vertex_boundary(S, G)
    raise ValueError(f"mode must be 'edge' or 'vertex', got {mode!r}")


class OptResult(NamedTuple):
    """Outcome of a discrete isoperimetric solve."""

    n: int
    mode: str
    minimum: int
    witness: LatticeSet
    exact: bool
    nodes_explored: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "minimum": self.minimum,
            "witness": self.witness.to_list(),
            "exact": self.exact,
            "nodes_explored": self.nodes_explored,
        }


class _BoundaryState:
    """Cell set with incrementally maintained boundary counts, on int keys.

    A cell (x, y) with |x|, |y| <= bound is the key (x + H) * S + (y + H),
    S = 2 * bound + 1, H = S // 2: distinct cells get distinct keys, keys sort
    as the cells do, and a neighbour is key + offset.  Every occupied or
    adjacent cell carries its number of occupied neighbors, so exiting edges
    = deg * #S - (internal count sum).  The vertex boundary is the outside
    layer (positive-count cells outside S): a list plus a key -> position
    index, which samples and swap-removes in O(1).  The counts and the layer
    serve the annealer alone; `solve_exact` borrows only the keys.
    """

    def __init__(self, G: PLGGraph, bound: int, cells: Iterable[Cell] = ()):
        self.S = 2 * bound + 1
        self.H = self.S // 2
        self.offsets = [vx * self.S + vy for vx, vy in G.edge_vectors]
        self.adjacent = frozenset(self.offsets)
        self.deg = len(self.offsets)
        self.cells: set[int] = set()
        self.cnt: dict[int, int] = {}
        self.layer: list[int] = []
        self.pos: dict[int, int] = {}
        self.internal = 0   # twice the number of fully-internal edges
        for c in cells:
            self.add(self.encode(c))

    def encode(self, cell: Cell) -> int:
        return (cell[0] + self.H) * self.S + cell[1] + self.H

    def decode(self, key: int) -> Cell:
        x, y = divmod(key, self.S)
        return (x - self.H, y - self.H)

    def boundary(self, mode: str) -> int:
        if mode == EDGE:
            return len(self.cells) * self.deg - self.internal
        if mode == VERTEX:
            return len(self.layer)
        raise ValueError(f"mode must be 'edge' or 'vertex', got {mode!r}")

    def _enter(self, w: int) -> None:
        self.pos[w] = len(self.layer)
        self.layer.append(w)

    def _leave(self, w: int) -> None:
        i = self.pos.pop(w)
        last = self.layer.pop()
        if last != w:
            self.layer[i] = last
            self.pos[last] = i

    def add(self, c: int) -> None:
        cells, cnt = self.cells, self.cnt
        if c in self.pos:
            self._leave(c)
        cells.add(c)
        own = 0
        for o in self.offsets:
            w = c + o
            if w in cells:
                own += 1
                cnt[w] += 1
            else:
                k = cnt.get(w, 0)
                if k == 0:
                    self._enter(w)
                cnt[w] = k + 1
        cnt[c] = own
        self.internal += 2 * own

    def remove(self, c: int) -> None:
        cells, cnt = self.cells, self.cnt
        own = cnt.pop(c)
        cells.discard(c)
        for o in self.offsets:
            w = c + o
            if w in cells:
                cnt[w] -= 1
            else:
                k = cnt[w] - 1
                if k == 0:
                    del cnt[w]
                    self._leave(w)
                else:
                    cnt[w] = k
        self.internal -= 2 * own
        if own > 0:
            cnt[c] = own
            self._enter(c)

    def edge_delta(self, rem: int, add: int) -> int:
        cnt = self.cnt
        return 2 * (cnt[rem] - cnt[add] + ((add - rem) in self.adjacent))

    def vertex_delta(self, rem: int, add: int) -> int:
        """add leaves the layer, rem joins it if it keeps a neighbour, and
        another cell changes only where it touches exactly one of rem and add."""
        cells, cnt, adjacent = self.cells, self.cnt, self.adjacent
        d = -1 + (cnt[rem] + ((add - rem) in adjacent) > 0)
        for o in self.offsets:
            w = rem + o
            if cnt.get(w) == 1 and w != add and w not in cells \
                    and (w - add) not in adjacent:
                d -= 1
            w = add + o
            # an uncounted w is no neighbour of rem: rem is in S, so each of
            # its neighbours has a count
            if w not in cnt:
                d += 1
        return d


def _reach(G: PLGGraph) -> int:
    """Largest coordinate step of any edge vector."""
    return max(abs(c) for v in G.edge_vectors for c in v)


def _canonical(cells: Iterable[Cell]) -> LatticeSet:
    """Translate so the lexicographically smallest cell sits at the origin."""
    cells = sorted(cells)
    m = cells[0]
    return LatticeSet(tuple(c - mc for c, mc in zip(cell, m)) for cell in cells)


def _line_bound(L: Sequence[int], n: int) -> int:
    """Least sum of integers a_v >= L_v with a_u * a_v >= n for every u != v.

    At most one a_v lies below s = ceil(sqrt(n)): two would multiply to at
    most (s - 1)^2 < n.  So the least sum is either sum(max(L_v, s)) or, for
    one v and one t in [L_v, s), t plus sum(max(L_u, ceil(n / t))) over the
    other u; ceil(n / t) >= s, which settles the pairs among those u too.
    """
    s = math.isqrt(n - 1) + 1
    least = sum(max(lo, s) for lo in L)
    for i, lo in enumerate(L):
        rest = L[:i] + L[i + 1:]
        for t in range(max(lo, 1), s):
            m = -(-n // t)
            least = min(least, t + sum(max(r, m) for r in rest))
    return least


def solve_exact(G: PLGGraph, n: int, mode: str, cap: int = 10) -> OptResult:
    """Global boundary minimum over n-cell sets, one per translation class.

    Enumerates connected sets only, via adjacency growth with the
    lexicographically smallest cell pinned at the origin (growth is confined
    to the lex-nonnegative half-space, so each translation class appears
    exactly once).  Minimizers of either functional are connected — merging
    distant clusters only removes boundary — so the restriction is lossless.

    The incumbent starts at the boundary of the greedy warm start, a value
    some n-set attains.  A branch is pruned only when a lower bound for every
    completion exceeds the incumbent, and a leaf that ties it is kept when it
    is the first or has a lex-smaller sorted cell set, so every minimizer is
    visited and the witness is the lex-smallest minimizer.  The bounds:

    - both modes: the boundary under the steepest possible per-cell decrease;
    - edge mode, the line-count bound.  For one generator v of each +-v pair,
      let L_v(S) count the lines parallel to v that meet S.
      (1) Such a line meeting T holds a last and a first cell of T along v,
      which exit along +v and -v (v is primitive, so consecutive lattice
      points of the line are one v apart): edge_boundary(T) >= 2 * sum L_v(T).
      (2) Non-parallel lines meet in at most one cell, so
      L_u(T) * L_v(T) >= n for u != v.
      (3) L_v(T) >= L_v(S) for T containing S, so 2 * `_line_bound(L(S), n)`
      bounds every completion T of S.  On Z^2 with S empty it is
      Harary–Harborth's 2 * ceil(2 * sqrt(n)).

    The search state is immutable ints passed down the recursion: cells are
    `_BoundaryState` keys, and S, the reached cells, the neighbour cells
    and each generator's lines are bit masks, so boundaries and line counts
    are `bit_count()`s.  Backtracking pops the cell path and undoes nothing
    else.

    Raises CapExceeded beyond the configured size cap.
    """
    if G.dimension != 2:
        raise ValueError("exact solver is implemented for dimension 2")
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the exact enumeration cap {cap}")

    best = _boundary(_greedy_init(n, mode), G, mode)
    best_witness: tuple[int, ...] | None = None
    # A connected n-set grown from the origin stays within (n - 1) * reach of
    # it, and its neighbours within n * reach.
    keys = _BoundaryState(G, n * _reach(G))
    origin, offsets, deg = keys.encode((0, 0)), keys.offsets, keys.deg
    # Steepest possible single-cell decrease of the running boundary: a cell
    # with k occupied neighbors changes the exiting-edge count by deg - 2k,
    # at worst -deg; the vertex boundary loses at most the added cell itself.
    edge = mode == EDGE
    max_drop = deg if edge else 1
    nodes = 0
    # Edge mode only: per generator (a, b), one bit per line parallel to it,
    # at x*b - y*a + span (equal exactly for the cells of one such line;
    # keyed cells have |x|, |y| <= H, so the index is nonnegative), so L_v is
    # the bit count of the OR over S.  bounds caches the line-count bound per
    # tuple of line counts.
    gens = [v for v in G.edge_vectors if v > (0, 0)] if edge else []
    span = 2 * _reach(G) * keys.H
    bounds: dict[tuple[int, ...], int] = {}
    # Per cell, built on its first visit: its neighbour mask, its
    # lex-nonnegative neighbours in offset order and their mask, its line bits.
    tables: dict[int, tuple[int, list[int], int, tuple[int, ...]]] = {}
    path: list[int] = []  # the cells of S above the current one

    def table(cell: int) -> tuple[int, list[int], int, tuple[int, ...]]:
        x, y = keys.decode(cell)
        near = [cell + o for o in offsets]
        fwd = [w for w in near if w >= origin]
        t = tables[cell] = (sum(1 << w for w in near), fwd,
                            sum(1 << w for w in fwd),
                            tuple(1 << (x * b - y * a + span) for a, b in gens))
        return t

    def grow(frontier: list[int], reached: int, mask: int, tally: int,
             lines: tuple[int, ...]) -> None:
        """Try each frontier cell on top of S = mask.  tally is twice the
        internal edges of S in edge mode, and the OR of its cells'
        neighbour masks in vertex mode."""
        nonlocal best, best_witness, nodes
        size = len(path) + 1
        while frontier:
            cell = frontier.pop()
            nb, fwd, fwd_mask, bits = tables.get(cell) or table(cell)
            nodes += 1
            grown = mask | 1 << cell
            if edge:
                t = tally + 2 * (mask & nb).bit_count()
                b = size * deg - t
            else:
                t = tally | nb
                b = (t & ~grown).bit_count()
            if size == n:
                if b <= best:
                    w = tuple(sorted([*path, cell]))
                    if b < best or best_witness is None or w < best_witness:
                        best, best_witness = b, w
                continue
            if b - (n - size) * max_drop > best:
                continue
            on = lines
            if gens:
                on = tuple(l | m for l, m in zip(lines, bits))
                L = tuple(l.bit_count() for l in on)
                lb = bounds.get(L)
                if lb is None:
                    lb = bounds[L] = 2 * _line_bound(L, n)
                if lb > best:
                    continue
            fresh = [w for w in fwd if not reached >> w & 1]
            path.append(cell)
            grow(frontier + fresh, reached | fwd_mask, grown, t, on)
            path.pop()

    grow([origin], 1 << origin, 0, 0, (0,) * len(gens))
    assert best_witness is not None
    return OptResult(n, mode, int(best),
                     _canonical(map(keys.decode, best_witness)), True, nodes)


# ---------------------------------------------------------------------------
# Simulated annealing


def _greedy_init(n: int, mode: str) -> list[Cell]:
    """Compact warm start: quasi-square fill (edge) or l1-ball fill (vertex)."""
    if mode == EDGE:
        w = math.ceil(math.sqrt(n))
        return [(i % w, i // w) for i in range(n)]
    cells: list[Cell] = []
    r = 0
    while len(cells) < n:
        shell = []
        for x in range(-r, r + 1):
            y = r - abs(x)
            shell.append((x, y))
            if y != 0:
                shell.append((x, -y))
        shell.sort(key=lambda c: (max(abs(c[0]), abs(c[1])), c))
        for c in shell:
            if len(cells) < n:
                cells.append(c)
        r += 1
    return cells


def solve_heuristic(G: PLGGraph, n: int, mode: str, seed: int = 0,
                    iterations: int = 100_000) -> OptResult:
    """Simulated annealing over single-cell relocations.

    Starts from a compact greedy configuration, relocates one cell per step
    onto a uniformly drawn cell of the outside layer, scores the move from the
    neighbour counts, applies it only if the Metropolis rule under geometric
    cooling accepts it, and returns the best configuration seen.  The reported
    minimum can therefore never undercut an exact optimum, and for sizes
    where the greedy start is already optimal it matches it.  The uniform
    draws are `rng.randrange`'s, taken through `rng.getrandbits` directly, so
    for a seed the witnesses equal those of the version that called
    `randrange`.
    """
    if G.dimension != 2:
        raise ValueError("heuristic solver is implemented for dimension 2")
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    steps = max(iterations, 0) if n > 1 else 0
    # The greedy start lies within ceil(sqrt(n)) of the origin, each step moves
    # a cell at most reach beyond the set, and a move looks 2 * reach beyond it.
    bound = math.ceil(math.sqrt(n)) + (steps + 2) * _reach(G)
    state = _BoundaryState(G, bound, _greedy_init(n, mode))
    current = best = state.boundary(mode)
    cell_list = sorted(state.cells)
    best_cells = tuple(cell_list)
    # the temperature cools geometrically from 2.0 to 0.01 over the steps
    cool = (0.01 / 2.0) ** (1.0 / max(1, steps - 1)) if steps else 1.0
    T = 2.0
    score = state.edge_delta if mode == EDGE else state.vertex_delta
    layer, getrandbits, kn = state.layer, rng.getrandbits, n.bit_length()
    for _ in range(steps):
        # Two rng.randrange draws, inlined as CPython makes them: getrandbits
        # of the bound's bit length until the result falls below the bound.
        # The layer is never empty for n >= 1 on an infinite lattice; on an
        # empty one getrandbits(0) returns 0, so this would spin forever where
        # randrange raised.
        m = len(layer)
        k = m.bit_length()
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        add = layer[i]
        j = getrandbits(kn)
        while j >= n:
            j = getrandbits(kn)
        rem = cell_list[j]
        T *= cool
        delta = score(rem, add)
        if delta <= 0 or rng.random() < math.exp(-delta / T):
            state.remove(rem)
            state.add(add)
            current += delta
            cell_list[j] = add
            if current < best:
                best = current
                best_cells = tuple(cell_list)
    return OptResult(n, mode, int(best),
                     _canonical(map(state.decode, best_cells)), False, steps)


# ---------------------------------------------------------------------------
# Convergence diagnostics


class DiagnosticRow(NamedTuple):
    n: int
    hausdorff: float
    ratio: float  # minimum / sqrt(n)


def convergence_diagnostic(results: Sequence[OptResult],
                           predicted: Polygon) -> list[DiagnosticRow]:
    """Scaled-witness distance to the predicted limit shape, per result.

    Witness cells are scaled by n^(-1/2), centroid-aligned with the predicted
    shape (normalized to unit area, no rotation search), and compared by
    symmetric Hausdorff distance: the larger of (witness points -> region)
    and (region samples -> witness points).  The one-sided point-to-region
    direction alone reports zero for any witness contained in the region and
    would hide the actual approach, so both directions are taken.  Needs at
    least two results to show a trend.
    """
    if len(results) < 2:
        raise ValueError("need at least two results for a convergence trend")
    shape = geom2d.unit_area_centered(predicted)
    samples = _region_samples(shape, spacing=0.01)
    sx, sy = samples[:, 0].copy(), samples[:, 1].copy()
    rows = []
    for res in results:
        pts = np.array(sorted(res.witness.points), dtype=float) / math.sqrt(res.n)
        pts = pts - pts.mean(axis=0)
        d1 = float(geom2d._distances(pts, shape.array).max())
        # Bit-identical to the norm of a (samples, pts, 2) difference array:
        # each squared distance is the same dx * dx + dy * dy (a sum over an
        # axis of length 2 is one `+`), a running minimum is exact in any
        # order, and a correctly rounded sqrt is monotone, so it may follow
        # the minimum.
        near = np.full(len(sx), np.inf)
        for px, py in pts:
            dx = sx - px
            dy = sy - py
            np.minimum(near, dx * dx + dy * dy, out=near)
        d2 = float(np.sqrt(near).max())
        rows.append(DiagnosticRow(res.n, max(d1, d2), res.minimum / math.sqrt(res.n)))
    return rows


def _region_samples(P: Polygon, spacing: float) -> np.ndarray:
    """Grid points inside P and points along its edges, `spacing` apart."""
    V, W = P.array, geom2d._shift(P.array, 1)
    lo, hi = V.min(0), V.max(0)
    mesh = np.meshgrid(*(np.arange(lo[a], hi[a] + spacing, spacing) for a in (0, 1)), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    E = W - V
    counts = np.maximum(2, np.ceil(np.hypot(E[:, 0], E[:, 1]) / spacing)).astype(int)
    ts = (np.linspace(0.0, 1.0, k)[:, None] for k in counts.tolist())
    return np.concatenate([pts[geom2d._points_in(pts, V)]]
                          + [a * (1 - t) + b * t for a, b, t in zip(V, W, ts)])


# ---------------------------------------------------------------------------
# Serialization


def plg_from_dict(d: dict) -> PLGGraph:
    edges = d.get("edges") if isinstance(d, dict) else None
    if not isinstance(edges, list) or not all(
            isinstance(v, list) and all(isinstance(c, (int, float)) for c in v) for v in edges):
        raise ValueError("a graph needs 'edges', a list of integer vectors")
    G = validate_plg([tuple(v) for v in edges])
    if "dim" in d and d["dim"] != G.dimension:
        raise ValueError("declared dimension does not match edge vectors")
    return G
