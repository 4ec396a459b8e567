import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_geom2d import _polygon_distance_reference
from mixvol import geom2d, isoperimetric, lattice, structuring
from mixvol.errors import CapExceeded, NotPrimitive, RankDeficient
from mixvol.geom2d import ConvexPolygon
from mixvol.lattice import (EDGE, LatticeSet, OptResult, PLGGraph, _boundary, _canonical,
                            _reach)


GRID = lattice.grid_graph(2)
KING = lattice.validate_plg([(1, 0), (0, 1), (1, 1), (1, -1)])
TRIANGULAR = lattice.validate_plg([(1, 0), (0, 1), (1, 1)])
SKEW = lattice.validate_plg([(1, 0), (0, 1), (1, 2)])  # reach 2

EDGE_MINIMA = (4, 6, 8, 8, 10, 10, 12, 12, 12,  # 2*ceil(2*sqrt(n)), n = 1..16
               14, 14, 14, 16, 16, 16, 16)


def enumerate_polyominoes(n):
    """All fixed polyominoes with n cells, canonicalized by translation.

    Deliberately naive (breadth-first growth + set dedup); serves as an
    independent oracle for the optimized solver.
    """
    def canon(cells):
        m = min(cells)
        return frozenset((x - m[0], y - m[1]) for x, y in cells)

    layer = {canon({(0, 0)})}
    for _ in range(n - 1):
        nxt = set()
        for cells in layer:
            for (x, y) in cells:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    c = (x + dx, y + dy)
                    if c not in cells:
                        nxt.add(canon(set(cells) | {c}))
        layer = nxt
    return layer


def _solve_full(G: PLGGraph, n: int, mode: str) -> OptResult:
    """All n-subsets of a window, connected or not, via bitmask scanning.

    Window sufficiency: any set with an empty column or row strictly inside
    its bounding box can be compressed across the gap; for reach-R vectors
    new adjacencies appear only once the gap drops below R, and they never
    increase either boundary functional, so some minimizer fits in an
    (n*R) x (n*R) box.
    """
    if n > 6:
        raise CapExceeded("full search is limited to n <= 6")
    _boundary((), G, mode)
    if n == 1:
        cells = LatticeSet([(0,) * G.dimension])
        return OptResult(n, mode, _boundary(cells, G, mode), cells, True, 1)
    reach = _reach(G)
    W = n * reach
    stride = W + 2 * reach
    positions = [(x, y) for y in range(W) for x in range(W)]
    masks = [1 << ((y + reach) * stride + x + reach) for x, y in positions]
    shifts = [v[1] * stride + v[0] for v in G.edge_vectors]

    def boundary_of(mask: int) -> int:
        # mask & ~shift(mask, v) marks cells of S whose v-neighbor is outside;
        # over the symmetric vector set each exiting edge is counted once.
        if mode == EDGE:
            total = 0
            for s in shifts:
                moved = mask << s if s >= 0 else mask >> -s
                total += (mask & ~moved).bit_count()
            return total
        nb = 0
        for s in shifts:
            nb |= mask << s if s >= 0 else mask >> -s
        return (nb & ~mask).bit_count()

    best = math.inf
    best_mask = 0
    count = 0
    for combo in combinations(masks, n):
        m = 0
        for piece in combo:
            m |= piece
        count += 1
        b = boundary_of(m)
        if b < best:
            best = b
            best_mask = m
    cells = [p for p, bit in zip(positions, masks) if best_mask & bit]
    return OptResult(n, mode, int(best), _canonical(cells), True, count)


# ---------------------------------------------------------------------------
# graph validation


def test_validate_grid():
    G = lattice.validate_plg([(1, 0), (0, 1)])
    assert G.dimension == 2
    assert set(G.edge_vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_validate_symmetric_closure():
    G = lattice.validate_plg([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
    assert (1, 1) in G.edge_vectors and (-1, -1) in G.edge_vectors
    assert len(G.edge_vectors) == 6


def test_validate_rejects_imprimitive():
    with pytest.raises(NotPrimitive):
        lattice.validate_plg([(2, 0), (0, 1)])


def test_validate_rejects_rank_deficient():
    with pytest.raises(RankDeficient):
        lattice.validate_plg([(1, 0)])


def test_validate_rejects_zero_vector():
    with pytest.raises((NotPrimitive, ValueError)):
        lattice.validate_plg([(0, 0), (0, 1)])


# ---------------------------------------------------------------------------
# boundary counters


def test_single_cell_boundaries():
    S = LatticeSet(((0, 0),))
    assert lattice.edge_boundary(S, GRID) == 4
    assert lattice.vertex_boundary(S, GRID) == 4


def test_block_boundaries():
    S = LatticeSet(((0, 0), (1, 0), (0, 1), (1, 1)))
    assert lattice.edge_boundary(S, GRID) == 8
    assert lattice.vertex_boundary(S, GRID) == 8


def test_domino_edge_boundary():
    assert lattice.edge_boundary([(0, 0), (1, 0)], GRID) == 6


def test_plus_pentomino_vertex_boundary():
    S = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    assert lattice.vertex_boundary(S, GRID) == 8
    assert lattice.edge_boundary(S, GRID) == 12


def test_counters_accept_iterables():
    assert lattice.edge_boundary({(3, 7)}, GRID) == 4


def test_counters_in_3d():
    G3 = lattice.grid_graph(3)
    assert lattice.edge_boundary([(0, 0, 0)], G3) == 6
    assert lattice.vertex_boundary([(0, 0, 0)], G3) == 6
    assert lattice.edge_boundary([(0, 0, 0), (1, 0, 0)], G3) == 10


def test_translation_invariance():
    rng = np.random.default_rng(51)
    for _ in range(20):
        cells = {(0, 0)}
        while len(cells) < 12:
            x, y = list(cells)[int(rng.integers(len(cells)))]
            cells.add((x + int(rng.integers(-1, 2)), y + int(rng.integers(-1, 2))))
        u = tuple(int(v) for v in rng.integers(-50, 50, 2))
        shifted = [(x + u[0], y + u[1]) for x, y in cells]
        assert lattice.edge_boundary(cells, GRID) == \
            lattice.edge_boundary(shifted, GRID)
        assert lattice.vertex_boundary(cells, GRID) == \
            lattice.vertex_boundary(shifted, GRID)


def test_boundary_upper_bounds():
    rng = np.random.default_rng(52)
    for _ in range(10):
        cells = {(int(x), int(y)) for x, y in rng.integers(-4, 5, size=(15, 2))}
        eb = lattice.edge_boundary(cells, GRID)
        vb = lattice.vertex_boundary(cells, GRID)
        assert eb <= len(cells) * 4
        assert vb <= eb


# ---------------------------------------------------------------------------
# lattice sets


def test_lattice_set_basics():
    S = LatticeSet(((1, 2), (0, 0), (1, 2)))
    assert len(S) == 2
    assert list(S) == [(0, 0), (1, 2)]
    assert S.to_list() == [[0, 0], [1, 2]]


# ---------------------------------------------------------------------------
# exact solver


def test_exact_edge_matches_closed_form():
    for n in range(1, 17):
        res = lattice.solve_exact(GRID, n, "edge", cap=16)
        assert res.exact
        assert res.minimum == EDGE_MINIMA[n - 1]
        assert res.minimum == 2 * math.ceil(2 * math.sqrt(n))
        assert len(res.witness) == n
        assert lattice.edge_boundary(res.witness, GRID) == res.minimum


def test_exact_vertex_matches_independent_enumeration():
    for n in range(1, 10):
        res = lattice.solve_exact(GRID, n, "vertex")
        oracle = min(lattice.vertex_boundary(p, GRID)
                     for p in enumerate_polyominoes(n))
        assert res.minimum == oracle
        assert lattice.vertex_boundary(res.witness, GRID) == res.minimum


def test_exact_edge_matches_independent_enumeration():
    for n in range(1, 8):
        oracle = min(lattice.edge_boundary(p, GRID)
                     for p in enumerate_polyominoes(n))
        assert lattice.solve_exact(GRID, n, "edge").minimum == oracle


def test_exact_vertex_n5_plus_witness():
    res = lattice.solve_exact(GRID, 5, "vertex")
    assert res.minimum == 8
    assert res.witness.to_list() == [[0, 0], [1, -1], [1, 0], [1, 1], [2, 0]]


def test_full_search_agrees_small_n():
    # unrestricted subset enumeration validates the connectivity restriction
    for n in (2, 3, 4):
        for mode in ("edge", "vertex"):
            a = lattice.solve_exact(GRID, n, mode)
            b = _solve_full(GRID, n, mode)
            assert a.minimum == b.minimum


def test_full_search_cap():
    with pytest.raises(CapExceeded):
        _solve_full(GRID, 7, "edge")


def test_exact_cap():
    with pytest.raises(CapExceeded):
        lattice.solve_exact(GRID, 11, "edge")


def test_exact_rejects_3d():
    with pytest.raises(ValueError):
        lattice.solve_exact(lattice.grid_graph(3), 3, "edge")


def test_solvers_reject_unknown_mode():
    """The boundary state checks the mode before any search step; the size
    cap is checked before that."""
    with pytest.raises(ValueError, match="mode"):
        lattice.solve_exact(GRID, 4, "diagonal")
    for n in (1, 9):
        with pytest.raises(ValueError, match="mode"):
            lattice.solve_heuristic(GRID, n, "diagonal")
    with pytest.raises(CapExceeded):
        lattice.solve_exact(GRID, 11, "diagonal")


def test_opt_result_to_dict():
    res = lattice.solve_exact(GRID, 4, "edge")
    d = res.to_dict()
    assert d["n"] == 4 and d["mode"] == "edge" and d["minimum"] == 8
    assert d["exact"] is True
    assert sorted(map(tuple, d["witness"])) == list(res.witness)


class _TupleBoundaryState:
    """The tuple-keyed state solve_exact used before cells became int keys,
    kept as its reference."""

    def __init__(self, G):
        self.G = G
        self.deg = len(G.edge_vectors)
        self.cells = set()
        self.cnt = {}
        self.internal = 0
        self.outside = 0

    def boundary(self, mode):
        return len(self.cells) * self.deg - self.internal if mode == "edge" \
            else self.outside

    def add(self, cell):
        if self.cnt.get(cell, 0) > 0:
            self.outside -= 1
        self.cells.add(cell)
        own = 0
        for w in self.G.neighbors(cell):
            if w in self.cells:
                own += 1
                self.cnt[w] += 1
                self.internal += 2
            else:
                prev = self.cnt.get(w, 0)
                if prev == 0:
                    self.outside += 1
                self.cnt[w] = prev + 1
        self.cnt[cell] = own

    def remove(self, cell):
        own = self.cnt.pop(cell)
        self.cells.discard(cell)
        for w in self.G.neighbors(cell):
            if w in self.cells:
                self.cnt[w] -= 1
                self.internal -= 2
            else:
                k = self.cnt[w] - 1
                if k == 0:
                    del self.cnt[w]
                    self.outside -= 1
                else:
                    self.cnt[w] = k
        if own > 0:
            self.cnt[cell] = own
            self.outside += 1


def _lex_positive(cell):
    for c in cell:
        if c != 0:
            return c > 0
    return True


def reference_solve_exact(G, n, mode):
    """solve_exact on tuple cells, as it was before the int-keyed state."""
    state = _TupleBoundaryState(G)
    max_drop = state.deg if mode == "edge" else 1
    best, best_witness, nodes = math.inf, None, 0

    def grow(frontier, reached):
        nonlocal best, best_witness, nodes
        while frontier:
            cell = frontier.pop()
            state.add(cell)
            nodes += 1
            size = len(state.cells)
            b = state.boundary(mode)
            if size == n:
                if b < best or (b == best and best_witness is not None
                                and tuple(sorted(state.cells)) < best_witness):
                    best = b
                    best_witness = tuple(sorted(state.cells))
            elif b - (n - size) * max_drop <= best:
                fresh = [w for w in G.neighbors(cell)
                         if _lex_positive(w) and w not in reached]
                grow(frontier + fresh, reached | set(fresh))
            state.remove(cell)

    grow([(0, 0)], {(0, 0)})
    return OptResult(n, mode, int(best), lattice._canonical(best_witness), True, nodes)


@pytest.mark.parametrize("G, mode, n_max", [
    (GRID, "edge", 9), (GRID, "vertex", 9), (KING, "vertex", 7),
    (TRIANGULAR, "edge", 8), (SKEW, "edge", 6), (SKEW, "vertex", 6)],
    ids=["z2-edge", "z2-vertex", "king-vertex", "triangular-edge",
         "skew-edge", "skew-vertex"])
def test_exact_matches_tuple_reference(G, mode, n_max):
    for n in range(1, n_max + 1):
        got = lattice.solve_exact(G, n, mode)
        want = reference_solve_exact(G, n, mode)
        # the same minimum and witness; the certified bounds only prune more
        assert {**got.to_dict(), "nodes_explored": 0} == \
            {**want.to_dict(), "nodes_explored": 0}
        assert got.nodes_explored <= want.nodes_explored


class _CountState(lattice._BoundaryState):
    """`_BoundaryState` whose outside layer is a plain count, `outside`: the
    exact search reads only its size and never samples it.  A cell outside S
    has a count only while it is in the layer, so `add` reads `c in cnt`."""

    def __init__(self, G: PLGGraph, bound: int):
        self.outside = 0
        super().__init__(G, bound)

    def boundary(self, mode: str) -> int:
        return self.outside if mode == lattice.VERTEX else super().boundary(mode)

    def add(self, c: int) -> None:
        cells, cnt = self.cells, self.cnt
        outside = self.outside - (c in cnt)
        cells.add(c)
        own = 0
        for o in self.offsets:
            w = c + o
            if w in cells:
                own += 1
                cnt[w] += 1
            else:
                k = cnt.get(w, 0)
                outside += k == 0
                cnt[w] = k + 1
        cnt[c] = own
        self.internal += 2 * own
        self.outside = outside

    def remove(self, c: int) -> None:
        cells, cnt = self.cells, self.cnt
        own = cnt.pop(c)
        cells.discard(c)
        outside = self.outside
        for o in self.offsets:
            w = c + o
            if w in cells:
                cnt[w] -= 1
            else:
                k = cnt[w] - 1
                if k == 0:
                    del cnt[w]
                    outside -= 1
                else:
                    cnt[w] = k
        self.internal -= 2 * own
        if own > 0:
            cnt[c] = own
            outside += 1
        self.outside = outside


def _count_state_solve_exact_reference(G, n, mode, cap=10):
    """solve_exact as it was on the dict-keyed `_CountState`, which it
    mutated on the way down and undid on the way back; kept as the
    reference for every field of the result, `nodes_explored` included."""
    if G.dimension != 2:
        raise ValueError("exact solver is implemented for dimension 2")
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the exact enumeration cap {cap}")

    best = _boundary(lattice._greedy_init(n, mode), G, mode)
    best_witness = None
    state = _CountState(G, n * _reach(G))
    origin = state.encode((0, 0))
    max_drop = state.deg if mode == EDGE else 1
    nodes = 0
    gens = [v for v in G.edge_vectors if v > (0, 0)] if mode == EDGE else []
    lines = [{} for _ in gens]
    ids = {}
    bounds = {}

    def enter_lines(cell):
        t = ids.get(cell)
        if t is None:
            x, y = state.decode(cell)
            t = ids[cell] = tuple(x * vb - y * va for va, vb in gens)
        for on, i in zip(lines, t):
            on[i] = on.get(i, 0) + 1

    def leave_lines(cell):
        for on, i in zip(lines, ids[cell]):
            k = on[i] - 1
            if k:
                on[i] = k
            else:
                del on[i]

    def line_bound():
        L = tuple(map(len, lines))
        lb = bounds.get(L)
        if lb is None:
            lb = bounds[L] = 2 * lattice._line_bound(L, n)
        return lb

    def grow(frontier, reached):
        nonlocal best, best_witness, nodes
        while frontier:
            cell = frontier.pop()
            state.add(cell)
            if gens:
                enter_lines(cell)
            nodes += 1
            size = len(state.cells)
            b = state.boundary(mode)
            if size == n:
                if b < best or (b == best and (
                        best_witness is None
                        or tuple(sorted(state.cells)) < best_witness)):
                    best = b
                    best_witness = tuple(sorted(state.cells))
            elif b - (n - size) * max_drop <= best and (
                    not gens or line_bound() <= best):
                fresh = [w for w in (cell + o for o in state.offsets)
                         if w >= origin and w not in reached]  # lex-nonnegative
                grow(frontier + fresh, reached | set(fresh))
            state.remove(cell)
            if gens:
                leave_lines(cell)

    grow([origin], {origin})
    assert best_witness is not None
    return OptResult(n, mode, int(best),
                     _canonical(map(state.decode, best_witness)), True, nodes)


@pytest.mark.parametrize("G, mode, n_max", [
    (GRID, "edge", 9), (GRID, "vertex", 9), (KING, "edge", 7), (KING, "vertex", 7),
    (TRIANGULAR, "edge", 8), (TRIANGULAR, "vertex", 8), (SKEW, "edge", 6),
    (SKEW, "vertex", 6)],
    ids=["z2-edge", "z2-vertex", "king-edge", "king-vertex", "triangular-edge",
         "triangular-vertex", "skew-edge", "skew-vertex"])
def test_exact_matches_count_state_reference(G, mode, n_max):
    """The whole result, nodes_explored included: the same search."""
    for n in range(1, n_max + 1):
        assert lattice.solve_exact(G, n, mode) == \
            _count_state_solve_exact_reference(G, n, mode)


def _line_counts(cells, G):
    """L_v: the lines parallel to v that meet the cells, one v per +-v pair."""
    return tuple(len({x * b - y * a for x, y in cells})
                 for a, b in G.edge_vectors if (a, b) > (0, 0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([GRID, KING, TRIANGULAR, SKEW]),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=1, max_size=30, unique=True),
       st.data())
def test_line_bound_holds_for_every_superset(G, cells, data):
    """2 * _line_bound(L(S), |T|) <= edge_boundary(T) for S inside T."""
    k = data.draw(st.integers(0, len(cells)))
    S = data.draw(st.permutations(cells))[:k]
    bound = lattice._line_bound(_line_counts(S, G), len(cells))
    assert 2 * bound <= lattice.edge_boundary(cells, G)


def test_line_bound_on_z2_is_harary_harborth():
    for n in range(1, 401):
        assert 2 * lattice._line_bound((0, 0), n) == 2 * math.ceil(2 * math.sqrt(n))


@pytest.mark.parametrize("bound", [1, 2, 7, 40, 100_002])
def test_cell_keys_round_trip_and_sort_like_tuples(bound):
    state = lattice._BoundaryState(GRID, bound)
    edge = (-bound, -bound + 1, -1, 0, 1, bound - 1, bound)
    cells = sorted({(x, y) for x in edge for y in edge if max(abs(x), abs(y)) <= bound})
    keys = [state.encode(c) for c in cells]
    assert [state.decode(k) for k in keys] == cells
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    c = (-bound + 1, 0)  # a neighbour of an interior cell is key + offset
    assert [state.decode(state.encode(c) + o) for o in state.offsets] == \
        GRID.neighbors(c)


# ---------------------------------------------------------------------------
# heuristic solver


def test_heuristic_small_matches_exact():
    res = lattice.solve_heuristic(GRID, 4, "edge", seed=1)
    assert not res.exact
    assert res.minimum == 8
    assert lattice.edge_boundary(res.witness, GRID) == 8


def test_heuristic_never_beats_exact_and_mostly_ties():
    for G, ns in ((GRID, (2, 4, 5, 7, 9, 10)), (KING, range(2, 9)),
                  (TRIANGULAR, range(2, 9))):
        hits = 0
        runs = 0
        for n in ns:
            for mode in ("edge", "vertex"):
                ex = lattice.solve_exact(G, n, mode)
                for seed in (0, 1):
                    h = lattice.solve_heuristic(G, n, mode, seed=seed,
                                                iterations=5000)
                    assert h.minimum >= ex.minimum
                    hits += h.minimum == ex.minimum
                    runs += 1
        assert hits >= 0.9 * runs


def test_heuristic_large_square():
    res = lattice.solve_heuristic(GRID, 100, "edge", seed=1)
    assert res.minimum == 40  # 2*ceil(2*sqrt(100))


def test_heuristic_vertex_near_ball_truncation():
    # reference: first 100 cells in (l1 distance, lex) order
    cells = sorted(
        ((x, y) for x in range(-8, 9) for y in range(-8, 9)),
        key=lambda c: (abs(c[0]) + abs(c[1]), c))[:100]
    ref = lattice.vertex_boundary(cells, GRID)
    res = lattice.solve_heuristic(GRID, 100, "vertex", seed=0)
    assert abs(res.minimum - ref) <= 0.05 * ref


def test_heuristic_deterministic():
    for G, mode in ((GRID, "edge"), (GRID, "vertex"), (KING, "edge"), (KING, "vertex")):
        a = lattice.solve_heuristic(G, 30, mode, seed=7, iterations=3000)
        b = lattice.solve_heuristic(G, 30, mode, seed=7, iterations=3000)
        assert a.minimum == b.minimum
        assert list(a.witness) == list(b.witness)


@pytest.mark.parametrize("G", [KING, TRIANGULAR], ids=["king", "triangular"])
@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_heuristic_off_z2(G, mode):
    for n, seed in ((7, 0), (40, 1), (90, 2)):
        res = lattice.solve_heuristic(G, n, mode, seed=seed, iterations=20_000)
        assert len(res.witness) == n
        assert res.nodes_explored == 20_000
        assert lattice._boundary(res.witness, G, mode) == res.minimum
        if n == 7:
            assert res.minimum >= lattice.solve_exact(G, n, mode).minimum


def reference_solve_heuristic(G, n, mode, seed=0, iterations=100_000,
                              t_start=2.0, t_end=0.01):
    """solve_heuristic as it drew each move with two `rng.randrange` calls and
    scored it with the state's `edge_delta` or `vertex_delta`, by mode."""
    rng = random.Random(seed)
    steps = max(iterations, 0) if n > 1 else 0
    bound = math.ceil(math.sqrt(n)) + (steps + 2) * _reach(G)
    state = lattice._BoundaryState(G, bound, lattice._greedy_init(n, mode))
    current = best = state.boundary(mode)
    cell_list = sorted(state.cells)
    best_cells = tuple(cell_list)
    cool = (t_end / t_start) ** (1.0 / max(1, steps - 1)) if steps else 1.0
    T = t_start
    for _ in range(steps):
        add = state.layer[rng.randrange(len(state.layer))]
        j = rng.randrange(n)
        rem = cell_list[j]
        T *= cool
        delta = state.edge_delta(rem, add) if mode == EDGE else state.vertex_delta(rem, add)
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


def _power_of_two_layer_n(G, mode):
    """Least n >= 3 whose greedy start has an outside layer of 2^k cells, the
    size at which a draw below it is rejected most often."""
    for n in range(3, 30):
        m = len(lattice._BoundaryState(G, 50, lattice._greedy_init(n, mode)).layer)
        if m & (m - 1) == 0:
            return n
    raise AssertionError("no greedy start with a power-of-two layer")


@pytest.mark.parametrize("G", [GRID, KING, TRIANGULAR], ids=["z2", "king", "triangular"])
@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_heuristic_draws_match_randrange_reference(G, mode):
    for n in (1, 2, _power_of_two_layer_n(G, mode), 40, 140):
        for seed in (0, 1):
            got = lattice.solve_heuristic(G, n, mode, seed=seed, iterations=3000)
            want = reference_solve_heuristic(G, n, mode, seed=seed, iterations=3000)
            assert got.to_dict() == want.to_dict()
            assert got.nodes_explored == (3000 if n > 1 else 0)


def _layer_oracle(cells, G):
    """Cells outside S with at least one neighbour in S, from the graph."""
    return {w for c in cells for w in G.neighbors(c)} - set(cells)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from([GRID, KING, TRIANGULAR, SKEW]),
       st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=20),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                min_size=1, max_size=25))
def test_scored_delta_matches_recount(G, cells, moves):
    bound = 3 + (len(moves) + 2) * lattice._reach(G)
    state = lattice._BoundaryState(G, bound, sorted(cells))
    for i, j in moves:
        rem = sorted(state.cells)[i % len(state.cells)]
        add = state.layer[j % len(state.layer)]
        before = [state.decode(k) for k in state.cells]
        predicted = {"edge": state.edge_delta(rem, add), "vertex": state.vertex_delta(rem, add)}
        state.remove(rem)
        state.add(add)
        after = [state.decode(k) for k in state.cells]
        assert state.decode(add) in after and state.decode(rem) not in after
        assert lattice.edge_boundary(after, G) - lattice.edge_boundary(before, G) \
            == predicted["edge"]
        assert lattice.vertex_boundary(after, G) - lattice.vertex_boundary(before, G) \
            == predicted["vertex"]
        assert state.boundary("edge") == lattice.edge_boundary(after, G)
        assert len(state.layer) == len(set(state.layer))
        assert {state.decode(k) for k in state.layer} == _layer_oracle(after, G)
        assert all(state.layer[p] == k for k, p in state.pos.items())
        assert len(state.pos) == len(state.layer)


# ---------------------------------------------------------------------------
# convergence diagnostics


def square_block(w):
    return LatticeSet(tuple((x, y) for x in range(w) for y in range(w)))


def test_convergence_blocks_toward_square():
    results = [
        OptResult(w * w, "edge", 4 * w, square_block(w), False, 0)
        for w in (4, 8, 12)
    ]
    predicted = ConvexPolygon(((0, 0), (2, 0), (2, 2), (0, 2)))
    rows = lattice.convergence_diagnostic(results, predicted)
    dists = [r.hausdorff for r in rows]
    assert dists[0] > dists[1] > dists[2]
    for r in rows:
        assert r.ratio == pytest.approx(4.0)


def _dense_convergence_diagnostic(results, predicted):
    """convergence_diagnostic with the far side from one dense (samples, pts,
    2) difference array, as it was first written, and the near side from the
    per-edge distance loop; kept as the reference."""
    shape = geom2d.unit_area_centered(predicted)
    samples = lattice._region_samples(shape, spacing=0.01)
    rows = []
    for res in results:
        pts = np.array(sorted(res.witness.points), dtype=float) / math.sqrt(res.n)
        pts = pts - pts.mean(axis=0)
        d1 = max(_polygon_distance_reference(tuple(p), shape) for p in pts)
        diff = samples[:, None, :] - pts[None, :, :]
        d2 = float(np.sqrt((diff ** 2).sum(axis=2)).min(axis=1).max())
        rows.append(lattice.DiagnosticRow(res.n, max(d1, d2),
                                          res.minimum / math.sqrt(res.n)))
    return rows


@pytest.mark.parametrize("G, mode, ns, exact, wulff", [
    (GRID, "edge", range(1, 11), True, False),
    (KING, "vertex", range(1, 8), True, False),
    (KING, "vertex", range(1, 8), True, True),  # the shape cmd_lattice passes
    (GRID, "edge", (16, 64, 144), False, False),  # the results of test_criterion_11
    (GRID, "vertex", (13, 41, 85), False, False),
], ids=["z2-edge-exact", "king-vertex-exact", "king-vertex-exact-wulff",
        "z2-edge-heuristic", "z2-vertex-heuristic"])
def test_convergence_far_side_matches_dense_reference(G, mode, ns, exact, wulff):
    results = [lattice.solve_exact(G, n, mode) if exact
               else lattice.solve_heuristic(G, n, mode, seed=1) for n in ns]
    family = isoperimetric.SegmentFamily(tuple(
        ((-a, -b), (a, b)) for a, b in G.edge_vectors if (a, b) > (0, 0)))
    if mode == "edge":
        predicted = isoperimetric.zonotope(family)
    elif wulff:
        predicted = isoperimetric.wulff_shape(family.as_structuring_set(), 360)
    else:
        predicted = structuring.hull(family.as_structuring_set())
    assert lattice.convergence_diagnostic(results, predicted) == \
        _dense_convergence_diagnostic(results, predicted)


def test_convergence_needs_two_results():
    res = [OptResult(16, "edge", 16, square_block(4), False, 0)]
    sq = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    with pytest.raises(ValueError):
        lattice.convergence_diagnostic(res, sq)


# ---------------------------------------------------------------------------
# serialization


def test_plg_round_trip():
    d = {"dim": 2, "edges": [[-1, 0], [0, -1], [0, 1], [1, 0]]}
    G = lattice.plg_from_dict(d)
    assert G == GRID


def test_plg_from_dict_checks_dimension():
    with pytest.raises(ValueError):
        lattice.plg_from_dict({"dim": 3, "edges": [[1, 0], [0, 1]]})
