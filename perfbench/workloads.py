"""The four benchmark workloads: seeded inputs, one timed call per operation,
and the correctness oracle for each operation.

Every workload builds a fixed list of operations (a "pass") from its seed.
The composition of a pass is fixed by a table of strata; the seed only
draws the parameters inside each stratum, so every seed loads the program
alike and run-to-run spread comes from the inputs' details, not their mix.
The harness repeats whole passes, and a repeated operation must reproduce
its first result exactly.

`run(op)` is the timed part and calls only mixvol's public functions (via
module attributes, so the traced run's wrappers see them).  `check(op, out)`
runs outside the timed region and returns the names of violated oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from mixvol import cli, geom2d, lattice, mixedvol, structuring
from mixvol.structuring import Disc, Points, Segment, StructuringSet


@dataclass
class Op:
    """One operation: a label, its inputs, and what its checks need."""

    label: str
    inputs: dict
    expect: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# Oracles shared by the two dilation workloads


def closed_form_plus_dilation(eps: float) -> float:
    """Exact area of the unit disc dilated by eps times the unit axis cross,
    valid for 0 < eps < 1 (disc plus two stadia, split into circular segments
    and triangles)."""
    e = eps
    s = math.sqrt(2.0 - e * e)
    return (
        math.pi
        + 2.0 * e * e
        + 2.0 * s * e
        + 0.5 * math.sqrt(2.0 - 2.0 * s * e) * e
        + 0.5 * math.sqrt(2.0 * s * e + 2.0) * e
        + 0.5 * s * math.sqrt(2.0 - 2.0 * s * e)
        - 0.5 * s * math.sqrt(2.0 * s * e + 2.0)
        + 2.0 * math.asin(0.5 * (e - s))
        + 2.0 * math.asin(0.5 * (s + e))
    )


def fd_bi_tol_share(fd_value: float, fd_error: float, bi_value: float) -> float:
    """|FD - BI| as a share of the estimator-agreement tolerance
    max(1e-3, 3 * FD error estimate); above 1 the estimators disagree."""
    return abs(fd_value - bi_value) / max(1e-3, 3.0 * fd_error)


def plus_disc_tolerance(n: int, r: float, eps: float) -> float:
    """How far |M + eps*plus| may sit from the disc's closed form when M is
    the regular n-gon inscribed in the disc of radius r.

    The disc lies within r*(1 - cos(pi/n)) of M, so the two dilations differ
    by at most that gap times a perimeter bound of the dilation (two stadia,
    4*pi*r + 8*eps), doubled for safety, plus round-off.
    """
    gap = r * (1.0 - math.cos(math.pi / n))
    return 2.0 * gap * (4.0 * math.pi * r + 8.0 * eps) + 1e-9 * r * r


def _estimate(M, N) -> dict:
    fd = mixedvol.d_finite_difference(M, N)
    bi = mixedvol.d_boundary_integral(M, N)
    return {"fd": fd.value, "fd_error": fd.error_estimate, "bi": bi.value,
            "epsilons": fd.epsilons, "quotients": fd.raw_quotients,
            "area": geom2d.area(M)}


def _check_estimate(op: Op, out: dict) -> list[str]:
    bad = []
    if fd_bi_tol_share(out["fd"], out["fd_error"], out["bi"]) > 1.0:
        bad.append("oracle:fd_bi_agreement")
    disc = op.expect.get("plus_disc")
    if disc is not None:
        n, r = disc
        for e, q in zip(out["epsilons"], out["quotients"]):
            volume = out["area"] + q * e
            want = r * r * closed_form_plus_dilation(e / r)
            if abs(volume - want) > plus_disc_tolerance(n, r, e):
                bad.append("oracle:plus_disc_closed_form")
                break
    return bad


def _ring(n: int, angle, radius, center=(0.0, 0.0)) -> tuple:
    cx, cy = center
    return tuple((cx + radius(k) * math.cos(angle(k)),
                  cy + radius(k) * math.sin(angle(k))) for k in range(n))


def _small_convex(rng: random.Random, k: int, r: float, center) -> tuple:
    """k points jittered on a circle: always in convex position."""
    base = rng.uniform(0.0, 2.0 * math.pi)
    return _ring(k, lambda j: base + 2.0 * math.pi * (j + rng.uniform(-0.3, 0.3)) / k,
                 lambda j: r, center)


def _random_segment(rng: random.Random, box: float, lo: float, hi: float) -> Segment:
    x, y = rng.uniform(-box, box), rng.uniform(-box, box)
    th = rng.uniform(0.0, 2.0 * math.pi)
    L = rng.uniform(lo, hi)
    return Segment((x, y), (x + L * math.cos(th), y + L * math.sin(th)))


# ---------------------------------------------------------------------------
# dilate-convex


class DilateConvex:
    """One cross-checked estimate per operation on a convex M.

    Strata: every M size crossed with every N kind.  The plus set always
    meets a rotated regular n-gon centred at the origin, so the disc's
    closed form checks the volumes; the other kinds cycle through regular
    n-gons and jittered points on circles and ellipses.
    """

    name = "dilate-convex"
    SIZES = (8, 32, 128, 512, 1024, 2048, 4096)
    TINY_SIZES = (8, 256)
    KINDS = ("plus", "segments", "polygon", "points_segment", "disc")
    FAMILIES = ("circle", "ellipse", "regular")

    def build(self, seed: int, tiny: bool = False) -> list[Op]:
        rng = _rng(self.name, seed)
        ops = []
        for i, n in enumerate(self.TINY_SIZES if tiny else self.SIZES):
            for j, kind in enumerate(self.KINDS):
                family = "regular" if kind == "plus" else self.FAMILIES[(i + j) % 3]
                M, expect = self._shape(rng, family, n, centred=kind == "plus")
                N = self._structuring(rng, kind, i)
                ops.append(Op(f"{family}{n}+{kind}", {"M": M, "N": N}, expect))
        return ops

    def _shape(self, rng, family: str, n: int, centred: bool):
        r = rng.uniform(0.5, 2.0)
        center = (0.0, 0.0) if centred else (rng.uniform(-1, 1), rng.uniform(-1, 1))
        if family == "regular":
            rot = rng.uniform(0.0, 2.0 * math.pi / n)
            verts = _ring(n, lambda k: rot + 2.0 * math.pi * k / n, lambda k: r, center)
            expect = {"plus_disc": (n, r)} if centred else {}
            return geom2d.ConvexPolygon(verts), expect
        jit = [rng.uniform(-0.4, 0.4) for _ in range(n)]
        base = rng.uniform(0.0, 2.0 * math.pi)
        angles = [base + 2.0 * math.pi * (k + jit[k]) / n for k in range(n)]
        if family == "circle":
            verts = _ring(n, lambda k: angles[k], lambda k: r, center)
        else:
            b = r * rng.uniform(0.3, 0.9)
            phi = rng.uniform(0.0, math.pi)
            c, s = math.cos(phi), math.sin(phi)
            verts = tuple((center[0] + r * math.cos(t) * c - b * math.sin(t) * s,
                           center[1] + r * math.cos(t) * s + b * math.sin(t) * c)
                          for t in angles)
        return geom2d.ConvexPolygon(verts), {}

    def _structuring(self, rng, kind: str, i: int) -> StructuringSet:
        if kind == "plus":
            return StructuringSet((Segment((-1.0, 0.0), (1.0, 0.0)),
                                   Segment((0.0, -1.0), (0.0, 1.0))))
        if kind == "segments":
            return StructuringSet(tuple(_random_segment(rng, 0.5, 0.3, 1.0)
                                        for _ in range(2 + i % 3)))
        if kind == "polygon":
            k = rng.randint(4, 7)
            center = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            verts = _small_convex(rng, k, rng.uniform(0.2, 0.6), center)
            return StructuringSet((geom2d.ConvexPolygon(verts),))
        if kind == "points_segment":
            pts = tuple((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                        for _ in range(3))
            return StructuringSet((Points(pts), _random_segment(rng, 0.3, 0.3, 0.8)))
        return StructuringSet((Disc((rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)),
                                    rng.uniform(0.2, 0.6)),))

    def run(self, op: Op) -> dict:
        return _estimate(op.inputs["M"], op.inputs["N"])

    def check(self, op: Op, out: dict) -> list[str]:
        return _check_estimate(op, out)

    def quality(self, op: Op, out: dict) -> dict:
        return {"fd_bi_tol_share": fd_bi_tol_share(out["fd"], out["fd_error"], out["bi"])}

    def fingerprint(self, out: dict):
        return (out["fd"], out["fd_error"], out["bi"])


# ---------------------------------------------------------------------------
# dilate-nonconvex


class DilateNonconvex(DilateConvex):
    """The same operation on nonconvex stars.

    Strata are (spikes, N kind); every star is jittered.  Exactly regular
    stars (vertices at angles pi*i/k, fixed radii) hit defect A on the seed
    commit: `minkowski_segment` raises on them (round-off in its edge-angle
    merge), always when the spike count is divisible by 4 and for some
    segment directions otherwise.  So they are not timed operations; they
    are the known-defect probe (`known_defects`), run once per benchmark run
    outside the timing and reported by outcome, so a fix of defect A shows.
    No disc components: one estimate with a disc costs seconds here.
    """

    name = "dilate-nonconvex"
    STRATA = (
        (8, "seg2"), (8, "seg3"), (8, "seg4"), (8, "poly+seg"), (10, "seg2"),
        (12, "seg2"), (12, "poly2"), (14, "seg2"), (16, "seg2"), (24, "seg2"),
    )
    TINY_STRATA = ((8, "seg2"), (10, "poly2"))
    #: Each stratum is drawn this often per pass, so a run's statistics rest
    #: on more inputs than strata and vary less from seed to seed.
    DRAWS = 2
    #: Spike counts of the exactly regular stars that hit defect A.
    DEFECT_SPIKES = (8, 12, 16)
    #: Regular stars have outer radius 1 and inner radius REGULAR_INNER.
    REGULAR_INNER = 0.4

    def build(self, seed: int, tiny: bool = False) -> list[Op]:
        rng = _rng(self.name, seed)
        ops = []
        for _ in range(1 if tiny else self.DRAWS):
            for k, kind in (self.TINY_STRATA if tiny else self.STRATA):
                ops.append(Op(f"star{k}+{kind}", {"M": self._star(rng, k, False),
                                                  "N": self._union(rng, kind)}))
        return ops

    def known_defects(self, seed: int) -> list[Op]:
        """The defect-A probe: exactly regular stars whose spike count is
        divisible by 4, each with a drawn union of two segments."""
        rng = _rng(f"{self.name}/defects", seed)
        return [Op(f"regular{k}+seg2", {"M": self._star(rng, k, True),
                                        "N": self._union(rng, "seg2")})
                for k in self.DEFECT_SPIKES]

    def _star(self, rng, k: int, regular: bool) -> geom2d.Polygon:
        if regular:
            rho = self.REGULAR_INNER
            return geom2d.Polygon(_ring(2 * k, lambda i: math.pi * i / k,
                                        lambda i: 1.0 if i % 2 == 0 else rho))
        R = rng.uniform(0.9, 1.1)
        rho = R * rng.uniform(0.45, 0.55)
        rot = rng.uniform(0.0, math.pi / k)
        ang = [rot + math.pi * (i + rng.uniform(-0.2, 0.2)) / k for i in range(2 * k)]
        rad = [(R if i % 2 == 0 else rho) * rng.uniform(0.95, 1.05) for i in range(2 * k)]
        return geom2d.Polygon(_ring(2 * k, lambda i: ang[i], lambda i: rad[i]))

    def _union(self, rng, kind: str) -> StructuringSet:
        if kind.startswith("seg"):
            return StructuringSet(tuple(_random_segment(rng, 0.2, 0.4, 0.4)
                                        for _ in range(int(kind[3:]))))
        polys = tuple(
            geom2d.ConvexPolygon(_small_convex(
                rng, 3, 0.2, (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))))
            for _ in range(2 if kind == "poly2" else 1))
        if kind == "poly+seg":
            return StructuringSet(polys + (_random_segment(rng, 0.2, 0.4, 0.4),))
        return StructuringSet(polys)


# ---------------------------------------------------------------------------
# lattice-anneal


def z2_edge_minimum(n: int) -> int:
    """Least edge boundary of n cells of Z^2 (Harary & Harborth, 1976)."""
    return 2 * math.ceil(2.0 * math.sqrt(n))


def independent_boundary(cells, vectors, mode: str) -> int:
    """Boundary of a cell set counted directly from the edge vectors."""
    cells = {tuple(c) for c in cells}
    if mode == "edge":
        return sum((x + dx, y + dy) not in cells
                   for x, y in cells for dx, dy in vectors)
    return len({(x + dx, y + dy) for x, y in cells for dx, dy in vectors} - cells)


KING = ((1, 0), (0, 1), (1, 1), (1, -1))
TRIANGULAR = ((1, 0), (0, 1), (1, 1))


class LatticeAnneal:
    """One `solve_heuristic` run per operation with a fixed iteration count.

    Strata: six (graph, mode) pairs times three narrow bands of n in
    36..144, each annealed from two seeds.
    """

    name = "lattice-anneal"
    ITERATIONS = 3000
    PAIRS = (("z2", "edge"), ("z2", "vertex"), ("king", "vertex"),
             ("king", "edge"), ("triangular", "edge"), ("triangular", "vertex"))
    BANDS = ((36, 48), (84, 96), (132, 144))
    SEEDS_PER_INSTANCE = 2

    def build(self, seed: int, tiny: bool = False) -> list[Op]:
        rng = _rng(self.name, seed)
        graphs = {"z2": lattice.grid_graph(2),
                  "king": lattice.validate_plg(KING),
                  "triangular": lattice.validate_plg(TRIANGULAR)}
        bands = ((9, 16),) if tiny else self.BANDS
        iterations = 200 if tiny else self.ITERATIONS
        ops = []
        for gname, mode in self.PAIRS:
            for lo, hi in bands:
                n = rng.randint(lo, hi)
                for _ in range(1 if tiny else self.SEEDS_PER_INSTANCE):
                    s = rng.randrange(2 ** 31)
                    expect = {"at_least": z2_edge_minimum(n)} \
                        if (gname, mode) == ("z2", "edge") else {}
                    ops.append(Op(f"{gname}-{mode}-n{n}",
                                  {"G": graphs[gname], "n": n, "mode": mode,
                                   "seed": s, "iterations": iterations}, expect))
        return ops

    def run(self, op: Op):
        i = op.inputs
        return lattice.solve_heuristic(i["G"], i["n"], i["mode"], seed=i["seed"],
                                       iterations=i["iterations"])

    def check(self, op: Op, res) -> list[str]:
        bad = []
        cells = res.witness.to_list()
        if len({tuple(c) for c in cells}) != op.inputs["n"]:
            bad.append("oracle:witness_size")
        elif independent_boundary(cells, op.inputs["G"].edge_vectors,
                                  op.inputs["mode"]) != res.minimum:
            bad.append("oracle:witness_boundary")
        if res.minimum < op.expect.get("at_least", 0):
            bad.append("oracle:z2_closed_form")
        return bad

    def quality(self, op: Op, res) -> dict:
        return {"boundary": res.minimum}

    def fingerprint(self, res):
        return (res.minimum, res.witness.to_list())


# ---------------------------------------------------------------------------
# cli-pipeline


class CliPipeline:
    """One in-process `mixvol.cli.main(argv)` call per operation, each into a
    fresh out-dir.  The mix is fixed; the seed draws the shapes.  The CLI's
    worker pool runs at its default size (MIXVOL_THREADS is left alone).

    Artifacts of every repetition must match the first repetition byte for
    byte; `lattice --exact` minima must equal the boundary of the reported
    witness, and on Z^2 edge the closed form.
    """

    name = "cli-pipeline"

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.first: dict[int, dict[str, bytes]] = {}
        self.runs = 0

    def build(self, seed: int, tiny: bool = False) -> list[Op]:
        rng = _rng(self.name, seed)
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)

        def put(name: str, obj) -> str:
            path = inputs / name
            path.write_text(json.dumps(obj))
            return str(path)

        r = rng.uniform(0.5, 2.0)
        disc = put("disc.json", {"disc": {"r": r, "c": [rng.uniform(-1, 1),
                                                        rng.uniform(-1, 1)]}})
        k = rng.randint(6, 10)
        verts = _small_convex(rng, k, rng.uniform(0.5, 2.0), (0.0, 0.0))
        poly = put("poly.json", {"vertices": [list(v) for v in verts]})
        segs = [_random_segment(rng, 0.3, 0.8, 0.8) for _ in range(2)]
        nset = put("n.json", structuring.to_dict(StructuringSet(tuple(segs))))
        z2 = put("z2.json", {"edges": [[1, 0], [0, 1]]})
        king = put("king.json", {"edges": [list(v) for v in KING]})
        res = ["--resolution", "256"] if tiny else []
        z2_n, king_n = ("1..4", "1..3") if tiny else ("1..10", "1..7")
        t = rng.uniform(0.2, 0.8)
        disc_edge = rng.randrange(256 if tiny else 4096)
        poly_edge = rng.randrange(k)
        mix = [
            ("estimate-disc", ["estimate", "--m", disc, "--n", nset] + res),
            ("estimate-poly", ["estimate", "--m", poly, "--n", nset]),
            ("series-disc", ["series", "--m", disc, "--n", nset] + res),
            ("series-poly", ["series", "--m", poly, "--n", nset]),
            ("probe-disc", ["probe", "--m", disc, "--n", nset, "--edge",
                            str(disc_edge), "--t", repr(t)] + res),
            ("probe-poly", ["probe", "--m", poly, "--n", nset, "--edge",
                            str(poly_edge), "--t", repr(t)]),
            ("lattice-z2-edge", ["lattice", "--graph", z2, "--n", z2_n,
                                 "--mode", "edge", "--exact"]),
            ("lattice-king-vertex", ["lattice", "--graph", king, "--n", king_n,
                                     "--mode", "vertex", "--exact"]),
            ("shapes", ["shapes", "--n", nset]),
        ]
        ops = []
        for i, (label, argv) in enumerate(mix):
            expect = {"exit": 0, "index": i}
            if label.startswith("lattice"):
                lo, hi = map(int, argv[argv.index("--n") + 1].split(".."))
                expect.update(graph=label.split("-")[1], mode=argv[argv.index("--mode") + 1],
                              ns=list(range(lo, hi + 1)))
            ops.append(Op(label, {"argv": argv}, expect))
        return ops

    def run(self, op: Op) -> dict:
        self.runs += 1
        out = self.workdir / "out" / f"{self.runs}-{op.label}"
        argv = op.inputs["argv"] + ["--out-dir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return {"exit": code, "dir": out}

    def check(self, op: Op, out: dict) -> list[str]:
        files = {}
        if out["dir"].is_dir():
            files = {p.name: p.read_bytes() for p in sorted(out["dir"].iterdir())}
            shutil.rmtree(out["dir"])
        out["files"] = files
        bad = []
        if out["exit"] != op.expect["exit"]:
            bad.append("oracle:exit_code")
        first = self.first.setdefault(op.expect["index"], files)
        if files != first:
            bad.append("oracle:artifact_bytes")
        if "graph" in op.expect and not bad:
            vectors = lattice.validate_plg(
                KING if op.expect["graph"] == "king" else ((1, 0), (0, 1))).edge_vectors
            mode = op.expect["mode"]
            for n in op.expect["ns"]:
                name = f"opt_{mode}_n{n}.json"
                if name not in files:
                    bad.append("oracle:missing_artifact")
                    break
                res = json.loads(files[name])
                if independent_boundary(res["witness"], vectors, mode) != res["minimum"] \
                        or len(res["witness"]) != n:
                    bad.append("oracle:witness_boundary")
                    break
                if op.expect["graph"] == "z2" and res["minimum"] != z2_edge_minimum(n):
                    bad.append("oracle:z2_closed_form")
                    break
        return bad

    def quality(self, op: Op, out: dict) -> dict:
        q = {"artifact_bytes": sum(len(b) for b in out.get("files", {}).values())}
        files = out.get("files", {})
        if "estimate_finite_difference.json" in files:
            fd = json.loads(files["estimate_finite_difference.json"])
            bi = json.loads(files["estimate_boundary_integral.json"])
            q["fd_bi_tol_share"] = fd_bi_tol_share(fd["value"], fd["error_estimate"],
                                                   bi["value"])
        return q

    def fingerprint(self, out: dict):
        return None  # repetitions are compared byte for byte in check()


def make(name: str, workdir: Path):
    if name == CliPipeline.name:
        return CliPipeline(workdir)
    for cls in (DilateConvex, DilateNonconvex, LatticeAnneal):
        if cls.name == name:
            return cls()
    raise KeyError(name)
