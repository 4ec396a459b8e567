"""Command-line driver: shape/graph JSON in, JSON/CSV/SVG artifacts out.

Subcommands: estimate, series, lattice, shapes, probe.  Exit codes: 0 on
success, 2 on malformed input or infeasible configuration, 3 when the two
dilation-derivative estimators disagree beyond tolerance (artifacts are still
written in that case).  Identical configuration and seed produce
byte-identical output files; numbers are serialized with 17 significant
digits so every emitted value re-parses to the same float.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import geom2d, isoperimetric, lattice, mixedvol, structuring, svgout
from .errors import MixvolError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_DISAGREEMENT = 3

_DEFAULTS = {
    "mode": "edge",
    "exact": True,
    "seed": 0,
    "eps_start": 0.1,
    "eps_levels": 7,
    "degree": 3,
    "n_dirs": 360,
    "resolution": 4096,
    "tolerance": 1e-3,
    "out_dir": ".",
    "edge": 0,
    "t": 0.5,
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved per-invocation settings (flags > config file > defaults)."""

    command: str
    m: str | None
    n: str | None
    graph: str | None
    mode: str
    exact: bool
    seed: int
    eps_start: float
    eps_levels: int
    degree: int
    n_dirs: int
    resolution: int
    tolerance: float
    out_dir: str
    edge: int
    t: float


# ---------------------------------------------------------------------------
# Serialization helpers (17 significant digits, reproducible byte-for-byte)


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def dumps(value, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ",\n".join(f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 1)}'
                           for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_json(path: Path, value) -> None:
    path.write_text(dumps(value) + "\n")


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([format_float(v) if isinstance(v, float) else str(v)
                        for v in row])


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_region(path: str, resolution: int):
    """Shape JSON: a polygon or a disc to polygonalize."""
    d = _load_json(path)
    if "vertices" in d:
        return geom2d.polygon_from_dict(d)
    if "disc" in d:
        params = d["disc"]
        P = geom2d.regular_disc(resolution, float(params["r"]))
        return geom2d.translate(P, tuple(float(c) for c in params.get("c", (0.0, 0.0))))
    raise ValueError(f"{path}: expected 'vertices' or 'disc'")


def _workers() -> int:
    raw = os.environ.get("MIXVOL_THREADS", "")
    if raw.strip():
        k = int(raw)
        if k < 1:
            raise ValueError("MIXVOL_THREADS must be a positive integer")
        return k
    return min(4, os.cpu_count() or 1)


def _schedule(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.eps_start <= 0:
        raise ValueError("--eps-start must be positive")
    if cfg.eps_levels < 3:
        raise ValueError("--eps-levels must be at least 3")
    return tuple(cfg.eps_start * 0.5 ** k for k in range(cfg.eps_levels))


def _parse_n_values(raw: str) -> list[int]:
    """Accepts '7', '1..9', or '1,4,9'."""
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {raw!r}")
        return list(range(lo, hi + 1))
    if "," in raw:
        return [int(p) for p in raw.split(",")]
    return [int(raw)]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_estimate(cfg: RunConfig) -> int:
    if not cfg.m or not cfg.n:
        raise ValueError("estimate needs --m and --n")
    M = _load_region(cfg.m, cfg.resolution)
    N = structuring.from_dict(_load_json(cfg.n))
    schedule = _schedule(cfg)
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        volumes = list(pool.map(lambda e: mixedvol.sum_volume(M, N, e), schedule))
    fd = mixedvol.d_finite_difference(M, N, schedule, volumes=volumes)
    bi = mixedvol.d_boundary_integral(M, N)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "estimate_finite_difference.json", fd.to_dict())
    write_json(out / "estimate_boundary_integral.json", bi.to_dict())
    write_csv(out / "quotients.csv", ("eps", "quotient"),
              zip(fd.epsilons, fd.raw_quotients))
    gap = abs(fd.value - bi.value)
    print(f"finite difference: {fd.value:.12g} (error estimate {fd.error_estimate:.3g})")
    print(f"boundary integral: {bi.value:.12g}")
    if gap > cfg.tolerance:
        print(f"estimator disagreement: |{fd.value:.12g} - {bi.value:.12g}| "
              f"= {gap:.3g} > {cfg.tolerance:g}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_series(cfg: RunConfig) -> int:
    if not cfg.m or not cfg.n:
        raise ValueError("series needs --m and --n")
    if cfg.degree < 2:
        raise ValueError("--degree must be at least 2")
    M = _load_region(cfg.m, cfg.resolution)
    N = structuring.from_dict(_load_json(cfg.n))
    levels = max(cfg.eps_levels, cfg.degree + 3)
    lo = cfg.eps_start / 30.0
    grid = [lo + (cfg.eps_start - lo) * k / (levels - 1) for k in range(levels)]
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        volumes = list(pool.map(lambda e: mixedvol.sum_volume(M, N, e), grid))
    fit = mixedvol.series_fit(M, N, grid, cfg.degree, volumes=volumes)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "series.json", {
        "coefficients": list(fit.coefficients),
        "residual_max": fit.residual_max,
        "eps_grid": list(fit.eps_grid),
    })
    write_csv(out / "series.csv", ("eps", "volume"), zip(grid, volumes))
    print("coefficients (ascending powers):",
          " ".join(format_float(c) for c in fit.coefficients))
    print(f"max residual: {fit.residual_max:.6g}")
    return EXIT_OK


def _graph_family(G: lattice.PLGGraph) -> isoperimetric.SegmentFamily:
    origin = (0,) * G.dimension
    reps = [v for v in G.edge_vectors if v > origin]  # one per +-v pair
    segs = tuple((tuple(-float(c) for c in v), tuple(float(c) for c in v))
                 for v in reps)
    return isoperimetric.SegmentFamily(segs)


def cmd_lattice(cfg: RunConfig) -> int:
    if not cfg.graph:
        raise ValueError("lattice needs --graph")
    if not cfg.n:
        raise ValueError("lattice needs --n (a size or range like 1..9)")
    G = lattice.plg_from_dict(_load_json(cfg.graph))
    if G.dimension != 2:
        raise ValueError("lattice solving is supported for dimension 2")
    ns = _parse_n_values(cfg.n)
    fam = _graph_family(G)
    if cfg.mode == "edge":
        predicted = isoperimetric.zonotope(fam)
    else:
        predicted = isoperimetric.wulff_shape(fam.as_structuring_set(), cfg.n_dirs)

    def solve(n: int) -> lattice.OptResult:
        if cfg.exact:
            return lattice.solve_exact(G, n, cfg.mode)
        return lattice.solve_heuristic(G, n, cfg.mode, seed=cfg.seed)

    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        results = list(pool.map(solve, ns))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shape = geom2d.unit_area_centered(predicted)
    for res in results:
        write_json(out / f"opt_{cfg.mode}_n{res.n}.json", res.to_dict())
        cells = list(res.witness)
        mx = sum(c[0] for c in cells) / res.n
        my = sum(c[1] for c in cells) / res.n
        root = math.sqrt(res.n)
        pts = [((x - mx) / root, (y - my) / root) for x, y in cells]
        svg = svgout.document(
            [svgout.polygon_element(shape.vertices),
             svgout.points_element(pts, radius=max(0.006, 0.3 / math.sqrt(res.n)))],
            svgout.fit_bounds([shape.vertices, pts]))
        (out / f"witness_{cfg.mode}_n{res.n}.svg").write_text(svg)
        print(f"n={res.n} {cfg.mode}: minimum {res.minimum} "
              f"({'exact' if res.exact else 'heuristic'})")
    if len(results) >= 2:
        rows = lattice.convergence_diagnostic(results, predicted)
        write_csv(out / f"convergence_{cfg.mode}.csv",
                  ("n", "hausdorff", "ratio"), rows)
    return EXIT_OK


def cmd_shapes(cfg: RunConfig) -> int:
    if not cfg.n:
        raise ValueError("shapes needs --n (structuring set JSON)")
    N = structuring.from_dict(_load_json(cfg.n))
    segs = tuple((c.a, c.b) for c in N.components
                 if isinstance(c, structuring.Segment))
    if not segs:
        raise ValueError("structuring set has no segment components")
    fam = isoperimetric.SegmentFamily(segs)
    Z = isoperimetric.zonotope(fam)
    W = isoperimetric.wulff_shape(N, cfg.n_dirs)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "zonotope.json", geom2d.polygon_to_dict(Z))
    write_json(out / "wulff.json", geom2d.polygon_to_dict(W))
    svg = svgout.document(
        [svgout.polygon_element(Z.vertices, stroke="#1f77b4"),
         svgout.polygon_element(W.vertices, stroke="#d62728")],
        svgout.fit_bounds([Z.vertices, W.vertices]))
    (out / "shapes.svg").write_text(svg)
    print(f"zonotope: {len(Z.vertices)} vertices, area {geom2d.area(Z):.12g}")
    print(f"wulff shape: {len(W.vertices)} vertices, area {geom2d.area(W):.12g}")
    return EXIT_OK


def cmd_probe(cfg: RunConfig) -> int:
    if not cfg.m or not cfg.n:
        raise ValueError("probe needs --m and --n")
    M = _load_region(cfg.m, cfg.resolution)
    N = structuring.from_dict(_load_json(cfg.n))
    schedule = _schedule(cfg)
    excess = [mixedvol.local_expansion_probe(M, (cfg.edge, cfg.t), N, e)
              for e in schedule]
    quotients = [T / e for T, e in zip(excess, schedule)]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "probe.json", {
        "edge": cfg.edge,
        "t": cfg.t,
        "epsilons": list(schedule),
        "excess": excess,
        "quotients": quotients,
    })
    write_csv(out / "probe.csv", ("eps", "excess", "quotient"),
              zip(schedule, excess, quotients))
    print("T(eps)/eps:", " ".join("%.9g" % q for q in quotients))
    return EXIT_OK


_COMMANDS = {
    "estimate": cmd_estimate,
    "series": cmd_series,
    "lattice": cmd_lattice,
    "shapes": cmd_shapes,
    "probe": cmd_probe,
}


# ---------------------------------------------------------------------------
# Argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixvol",
        description="Dilation derivatives, limit shapes, and discrete "
                    "isoperimetric optima.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--out-dir", dest="out_dir", help="artifact directory")

    p = sub.add_parser("estimate", help="dilation derivative by both routes")
    common(p)
    p.add_argument("--m", help="shape JSON (polygon or disc)")
    p.add_argument("--n", help="structuring set JSON")
    p.add_argument("--eps-start", dest="eps_start", type=float)
    p.add_argument("--eps-levels", dest="eps_levels", type=int)
    p.add_argument("--resolution", type=int, help="disc polygonalization")
    p.add_argument("--tolerance", type=float,
                   help="allowed gap between the two estimators")

    p = sub.add_parser("series", help="polynomial fit of eps -> volume")
    common(p)
    p.add_argument("--m", help="shape JSON")
    p.add_argument("--n", help="structuring set JSON")
    p.add_argument("--eps-start", dest="eps_start", type=float)
    p.add_argument("--eps-levels", dest="eps_levels", type=int,
                   help="grid size (the grid spans eps_start/30 .. eps_start)")
    p.add_argument("--degree", type=int)
    p.add_argument("--resolution", type=int)

    p = sub.add_parser("lattice", help="discrete isoperimetric optimization")
    common(p)
    p.add_argument("--graph", help="PLG JSON")
    p.add_argument("--n", "--n-range", dest="n",
                   help="size or range: 7, 1..9, or 1,4,9")
    p.add_argument("--mode", choices=("edge", "vertex"))
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", dest="exact", action="store_true", default=None)
    g.add_argument("--heuristic", dest="exact", action="store_false",
                   default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-dirs", dest="n_dirs", type=int)

    p = sub.add_parser("shapes", help="predicted zonotope and Wulff shapes")
    common(p)
    p.add_argument("--n", help="structuring set JSON with segment components")
    p.add_argument("--n-dirs", dest="n_dirs", type=int)

    p = sub.add_parser("probe", help="normal-ray expansion at a boundary point")
    common(p)
    p.add_argument("--m", help="shape JSON")
    p.add_argument("--n", help="structuring set JSON")
    p.add_argument("--edge", type=int, help="edge index on M")
    p.add_argument("--t", type=float, help="parameter along the edge (0,1)")
    p.add_argument("--eps-start", dest="eps_start", type=float)
    p.add_argument("--eps-levels", dest="eps_levels", type=int)
    p.add_argument("--resolution", type=int)

    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over built-in defaults."""
    overrides = {}
    if getattr(args, "config", None):
        overrides = _load_json(args.config)
        if not isinstance(overrides, dict):
            raise ValueError("config file must hold a JSON object")
    fields = ("m", "n", "graph", "mode", "exact", "seed", "eps_start",
              "eps_levels", "degree", "n_dirs", "resolution", "tolerance",
              "out_dir", "edge", "t")
    values = {}
    for name in fields:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
        elif name in overrides:
            values[name] = overrides[name]
        else:
            values[name] = _DEFAULTS.get(name)
    return RunConfig(command=args.command, **values)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command](cfg)
    except (MixvolError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
