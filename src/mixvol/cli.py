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
import contextlib
import csv
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from . import geom2d, isoperimetric, lattice, mixedvol, structuring, svgout
from .errors import MixvolError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_DISAGREEMENT = 3

#: How `_resolve` names the JSON type a config value must have.
_JSON_TYPES = {str: "a string", int: "an integer", float: "a number",
               bool: "true or false"}


@dataclass(frozen=True)
class RunConfig:
    """Resolved per-invocation settings (flags > config file > defaults);
    each field after `command` holds its setting's built-in default."""

    command: str
    m: str | None = None
    n: str | None = None
    graph: str | None = None
    mode: str = "edge"
    exact: bool = True
    seed: int = 0
    eps_start: float = 0.1
    eps_levels: int = 7
    degree: int = 3
    n_dirs: int = 360
    resolution: int = 4096
    tolerance: float = 1e-3
    out_dir: str = "."
    edge: int = 0
    t: float = 0.5


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


@contextlib.contextmanager
def _reading(path: str):
    """Reports a key missing from the JSON of the file at `path` as bad input
    that names the file and the key."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None


def _load_region(path: str, resolution: int):
    """Shape JSON: a polygon or a disc to polygonalize."""
    d = _load_json(path)
    if isinstance(d, dict) and "vertices" in d:
        return geom2d.polygon_from_dict(d)
    if isinstance(d, dict) and isinstance(d.get("disc"), dict):
        with _reading(path):
            disc = structuring.Disc(d["disc"].get("c", (0.0, 0.0)), d["disc"]["r"])
        return geom2d.regular_disc(resolution, disc.radius, disc.center)
    raise ValueError(f"{path}: expected 'vertices' or 'disc' (an object with 'r' and 'c')")


def _load_set(path: str) -> structuring.StructuringSet:
    """Structuring set JSON."""
    with _reading(path):
        return structuring.from_dict(_load_json(path))


def _dilation_inputs(cfg: RunConfig):
    """M and N of a dilation command (estimate, series, probe)."""
    if not cfg.m or not cfg.n:
        raise ValueError(f"{cfg.command} needs --m and --n")
    return _load_region(cfg.m, cfg.resolution), _load_set(cfg.n)


def _workers() -> int:
    return min(4, os.cpu_count() or 1)


def _volumes(M, N, epsilons) -> list[float]:
    """|M + eN| for each e, in order, computed on the worker pool."""
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        return list(pool.map(lambda e: mixedvol.sum_volume(M, N, e), epsilons))


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    M, N = _dilation_inputs(cfg)
    schedule = _schedule(cfg)
    fd = mixedvol.d_finite_difference(M, N, schedule, volumes=_volumes(M, N, schedule))
    bi = mixedvol.d_boundary_integral(M, N)
    out = _out_dir(cfg)
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
    M, N = _dilation_inputs(cfg)
    if cfg.degree < 2:
        raise ValueError("--degree must be at least 2")
    levels = max(cfg.eps_levels, cfg.degree + 3)
    lo = cfg.eps_start / 30.0
    grid = [lo + (cfg.eps_start - lo) * k / (levels - 1) for k in range(levels)]
    volumes = _volumes(M, N, grid)
    fit = mixedvol.series_fit(M, N, grid, cfg.degree, volumes=volumes)
    out = _out_dir(cfg)
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

    results = [solve(n) for n in ns]
    out = _out_dir(cfg)
    shape = geom2d.unit_area_centered(predicted)
    for res in results:
        write_json(out / f"opt_{cfg.mode}_n{res.n}.json", res.to_dict())
        cells = list(res.witness)
        mx = sum(c[0] for c in cells) / res.n
        my = sum(c[1] for c in cells) / res.n
        root = math.sqrt(res.n)
        pts = [((x - mx) / root, (y - my) / root) for x, y in cells]
        svg = svgout.document(
            [svgout.polygon_element(shape.array),
             svgout.points_element(pts, radius=max(0.006, 0.3 / math.sqrt(res.n)))],
            svgout.fit_bounds([shape.array, pts]))
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
    N = _load_set(cfg.n)
    segs = tuple((c.a, c.b) for c in N.components
                 if isinstance(c, structuring.Segment))
    if not segs:
        raise ValueError("structuring set has no segment components")
    fam = isoperimetric.SegmentFamily(segs)
    Z = isoperimetric.zonotope(fam)
    W = isoperimetric.wulff_shape(N, cfg.n_dirs)
    out = _out_dir(cfg)
    write_json(out / "zonotope.json", geom2d.polygon_to_dict(Z))
    write_json(out / "wulff.json", geom2d.polygon_to_dict(W))
    svg = svgout.document(
        [svgout.polygon_element(Z.array, stroke="#1f77b4"),
         svgout.polygon_element(W.array, stroke="#d62728")],
        svgout.fit_bounds([Z.array, W.array]))
    (out / "shapes.svg").write_text(svg)
    print(f"zonotope: {len(Z.array)} vertices, area {geom2d.area(Z):.12g}")
    print(f"wulff shape: {len(W.array)} vertices, area {geom2d.area(W):.12g}")
    return EXIT_OK


def cmd_probe(cfg: RunConfig) -> int:
    M, N = _dilation_inputs(cfg)
    schedule = _schedule(cfg)
    excess = [mixedvol.local_expansion_probe(M, (cfg.edge, cfg.t), N, e)
              for e in schedule]
    quotients = [T / e for T, e in zip(excess, schedule)]
    out = _out_dir(cfg)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use (not at import):
    `parse_args` leaves it as it was, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="mixvol",
        description="Dilation derivatives, limit shapes, and discrete "
                    "isoperimetric optima.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--out-dir", dest="out_dir", help="artifact directory")
        return p

    def dilation_command(name: str, help: str) -> argparse.ArgumentParser:
        """A command with the flags estimate, series and probe share."""
        p = command(name, help)
        p.add_argument("--m", help="shape JSON (polygon or disc)")
        p.add_argument("--n", help="structuring set JSON")
        p.add_argument("--eps-start", dest="eps_start", type=float)
        p.add_argument("--eps-levels", dest="eps_levels", type=int,
                       help="number of eps values (for series a grid over "
                            "eps_start/30 .. eps_start)")
        p.add_argument("--resolution", type=int, help="disc polygonalization")
        return p

    p = dilation_command("estimate", "dilation derivative by both routes")
    p.add_argument("--tolerance", type=float,
                   help="allowed gap between the two estimators")

    p = dilation_command("series", "polynomial fit of eps -> volume")
    p.add_argument("--degree", type=int)

    p = command("lattice", "discrete isoperimetric optimization")
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

    p = command("shapes", "predicted zonotope and Wulff shapes")
    p.add_argument("--n", help="structuring set JSON with segment components")
    p.add_argument("--n-dirs", dest="n_dirs", type=int)

    p = dilation_command("probe", "normal-ray expansion at a boundary point")
    p.add_argument("--edge", type=int, help="edge index on M")
    p.add_argument("--t", type=float, help="parameter along the edge (0,1)")

    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over the defaults in RunConfig."""
    overrides = {}
    if getattr(args, "config", None):
        overrides = _load_json(args.config)
        if not isinstance(overrides, dict):
            raise ValueError("config file must hold a JSON object")
    settings = fields(RunConfig)[1:]  # the settings after `command`
    unknown = sorted(set(overrides) - {f.name for f in settings})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    values = {}
    for f in settings:
        name, flag = f.name, getattr(args, f.name, None)
        if flag is not None:
            values[name] = flag
        elif name in overrides:
            # a config value has its default's JSON type, a string where that is None
            value, kind = overrides[name], str if f.default is None else type(f.default)
            if not (type(value) is kind or (kind is float and type(value) is int)):
                raise ValueError(f"config {name!r} must be {_JSON_TYPES[kind]}, "
                                 f"not {json.dumps(value)}")
            values[name] = value
    return RunConfig(command=args.command, **values)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage and the error
        if not exc.code:  # --help
            raise
        return EXIT_BAD_INPUT
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command](cfg)
    except (MixvolError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
