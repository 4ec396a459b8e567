import json
import math
import xml.etree.ElementTree as ET

import pytest

from mixvol import cli, geom2d


SQRT2 = math.sqrt(2)

SQUARE = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
PLUS = {"components": [
    {"type": "segment", "a": [-1, 0], "b": [1, 0]},
    {"type": "segment", "a": [0, -1], "b": [0, 1]},
]}
DIAMOND_N = {"components": [
    {"type": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
]}
DISC = {"disc": {"c": [0, 0], "r": 1}}
DISC_N = {"components": [{"type": "disc", "c": [0, 0], "r": 1}]}
GRID = {"dim": 2, "edges": [[1, 0], [0, 1]]}
TRI_GEN = {"components": [
    {"type": "segment", "a": [0, 0], "b": [1, 0]},
    {"type": "segment", "a": [0, 0], "b": [0, 1]},
    {"type": "segment", "a": [0, 0], "b": [1, 1]},
]}


@pytest.fixture
def files(tmp_path):
    def put(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return put


def read_json(path):
    return json.loads(path.read_text())


def csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# estimate


def test_estimate_square_plus(tmp_path, files, capsys):
    rc = cli.main(["estimate", "--m", files("m.json", SQUARE),
                   "--n", files("n.json", PLUS), "--out-dir", str(tmp_path)])
    assert rc == 0
    fd = read_json(tmp_path / "estimate_finite_difference.json")
    bi = read_json(tmp_path / "estimate_boundary_integral.json")
    assert fd["value"] == pytest.approx(4.0, abs=1e-9)
    assert bi["value"] == 4.0
    assert fd["method"] == "finite_difference"
    assert bi["method"] == "boundary_integral"
    header, rows = csv_rows(tmp_path / "quotients.csv")
    assert header == ["eps", "quotient"]
    assert len(rows) == 7
    assert float(rows[0][0]) == 0.1


def test_estimate_disc_plus(tmp_path, files):
    rc = cli.main(["estimate", "--m", files("m.json", DISC),
                   "--n", files("n.json", PLUS), "--out-dir", str(tmp_path)])
    assert rc == 0
    fd = read_json(tmp_path / "estimate_finite_difference.json")
    bi = read_json(tmp_path / "estimate_boundary_integral.json")
    assert abs(fd["value"] - 4 * SQRT2) < 5e-3
    assert abs(bi["value"] - 4 * SQRT2) < 1e-5


def test_estimate_square_disc(tmp_path, files):
    rc = cli.main(["estimate", "--m", files("m.json", SQUARE),
                   "--n", files("n.json", DISC_N), "--out-dir", str(tmp_path)])
    assert rc == 0
    bi = read_json(tmp_path / "estimate_boundary_integral.json")
    assert abs(bi["value"] - 4.0) < 1e-12


def test_estimate_disagreement_still_writes(tmp_path, files, capsys):
    rc = cli.main(["estimate", "--m", files("m.json", DISC),
                   "--n", files("n.json", PLUS), "--out-dir", str(tmp_path),
                   "--resolution", "1024", "--tolerance", "1e-12"])
    assert rc == 3
    for name in ("estimate_finite_difference.json",
                 "estimate_boundary_integral.json", "quotients.csv"):
        assert (tmp_path / name).exists()
    assert "disagreement" in capsys.readouterr().err


def test_estimate_rejects_region_union(tmp_path, files, capsys):
    union = {"parts": [SQUARE, {"vertices": [[5, 0], [6, 0], [6, 1], [5, 1]]}]}
    rc = cli.main(["estimate", "--m", files("m.json", union),
                   "--n", files("n.json", PLUS), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_series_rejects_region_union(tmp_path, files, capsys):
    union = {"parts": [SQUARE, {"vertices": [[5, 0], [6, 0], [6, 1], [5, 1]]}]}
    rc = cli.main(["series", "--m", files("m.json", union),
                   "--n", files("n.json", PLUS), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "expected 'vertices' or 'disc'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# failure modes


@pytest.mark.parametrize("p", [5, 7])
def test_estimate_rejects_star_polygon(tmp_path, files, capsys, p):
    # {p/2} in drawing order: every corner turns left, the boundary winds twice
    star = [[math.cos(4 * math.pi * k / p), math.sin(4 * math.pi * k / p)] for k in range(p)]
    rc = cli.main(["estimate", "--m", files("m.json", {"vertices": star}),
                   "--n", files("n.json", PLUS), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "self-intersecting" in capsys.readouterr().err


def test_estimate_rejects_self_crossing_80_gon(tmp_path, files, capsys):
    verts = [[2.2 * math.cos(2 * math.pi * i / 80), 2.2 * math.sin(2 * math.pi * i / 80)]
             for i in range(80)]
    verts[10], verts[11] = verts[11], verts[10]
    rc = cli.main(["estimate", "--m", files("m.json", {"vertices": verts}),
                   "--n", files("n.json", PLUS), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "self-intersecting" in capsys.readouterr().err


def test_missing_file(tmp_path):
    rc = cli.main(["estimate", "--m", str(tmp_path / "nope.json"),
                   "--n", str(tmp_path / "alsono.json"),
                   "--out-dir", str(tmp_path)])
    assert rc == 2


def test_malformed_json(tmp_path, files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    rc = cli.main(["estimate", "--m", str(bad),
                   "--n", files("n.json", PLUS), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_shape_schema(tmp_path, files):
    rc = cli.main(["estimate", "--m", files("m.json", {"blob": 1}),
                   "--n", files("n.json", PLUS), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_bad_graph(tmp_path, files, capsys):
    bad = {"dim": 2, "edges": [[2, 0], [0, 1]]}
    rc = cli.main(["lattice", "--graph", files("g.json", bad), "--n", "3",
                   "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_n_spec(tmp_path, files):
    rc = cli.main(["lattice", "--graph", files("g.json", GRID), "--n", "x",
                   "--out-dir", str(tmp_path)])
    assert rc == 2


# ---------------------------------------------------------------------------
# series


def test_series_square_plus(tmp_path, files):
    rc = cli.main(["series", "--m", files("m.json", SQUARE),
                   "--n", files("n.json", PLUS), "--degree", "2",
                   "--eps-start", "0.4", "--out-dir", str(tmp_path)])
    assert rc == 0
    fit = read_json(tmp_path / "series.json")
    c = fit["coefficients"]
    assert abs(c[0] - 1.0) < 1e-9
    assert abs(c[1] - 4.0) < 1e-9
    assert abs(c[2]) < 1e-9
    assert fit["residual_max"] <= 1e-9
    header, rows = csv_rows(tmp_path / "series.csv")
    assert header == ["eps", "volume"]
    assert len(rows) == len(fit["eps_grid"])


def test_series_convex_control(tmp_path, files):
    rc = cli.main(["series", "--m", files("m.json", SQUARE),
                   "--n", files("n.json", DIAMOND_N), "--degree", "2",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    assert read_json(tmp_path / "series.json")["residual_max"] <= 1e-9


def test_series_degree_too_low(tmp_path, files):
    rc = cli.main(["series", "--m", files("m.json", SQUARE),
                   "--n", files("n.json", PLUS), "--degree", "1",
                   "--out-dir", str(tmp_path)])
    assert rc == 2


# ---------------------------------------------------------------------------
# lattice


def test_lattice_exact_range(tmp_path, files):
    rc = cli.main(["lattice", "--graph", files("g.json", GRID),
                   "--mode", "edge", "--n", "1..9", "--exact",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    minima = [read_json(tmp_path / f"opt_edge_n{n}.json")["minimum"]
              for n in range(1, 10)]
    assert minima == [4, 6, 8, 8, 10, 10, 12, 12, 12]
    header, rows = csv_rows(tmp_path / "convergence_edge.csv")
    assert header == ["n", "hausdorff", "ratio"]
    assert len(rows) == 9
    svg = (tmp_path / "witness_edge_n9.svg").read_text()
    ET.fromstring(svg)  # well-formed XML


def test_lattice_vertex_single(tmp_path, files):
    rc = cli.main(["lattice", "--graph", files("g.json", GRID),
                   "--mode", "vertex", "--n", "5", "--exact",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    d = read_json(tmp_path / "opt_vertex_n5.json")
    assert d["minimum"] == 8
    assert d["witness"] == [[0, 0], [1, -1], [1, 0], [1, 1], [2, 0]]
    assert not (tmp_path / "convergence_vertex.csv").exists()


def test_lattice_heuristic_large(tmp_path, files):
    rc = cli.main(["lattice", "--graph", files("g.json", GRID),
                   "--mode", "edge", "--n", "100", "--heuristic",
                   "--seed", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    d = read_json(tmp_path / "opt_edge_n100.json")
    assert d["minimum"] == 40
    assert d["exact"] is False


def test_lattice_comma_list(tmp_path, files):
    rc = cli.main(["lattice", "--graph", files("g.json", GRID),
                   "--mode", "edge", "--n", "1,4,9", "--exact",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    for n in (1, 4, 9):
        assert (tmp_path / f"opt_edge_n{n}.json").exists()


def test_lattice_n_range_alias(tmp_path, files):
    rc = cli.main(["lattice", "--graph", files("g.json", GRID),
                   "--mode", "edge", "--n-range", "2..3", "--exact",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    assert read_json(tmp_path / "opt_edge_n2.json")["minimum"] == 6


# ---------------------------------------------------------------------------
# shapes


def test_shapes_plus(tmp_path, files):
    rc = cli.main(["shapes", "--n", files("n.json", PLUS),
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    Z = geom2d.polygon_from_dict(read_json(tmp_path / "zonotope.json"))
    W = geom2d.polygon_from_dict(read_json(tmp_path / "wulff.json"))
    assert set(Z.vertices) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}
    assert geom2d.area(W) == pytest.approx(2.0, abs=1e-9)
    assert geom2d.hausdorff_convex(
        W, geom2d.ConvexPolygon(((1, 0), (0, 1), (-1, 0), (0, -1)))) <= 1e-9
    ET.fromstring((tmp_path / "shapes.svg").read_text())


def test_shapes_three_generators(tmp_path, files):
    rc = cli.main(["shapes", "--n", files("n.json", TRI_GEN),
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    Z = geom2d.polygon_from_dict(read_json(tmp_path / "zonotope.json"))
    assert len(Z.vertices) == 6
    assert geom2d.area(Z) == pytest.approx(3.0, abs=1e-9)


def test_shapes_single_segment(tmp_path, files, capsys):
    single = {"components": [{"type": "segment", "a": [0, 0], "b": [1, 0]}]}
    rc = cli.main(["shapes", "--n", files("n.json", single),
                   "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_shapes_round_trip_bit_identical(tmp_path, files):
    rc = cli.main(["shapes", "--n", files("n.json", TRI_GEN),
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    raw = read_json(tmp_path / "wulff.json")
    W = geom2d.polygon_from_dict(raw)
    assert geom2d.polygon_to_dict(W) == raw


# ---------------------------------------------------------------------------
# probe


def test_probe_square(tmp_path, files, capsys):
    rc = cli.main(["probe", "--m", files("m.json", SQUARE),
                   "--n", files("n.json", PLUS), "--edge", "0", "--t", "0.5",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    d = read_json(tmp_path / "probe.json")
    assert d["edge"] == 0 and d["t"] == 0.5
    assert all(q == 1.0 for q in d["quotients"])
    header, rows = csv_rows(tmp_path / "probe.csv")
    assert header == ["eps", "excess", "quotient"]
    assert len(rows) == 7


def test_probe_at_vertex(tmp_path, files):
    rc = cli.main(["probe", "--m", files("m.json", SQUARE),
                   "--n", files("n.json", PLUS), "--edge", "0", "--t", "0",
                   "--out-dir", str(tmp_path)])
    assert rc == 2


# ---------------------------------------------------------------------------
# determinism and configuration


def test_byte_identical_across_threads(tmp_path, files, monkeypatch):
    m, n = files("m.json", DISC), files("n.json", PLUS)
    outs = []
    for threads, sub in (("4", "a"), ("1", "b")):
        monkeypatch.setenv("MIXVOL_THREADS", threads)
        out = tmp_path / sub
        rc = cli.main(["estimate", "--m", m, "--n", n,
                       "--resolution", "256", "--out-dir", str(out)])
        assert rc == 0
        outs.append(out)
    for name in ("estimate_finite_difference.json",
                 "estimate_boundary_integral.json", "quotients.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_rerun_byte_identical(tmp_path, files):
    g = files("g.json", GRID)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = cli.main(["lattice", "--graph", g, "--mode", "vertex",
                       "--n", "1..4", "--exact", "--out-dir", str(out)])
        assert rc == 0
    for p in sorted(a.iterdir()):
        assert p.read_bytes() == (b / p.name).read_bytes()


def test_config_file_defaults_and_flag_override(tmp_path, files):
    m, n = files("m.json", SQUARE), files("n.json", PLUS)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"eps_levels": 5}))
    out1 = tmp_path / "one"
    rc = cli.main(["estimate", "--m", m, "--n", n, "--config", str(cfg),
                   "--out-dir", str(out1)])
    assert rc == 0
    _, rows = csv_rows(out1 / "quotients.csv")
    assert len(rows) == 5  # config file beat the default of 7
    out2 = tmp_path / "two"
    rc = cli.main(["estimate", "--m", m, "--n", n, "--config", str(cfg),
                   "--eps-levels", "4", "--out-dir", str(out2)])
    assert rc == 0
    _, rows = csv_rows(out2 / "quotients.csv")
    assert len(rows) == 4  # explicit flag beat the config file
