import argparse
import hashlib
import json
import math
import xml.etree.ElementTree as ET

import pytest

from conftest import NEAR_STRAIGHT_RUN
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


@pytest.mark.parametrize("cmd", [["estimate"], ["series"], ["probe", "--edge", "9", "--t", "0.5"]],
                         ids=["estimate", "series", "probe"])
def test_near_straight_run_runs(tmp_path, files, cmd):
    # a valid polygon that ConvexPolygon refuses goes through its triangles
    rc = cli.main([*cmd, "--m", files("m.json", {"vertices": NEAR_STRAIGHT_RUN}),
                   "--n", files("n.json", PLUS), "--out-dir", str(tmp_path)])
    assert rc == 0


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


def test_n_with_third_coordinate(tmp_path, files, capsys):
    n = {"components": [{"type": "segment", "a": [0, 0, 5], "b": [1, 0]}]}
    rc = cli.main(["estimate", "--m", files("m.json", SQUARE),
                   "--n", files("n.json", n), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "exactly two coordinates" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag, bad", [
    ("--n", [1, 2]),
    ("--n", {"components": 5}),
    ("--n", {"components": [5]}),
    ("--n", {"components": [{"type": "points", "pts": 5}]}),
    ("--n", {"components": [{"type": "points", "pts": [5]}]}),
    ("--n", {"components": [{"type": "segment", "a": 5, "b": [1, 0]}]}),
    ("--n", {"components": [{"type": "disc", "c": [0, 0], "r": [1]}]}),
    ("--n", {"components": [{"type": "polygon", "vertices": [[0, {}], [1, 0], [1, 1]]}]}),
    ("--m", 5),
    ("--m", {"disc": 5}),
    ("--m", {"disc": {"r": [1]}}),
    ("--graph", 5),
    ("--graph", {"edges": 5}),
    ("--graph", {"edges": [5]}),
    ("--graph", {"edges": [[1, [0]], [0, 1]]}),
    ("--graph", {"dim": [2], "edges": [[1, 0], [0, 1]]}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_json_of_wrong_shape_exits_2(tmp_path, files, capsys, flag, bad):
    # valid JSON that is not a shape, set or graph is bad input, not a fault
    if flag == "--graph":
        argv = ["lattice", "--graph", files("g.json", bad), "--n", "3"]
    else:
        m, n = (bad, PLUS) if flag == "--m" else (SQUARE, bad)
        argv = ["estimate", "--m", files("m.json", m), "--n", files("n.json", n)]
    assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flag, bad, key", [
    ("--n", {"components": [{"pts": [[0, 0]]}]}, "type"),
    ("--n", {"components": [{"type": "polygon"}]}, "vertices"),
    ("--m", {"disc": {"c": [0, 0]}}, "r"),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_missing_json_key_names_file_and_key(tmp_path, files, capsys, flag, bad, key):
    m, n = (bad, PLUS) if flag == "--m" else (SQUARE, bad)
    m, n = files("m.json", m), files("n.json", n)
    rc = cli.main(["estimate", "--m", m, "--n", n, "--out-dir", str(tmp_path)])
    assert rc == 2
    bad_file = m if flag == "--m" else n
    assert capsys.readouterr().err == f"error: {bad_file}: missing key {key!r}\n"


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


# SHA-256 of every artifact of `lattice --exact` on Z^2 edge 1..10 and king
# vertex 1..7, each opt_*.json hashed as json.dumps(sort_keys=True) without
# its nodes_explored: a faster search must keep every minimum, witness,
# witness drawing and convergence row byte for byte.
Z2_EDGE_DIGESTS = {
    "convergence_edge.csv":
        "ce8a01f8cce575f780a1b397c78a3da98b9d999e4b3b5fb0f160acd4fd87718a",
    "opt_edge_n1.json":
        "7bf28d448a651e4fc738332dd704dbfdc7452b1847c897c6e28253fbd3554849",
    "opt_edge_n2.json":
        "ae15038fc4a003f5abc61646bc435118afa80647bfffcfedb836ea31940244fb",
    "opt_edge_n3.json":
        "f01a558948406dcfb7cc7ea3116d49256ede42f7c2842bbb1c870e162f1334dd",
    "opt_edge_n4.json":
        "aeac716d724cf437bd06feb1345637f2b41930ae3315b4949ba79e26955258d4",
    "opt_edge_n5.json":
        "d3a1e9b335a4912769f705b7589a95ca44d1e4ce1ed263ed9a5414aa7016a502",
    "opt_edge_n6.json":
        "c2eee31306c20a8abcc426b22e143d7c211ef59029c15998b15ff5e22cc23325",
    "opt_edge_n7.json":
        "e6cf469cee50b77fe8cfa06a4f61a1b3750bd7c5f8111414bbbbbd5d293a2b43",
    "opt_edge_n8.json":
        "065d0ec59b1adf43a30f570ead51742797fcbf9b9aef900e6199f411850de3a0",
    "opt_edge_n9.json":
        "e7d8b6666457d6c19d2d2833b17ae44c96a0244210156a3709acbebd72ab9567",
    "opt_edge_n10.json":
        "0432667543974e9717f6367c9405c3c813a0fb52def1c403d9984178f25203bb",
    "witness_edge_n1.svg":
        "e2be1710b6c591426954b6b99b267ef0a7fd6680c79cd1aad8106fb55d880216",
    "witness_edge_n2.svg":
        "17cea71f1c8956abc4883ba4f4b7da605301b904a7d620d6bafa6af0e7187bec",
    "witness_edge_n3.svg":
        "796a2f59f5ac609300e9e8dc922c503024b1b6e82747ef66c0554bd30908f571",
    "witness_edge_n4.svg":
        "a4af812caa242d2de2529573d2be0f48db8c87f18468d7addbe01c9fdb311e1b",
    "witness_edge_n5.svg":
        "ba13eeacbc35459837221bdc32559b2b0f3a1f31074358e427b0ded4fb9bf344",
    "witness_edge_n6.svg":
        "671c41af29bc14b5634f8c6985d194a4c10932060a287586a0e06d7c0679fba8",
    "witness_edge_n7.svg":
        "acbc3fbf27dbd9abf21729015d25639412a343a62f5e7b24c54a5fcf01b0f5dc",
    "witness_edge_n8.svg":
        "d8a7bee0bbb2250cb6885295fabc3811a69d32510460f67403ac3c73bfb77940",
    "witness_edge_n9.svg":
        "31af0b58c9d6d6c1be4d57eede6b7b3b50b447767d2ddb145d7e135654eb9d8a",
    "witness_edge_n10.svg":
        "b027ffb968981c8dd3122097890b125eb4ed4bd48ccf44879908c6a33a75b12b",
}
KING_VERTEX_DIGESTS = {
    "convergence_vertex.csv":
        "24dcbb5d2dba0461df4b4f7e2603a13d2cc81185fbcce125e4bfc47e6601eec2",
    "opt_vertex_n1.json":
        "58bb5e32f636a461599a6947505741dc3431398b689fc20dedd90d55c1a30ff9",
    "opt_vertex_n2.json":
        "b13521537434e374c883a1ea4598e3a0101fde6aaa1905265bb5c6cc340dda0d",
    "opt_vertex_n3.json":
        "48db98bf1cf1d59b6958a11fa5b81d9976f9292743701ebead67a43eedfa9a0c",
    "opt_vertex_n4.json":
        "0cbd13376a943568e421201805865582458978ef78fec5fa39c35507e1960101",
    "opt_vertex_n5.json":
        "d285ac1419efb594e7380bc72c3bb8ffb487246a96cdf22d18a2215787124930",
    "opt_vertex_n6.json":
        "98a00992ede55585cd693a8dfcc4ef038e5d754937fc1e006aa74ab2a1146f13",
    "opt_vertex_n7.json":
        "cce982acf433c358fa7d53727ef9bf02b4f6085b55abe18408d8d647dc373637",
    "witness_vertex_n1.svg":
        "09ad21bcb8a8cde90d82ff68b76154c7a995681115382e721ce48953e44cf0a2",
    "witness_vertex_n2.svg":
        "b91c0b5ed3bb36f6aa62a326fd0c2e91b8c98bef3cce0d9b30718e20de0b58d1",
    "witness_vertex_n3.svg":
        "53c6547cbc0a507ba19895a3573f7c7a6af53ec71ce1ef017c06366e6f5ba7bc",
    "witness_vertex_n4.svg":
        "b6051e0ea3cd8ac78892e6ec5f7e31f7366eb4802bdd72ccc81e08c8dca70945",
    "witness_vertex_n5.svg":
        "d989f7919c165b0fc78ad4b98cf9464e65ca594c38520ec62ed476433d9aba0c",
    "witness_vertex_n6.svg":
        "2598528242bb8b73be0562681df37e10e530023695ce136a7087db748429552d",
    "witness_vertex_n7.svg":
        "b5dd1dc04a558d8ad74aa60c5bbeefe84a6025ba2a0c02b6c0661863276161ed",
}


@pytest.mark.parametrize("edges, mode, ns, want", [
    ([[1, 0], [0, 1]], "edge", "1..10", Z2_EDGE_DIGESTS),
    ([[1, 0], [0, 1], [1, 1], [1, -1]], "vertex", "1..7", KING_VERTEX_DIGESTS),
], ids=["z2-edge", "king-vertex"])
def test_lattice_exact_artifact_digests(tmp_path, files, edges, mode, ns, want):
    out = tmp_path / "out"
    rc = cli.main(["lattice", "--graph", files("g.json", {"edges": edges}),
                   "--mode", mode, "--n", ns, "--exact", "--out-dir", str(out)])
    assert rc == 0
    got = {}
    for p in out.iterdir():
        data = p.read_bytes()
        if p.name.startswith("opt_"):
            d = json.loads(data)
            assert d.pop("nodes_explored") > 0
            data = json.dumps(d, sort_keys=True).encode()
        got[p.name] = hashlib.sha256(data).hexdigest()
    assert got == want


Z2_EDGE_HEURISTIC_DIGESTS = {
    "convergence_edge.csv":
        "28103f6b12b000f1d1fb7d5635e3aa30b39428b64b3a7614ab469758bca9d3db",
    "opt_edge_n16.json":
        "6d30033d06a0e5ba7de917d9e94b129d2cf1d59a2667d43eebcc489ded0b1b33",
    "opt_edge_n36.json":
        "59521ade7c413e6a3ce80b2cd379789a2495e3a22d636ba9579dd31852753fb9",
    "witness_edge_n16.svg":
        "b0e73358ddab424549e8ddc5d8ea409a7ca2d551ecb29bc3819b2d8557f9f5e0",
    "witness_edge_n36.svg":
        "9994f873212a5a2a8a1375c854c9fd5744767b03efd70f49164a545bb30e69bd",
}
KING_VERTEX_HEURISTIC_DIGESTS = {
    "convergence_vertex.csv":
        "e8c3b97100fc27688809603c2d9faa0727561e4433433a3172cf747e4a33c082",
    "opt_vertex_n16.json":
        "1c943bbf8dd4e27f8b24502c64ca03e85a0fe4b360fe50db5dcae1bdb33cb94c",
    "opt_vertex_n36.json":
        "8d41cc0030790463e9459f71fed39f03b3c7b976844aeffc810ce440e50d6132",
    "witness_vertex_n16.svg":
        "3b1879a2f152a2b06f80fb48fe824c1a4f39494b5a94286866ae067b9ca05677",
    "witness_vertex_n36.svg":
        "959327710d55476f92eb6849262c5dcd701346624d46639e01198f2a85d80bb9",
}


@pytest.mark.parametrize("edges, mode, want", [
    ([[1, 0], [0, 1]], "edge", Z2_EDGE_HEURISTIC_DIGESTS),
    ([[1, 0], [0, 1], [1, 1], [1, -1]], "vertex", KING_VERTEX_HEURISTIC_DIGESTS),
], ids=["z2-edge", "king-vertex"])
def test_lattice_heuristic_artifact_digests(tmp_path, files, edges, mode, want):
    # The annealer's draws follow from the seed alone, so every byte is pinned,
    # nodes_explored (the step count) included.
    out = tmp_path / "out"
    rc = cli.main(["lattice", "--graph", files("g.json", {"edges": edges}),
                   "--mode", mode, "--n", "16,36", "--heuristic", "--seed", "1",
                   "--out-dir", str(out)])
    assert rc == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == want


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


# SHA-256 of every artifact of the disc commands on an off-centre disc: the
# disc's vertices, and so every volume, quotient and fit, must keep their bytes
# however the disc is built.
DISC_COMMAND_DIGESTS = {
    None: {
        "estimate": {
            "estimate_boundary_integral.json":
                "770a6de244a5683c4279186345efcd9d3a3ef1f85498e8fe94d38f538dbe88bb",
            "estimate_finite_difference.json":
                "8b791c746680c983492b3e71c463acf305fd885ba6b69d934ee3c0828161d016",
            "quotients.csv":
                "2d6cdfca87a156d339b9b7243362db58d945193aacba56cdeb3357d5900cb204",
        },
        "series": {
            "series.csv":
                "fe0b1cd8cfd80b7aa32e8404e60fc3976b66a05f4d185db29801aa5e4b632008",
            "series.json":
                "1749dff881ee6659e6a87433e03cce2ca498ca2dbb336f32fdc623529f23ef81",
        },
        "probe": {
            "probe.csv":
                "fc0cb17d0360852b47cf7851e64aff95373772e93b9cd2dae93024789392297c",
            "probe.json":
                "1a47e596d56837ce3173a49c1cfe6c16d6a22d224997f56f5c2fc69d8cdaa698",
        },
    },
    256: {
        "estimate": {
            "estimate_boundary_integral.json":
                "05deb5c96b72311f1a21493478bebfe940b37bb841a72c211942354099048af2",
            "estimate_finite_difference.json":
                "2e704aa8eaa9e000db43079c79cf772847cda5a55d245d053da983cde247a238",
            "quotients.csv":
                "111e69edc9dfe46b90fe2a44773f4a0e5bb8c462aceef93f674854bc6645cac0",
        },
        "series": {
            "series.csv":
                "ac5029b004a6a23964273e84c519308c1926a3fe543084e325c5811ed2c12656",
            "series.json":
                "b2a5745f64871695a080433aaed3899679b4dfb1be3ea6252bfa5cebcd68eb86",
        },
        "probe": {
            "probe.csv":
                "9c01e069d6b2981aee44e134e1a53f3f6afed948e74d8c4122e40ec927b2bb93",
            "probe.json":
                "c5547fad03bed3f5381ed5c95ff69c5dc8b526043c36194dd105456bc02683c0",
        },
    },
}


@pytest.mark.parametrize("resolution", [None, 256], ids=["default", "256"])
def test_disc_command_artifact_digests(tmp_path, files, resolution):
    m = files("m.json", {"disc": {"r": 1.37, "c": [0.41, -0.73]}})
    n = files("n.json", PLUS)
    extra = {"estimate": [], "series": [], "probe": ["--edge", "100", "--t", "0.37"]}
    res = [] if resolution is None else ["--resolution", str(resolution)]
    for command, want in DISC_COMMAND_DIGESTS[resolution].items():
        out = tmp_path / command
        rc = cli.main([command, "--m", m, "--n", n, *extra[command], *res,
                       "--out-dir", str(out)])
        assert rc == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == want, command


#: A nonconvex pentagon M and a set N of two segments, a triangle and two
#: points, all off the integer grid.
POLY_M = {"vertices": [[0.13, -0.41], [1.21, -0.37], [1.33, 0.52], [0.71, 0.18],
                       [0.24, 0.93]]}
MIXED_N = {"components": [
    {"type": "segment", "a": [-0.61, 0.17], "b": [0.48, -0.29]},
    {"type": "segment", "a": [0.05, -0.52], "b": [-0.11, 0.47]},
    {"type": "polygon", "vertices": [[0.02, -0.13], [0.31, 0.07], [-0.09, 0.22]]},
    {"type": "points", "pts": [[0.41, 0.38], [-0.27, -0.33]]},
]}
SEGMENT_DISC_N = {"components": [
    {"type": "segment", "a": [-0.61, 0.17], "b": [0.48, -0.29]},
    {"type": "segment", "a": [0.05, -0.52], "b": [-0.11, 0.47]},
    {"type": "disc", "c": [0.21, -0.13], "r": 0.35},
]}

POLYGON_COMMAND_DIGESTS = {
    "estimate": (["--m", POLY_M, "--n", MIXED_N], {
        "estimate_boundary_integral.json":
            "5527f2c41f5833c34ce9e8c0edf0459d6d188c235f9ecac330100ab4beae1ab3",
        "estimate_finite_difference.json":
            "71564962da1986f0b005f64140ebe5f9f048635a5baa7fc29c99239d8126d2b9",
        "quotients.csv":
            "4b64a123ebfced8d051523f9ff3d851f98683386d5eeba25858b7a74bfefaef5",
    }),
    "series": (["--m", POLY_M, "--n", MIXED_N], {
        "series.csv":
            "9a6dcf985ff3b2acafa0af273f88b0d7277340aa2f3b2e7fe5668a68c5bebaee",
        "series.json":
            "acf8a5cdd3c90b54cd3e00227d29483fd9d8439fd6e67422e65a3497dad8256d",
    }),
    "probe": (["--m", POLY_M, "--n", MIXED_N, "--edge", "2", "--t", "0.37"], {
        "probe.csv":
            "15e54ca46dcc1f101393bdd44147bc730501c49cd9a4b35e659ca34a784111b3",
        "probe.json":
            "ae037ced8a0941b4030c4f0958b568ace57b6ad5a6eaf0498f6e5e9db7bbc83f",
    }),
    "shapes": (["--n", MIXED_N], {
        "shapes.svg":
            "355714ef86a9db24b57aaf5d2a6290f825f785995092e160091bdef9edc0380c",
        "wulff.json":
            "e3358df6edac1c8cfe9ba4254128a0045cc1f9424a53127634a7fc44d65cc7c2",
        "zonotope.json":
            "7a0d1d57f37e7a979db1cda36a97407ed3bc59137e2b6471ed12671f0bfdfa5e",
    }),
    "shapes-disc": (["--n", SEGMENT_DISC_N, "--n-dirs", "720"], {
        "shapes.svg":
            "af338553e78340320ffbe7bb0adb1fd9bbb373023f24e2ba84f2c5316293e1cd",
        "wulff.json":
            "2118f85b8c1672269ea6d56d0b26724f871cc6b04a1e5928ad5232c150da4065",
        "zonotope.json":
            "7a0d1d57f37e7a979db1cda36a97407ed3bc59137e2b6471ed12671f0bfdfa5e",
    }),
}


@pytest.mark.parametrize("case", list(POLYGON_COMMAND_DIGESTS))
def test_polygon_command_artifact_digests(tmp_path, files, case):
    args, want = POLYGON_COMMAND_DIGESTS[case]
    argv = [files(f"in{i}.json", a) if isinstance(a, dict) else a for i, a in enumerate(args)]
    out = tmp_path / "out"
    assert cli.main([case.split("-")[0], *argv, "--out-dir", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == want


# ---------------------------------------------------------------------------
# determinism and configuration


def test_byte_identical_across_threads(tmp_path, files, monkeypatch):
    m, n = files("m.json", DISC), files("n.json", PLUS)
    outs = []
    for threads, sub in ((4, "a"), (1, "b")):
        monkeypatch.setattr(cli, "_workers", lambda: threads)
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


def _estimate_bytes(argv, out):
    assert cli.main([*argv, "--out-dir", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_parser_rejection_leaves_next_call_alone(tmp_path, files, capsys):
    argv = ["estimate", "--m", files("m.json", SQUARE), "--n", files("n.json", PLUS)]
    alone = _estimate_bytes(argv, tmp_path / "alone")
    for bad in (["estimate", "--eps-levels", "seven"], ["estimate", "--bogus", "1"],
                ["lattice", "--mode", "face"], ["nonsense"], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        assert _estimate_bytes(argv, tmp_path / "after") == alone
    assert "invalid choice: 'face'" in capsys.readouterr().err


def test_config_does_not_leak_into_next_call(tmp_path, files):
    argv = ["estimate", "--m", files("m.json", SQUARE), "--n", files("n.json", PLUS)]
    alone = _estimate_bytes(argv, tmp_path / "alone")
    cfg = files("config.json", {"eps_levels": 4, "eps_start": 0.3})
    with_config = _estimate_bytes([*argv, "--config", cfg], tmp_path / "config")
    assert len(with_config["quotients.csv"].splitlines()) == 5
    assert _estimate_bytes(argv, tmp_path / "after") == alone


@pytest.mark.parametrize("command", [[], *([c] for c in cli._COMMANDS)], ids=str)
def test_help_matches_fresh_parser(capsys, command):
    cli.main(["estimate", "--m", "no.json", "--n", "no.json"])  # the shared parser, used
    capsys.readouterr()
    helps = []
    for parse in (cli.main, cli._build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse([*command, "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith(f"usage: {' '.join(['mixvol', *command])}")


def test_main_builds_parser_once(tmp_path, files, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        m, n = files("m.json", SQUARE), files("n.json", PLUS)
        assert cli.main(["estimate", "--m", m, "--n", n, "--out-dir", str(tmp_path)]) == 0
        assert len(built) == 1 + len(cli._COMMANDS)  # mixvol and its subcommands
        assert cli.main(["probe", "--m", m, "--n", n, "--out-dir", str(tmp_path)]) == 0
        assert cli.main(["shapes", "--n", n, "--out-dir", str(tmp_path)]) == 0
        assert len(built) == 1 + len(cli._COMMANDS)
    finally:
        cli._build_parser.cache_clear()


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


@pytest.mark.parametrize("command, config", [
    ("estimate", {"eps_levels": "7"}),
    ("estimate", {"eps_levels": True}),
    ("estimate", {"resolution": 64.5}),
    ("estimate", {"eps_start": "0.1"}),
    ("estimate", {"tolerance": None}),
    ("lattice", {"n": 5}),
    ("lattice", {"exact": 1}),
    ("lattice", {"seed": False}),
    ("lattice", {"mode": ["edge"]}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_config_value_of_wrong_json_type(tmp_path, files, capsys, command, config):
    # a config value needs its flag's JSON type, else the run exits 2
    cfg = files("config.json", config)
    if command == "estimate":
        args = ["--m", files("m.json", SQUARE), "--n", files("n.json", PLUS)]
    else:
        args = ["--graph", files("g.json", GRID)] + ([] if "n" in config else ["--n", "3"])
    rc = cli.main([command, *args, "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert f"error: config {next(iter(config))!r} must be" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("config", [
    {"eps_strat": 0.2},
    {"eps-start": 0.2},
    {"command": "series"},
    {"eps_start": 0.2, "tolerence": 0.1, "a": 1},
], ids=json.dumps)
def test_config_key_that_names_no_setting(tmp_path, files, capsys, config):
    # a misspelt key exits 2 and is named, rather than running with the default
    cfg = files("config.json", config)
    rc = cli.main(["estimate", "--m", files("m.json", SQUARE), "--n", files("n.json", PLUS),
                   "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 2
    unknown = ", ".join(repr(k) for k in sorted(config) if k != "eps_start")
    assert f"error: unknown config key(s): {unknown}\n" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_config_keys_of_other_commands_are_accepted(tmp_path, files):
    # RunConfig is shared, so one config file can serve every command
    cfg = files("config.json", {"eps_levels": 5, "seed": 3, "graph": "g.json", "degree": 4,
                                "mode": "vertex", "edge": 1, "t": 0.25, "n_dirs": 720})
    rc = cli.main(["estimate", "--m", files("m.json", SQUARE), "--n", files("n.json", PLUS),
                   "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(csv_rows(tmp_path / "quotients.csv")[1]) == 5


@pytest.mark.parametrize("config", [
    {"seed": 3},
    {"edge": 1},
    {"exact": False},
    {"eps_start": 1},
    {"out_dir": "from-config"},
], ids=json.dumps)
def test_config_value_of_right_json_type_is_used(tmp_path, files, monkeypatch, config):
    # each value has its default's JSON type (an int may stand for a float)
    monkeypatch.chdir(tmp_path)
    name, out = next(iter(config)), tmp_path / "out"
    cfg = files("config.json", config)
    square, plus = files("m.json", SQUARE), files("n.json", PLUS)
    lattice = ["lattice", "--graph", files("g.json", GRID), "--n", "8", "--mode", "vertex"]
    argv = {"seed": lattice + ["--heuristic"], "exact": lattice,
            "edge": ["probe", "--m", square, "--n", plus, "--t", "0.5"]
            }.get(name, ["estimate", "--m", square, "--n", plus])
    if name != "out_dir":
        argv += ["--out-dir", str(out)]
    assert cli.main([*argv, "--config", cfg]) == 0
    if name == "seed":  # the same bytes as the flag; seed 0 gives another witness
        assert cli.main([*argv, "--seed", "3", "--out-dir", str(tmp_path / "flag")]) == 0
        assert (out / "opt_vertex_n8.json").read_bytes() == \
            (tmp_path / "flag" / "opt_vertex_n8.json").read_bytes()
    elif name == "exact":
        assert read_json(out / "opt_vertex_n8.json")["exact"] is False
    elif name == "edge":
        assert read_json(out / "probe.json")["edge"] == 1
    elif name == "eps_start":
        assert read_json(out / "estimate_finite_difference.json")["epsilons"][0] == 1.0
    else:
        assert (tmp_path / "from-config" / "quotients.csv").exists()
