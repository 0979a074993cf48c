"""View graph: schema, serialization, connectivity, spanning-tree init."""

import dataclasses
import itertools
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotavg.cli as cli
from rotavg.errors import NumericalError, SchemaError
from rotavg.losses import LossSpec
from rotavg.so3 import Rotation, exp_so3, relative_residual
from rotavg.solver import AveragingResult, SolverConfig, solve
from rotavg.synth import DEFAULT_INTRINSICS, SynthConfig, generate_graph, generate_two_view_scene
from rotavg.twoview import CameraIntrinsics, TwoViewGeometry, whitener_from_covariance
from rotavg.viewgraph import (
    EdgeMeasurement,
    ViewGraph,
    ViewNode,
    _tree_rows,
    connected_components,
    load_graph,
    load_pairs,
    load_result_rotations,
    maximum_spanning_tree,
    read_json_object,
    save_graph,
    save_pairs,
    save_result,
    spanning_tree_init,
)

from conftest import moderate_rotation, random_rotation


def _consistent_graph(rng, n, density=1.0, counts=False):
    gt = [random_rotation(rng) for _ in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= density:
                continue
            count = int(rng.integers(5, 500)) if counts else None
            edges.append(EdgeMeasurement(
                i, j, gt[i].compose(gt[j].inverse()), inlier_count=count,
            ))
    return ViewGraph([ViewNode(i, gt[i]) for i in range(n)], edges), gt


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_node_and_edge_validation():
    with pytest.raises(SchemaError):
        ViewNode(-1)
    with pytest.raises(SchemaError):
        EdgeMeasurement(2, 2, Rotation.identity())
    with pytest.raises(SchemaError):
        EdgeMeasurement(0, 1, Rotation.identity(), inlier_count=-3)
    with pytest.raises(SchemaError):
        EdgeMeasurement(0, 1, Rotation.identity(), covariance=np.diag([1.0, -1.0, 1.0]))
    bad_sym = np.eye(3)
    bad_sym[0, 1] = 1e-6
    with pytest.raises(SchemaError):
        EdgeMeasurement(0, 1, Rotation.identity(), covariance=bad_sym)


def test_graph_rejects_duplicates_and_dangling_edges():
    nodes = [ViewNode(0), ViewNode(1)]
    e = EdgeMeasurement(0, 1, Rotation.identity())
    with pytest.raises(SchemaError):
        ViewGraph([ViewNode(0), ViewNode(0)], [])
    with pytest.raises(SchemaError):
        ViewGraph(nodes, [e, EdgeMeasurement(1, 0, Rotation.identity())])
    with pytest.raises(SchemaError):
        ViewGraph(nodes, [EdgeMeasurement(0, 5, Rotation.identity())])


def test_graph_accepts_generators():
    edges = [EdgeMeasurement(0, 1, Rotation.identity()), EdgeMeasurement(1, 2, Rotation.identity())]
    g = ViewGraph((ViewNode(i) for i in range(3)), (e for e in edges))
    assert g.node_ids == [0, 1, 2]
    assert [e.key for e in g.edges] == [(0, 1), (1, 2)]
    with pytest.raises(SchemaError, match=r"^duplicate node id 0$"):
        ViewGraph((ViewNode(i) for i in (0, 1, 0)), iter([]))


def test_edge_whitener_cache():
    e = EdgeMeasurement(0, 1, Rotation.identity(), covariance=np.diag([4.0, 1.0, 1.0]))
    d = whitener_from_covariance(e.covariance)
    assert np.allclose(d, np.diag([0.5, 1.0, 1.0]), atol=1e-12)
    inv = d @ d.T
    assert np.allclose(inv @ e.covariance, np.eye(3), atol=1e-8)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def test_empty_graph_round_trip(tmp_path):
    path = tmp_path / "empty.json"
    save_graph(ViewGraph([], []), path)
    g = load_graph(path)
    assert not g.nodes and not g.edges


def test_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    gt = [random_rotation(rng) for _ in range(4)]
    edges = [
        EdgeMeasurement(0, 1, random_rotation(rng), covariance=np.eye(3), inlier_count=12),
        EdgeMeasurement(1, 2, random_rotation(rng),
                        covariance=np.diag([4.0, 1.0, 1.0])),
        EdgeMeasurement(2, 3, random_rotation(rng), inlier_count=7),
        EdgeMeasurement(0, 3, random_rotation(rng)),
    ]
    g = ViewGraph([ViewNode(i, gt[i]) for i in range(4)], edges)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(g, p1)
    save_graph(load_graph(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_preserves_fields(tmp_path):
    path = tmp_path / "g.json"
    cov = np.diag([4.0, 1.0, 1.0])
    g = ViewGraph(
        [ViewNode(0, Rotation.identity()), ViewNode(1)],
        [EdgeMeasurement(0, 1, exp_so3(np.array([0.1, 0.2, -0.3])),
                         covariance=cov, inlier_count=99)],
    )
    save_graph(g, path)
    back = load_graph(path)
    e = back.edges[0]
    assert e.inlier_count == 99
    assert np.array_equal(e.covariance, cov)
    assert e.rotation == g.edges[0].rotation
    assert np.allclose(whitener_from_covariance(e.covariance), np.diag([0.5, 1.0, 1.0]),
                       atol=1e-12)
    assert back.nodes[0].gt_rotation == Rotation.identity()
    assert back.nodes[1].gt_rotation is None


def test_load_graph_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_graph(bad)
    bad.write_text(json.dumps({"nodes": []}))
    with pytest.raises(SchemaError):
        load_graph(bad)
    bad.write_text(json.dumps({
        "nodes": [{"id": 0}, {"id": 1}],
        "edges": [{"i": 0, "j": 1, "qwxyz": [1, 0, 0, 0], "cov": [1.0] * 8}],
    }))
    with pytest.raises(SchemaError, match="cov"):
        load_graph(bad)
    bad.write_text(json.dumps({
        "nodes": [{"id": 0}, {"id": 1}],
        "edges": [{"i": 0, "j": 1, "qwxyz": [0, 0, 0, 0]}],
    }))
    with pytest.raises(SchemaError, match="quaternion"):
        load_graph(bad)


def _edge_records(rng, n=5):
    """Valid records of a ring over n nodes, each with a covariance and a count."""
    records = []
    for k in range(n):
        a = rng.normal(size=(3, 3))
        records.append({"i": k, "j": (k + 1) % n, "inliers": 10 + k,
                        "qwxyz": random_rotation(rng).quaternion.tolist(),
                        "cov": (a @ a.T + 0.1 * np.eye(3)).reshape(9).tolist()})
    return records


def _load_edges(tmp_path, records, n=5):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": [{"id": k} for k in range(n)], "edges": records}))
    return load_graph(path)


def _constructor_message(**kw):
    with pytest.raises(SchemaError) as exc:
        EdgeMeasurement(**kw)
    return str(exc.value)


def _quaternion_message(edge, q):
    with pytest.raises(ValueError) as exc:
        Rotation(np.asarray(q, dtype=np.float64))
    return f"edge ({edge['i']}, {edge['j']}): bad quaternion {q!r}: {exc.value}"


def _break(edge, rule):
    """Make ``edge`` break ``rule``; return the message its one-record load raises."""
    i, j, rot = edge["i"], edge["j"], Rotation.identity()
    cov = np.array(edge["cov"]).reshape(3, 3)
    if rule == "self-loop":
        edge["j"] = i
        return _constructor_message(i=i, j=i, rotation=rot)
    if rule == "negative inliers":
        edge["inliers"] = -1
        return _constructor_message(i=i, j=j, rotation=rot, inlier_count=-1)
    if rule == "cov length":
        edge["cov"] = edge["cov"][:8]
        return f"edge ({i}, {j}): 'cov' must be 9 row-major floats"
    if rule in ("non-finite cov", "asymmetric cov", "not-PD cov"):
        if rule == "non-finite cov":
            cov[1, 2] = np.inf
        elif rule == "asymmetric cov":
            cov[0, 1] += 1e-6
        else:
            cov = np.diag([1.0, -1.0, 1.0])
        edge["cov"] = cov.reshape(9).tolist()
        return _constructor_message(i=i, j=j, rotation=rot, covariance=cov)
    edge["qwxyz"] = {"zero-norm quaternion": [0.0, 0.0, 0.0, 0.0],
                     "non-finite quaternion": [float("nan"), 0.0, 0.0, 1.0],
                     "overflowing quaternion": [1e308, 1e308, 0.0, 0.0],
                     "quaternion length": [1.0, 0.0, 0.0]}[rule]
    return _quaternion_message(edge, edge["qwxyz"])


EDGE_RULES = ["self-loop", "negative inliers", "cov length", "non-finite cov", "asymmetric cov",
              "not-PD cov", "zero-norm quaternion", "non-finite quaternion", "quaternion length",
              "overflowing quaternion"]


@pytest.mark.parametrize("rule", EDGE_RULES)
def test_load_graph_names_bad_edge_like_its_constructor(tmp_path, rule):
    records = _edge_records(np.random.default_rng(7))
    expected = _break(records[2], rule)
    with pytest.raises(SchemaError) as exc:
        _load_edges(tmp_path, records)
    assert str(exc.value) == expected


@pytest.mark.parametrize("first, second", [("not-PD cov", "zero-norm quaternion"),
                                           ("zero-norm quaternion", "self-loop"),
                                           ("asymmetric cov", "non-finite cov"),
                                           ("negative inliers", "cov length"),
                                           ("self-loop", "negative inliers")])
def test_load_graph_names_first_bad_edge(tmp_path, first, second):
    records = _edge_records(np.random.default_rng(8))
    expected = _break(records[1], first)
    _break(records[3], second)
    with pytest.raises(SchemaError) as exc:
        _load_edges(tmp_path, records)
    assert str(exc.value) == expected


def test_load_graph_names_first_bad_node(tmp_path):
    nodes = [{"id": k, "gt_qwxyz": [1.0, 0.0, 0.0, 0.0]} for k in range(5)]
    nodes[1]["id"] = -1
    nodes[3]["gt_qwxyz"] = [0, 0, 0, 0]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": []}))
    with pytest.raises(SchemaError, match=r"^node id must be non-negative, got -1$"):
        load_graph(path)
    nodes[1], nodes[3] = nodes[3], nodes[1]
    path.write_text(json.dumps({"nodes": nodes, "edges": []}))
    with pytest.raises(SchemaError, match=r"^node 3: bad quaternion \[0, 0, 0, 0\]: zero-norm"):
        load_graph(path)


_COLUMNS = ("ids", "gt_quats", "has_gt", "ends", "quats", "covariances", "has_covariance",
            "inlier_counts", "has_inlier_count")


def _columns(g):
    return [(name, getattr(g, name).dtype, getattr(g, name).shape, getattr(g, name).tobytes())
            for name in _COLUMNS]


def _graph_records(rng, n=12):
    """Nodes and edges of a valid ring as plain values: (ids, gts, i, j, quats, covs, counts),
    None where a node has no ground truth or an edge no covariance or count."""
    records = _edge_records(rng, n=n)
    ids = rng.permutation(n).tolist()  # nodes out of id order
    gts = [random_rotation(rng).quaternion if k % 2 else None for k in range(n)]
    records = records[::-1]  # edges out of (i, j) order
    covs = [np.array(r["cov"]).reshape(3, 3) if k % 4 != 1 else None for k, r in enumerate(records)]
    counts = [r["inliers"] if k % 3 else None for k, r in enumerate(records)]
    return [ids, gts, [r["i"] for r in records], [r["j"] for r in records],
            [random_rotation(rng).quaternion for _ in records], covs, counts]


def _from_records(ids, gts, i, j, quats, covs, counts):
    nodes = [ViewNode(nid, None if q is None else Rotation(q)) for nid, q in zip(ids, gts)]
    edges = [EdgeMeasurement(a, b, Rotation(q), c, n)
             for a, b, q, c, n in zip(i, j, quats, covs, counts)]
    return ViewGraph(nodes, edges)


def _from_columns(ids, gts, i, j, quats, covs, counts):
    return ViewGraph.from_columns(
        ids, i, j, quats,
        gt_quats=[np.full(4, np.nan) if q is None else q for q in gts],
        has_gt=[q is not None for q in gts],
        covariances=[np.full((3, 3), np.nan) if c is None else c for c in covs],
        has_covariance=[c is not None for c in covs],
        inlier_counts=[-1 if n is None else n for n in counts],
        has_inlier_count=[n is not None for n in counts])


def _built(build, values):
    try:
        return _columns(build(*values))
    except SchemaError as exc:
        return str(exc)


def test_records_and_columns_build_the_same_graph():
    values = _graph_records(np.random.default_rng(9))
    g, h = _from_records(*values), _from_columns(*values)
    assert _columns(g) == _columns(h)
    assert g.node_ids == sorted(values[0])
    assert [e.key for e in h.edges] == sorted(zip(values[2], values[3]))
    for e, ref in zip(h.edges, g.edges):
        assert (e.key, e.rotation, e.inlier_count) == (ref.key, ref.rotation, ref.inlier_count)
        assert (e.covariance is None) == (ref.covariance is None)
        assert e.covariance is None or e.covariance.tobytes() == ref.covariance.tobytes()
    assert h.nodes == g.nodes
    assert [nid for nid, n in h.nodes.items() if n.gt_rotation is not None] == sorted(
        nid for nid, q in zip(values[0], values[1]) if q is not None)


def _break_column(values, what, k):
    """Make record k of the columns ``values`` break the rule ``what``."""
    ids, gts, i, j, quats, covs, counts = values
    if what == "negative id":
        ids[k] = -3
    elif what == "large id":
        ids[k] = 2**63
    elif what == "duplicate id":
        ids[k] = ids[k - 1]
    elif what == "self-loop":
        j[k] = i[k]
    elif what == "negative count":
        counts[k] = -1
    elif what == "large count":
        counts[k] = 2**64
    elif what == "dangling":
        j[k] = 2**70
    elif what == "duplicate pair":
        i[k], j[k] = j[k - 1], i[k - 1]
    else:
        covs[k] = np.eye(3)
        covs[k][1, 2] = {"non-finite cov": np.inf, "asymmetric cov": 1e-6,
                         "not-PD cov": 2.0}[what]
        if what == "not-PD cov":
            covs[k][2, 1] = 2.0


@pytest.mark.parametrize("first, second", [
    ("self-loop", None), ("negative count", None), ("large count", None),
    ("non-finite cov", None), ("asymmetric cov", None), ("not-PD cov", None),
    ("negative id", None), ("large id", None), ("duplicate id", None), ("dangling", None),
    ("duplicate pair", None), ("not-PD cov", "self-loop"), ("dangling", "duplicate pair"),
    ("duplicate pair", "negative count"), ("negative id", "non-finite cov")])
def test_records_and_columns_raise_the_same_error(first, second):
    """The first bad record raises, from columns, the error its own constructor
    or ``ViewGraph(nodes, edges)`` raises."""
    values = _graph_records(np.random.default_rng(10))
    _break_column(values, first, 4)
    if second:
        _break_column(values, second, 7)
    expected = _built(_from_records, values)
    assert isinstance(expected, str)
    assert _built(_from_columns, values) == expected


def test_pairs_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    geoms = []
    for idx in range(3):
        geoms.append(((idx, idx + 1), generate_two_view_scene(
            n_points=12, pixel_sigma=0.5,
            rotation=moderate_rotation(rng) if idx else Rotation.identity(),
            translation=np.array([1.0, 0.0, 0.2]), seed=idx,
            scene_depth=4.0,
        )))
    path = tmp_path / "pairs.json"
    save_pairs(geoms, path)
    back = load_pairs(path)
    assert [pair for pair, _ in back] == [pair for pair, _ in geoms]
    for (_, a), (_, b) in zip(geoms, back):
        assert a.rotation == b.rotation
        assert np.array_equal(a.matches, b.matches)
        assert np.array_equal(a.intrinsics_i.k, b.intrinsics_i.k)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pairs": [{"i": 0, "j": 1}]}))
    with pytest.raises(SchemaError):
        load_pairs(bad)


_WRITE_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE


def _indented(path):
    """Rewrite a file in the indented layout of earlier releases; return the compact text."""
    text = path.read_text()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(json.loads(text), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return text


def test_files_are_compact_json_and_indented_files_still_load(tmp_path):
    rng = np.random.default_rng(3)
    g, _ = _consistent_graph(rng, 5, counts=True)
    g = ViewGraph(g.nodes.values(), [EdgeMeasurement(e.i, e.j, e.rotation, np.diag([4.0, 1.0, 2.0]),
                                                     e.inlier_count) for e in g.edges])
    pairs = [((k, k + 1), generate_two_view_scene(
        n_points=8, pixel_sigma=0.5, rotation=moderate_rotation(rng),
        translation=np.array([1.0, 0.0, 0.2]), seed=k)) for k in range(2)]
    result = solve(g, spanning_tree_init(g), SolverConfig())
    paths = {name: tmp_path / f"{name}.json" for name in ("graph", "pairs", "result")}
    save_graph(g, paths["graph"])
    save_pairs(pairs, paths["pairs"])
    save_result(result, paths["result"])
    for path in paths.values():
        text = path.read_text()
        # the stdlib decodes what orjson wrote to values orjson writes back byte for byte
        assert text == orjson.dumps(json.loads(text), option=_WRITE_OPTIONS).decode()
        assert text.count("\n") == 1

    def graph_values(h):
        return ([(n.id, n.gt_rotation) for n in h.nodes.values()],
                [(e.key, e.rotation, e.inlier_count, e.covariance.tobytes()) for e in h.edges])

    def pairs_values(ps):
        return [(key, geom.rotation, geom.translation.tobytes(), geom.intrinsics_i.k.tobytes(),
                 geom.intrinsics_j.k.tobytes(), geom.matches.tobytes()) for key, geom in ps]

    loaders = {"graph": (load_graph, graph_values), "pairs": (load_pairs, pairs_values),
               "result": (load_result_rotations, lambda r: r)}
    for name, path in paths.items():
        load, values = loaders[name]
        compact = values(load(path))
        assert json.loads(_indented(path)) == json.loads(path.read_text())
        assert values(load(path)) == compact
    assert graph_values(load_graph(paths["graph"])) == graph_values(g)


def test_load_pairs_shares_intrinsics_per_distinct_k(tmp_path):
    rng = np.random.default_rng(4)
    other = CameraIntrinsics(np.array([[700.0, 0.0, 300.0], [0.0, 710.0, 200.0], [0.0, 0.0, 1.0]]))
    pairs = []
    for k, (ki, kj) in enumerate([(DEFAULT_INTRINSICS, DEFAULT_INTRINSICS),
                                  (DEFAULT_INTRINSICS, other), (other, DEFAULT_INTRINSICS)]):
        geom = generate_two_view_scene(n_points=8, pixel_sigma=0.5, rotation=moderate_rotation(rng),
                                       translation=np.array([1.0, 0.0, 0.2]), seed=k)
        pairs.append(((k, k + 1), TwoViewGeometry(geom.rotation, geom.translation, ki, kj,
                                                  geom.matches)))
    path = tmp_path / "pairs.json"
    save_pairs(pairs, path)
    back = [geom for _, geom in load_pairs(path)]
    slots = [g.intrinsics_i for g in back] + [g.intrinsics_j for g in back]
    assert len({id(k) for k in slots}) == 2
    assert back[0].intrinsics_i is back[0].intrinsics_j is back[1].intrinsics_i
    assert back[1].intrinsics_j is back[2].intrinsics_i
    assert np.array_equal(back[1].intrinsics_j.k, other.k)


# ---------------------------------------------------------------------------
# JSON decoding: orjson, with the stdlib json as the reference and fallback
# ---------------------------------------------------------------------------


def _same(a, b):
    """Equal JSON values of equal types, floats bit for bit, keys in the same order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


def _written_files(tmp_path):
    """A graph, a correspondence set and a result file as the writers write them."""
    rng = np.random.default_rng(5)
    scene = generate_graph(SynthConfig(n_cameras=8, edge_density=0.6,
                                       noise_sigmas_deg=((1.0, 1.0),), seed=5))
    pairs = [((k, k + 1), generate_two_view_scene(
        n_points=10, pixel_sigma=0.5, rotation=moderate_rotation(rng),
        translation=rng.normal(size=3), seed=k)) for k in range(3)]
    paths = {name: tmp_path / f"{name}.json" for name in ("graph", "pairs", "result")}
    save_graph(scene.graph, paths["graph"])
    save_pairs(pairs, paths["pairs"])
    save_result(solve(scene.graph, spanning_tree_init(scene.graph), SolverConfig()),
                paths["result"])
    return paths


def test_reader_matches_stdlib_on_written_files(tmp_path):
    for path in _written_files(tmp_path).values():
        assert _same(read_json_object(path, ()), json.loads(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("text", [
    '{"x": NaN}', '{"x": [Infinity, -Infinity]}', '{"x": 1e400, "y": -1e400}',
    '{"x": "\\ud800"}', '{"x": ["\\udc00b", NaN], "y": 0.1}',
])
def test_reader_reads_what_only_the_stdlib_reads(tmp_path, text):
    """orjson rejects these documents; the stdlib fallback reads them as before."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(path.read_bytes())
    assert _same(read_json_object(path, ("x",)), json.loads(text))


@pytest.mark.parametrize("data", [
    b"{not json", b'{"x": 1,}', b'{"x": [1, 2}', b"", b'\xef\xbb\xbf{"x": 1}',
    b'{"x": 1,\r\n "y": ]}', b'{"x": 1,\r "y": ]}', b'{"x": 1} {}',
])
def test_malformed_json_message_is_the_stdlib_one(tmp_path, data):
    """The error names the file and quotes the stdlib's text-mode read of it."""
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fh, pytest.raises(json.JSONDecodeError) as ref:
        json.load(fh)
    with pytest.raises(SchemaError) as err:
        read_json_object(path, ("x",))
    assert str(err.value) == f"{path}: malformed JSON: {ref.value}"


def test_reader_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "doc.json"
    for data in (b'{"x": "\xff"}', b'{"x": "\xed\xa0\x80"}'):  # a byte, an encoded surrogate
        path.write_bytes(data)
        with pytest.raises(SchemaError, match=r"not UTF-8: 'utf-8' codec can't decode byte"):
            read_json_object(path, ("x",))


def _reference_pairs(path):
    """Per-record construction: each pair checked on its own, in file order."""
    out = []
    for rec in read_json_object(path, ("pairs",))["pairs"]:
        where = f"pair ({rec['i']}, {rec['j']})"
        try:
            rotation = Rotation(np.asarray(rec["qwxyz"], dtype=np.float64))
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{where}: bad quaternion {rec['qwxyz']!r}: {exc}") from None
        try:
            geom = TwoViewGeometry(
                rotation, np.asarray(rec["t"], dtype=np.float64),
                CameraIntrinsics(np.asarray(rec["K_i"], dtype=np.float64).reshape(3, 3)),
                CameraIntrinsics(np.asarray(rec["K_j"], dtype=np.float64).reshape(3, 3)),
                np.asarray(rec["matches"], dtype=np.float64))
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{where}: {exc}") from None
        out.append(((rec["i"], rec["j"]), geom))
    return out


def _pair_bytes(pairs):
    return [(key, g.rotation.quaternion.tobytes(), g.translation.tobytes(), g.translation.shape,
             g.intrinsics_i.k.tobytes(), g.intrinsics_j.k.tobytes(), g.matches.tobytes(),
             g.matches.shape) for key, g in pairs]


def _outcome(load, path):
    try:
        return _pair_bytes(load(path))
    except SchemaError as exc:
        return str(exc)


def test_load_pairs_equals_per_record_construction(tmp_path):
    """Translations, matches and Ks byte for byte, from a file holding translations
    of wide magnitudes and Ks written flat and as nested rows."""
    rng = np.random.default_rng(6)
    other = [[700.0, 0.0, 300.0], [0.0, 710.0, 200.0], [0.0, 0.0, 1.0]]
    records = []
    for k in range(40):
        geom = generate_two_view_scene(n_points=int(rng.integers(8, 30)), pixel_sigma=0.5,
                                       rotation=moderate_rotation(rng),
                                       translation=rng.normal(size=3), seed=k)
        t = rng.normal(size=3) * 10.0 ** rng.integers(-5, 120)
        records.append({"i": k, "j": k + 1, "qwxyz": geom.rotation.quaternion.tolist(),
                        "t": t.tolist() if k % 5 else [t.tolist()],
                        "K_i": DEFAULT_INTRINSICS.k.reshape(9).tolist(),
                        "K_j": other if k % 3 else DEFAULT_INTRINSICS.k.tolist(),
                        "matches": (geom.matches * rng.uniform(0.5, 2.0)).tolist()})
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"pairs": records}))
    back = load_pairs(path)
    assert _pair_bytes(back) == _pair_bytes(_reference_pairs(path))
    assert len({id(g.intrinsics_i) for _, g in back} | {id(g.intrinsics_j) for _, g in back}) == 2


def test_load_pairs_raises_the_first_bad_pair_across_fields(tmp_path):
    """File order decides between pairs; within one pair the quaternion goes first."""
    pairs = [((k, k + 1), generate_two_view_scene(
        n_points=8, pixel_sigma=0.5, rotation=moderate_rotation(np.random.default_rng(k)),
        translation=np.array([1.0, 0.0, 0.2]), seed=k)) for k in range(5)]
    path = tmp_path / "pairs.json"
    save_pairs(pairs, path)
    good = json.loads(path.read_text())
    cases = [
        ({(1, "matches"): [[1.0, 2.0, 3.0]], (3, "t"): [0.0, 0.0, 0.0]},
         "pair (1, 2): matches must be an (N, 4) array [x, y, x', y']"),
        ({(1, "t"): [0.0, 0.0, 0.0], (3, "matches"): [[1.0, 2.0, 3.0]]},
         "pair (1, 2): zero-baseline translation"),
        ({(2, "K_j"): [1.0] * 9, (2, "t"): [1.0, 2.0], (4, "qwxyz"): [0, 0, 0, 0]},
         "pair (2, 3): K must be upper-triangular with K[2][2] = 1"),
        ({(2, "t"): "x", (2, "qwxyz"): [0, 0, 0, 0]},
         "pair (2, 3): bad quaternion [0, 0, 0, 0]: zero-norm quaternion"),
        ({(0, "matches"): [], (1, "qwxyz"): None},
         "pair (0, 1): matches must be an (N, 4) array [x, y, x', y']"),
        ({(3, "t"): [1e200, 1e200, 0.0]}, "pair (3, 4): translation norm overflows"),
    ]
    for edits, message in cases:
        doc = json.loads(json.dumps(good))
        for (k, name), value in edits.items():
            doc["pairs"][k][name] = value
        path.write_text(json.dumps(doc))
        assert _outcome(load_pairs, path) == _outcome(_reference_pairs, path) == message


def test_one_match_pair_round_trips_bitwise(tmp_path):
    geom = generate_two_view_scene(n_points=8, pixel_sigma=0.5, rotation=moderate_rotation(
        np.random.default_rng(3)), translation=np.array([1.0, 0.0, 0.2]), seed=3)
    one = TwoViewGeometry(geom.rotation, geom.translation, geom.intrinsics_i, geom.intrinsics_j,
                          geom.matches[:1])
    path = tmp_path / "pairs.json"
    save_pairs([((0, 1), one)], path)
    assert _pair_bytes(load_pairs(path)) == _pair_bytes([((0, 1), one)])


@pytest.mark.parametrize("matches", [[[1, 2, 3], [4, 5, 6, 7, 8]], ["1234"],
                                     [{"a": 1, "b": 2, "c": 3, "d": 4}], [[1, 2, 3, "4"]]])
def test_load_pairs_reads_rows_not_a_count_of_numbers(tmp_path, matches):
    """Matches whose numbers come to a multiple of 4 without being rows of 4:
    the per-record result, whatever a one-pass conversion would make of them."""
    pairs = [((k, k + 1), generate_two_view_scene(
        n_points=8, pixel_sigma=0.5, rotation=Rotation.identity(),
        translation=np.array([1.0, 0.0, 0.2]), seed=k)) for k in range(3)]
    path = tmp_path / "pairs.json"
    save_pairs(pairs, path)
    doc = json.loads(path.read_text())
    doc["pairs"][1]["matches"] = matches
    path.write_text(json.dumps(doc))
    assert _outcome(load_pairs, path) == _outcome(_reference_pairs, path)


_SHAPED = st.floats() | st.integers(-10, 10) | st.sampled_from([None, True, "1.5", "x", {}])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), st.sampled_from(["qwxyz", "t", "K_i", "K_j", "matches"]),
       st.lists(_SHAPED, max_size=10) | st.lists(st.lists(_SHAPED, max_size=5), max_size=4)
       | _SHAPED)
def test_load_pairs_equals_per_record_construction_on_any_value(record, field, value):
    """Whatever a numeric field holds, load_pairs gives the per-record result or error."""
    pairs = [((k, k + 1), generate_two_view_scene(
        n_points=8, pixel_sigma=0.5, rotation=Rotation.identity(),
        translation=np.array([1.0, 0.0, 0.2]), seed=k)) for k in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.json"
        save_pairs(pairs, path)
        doc = json.loads(path.read_text())
        doc["pairs"][record][field] = value
        path.write_text(json.dumps(doc))
        assert _outcome(load_pairs, path) == _outcome(_reference_pairs, path)


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def _bfs_components(node_ids, edge_pairs):
    """Independent breadth-first-search oracle."""
    adj = {nid: [] for nid in node_ids}
    for i, j in edge_pairs:
        adj[i].append(j)
        adj[j].append(i)
    seen, comps = set(), []
    for start in sorted(node_ids):
        if start in seen:
            continue
        queue, comp = [start], set()
        while queue:
            cur = queue.pop(0)
            if cur in comp:
                continue
            comp.add(cur)
            queue.extend(n for n in adj[cur] if n not in comp)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def test_single_triangle_is_one_component():
    g = ViewGraph(
        [ViewNode(i) for i in range(3)],
        [EdgeMeasurement(0, 1, Rotation.identity()),
         EdgeMeasurement(1, 2, Rotation.identity()),
         EdgeMeasurement(0, 2, Rotation.identity())],
    )
    comps = connected_components(g)
    assert len(comps) == 1 and comps[0].node_ids == [0, 1, 2]


def test_two_disjoint_triangles():
    edges = [EdgeMeasurement(i, j, Rotation.identity())
             for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]]
    comps = connected_components(ViewGraph([ViewNode(i) for i in range(6)], edges))
    assert [c.node_ids for c in comps] == [[0, 1, 2], [3, 4, 5]]
    assert len(comps[0].edges) == 3 and len(comps[1].edges) == 3


def test_components_match_bfs_oracle():
    rng = np.random.default_rng(2)
    nodes = list(range(100))
    pairs = []
    for i in range(100):
        for j in range(i + 1, 100):
            if rng.random() < 0.012:
                pairs.append((i, j))
    g = ViewGraph([ViewNode(i) for i in nodes],
                  [EdgeMeasurement(i, j, Rotation.identity()) for i, j in pairs])
    ours = [c.node_ids for c in connected_components(g)]
    assert ours == _bfs_components(nodes, pairs)


# ---------------------------------------------------------------------------
# spanning-tree initialization
# ---------------------------------------------------------------------------


def test_chain_init_composes_relative_rotations():
    r = exp_so3(np.array([0.1, 0.0, 0.0]))
    g = ViewGraph(
        [ViewNode(i) for i in range(3)],
        [EdgeMeasurement(0, 1, r), EdgeMeasurement(1, 2, r)],
    )
    init = spanning_tree_init(g, "unit")
    assert init[0] == Rotation.identity()
    for e in g.edges:
        assert np.linalg.norm(relative_residual(init[e.i], init[e.j], e.rotation)) < 1e-12


def test_consistent_graph_init_zeroes_all_residuals():
    rng = np.random.default_rng(3)
    g, _ = _consistent_graph(rng, 8, density=0.6)
    init = spanning_tree_init(g, "unit")
    for e in g.edges:  # tree and non-tree edges alike
        assert np.linalg.norm(relative_residual(init[e.i], init[e.j], e.rotation)) < 1e-10


def _per_edge_tree_init(g, criterion):
    """Depth-first tree init with one Rotation.inverse/compose per tree edge."""
    adjacency = {nid: [] for nid in g.nodes}
    for e in maximum_spanning_tree(g, criterion):
        adjacency[e.i].append((e.j, e.rotation.inverse()))
        adjacency[e.j].append((e.i, e.rotation))
    rotations = {min(g.nodes): Rotation.identity()}
    stack = [min(g.nodes)]
    while stack:
        cur = stack.pop()
        for nxt, rel in sorted(adjacency[cur], key=lambda x: x[0]):
            if nxt not in rotations:
                rotations[nxt] = rel.compose(rotations[cur])
                stack.append(nxt)
    return rotations


@pytest.mark.parametrize("criterion", ["auto", "unit"])
def test_tree_init_matches_per_edge_compose_bytewise(criterion):
    g = generate_graph(SynthConfig(n_cameras=120, edge_density=0.06,
                                   noise_sigmas_deg=((0.5, 0.5), (0.5, 5.0)),
                                   outlier_fraction=0.1, seed=11)).graph
    init, ref = spanning_tree_init(g, criterion), _per_edge_tree_init(g, criterion)
    assert sorted(init) == sorted(ref) == g.node_ids
    assert all(init[nid].quaternion.tobytes() == ref[nid].quaternion.tobytes() for nid in ref)


def _spanning_trees(g):
    """All spanning trees of a small graph: the (n - 1)-edge subsets that reach every node."""
    for combo in itertools.combinations(g.edges, len(g.nodes) - 1):
        reached = {min(g.nodes)}
        grew = True
        while grew:
            grew = False
            for e in combo:
                if (e.i in reached) != (e.j in reached):
                    reached |= {e.i, e.j}
                    grew = True
        if len(reached) == len(g.nodes):
            yield combo


def _kruskal_rows(g, criterion):
    """Edge rows Kruskal's algorithm takes, one edge at a time on a list union-find."""
    parent = list(range(len(g.ids)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    a, b = g.ends.T.tolist()
    ranked = range(len(a))
    if criterion == "auto" and g.has_inlier_count.all():
        ranked = np.argsort(-g.inlier_counts, kind="stable").tolist()
    rows = []
    for k in ranked:
        ra, rb = find(a[k]), find(b[k])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            rows.append(k)
    return rows


@pytest.mark.parametrize("criterion", ["auto", "unit"])
def test_tree_rows_match_kruskal_in_order(criterion):
    """The Borůvka tree takes Kruskal's rows in Kruskal's order: tied counts, counts
    missing on some graphs, forests of several components, one node and no nodes."""
    rng = np.random.default_rng(25)
    shapes = {"several components": 0, "missing counts": 0, "ties": 0}
    for trial in range(300):
        n = int(rng.integers(0, 25))
        pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
                 if rng.random() < 0.15]
        ids = rng.permutation(10 * n + 1)[:n]  # node rows are not ids
        i, j = ids[[p for p, _ in pairs]], ids[[q for _, q in pairs]]
        g = ViewGraph.from_columns(
            ids, i, j, np.tile([1.0, 0.0, 0.0, 0.0], (len(pairs), 1)),
            inlier_counts=rng.integers(0, 4, len(pairs)),  # few values: many ties
            has_inlier_count=rng.random(len(pairs)) < (0.9 if trial % 4 == 0 else 1.0))
        shapes["several components"] += len(connected_components(g)) > 1
        shapes["missing counts"] += not g.has_inlier_count.all()
        shapes["ties"] += len(np.unique(g.inlier_counts)) < len(pairs)
        assert _tree_rows(g, criterion).tolist() == _kruskal_rows(g, criterion)
    assert min(shapes.values()) > 10
    for n in (0, 1):
        g = ViewGraph([ViewNode(k) for k in range(n)], [])
        assert _tree_rows(g, criterion).tolist() == _kruskal_rows(g, criterion) == []


def test_maximum_spanning_tree_vs_brute_force():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(4, 7))
        g, _ = _consistent_graph(rng, n, density=0.8, counts=True)
        if len(connected_components(g)) != 1:
            continue
        tree = maximum_spanning_tree(g, "auto")
        best = max(
            sum(e.inlier_count for e in combo)
            for combo in _spanning_trees(g)
        )
        assert sum(e.inlier_count for e in tree) == best


def test_maximum_spanning_tree_beats_random_trees():
    rng = np.random.default_rng(5)
    g, _ = _consistent_graph(rng, 12, density=0.5, counts=True)
    assert len(connected_components(g)) == 1
    mst_weight = sum(e.inlier_count for e in maximum_spanning_tree(g, "auto"))

    def random_tree_weight():
        # random spanning tree by shuffled Kruskal
        order = list(g.edges)
        rng.shuffle(order)
        parent = {nid: nid for nid in g.nodes}

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        total = 0
        for e in order:
            ra, rb = find(e.i), find(e.j)
            if ra != rb:
                parent[ra] = rb
                total += e.inlier_count
        return total

    for _ in range(1000):
        assert mst_weight >= random_tree_weight()


def test_tree_follows_high_weight_path():
    # two paths 0-2: direct low-weight edge vs. high-weight detour via 1
    edges = [
        EdgeMeasurement(0, 2, Rotation.identity(), inlier_count=5),
        EdgeMeasurement(0, 1, Rotation.identity(), inlier_count=100),
        EdgeMeasurement(1, 2, Rotation.identity(), inlier_count=80),
    ]
    g = ViewGraph([ViewNode(i) for i in range(3)], edges)
    tree = maximum_spanning_tree(g, "auto")
    assert sorted(e.key for e in tree) == [(0, 1), (1, 2)]


def _tree_keys(g, criterion):
    return sorted(e.key for e in maximum_spanning_tree(g, criterion))


def test_default_tree_criterion_preference():
    """``auto`` weighs inlier counts when every edge has one and all edges alike
    otherwise; ``unit`` always weighs them alike.  Covariances weigh nothing."""
    r = Rotation.identity()

    def triangle(counts, covs=(3 * np.eye(3), np.eye(3), np.eye(3))):
        # the least certain edge is (0, 1): an inverse-covariance tree would leave it out
        return ViewGraph([ViewNode(i) for i in range(3)],
                         [EdgeMeasurement(i, j, r, covariance=c, inlier_count=n)
                          for (i, j), n, c in zip([(0, 1), (0, 2), (1, 2)], counts, covs)])

    counted = triangle([1, 100, 100])
    assert _tree_keys(counted, "auto") == [(0, 2), (1, 2)]
    # the unit tree takes the edges in (i, j) order
    assert _tree_keys(counted, "unit") == [(0, 1), (0, 2)]
    # a count missing on one edge: no count weighs anything, not even (1, 2)'s 100
    assert _tree_keys(triangle([1, None, 100]), "auto") == [(0, 1), (0, 2)]
    assert _tree_keys(triangle([None] * 3), "auto") == [(0, 1), (0, 2)]
    assert _tree_keys(triangle([None] * 3, covs=[None] * 3), "auto") == [(0, 1), (0, 2)]
    assert spanning_tree_init(ViewGraph([ViewNode(0)], []), "auto") == {0: r}


def test_auto_tree_without_counts_is_the_unit_tree_bytewise():
    """Every edge carries a covariance and none an inlier count: ``auto`` is ``unit``."""
    g = generate_graph(SynthConfig(n_cameras=50, edge_density=0.25,
                                   noise_sigmas_deg=((0.5, 0.5), (0.5, 5.0)),
                                   outlier_fraction=0.1, seed=3)).graph
    uncounted = ViewGraph.from_columns(
        g.ids, *g.edge_ids.T, g.quats, gt_quats=g.gt_quats, has_gt=g.has_gt,
        covariances=g.covariances, has_covariance=g.has_covariance,
        inlier_counts=g.inlier_counts, has_inlier_count=np.zeros(len(g.ends), dtype=bool))
    assert g.has_covariance.all() and g.has_inlier_count.all()
    # the counted tree is another tree, so the stripped graph tests something
    assert _tree_keys(g, "auto") != _tree_keys(g, "unit") == _tree_keys(uncounted, "auto")
    auto, unit = spanning_tree_init(uncounted, "auto"), spanning_tree_init(uncounted, "unit")
    assert list(auto) == list(unit) == g.node_ids
    assert all(auto[nid].quaternion.tobytes() == unit[nid].quaternion.tobytes() for nid in auto)


@pytest.mark.parametrize("criterion", ["inlier_count", "inverse_cov_trace", "bogus"])
def test_removed_and_unknown_criteria_raise(criterion):
    """Both entry points check the criterion, on a graph that carries every datum."""
    g = ViewGraph([ViewNode(0), ViewNode(1)],
                  [EdgeMeasurement(0, 1, Rotation.identity(), covariance=np.eye(3),
                                   inlier_count=3)])
    message = rf"^unknown spanning-tree criterion '{criterion}'; choose from \('auto', 'unit'\)$"
    with pytest.raises(ValueError, match=message):
        spanning_tree_init(g, criterion)
    with pytest.raises(ValueError, match=message):
        maximum_spanning_tree(g, criterion)


def test_init_rejects_unknown_criterion_before_any_work():
    """Even a one-node graph, which has no edge to weigh, names the bad criterion."""
    with pytest.raises(ValueError, match="unknown spanning-tree criterion 'bogus'"):
        spanning_tree_init(ViewGraph([ViewNode(0)], []), "bogus")


def test_init_rejects_disconnected_graph():
    g = ViewGraph([ViewNode(i) for i in range(4)],
                  [EdgeMeasurement(0, 1, Rotation.identity()),
                   EdgeMeasurement(2, 3, Rotation.identity())])
    with pytest.raises(ValueError, match="connected_components"):
        spanning_tree_init(g, "unit")


# ---------------------------------------------------------------------------
# writers: orjson, floats bit for bit, nothing non-finite
# ---------------------------------------------------------------------------


def test_save_graph_refuses_non_finite_floats(tmp_path):
    g = ViewGraph([ViewNode(0, Rotation.identity()), ViewNode(1)],
                  [EdgeMeasurement(0, 1, Rotation.identity(), covariance=np.eye(3))])
    bad = g.covariances.copy()
    bad[0, 1, 1] = np.inf
    g.covariances = bad  # the constructors reject it; stand in for a column gone bad
    path = tmp_path / "g.json"
    with pytest.raises(NumericalError, match=r"g\.json: cannot write 'cov' of edge \(0, 1\)"):
        save_graph(g, path)
    assert not path.exists()


def test_save_result_refuses_non_finite_floats(tmp_path):
    result = AveragingResult(rotations={0: Rotation.identity(), 1: Rotation.identity()},
                             final_cost=0.5, outer_iterations=1, converged=True,
                             edge_weights={(0, 1): np.nan}, edge_residual_norms={(0, 1): 0.1})
    path = tmp_path / "r.json"
    with pytest.raises(NumericalError, match=r"cannot write 'weight' of edge \(0, 1\)"):
        save_result(result, path)
    with pytest.raises(NumericalError, match=r"cannot write 'final_cost' of the result"):
        save_result(dataclasses.replace(result, final_cost=-np.inf,
                                        edge_weights={(0, 1): 1.0}), path)
    assert not path.exists()


def test_save_pairs_refuses_non_finite_floats(tmp_path):
    pairs = [((k, k + 1), generate_two_view_scene(
        n_points=8, pixel_sigma=0.5, rotation=Rotation.identity(),
        translation=np.array([1.0, 0.0, 0.2]), seed=k)) for k in range(3)]
    matches = pairs[1][1].matches.copy()
    matches[5, 2] = np.nan
    object.__setattr__(pairs[1][1], "matches", matches)  # TwoViewGeometry rejects it
    path = tmp_path / "pairs.json"
    with pytest.raises(NumericalError, match=r"cannot write 'matches' of pair \(1, 2\)"):
        save_pairs(pairs, path)
    assert not path.exists()


# every finite double, and the ones a float formatter gets wrong first
_SPECIAL = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 1e16,
            sys.float_info.max, -sys.float_info.max, 0.1, 1.0 / 3.0]
_FLOATS = st.sampled_from(_SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
_IDS = st.sampled_from([0, 2**63 - 1]) | st.integers(0, 2**63 - 1)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _write_read(save, value, path):
    save(value, path)
    return json.loads(path.read_text(encoding="utf-8"))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graph_files_round_trip_bit_exact(data):
    ids = data.draw(st.lists(_IDS, min_size=2, max_size=6, unique=True))
    n = len(ids)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] < p[1]), unique=True, max_size=8))
    e = len(pairs)
    # quaternions near unit norm keep their small and signed-zero entries
    quat = st.tuples(st.floats(0.5, 2.0), _FLOATS.filter(lambda x: abs(x) <= 1.0),
                     st.sampled_from(_SPECIAL[:6]), st.floats(-1.0, 1.0))
    gts = data.draw(st.lists(st.none() | quat, min_size=n, max_size=n))
    diagonal = st.sampled_from([5e-324, 1e-310, 1e-5, 1e16]) | st.floats(1e-100, 1e100)
    covs = data.draw(st.lists(st.none() | st.tuples(diagonal, diagonal, diagonal,
                                                    st.sampled_from([0.0, -0.0])),
                              min_size=e, max_size=e))
    counts = data.draw(st.lists(st.none() | _IDS, min_size=e, max_size=e))
    g = ViewGraph.from_columns(
        ids, [ids[a] for a, _ in pairs], [ids[b] for _, b in pairs],
        data.draw(st.lists(quat, min_size=e, max_size=e)),
        gt_quats=[q or (1.0, 0.0, 0.0, 0.0) for q in gts], has_gt=[q is not None for q in gts],
        covariances=[np.eye(3) if c is None else
                     np.diag(c[:3]) + c[3] * (1.0 - np.eye(3)) for c in covs],
        has_covariance=[c is not None for c in covs],
        inlier_counts=[0 if c is None else c for c in counts],
        has_inlier_count=[c is not None for c in counts])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        doc = _write_read(save_graph, g, path)
        assert _columns(load_graph(path)) == _columns(g)
    assert [rec["id"] for rec in doc["nodes"]] == g.node_ids
    assert _bits([rec["gt_qwxyz"] for rec in doc["nodes"] if "gt_qwxyz" in rec]) == \
        _bits(g.gt_quats[g.has_gt])
    assert [[rec["i"], rec["j"]] for rec in doc["edges"]] == g.edge_ids.tolist()
    assert _bits([rec["qwxyz"] for rec in doc["edges"]]) == _bits(g.quats)
    assert _bits([rec["cov"] for rec in doc["edges"] if "cov" in rec]) == \
        _bits(g.covariances[g.has_covariance])
    assert [rec["inliers"] for rec in doc["edges"] if "inliers" in rec] == \
        g.inlier_counts[g.has_inlier_count].tolist()


@settings(max_examples=60, deadline=None)
@given(st.lists(_IDS, min_size=1, max_size=6, unique=True), st.data())
def test_result_files_round_trip_bit_exact(ids, data):
    n = len(ids)
    quats = data.draw(st.lists(st.tuples(st.floats(0.5, 2.0), *[_FLOATS.filter(
        lambda x: abs(x) <= 1.0)] * 3), min_size=n, max_size=n))
    rotations = {nid: Rotation(q) for nid, q in zip(ids, quats)}
    keys = sorted({(a, b) for a in ids for b in ids if a < b})
    result = AveragingResult(
        rotations=rotations, final_cost=data.draw(_FLOATS), outer_iterations=3, converged=False,
        edge_weights=dict(zip(keys, data.draw(st.lists(_FLOATS, min_size=len(keys),
                                                        max_size=len(keys))))),
        edge_residual_norms=dict(zip(keys, data.draw(st.lists(_FLOATS, min_size=len(keys),
                                                               max_size=len(keys))))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.json"
        doc = _write_read(save_result, result, path)
        back = load_result_rotations(path)
    assert list(back) == sorted(ids)
    assert all(back[nid].quaternion.tobytes() == rotations[nid].quaternion.tobytes()
               for nid in ids)
    assert _bits([rec["qwxyz"] for rec in doc["rotations"]]) == \
        _bits([rotations[nid].quaternion for nid in sorted(ids)])
    assert _bits(doc["final_cost"]) == _bits(result.final_cost)
    assert [(rec["i"], rec["j"]) for rec in doc["edge_weights"]] == keys
    assert _bits([rec["weight"] for rec in doc["edge_weights"]]) == \
        _bits([result.edge_weights[k] for k in keys])
    assert _bits([rec["residual_norm"] for rec in doc["edge_weights"]]) == \
        _bits([result.edge_residual_norms[k] for k in keys])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_IDS, _IDS), min_size=1, max_size=4), st.data())
def test_pairs_files_round_trip_bit_exact(keys, data):
    positive = _FLOATS.filter(lambda x: x > 0.0)
    pairs = []
    for key in keys:
        fx, fy, s, cx, cy = (data.draw(positive), data.draw(positive), data.draw(_FLOATS),
                             data.draw(_FLOATS), data.draw(_FLOATS))
        k = CameraIntrinsics(np.array([[fx, s, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]]))
        rows = data.draw(st.integers(1, 3))
        matches = np.array(data.draw(st.lists(_FLOATS, min_size=4 * rows, max_size=4 * rows)))
        t = np.array(data.draw(st.tuples(st.floats(0.5, 2.0), _FLOATS.filter(
            lambda x: abs(x) <= 1.0), st.sampled_from(_SPECIAL[:6]))))
        pairs.append((key, TwoViewGeometry(Rotation(t.tolist() + [0.25]), t, k, k,
                                           matches.reshape(rows, 4))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.json"
        doc = _write_read(save_pairs, pairs, path)
        back = load_pairs(path)
    assert [key for key, _ in back] == keys
    for (_, a), (_, b), rec in zip(pairs, back, doc["pairs"]):
        assert b.intrinsics_i.k.tobytes() == a.intrinsics_i.k.tobytes()
        assert b.rotation.quaternion.tobytes() == a.rotation.quaternion.tobytes()
        assert b.matches.tobytes() == a.matches.tobytes()
        for name, value in (("K_i", a.intrinsics_i.k), ("K_j", a.intrinsics_j.k),
                            ("qwxyz", a.rotation.quaternion), ("t", a.translation),
                            ("matches", a.matches)):
            assert _bits(rec[name]) == _bits(value.reshape(np.shape(rec[name]))), name


# ---------------------------------------------------------------------------
# the column path builds no per-edge object
# ---------------------------------------------------------------------------


def test_pipeline_builds_no_per_edge_objects(tmp_path, monkeypatch):
    scene = generate_graph(SynthConfig(n_cameras=12, edge_density=0.6,
                                       noise_sigmas_deg=((1.0, 1.0),), seed=4))
    n = len(scene.graph.ids)
    assert len(scene.graph.ends) > 2 * n  # so a per-edge object outnumbers the per-node ones
    graph, out = tmp_path / "g.json", tmp_path / "out.json"
    save_graph(scene.graph, graph)
    pairs_path = tmp_path / "pairs.json"
    rng = np.random.default_rng(4)
    save_pairs([((k, k + 1), generate_two_view_scene(
        n_points=12, pixel_sigma=0.5, rotation=moderate_rotation(rng),
        translation=np.array([1.0, 0.0, 0.2]), seed=k)) for k in range(3 * n)], pairs_path)

    def refuse(*args, **kwargs):
        raise AssertionError("built a per-edge record")

    monkeypatch.setattr(ViewGraph, "edges", property(refuse))
    monkeypatch.setattr(ViewGraph, "nodes", property(refuse))
    monkeypatch.setattr(EdgeMeasurement, "__init__", refuse)
    made = []
    real_init, real_trusted = Rotation.__init__, Rotation._trusted.__func__
    monkeypatch.setattr(Rotation, "__init__", lambda r, q: made.append(1) or real_init(r, q))
    monkeypatch.setattr(Rotation, "_trusted",
                        classmethod(lambda cls, q: made.append(1) or real_trusted(cls, q)))

    g = load_graph(graph)
    save_graph(g, out)
    assert len(made) == 0
    init = spanning_tree_init(g)
    assert len(made) == n
    solve(g, init, SolverConfig(loss=LossSpec("magsac", scale=3.0), weighting="cov_full"))
    assert len(made) == 2 * n
    # weigh: load_pairs makes one rotation per pair, as its geometries hold them
    assert cli.main(["weigh", "--pairs", str(pairs_path), "--out", str(out)]) == 0
