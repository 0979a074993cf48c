"""View graph: schema, serialization, connectivity, spanning-tree init."""

import itertools
import json

import numpy as np
import pytest

from rotavg.errors import SchemaError
from rotavg.so3 import Rotation, exp_so3, relative_residual
from rotavg.solver import SolverConfig, load_result_rotations, save_result, solve
from rotavg.synth import DEFAULT_INTRINSICS, SynthConfig, generate_graph, generate_two_view_scene
from rotavg.twoview import CameraIntrinsics, TwoViewGeometry
from rotavg.viewgraph import (
    EdgeMeasurement,
    ViewGraph,
    ViewNode,
    checked_edges,
    connected_components,
    default_tree_criterion,
    load_graph,
    load_pairs,
    maximum_spanning_tree,
    save_graph,
    save_pairs,
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
    with pytest.raises(SchemaError, match="duplicate node ids"):
        ViewGraph((ViewNode(i) for i in (0, 1, 0)), iter([]))


def test_edge_whitener_cache():
    e = EdgeMeasurement(0, 1, Rotation.identity(), covariance=np.diag([4.0, 1.0, 1.0]))
    assert np.allclose(e.whitener, np.diag([0.5, 1.0, 1.0]), atol=1e-12)
    inv = e.whitener @ e.whitener.T
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
    assert np.allclose(e.whitener, np.diag([0.5, 1.0, 1.0]), atol=1e-12)
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
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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


def test_checked_edges_match_constructor():
    rng = np.random.default_rng(9)
    records = _edge_records(rng, n=12)
    i = [r["i"] for r in records]
    j = [r["j"] for r in records]
    rotations = [random_rotation(rng) for _ in records]
    counts = [r["inliers"] if k % 3 else None for k, r in enumerate(records)]
    covs = np.array([r["cov"] for r in records]).reshape(-1, 3, 3)
    has = [k % 4 != 1 for k in range(len(records))]
    covs[~np.array(has)] = np.nan  # ignored where there is no covariance
    edges = checked_edges(i, j, rotations, counts, covs, has)
    for k, e in enumerate(edges):
        ref = EdgeMeasurement(i[k], j[k], rotations[k], covs[k] if has[k] else None, counts[k])
        assert (e.key, e.rotation, e.inlier_count) == (ref.key, ref.rotation, ref.inlier_count)
        assert (e.covariance is None) == (ref.covariance is None)
        assert e.covariance is None or e.covariance.tobytes() == ref.covariance.tobytes()
    covs[6, 0, 2] = np.nan
    covs[8] = np.diag([1.0, 0.0, 1.0])
    with pytest.raises(SchemaError, match=r"^edge \(6, 7\): covariance has non-finite entries$"):
        checked_edges(i, j, rotations, counts, covs, has)


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
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
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


@pytest.mark.parametrize("criterion", ["inlier_count", "inverse_cov_trace", "unit"])
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


def test_maximum_spanning_tree_vs_brute_force():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(4, 7))
        g, _ = _consistent_graph(rng, n, density=0.8, counts=True)
        if len(connected_components(g)) != 1:
            continue
        tree = maximum_spanning_tree(g, "inlier_count")
        best = max(
            sum(e.inlier_count for e in combo)
            for combo in _spanning_trees(g)
        )
        assert sum(e.inlier_count for e in tree) == best


def test_maximum_spanning_tree_beats_random_trees():
    rng = np.random.default_rng(5)
    g, _ = _consistent_graph(rng, 12, density=0.5, counts=True)
    assert len(connected_components(g)) == 1
    mst_weight = sum(e.inlier_count for e in maximum_spanning_tree(g, "inlier_count"))

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
    tree = maximum_spanning_tree(g, "inlier_count")
    assert sorted(e.key for e in tree) == [(0, 1), (1, 2)]


def test_default_tree_criterion_preference():
    r = Rotation.identity()
    g = ViewGraph([ViewNode(0), ViewNode(1)],
                  [EdgeMeasurement(0, 1, r, covariance=np.eye(3), inlier_count=3)])
    assert default_tree_criterion(g) == "inlier_count"
    g = ViewGraph([ViewNode(0), ViewNode(1)],
                  [EdgeMeasurement(0, 1, r, covariance=np.eye(3))])
    assert default_tree_criterion(g) == "inverse_cov_trace"
    g = ViewGraph([ViewNode(0), ViewNode(1)], [EdgeMeasurement(0, 1, r)])
    assert default_tree_criterion(g) == "unit"


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
