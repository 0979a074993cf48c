"""View-graph data model, JSON serialization, connectivity and tree init.

Graph JSON schema (one UTF-8 document)::

    { "nodes": [ { "id": int, "gt_qwxyz": [w,x,y,z]? } ],
      "edges": [ { "i": int, "j": int, "qwxyz": [w,x,y,z],
                   "cov": [9 floats row-major]?, "inliers": int? } ] }

A stored edge ``(i, j, R_ij)`` means ``R_ij ~ R_i R_j^T``; traversing the
edge from j to i uses ``R_ij^T``.  Quaternions are normalized on load and
covariances are in radians^2.  Parallel edges (several measurements for one
unordered pair) are rejected.

Correspondence-set JSON schema (consumed by :mod:`rotavg.twoview`)::

    { "pairs": [ { "i": int, "j": int, "K_i": [9], "K_j": [9],
                   "qwxyz": [4], "t": [3], "matches": [[x,y,x',y'], ...] } ] }

with pixel coordinates.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DisconnectedGraphError, SchemaError
from .so3 import Rotation
from .twoview import CameraIntrinsics, TwoViewGeometry, whitener_from_covariance

__all__ = [
    "ViewNode",
    "EdgeMeasurement",
    "ViewGraph",
    "load_graph",
    "save_graph",
    "load_pairs",
    "connected_components",
    "check_connected",
    "is_connected",
    "spanning_tree_init",
]


@dataclass(frozen=True)
class ViewNode:
    id: int
    gt_rotation: Optional[Rotation] = None

    def __post_init__(self):
        if self.id < 0:
            raise SchemaError(f"node id must be non-negative, got {self.id}")


class EdgeMeasurement:
    """Relative-rotation measurement R_ij ~ R_i R_j^T with optional covariance.

    The covariance must be finite, symmetric and positive definite.  Its
    whitener is computed when read, so edges that no solve weighs by their
    full covariance never pay for it.
    """

    __slots__ = ("i", "j", "rotation", "covariance", "inlier_count")

    def __init__(self, i, j, rotation, covariance=None, inlier_count=None):
        if i == j:
            raise SchemaError(f"self-loop edge ({i}, {j})")
        self.i = int(i)
        self.j = int(j)
        self.rotation = rotation
        self.inlier_count = None if inlier_count is None else int(inlier_count)
        if self.inlier_count is not None and self.inlier_count < 0:
            raise SchemaError(f"edge ({i}, {j}): negative inlier count")
        if covariance is None:
            self.covariance = None
        else:
            c = np.asarray(covariance, dtype=np.float64)
            if c.shape != (3, 3):
                raise SchemaError(f"edge ({i}, {j}): covariance must be 3x3")
            if not np.all(np.isfinite(c)):
                raise SchemaError(f"edge ({i}, {j}): covariance has non-finite entries")
            if np.abs(c - c.T).max() > 1e-12 * max(1.0, np.abs(c).max()):
                raise SchemaError(f"edge ({i}, {j}): covariance is not symmetric")
            if np.linalg.eigvalsh(c).min() <= 0.0:
                raise SchemaError(f"edge ({i}, {j}): covariance is not positive definite")
            self.covariance = c

    @property
    def whitener(self):
        """Lower-triangular D with D D^T = C^{-1}, or None without a covariance."""
        return None if self.covariance is None else whitener_from_covariance(self.covariance)

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j)


class ViewGraph:
    """Immutable view graph: nodes indexed by id, edges sorted by (i, j)."""

    def __init__(self, nodes, edges):
        # each argument is read twice below; a generator would be empty the second time
        nodes, edges = list(nodes), list(edges)
        self.nodes = {n.id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise SchemaError("duplicate node ids")
        seen_pairs = set()
        for e in edges:
            if e.i not in self.nodes or e.j not in self.nodes:
                raise SchemaError(f"edge ({e.i}, {e.j}): endpoint not in node set")
            pair = (min(e.i, e.j), max(e.i, e.j))
            if pair in seen_pairs:
                raise SchemaError(f"duplicate edge for pair {pair}")
            seen_pairs.add(pair)
        self.edges = sorted(edges, key=lambda e: e.key)

    @property
    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def __repr__(self):
        return f"ViewGraph(n_nodes={len(self.nodes)}, n_edges={len(self.edges)})"


def _rotation_from_qwxyz(q, where):
    try:
        return Rotation(np.asarray(q, dtype=np.float64))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{where}: bad quaternion {q!r}: {exc}") from exc


def json_records(doc, key, fields, path) -> list[dict]:
    """The list ``doc[key]``, checked to hold JSON objects that have ``fields``.

    A record that is not an object or lacks a field raises
    :class:`SchemaError` naming it by position, e.g. ``g.json: edges[3]``.
    """
    records = doc[key]
    if not isinstance(records, list):
        raise SchemaError(f"{path}: {key!r} must be a list")
    for k, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise SchemaError(f"{path}: {key}[{k}]: expected an object, got {type(rec).__name__}")
        missing = [name for name in fields if name not in rec]
        if missing:
            raise SchemaError(f"{path}: {key}[{k}]: missing key {missing[0]!r}")
    return records


def load_graph(path) -> ViewGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise SchemaError(f"{path}: expected object with 'nodes' and 'edges'")
    nodes = []
    for rec in json_records(doc, "nodes", ("id",), path):
        gt = rec.get("gt_qwxyz")
        nodes.append(ViewNode(
            id=int(rec["id"]),
            gt_rotation=None if gt is None else _rotation_from_qwxyz(gt, f"node {rec['id']}"),
        ))
    edges = []
    for rec in json_records(doc, "edges", ("i", "j", "qwxyz"), path):
        where = f"edge ({rec.get('i')}, {rec.get('j')})"
        cov = rec.get("cov")
        if cov is not None:
            cov = np.asarray(cov, dtype=np.float64)
            if cov.shape != (9,):
                raise SchemaError(f"{where}: 'cov' must be 9 row-major floats")
            cov = cov.reshape(3, 3)
        edges.append(EdgeMeasurement(
            i=int(rec["i"]),
            j=int(rec["j"]),
            rotation=_rotation_from_qwxyz(rec["qwxyz"], where),
            covariance=cov,
            inlier_count=rec.get("inliers"),
        ))
    return ViewGraph(nodes, edges)


def save_graph(g: ViewGraph, path) -> None:
    doc = {"nodes": [], "edges": []}
    for nid in g.node_ids:
        n = g.nodes[nid]
        rec = {"id": n.id}
        if n.gt_rotation is not None:
            rec["gt_qwxyz"] = list(n.gt_rotation.quaternion)
        doc["nodes"].append(rec)
    for e in g.edges:
        rec = {"i": e.i, "j": e.j, "qwxyz": list(e.rotation.quaternion)}
        if e.covariance is not None:
            rec["cov"] = list(e.covariance.reshape(9))
        if e.inlier_count is not None:
            rec["inliers"] = e.inlier_count
        doc["edges"].append(rec)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_pairs(path) -> list[TwoViewGeometry]:
    """Load the correspondence-set format; pairs in file order.

    Each returned geometry carries its (i, j) ids in the ``.pair`` attribute
    added here (the dataclass itself is id-agnostic).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or "pairs" not in doc:
        raise SchemaError(f"{path}: expected object with 'pairs'")
    out = []
    for rec in json_records(doc, "pairs", ("i", "j", "K_i", "K_j", "qwxyz", "t", "matches"),
                            path):
        where = f"pair ({rec.get('i')}, {rec.get('j')})"
        try:
            geom = TwoViewGeometry(
                rotation=_rotation_from_qwxyz(rec["qwxyz"], where),
                translation=np.asarray(rec["t"], dtype=np.float64),
                intrinsics_i=CameraIntrinsics(np.asarray(rec["K_i"], dtype=np.float64).reshape(3, 3)),
                intrinsics_j=CameraIntrinsics(np.asarray(rec["K_j"], dtype=np.float64).reshape(3, 3)),
                matches=np.asarray(rec["matches"], dtype=np.float64),
            )
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        out.append(((int(rec["i"]), int(rec["j"])), geom))
    return out


def save_pairs(pairs, path) -> None:
    """Inverse of :func:`load_pairs`; pairs = [((i, j), TwoViewGeometry)]."""
    doc = {"pairs": []}
    for (i, j), geom in pairs:
        doc["pairs"].append({
            "i": i,
            "j": j,
            "K_i": list(geom.intrinsics_i.k.reshape(9)),
            "K_j": list(geom.intrinsics_j.k.reshape(9)),
            "qwxyz": list(geom.rotation.quaternion),
            "t": list(geom.translation),
            "matches": [list(row) for row in geom.matches],
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _find(parent: dict[int, int], a: int) -> int:
    """Root of ``a`` in the union-find forest ``parent`` (path halving)."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _union(parent: dict[int, int], a: int, b: int) -> bool:
    """Join the sets of a and b under the smaller root; False if already one."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[max(ra, rb)] = min(ra, rb)
    return True


def _component_forest(g: ViewGraph) -> dict[int, int]:
    """Union-find forest over all edges; each root is its component's smallest id."""
    parent = {nid: nid for nid in g.nodes}
    for e in g.edges:
        _union(parent, e.i, e.j)
    return parent


def is_connected(g: ViewGraph) -> bool:
    """True when the graph has exactly one connected component."""
    parent = _component_forest(g)
    return len({_find(parent, nid) for nid in g.nodes}) == 1


def check_connected(g: ViewGraph) -> None:
    """Raise :class:`DisconnectedGraphError` unless ``g`` has exactly one component."""
    if not g.nodes:
        raise DisconnectedGraphError("graph has no nodes")
    if not is_connected(g):
        raise DisconnectedGraphError(
            "graph is disconnected; split it with connected_components() first")


def connected_components(g: ViewGraph) -> list[ViewGraph]:
    """Partition into connected components, ordered by smallest node id."""
    parent = _component_forest(g)
    nodes: dict[int, list[ViewNode]] = {}
    for nid in g.node_ids:
        nodes.setdefault(_find(parent, nid), []).append(g.nodes[nid])
    edges: dict[int, list[EdgeMeasurement]] = {root: [] for root in nodes}
    for e in g.edges:
        edges[_find(parent, e.i)].append(e)
    return [ViewGraph(nodes[root], edges[root]) for root in sorted(nodes)]


def _edge_weight(e: EdgeMeasurement, criterion: str) -> float:
    if criterion == "inlier_count":
        if e.inlier_count is None:
            raise ValueError(f"edge ({e.i}, {e.j}) has no inlier count")
        return float(e.inlier_count)
    if criterion == "inverse_cov_trace":
        if e.covariance is None:
            raise ValueError(f"edge ({e.i}, {e.j}) has no covariance")
        return 1.0 / float(np.trace(e.covariance))
    if criterion == "unit":
        return 1.0
    raise ValueError(f"unknown spanning-tree criterion {criterion!r}")


def default_tree_criterion(g: ViewGraph) -> str:
    """Prefer inlier counts, then inverse covariance trace, then unit weight."""
    if g.edges and all(e.inlier_count is not None for e in g.edges):
        return "inlier_count"
    if g.edges and all(e.covariance is not None for e in g.edges):
        return "inverse_cov_trace"
    return "unit"


def maximum_spanning_tree(g: ViewGraph, criterion: str) -> list[EdgeMeasurement]:
    """Kruskal maximum spanning tree; deterministic tie-break on (i, j)."""
    parent = {nid: nid for nid in g.nodes}
    ranked = sorted(g.edges, key=lambda e: (-_edge_weight(e, criterion), e.key))
    return [e for e in ranked if _union(parent, e.i, e.j)]


def spanning_tree_init(g: ViewGraph, criterion: str = "auto") -> dict[int, Rotation]:
    """Initialize absolute rotations along a maximum spanning tree.

    The smallest node id becomes the identity root; every tree-edge residual
    is exactly zero after initialization.  Raises
    :class:`~rotavg.errors.DisconnectedGraphError` on empty or disconnected
    graphs.
    """
    check_connected(g)
    if criterion == "auto":
        criterion = default_tree_criterion(g)
    tree = maximum_spanning_tree(g, criterion)
    adjacency: dict[int, list[tuple[int, Rotation]]] = {nid: [] for nid in g.nodes}
    for e in tree:
        # R_ij = R_i R_j^T  =>  R_j = R_ij^T R_i,  R_i = R_ij R_j
        adjacency[e.i].append((e.j, e.rotation.inverse()))
        adjacency[e.j].append((e.i, e.rotation))
    root = min(g.nodes)
    rotations = {root: Rotation.identity()}
    stack = [root]
    while stack:
        cur = stack.pop()
        for nxt, rel in sorted(adjacency[cur], key=lambda x: x[0]):
            if nxt not in rotations:
                rotations[nxt] = rel.compose(rotations[cur])
                stack.append(nxt)
    return rotations


def enumerate_spanning_trees(g: ViewGraph):
    """All spanning trees (edge tuples) of a small graph; test helper."""
    n = len(g.nodes)
    for combo in itertools.combinations(g.edges, n - 1):
        parent = {nid: nid for nid in g.nodes}
        if all(_union(parent, e.i, e.j) for e in combo):
            yield combo
