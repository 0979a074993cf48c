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

Graph, correspondence-set and result files (:func:`rotavg.solver.save_result`)
are written as compact one-line JSON with sorted keys by :func:`write_json`;
pretty-print one with ``python -m json.tool FILE``.  Ids (``id``, ``i``,
``j``) and inlier counts must be JSON integers.  The loaders read each
numeric field of all records into one array and check every record in one
pass over those arrays, under the rules of the one-record constructors
(:class:`~rotavg.so3.Rotation`, :class:`EdgeMeasurement`).  The first bad
record in file order raises the error it raises on its own; a field that
does not hold the right count of numbers (a string, an object, a ragged
list) is a :class:`~rotavg.errors.SchemaError` naming its record, like any
other bad value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DisconnectedGraphError, SchemaError, raise_first_failure
from .so3 import (Rotation, _quaternion_checks, canonical_quats, checked_rotations, quat_conj,
                  quat_mul)
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


_NEGATIVE_ID = "node id must be non-negative, got {id}"
# spanning-tree criteria; "auto" picks one of the others with default_tree_criterion
TREE_CRITERIA = ("auto", "inlier_count", "inverse_cov_trace", "unit")


@dataclass(frozen=True)
class ViewNode:
    id: int
    gt_rotation: Optional[Rotation] = None

    def __post_init__(self):
        if self.id < 0:
            raise SchemaError(_NEGATIVE_ID.format(id=self.id))


class EdgeMeasurement:
    """Relative-rotation measurement R_ij ~ R_i R_j^T with optional covariance.

    The covariance must be finite, symmetric and positive definite.  Its
    whitener is computed when read, so edges that no solve weighs by their
    full covariance never pay for it.  :func:`checked_edges` builds many
    edges under the same rules (:func:`_edge_checks`).
    """

    __slots__ = ("i", "j", "rotation", "covariance", "inlier_count")

    def __init__(self, i, j, rotation, covariance=None, inlier_count=None):
        count = None if inlier_count is None else int(inlier_count)
        c = None if covariance is None else np.asarray(covariance, dtype=np.float64)
        for message, passed in _edge_checks(i, j, 0 if count is None else count, c):
            if not passed:
                raise SchemaError(message.format(i=i, j=j))
        self._set(int(i), int(j), rotation, c, count)

    def _set(self, i, j, rotation, covariance, inlier_count):
        self.i = i
        self.j = j
        self.rotation = rotation
        self.covariance = covariance
        self.inlier_count = inlier_count

    @classmethod
    def _trusted(cls, i, j, rotation, covariance, inlier_count) -> "EdgeMeasurement":
        """Build an edge unchecked; fed only by :func:`_edges`."""
        e = object.__new__(cls)
        e._set(i, j, rotation, covariance, inlier_count)
        return e

    @property
    def whitener(self):
        """Lower-triangular D with D D^T = C^{-1}, or None without a covariance."""
        return None if self.covariance is None else whitener_from_covariance(self.covariance)

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j)


def _edge_checks(i, j, inlier_count, covariance):
    """Yield (message, passed) for each rule an edge must pass, in check order.

    One edge passes scalars and a covariance that is None or an array, and
    stops at the first rule it fails.  A batch passes (E,) arrays (0 for an
    absent count) and an (E, 3, 3) stack (a valid matrix for an absent
    covariance), and gets (E,) masks; its matrices that are not finite are
    left out of the later rules.  ``message`` is formatted with ``i`` and ``j``.
    """
    yield "self-loop edge ({i}, {j})", i != j
    yield "edge ({i}, {j}): negative inlier count", inlier_count >= 0
    c = covariance
    if c is None:
        return
    yield "edge ({i}, {j}): covariance must be 3x3", c.shape == getattr(i, "shape", ()) + (3, 3)
    finite = np.isfinite(c).all(axis=(-2, -1))
    yield "edge ({i}, {j}): covariance has non-finite entries", finite
    if finite.ndim and not finite.all():  # one matrix gets here only when finite
        c = np.where(finite[:, None, None], c, np.eye(3))
    asym = np.abs(c - c.swapaxes(-2, -1)).max(axis=(-2, -1))
    yield ("edge ({i}, {j}): covariance is not symmetric",
           asym <= 1e-12 * np.abs(c).max(axis=(-2, -1), initial=1.0))
    yield ("edge ({i}, {j}): covariance is not positive definite",
           np.linalg.eigvalsh(c).min(axis=-1) > 0.0)


def _edge_rules(i, j, inlier_counts, covariances, has):
    """:func:`_edge_checks` of E edges; ``covariances`` (E, 3, 3) is read where ``has`` is set."""
    counts = np.array([0 if n is None else n for n in inlier_counts])
    stack = np.where(has[:, None, None], covariances, np.eye(3))
    return _edge_checks(np.array(i), np.array(j), counts, stack)


def _edges(i, j, rotations, inlier_counts, covariances, has):
    """The edges of arrays that passed :func:`_edge_rules`, built unchecked."""
    covs = [c if h else None for c, h in zip(covariances, has.tolist())]
    return [EdgeMeasurement._trusted(int(a), int(b), r, c, None if n is None else int(n))
            for a, b, r, c, n in zip(i, j, rotations, covs, inlier_counts)]


def checked_edges(i, j, rotations, inlier_counts, covariances, has_covariance):
    """``EdgeMeasurement(i[k], j[k], rotations[k], cov_k, inlier_counts[k])`` for every k.

    ``cov_k`` is ``covariances[k]`` (an (E, 3, 3) array) where
    ``has_covariance[k]`` is set, else None.  All edges are checked at once
    under the constructor's rules, and the first bad edge raises the error
    its constructor raises.
    """
    has = np.asarray(has_covariance, dtype=bool)
    covariances = np.asarray(covariances, dtype=np.float64)
    raise_first_failure(_edge_rules(i, j, inlier_counts, covariances, has), SchemaError,
                        lambda k: {"i": i[k], "j": j[k]})
    return _edges(i, j, rotations, inlier_counts, covariances, has)


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


def _float_rows(values, width):
    """``values`` as an (N, width) float array, and the (N,) mask of the rows
    that hold ``width`` numbers; the other rows are NaN.  The rows are read
    one at a time only when they do not convert all at once."""
    try:
        rows = np.array(values, dtype=np.float64)
        if rows.shape == (len(values), width):
            return rows, np.ones(len(values), dtype=bool)
    except (TypeError, ValueError, OverflowError):
        pass
    rows = np.full((len(values), width), np.nan)
    ok = np.zeros(len(values), dtype=bool)
    for k, value in enumerate(values):
        try:
            row = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            continue
        if row.shape == (width,):
            rows[k], ok[k] = row, True
    return rows, ok


def _quaternion_rules(values, key, where):
    """JSON quaternions as (N, 4) rows, and their rules in check order: hold 4
    numbers, then :class:`Rotation`'s.  Messages name the record as ``where``
    does and quote its field ``key``."""
    q, ok = _float_rows(values, 4)
    prefix = f"{where}: bad quaternion {{{key}!r}}: "
    checks = _quaternion_checks(q, np.sqrt(np.vecdot(q, q)))
    return q, [(prefix + "{why}", ok), *((prefix + message, p) for message, p in checks)]


def _check_records(rules, records, key):
    """Raise the SchemaError of the first of ``records`` that breaks one of
    ``rules``, formatted with its fields and ``why``: what ``Rotation`` says of
    its quaternion ``key``."""
    def fields(k):
        try:
            Rotation(np.asarray(records[k].get(key), dtype=np.float64))
        except (TypeError, ValueError, OverflowError) as exc:
            return dict(records[k], why=exc)
        return records[k]
    raise_first_failure(rules, SchemaError, fields)


def read_json_object(path, keys) -> dict:
    """The JSON object in ``path``, which must hold ``keys``; SchemaError otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or any(k not in doc for k in keys):
        raise SchemaError(f"{path}: expected object with " + " and ".join(map(repr, keys)))
    return doc


def write_json(doc, path) -> None:
    """Write ``doc`` as one line of JSON with sorted keys, then a newline.

    ``json.dumps`` without an indent runs CPython's C encoder; ``json.dump``
    and any indent format every value from Python.
    """
    text = json.dumps(doc, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def json_records(doc, key, fields, path, integers=()) -> list[dict]:
    """The list ``doc[key]``, checked to hold JSON objects that have ``fields``.

    Each name in ``integers`` must hold a JSON integer (not a bool); one that
    is not in ``fields`` may also be absent or null.  A record that is not an
    object, lacks a field or holds a wrongly typed one raises
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
        for name in integers:
            value = rec.get(name)
            if type(value) is not int and (value is not None or name in fields):
                raise SchemaError(
                    f"{path}: {key}[{k}]: {name!r} must be an integer, got {value!r}")
    return records


def _nodes_from_records(records) -> list[ViewNode]:
    ids = [rec["id"] for rec in records]
    has = [rec.get("gt_qwxyz") is not None for rec in records]
    q, rules = _quaternion_rules([rec["gt_qwxyz"] if h else (1.0, 0.0, 0.0, 0.0)
                                  for rec, h in zip(records, has)], "gt_qwxyz", "node {id}")
    _check_records([*rules, (_NEGATIVE_ID, np.array(ids) >= 0)], records, "gt_qwxyz")
    gts = iter(checked_rotations(q[has]))
    return [ViewNode(nid, next(gts) if h else None) for nid, h in zip(ids, has)]


def _edges_from_records(records) -> list[EdgeMeasurement]:
    i, j = [rec["i"] for rec in records], [rec["j"] for rec in records]
    counts = [rec.get("inliers") for rec in records]
    covs = [rec.get("cov") for rec in records]
    has = np.array([c is not None for c in covs], dtype=bool)
    rows, cov_ok = _float_rows([[0.0] * 9 if c is None else c for c in covs], 9)
    stack = rows.reshape(-1, 3, 3)
    q, quaternion_rules = _quaternion_rules([rec["qwxyz"] for rec in records], "qwxyz",
                                            "edge ({i}, {j})")
    _check_records([("edge ({i}, {j}): 'cov' must be 9 row-major floats", cov_ok),
                    *quaternion_rules, *_edge_rules(i, j, counts, stack, has)], records, "qwxyz")
    return _edges(i, j, checked_rotations(q), counts, stack, has)


def load_graph(path) -> ViewGraph:
    """Read a graph file.  All records are checked in one pass; the first bad
    one in file order raises the error it would raise on its own."""
    doc = read_json_object(path, ("nodes", "edges"))
    nodes = _nodes_from_records(json_records(doc, "nodes", ("id",), path, integers=("id",)))
    edge_records = json_records(doc, "edges", ("i", "j", "qwxyz"), path,
                                integers=("i", "j", "inliers"))
    return ViewGraph(nodes, _edges_from_records(edge_records))


def save_graph(g: ViewGraph, path) -> None:
    nodes = []
    for nid in g.node_ids:
        n = g.nodes[nid]
        rec = {"id": n.id}
        if n.gt_rotation is not None:
            rec["gt_qwxyz"] = n.gt_rotation.quaternion.tolist()
        nodes.append(rec)
    edges = []
    for e in g.edges:
        rec = {"i": e.i, "j": e.j, "qwxyz": e.rotation.quaternion.tolist()}
        if e.covariance is not None:
            rec["cov"] = e.covariance.reshape(9).tolist()
        if e.inlier_count is not None:
            rec["inliers"] = e.inlier_count
        edges.append(rec)
    write_json({"nodes": nodes, "edges": edges}, path)


def _intrinsics(k, cache) -> CameraIntrinsics:
    """The CameraIntrinsics of 9 row-major entries; one instance per distinct K in ``cache``."""
    k = np.asarray(k, dtype=np.float64).reshape(3, 3)
    key = k.tobytes()
    if key not in cache:
        cache[key] = CameraIntrinsics(k)
    return cache[key]


def load_pairs(path) -> list[TwoViewGeometry]:
    """Load the correspondence-set format; pairs in file order.

    Each returned geometry carries its (i, j) ids in the ``.pair`` attribute
    added here (the dataclass itself is id-agnostic).  Pairs with the same K
    share one :class:`CameraIntrinsics`, so its K^{-1} is computed once.
    """
    doc = read_json_object(path, ("pairs",))
    records = json_records(doc, "pairs", ("i", "j", "K_i", "K_j", "qwxyz", "t", "matches"),
                           path, integers=("i", "j"))
    q, rules = _quaternion_rules([rec["qwxyz"] for rec in records], "qwxyz", "pair ({i}, {j})")
    good = np.logical_and.reduce([passed for _, passed in rules]).tolist()
    rotations = iter(checked_rotations(q[good]))
    intrinsics = {}
    out = []
    for rec, ok in zip(records, good):
        if not ok:  # the first pair with a bad quaternion; those before it are built
            _check_records(rules, records, "qwxyz")
        where = f"pair ({rec['i']}, {rec['j']})"
        try:
            geom = TwoViewGeometry(
                rotation=next(rotations),
                translation=np.asarray(rec["t"], dtype=np.float64),
                intrinsics_i=_intrinsics(rec["K_i"], intrinsics),
                intrinsics_j=_intrinsics(rec["K_j"], intrinsics),
                matches=np.asarray(rec["matches"], dtype=np.float64),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        out.append(((rec["i"], rec["j"]), geom))
    return out


def save_pairs(pairs, path) -> None:
    """Inverse of :func:`load_pairs`; pairs = [((i, j), TwoViewGeometry)]."""
    write_json({"pairs": [{
        "i": i,
        "j": j,
        "K_i": geom.intrinsics_i.k.reshape(9).tolist(),
        "K_j": geom.intrinsics_j.k.reshape(9).tolist(),
        "qwxyz": geom.rotation.quaternion.tolist(),
        "t": geom.translation.tolist(),
        "matches": geom.matches.tolist(),
    } for (i, j), geom in pairs]}, path)


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
    graphs, and ``ValueError`` on a criterion not in :data:`TREE_CRITERIA`.
    """
    if criterion not in TREE_CRITERIA:
        raise ValueError(f"unknown spanning-tree criterion {criterion!r}; "
                         f"choose from {TREE_CRITERIA}")
    check_connected(g)
    if criterion == "auto":
        criterion = default_tree_criterion(g)
    tree = maximum_spanning_tree(g, criterion)
    ids = sorted(g.nodes)
    index = {nid: k for k, nid in enumerate(ids)}
    ends = np.array([(index[e.i], index[e.j]) for e in tree], dtype=np.intp).reshape(-1, 2)
    q = np.array([e.rotation.quaternion for e in tree]).reshape(-1, 4)
    # each tree edge both ways: R_ij = R_i R_j^T  =>  R_j = R_ij^T R_i,  R_i = R_ij R_j
    src, dst = np.concatenate([ends, ends[:, ::-1]]).T
    rel = np.concatenate([canonical_quats(quat_conj(q)), q])
    quats = np.empty((len(ids), 4))
    quats[0] = (1.0, 0.0, 0.0, 0.0)
    reached = np.arange(len(ids)) == 0
    while not reached.all():
        # one tree level per pass: a node not yet reached has at most one reached neighbor
        step = reached[src] & ~reached[dst]
        quats[dst[step]] = canonical_quats(quat_mul(rel[step], quats[src[step]]))
        reached[dst[step]] = True
    return dict(zip(ids, checked_rotations(quats)))
