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
pretty-print one with ``python -m json.tool FILE``.  The writer stays on the
stdlib ``json.dumps``: orjson's separators and float formatting would change
the bytes of every output file.  Every loader reads through
:func:`read_json_object`: orjson decodes the file's bytes, and a document
it rejects is decoded again by the stdlib ``json``, the reference decoder.
The fallback reads what the program has always accepted and orjson does
not (``NaN``, ``Infinity``, ``-Infinity``, numbers that overflow a double,
lone surrogate escapes), words the error of a malformed document, and is
chosen by the input alone.  On a document both read they return the same
values, floats bit for bit.  Bytes that are not UTF-8 are a
:class:`~rotavg.errors.SchemaError` naming the file.

Ids (``id``, ``i``, ``j``) and inlier counts must be JSON integers below
2**63 (:data:`INT_LIMIT`), the range in which both decoders give the same
int.  The loaders read each
numeric field of all records into one array and check every record in one
pass over those arrays, under the rules of the one-record constructors
(:class:`~rotavg.so3.Rotation`, :class:`EdgeMeasurement`).  The first bad
record in file order raises the error it raises on its own; a field that
does not hold the right count of numbers (a string, an object, a ragged
list) is a :class:`~rotavg.errors.SchemaError` naming its record, like any
other bad value.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
import orjson

from .errors import DisconnectedGraphError, SchemaError, raise_first_failure
from .so3 import (Rotation, _quaternion_checks, canonical_quats, checked_rotations, quat_conj,
                  quat_mul)
from .twoview import CameraIntrinsics, TwoViewGeometry, _intrinsics_checks

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
    "edge_data",
    "spanning_tree_init",
]


_NEGATIVE_ID = "node id must be non-negative, got {id}"
# integer fields must lie below this: orjson reads a larger integer as a float, the stdlib
# as an int, and numpy stores an int at or above it in an array as a float
INT_LIMIT = 2**63
# optional edge datum a weighting or tree criterion reads -> (its name in messages, its shape)
EDGE_DATA = {"inlier_count": ("inlier count", ()), "covariance": ("covariance", (3, 3))}
# spanning-tree criterion -> the edge datum its weight reads (None: unit weight), in the
# order default_tree_criterion prefers them; "auto" picks the first all edges carry
_TREE_DATA = {"inlier_count": "inlier_count", "inverse_cov_trace": "covariance", "unit": None}
TREE_CRITERIA = ("auto", *_TREE_DATA)


@dataclass(frozen=True)
class ViewNode:
    id: int
    gt_rotation: Optional[Rotation] = None

    def __post_init__(self):
        if self.id < 0:
            raise SchemaError(_NEGATIVE_ID.format(id=self.id))


class EdgeMeasurement:
    """Relative-rotation measurement R_ij ~ R_i R_j^T with optional covariance.

    The covariance must be finite, symmetric and positive definite.
    :func:`checked_edges` builds many edges under the same rules
    (:func:`_edge_checks`); :func:`edge_data` reads one field of all edges.
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


def _float_rows(values, width, flat=False):
    """``values`` as an (N, width) float array, and the (N,) mask of the rows
    that hold ``width`` numbers; the other rows are NaN.  With ``flat``, a
    value of any shape that holds ``width`` numbers is a row, as
    ``reshape(width)`` reads it.  The rows are read one at a time only when
    they are not all lists of ``width`` entries or do not convert at once."""
    n = len(values)
    if set(map(type, values)) == {list} and set(map(len, values)) == {width}:
        try:
            # one pass over the numbers, each converted as np.array converts it
            rows = np.fromiter(itertools.chain.from_iterable(values), np.float64, n * width)
            return rows.reshape(n, width), np.ones(n, dtype=bool)
        except (TypeError, ValueError, OverflowError):
            pass
    rows = np.full((n, width), np.nan)
    ok = np.zeros(n, dtype=bool)
    for k, value in enumerate(values):
        try:
            row = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            continue
        if row.shape == (width,) or (flat and row.size == width):
            rows[k], ok[k] = row.reshape(width), True
    return rows, ok


def _quaternion_rules(values, key, where):
    """JSON quaternions as (N, 4) rows, and their rules in check order: hold 4
    numbers, then :class:`Rotation`'s.  Messages name the record as ``where``
    does and quote its field ``key``."""
    q, ok = _float_rows(values, 4)
    prefix = f"{where}: bad quaternion {{{key}!r}}: "
    checks = _quaternion_checks(q)
    return q, [(prefix + "{why}", ok), *((prefix + message, p) for message, p in checks)]


def _raised(build):
    """The TypeError, ValueError or OverflowError that ``build()`` raises, or None."""
    try:
        build()
    except (TypeError, ValueError, OverflowError) as exc:
        return exc
    return None


def _check_records(rules, records, key, error=None):
    """Raise the SchemaError of the first of ``records`` that breaks one of
    ``rules``, formatted with its fields, ``why``: what ``Rotation`` says of
    its quaternion ``key``, and ``error``: what ``error(record)`` raises."""
    def fields(k):
        rec = records[k]
        return dict(rec, why=_raised(lambda: Rotation(np.asarray(rec.get(key), dtype=np.float64))),
                    error=None if error is None else _raised(lambda: error(rec)))
    raise_first_failure(rules, SchemaError, fields)


def read_json_object(path, keys) -> dict:
    """The JSON object in ``path``, which must hold ``keys``; SchemaError otherwise.

    orjson decodes the file's bytes.  A document it rejects is decoded again
    by the stdlib ``json``, which also reads ``NaN``, ``Infinity``, numbers
    beyond a double and lone surrogate escapes, and words the error of a
    malformed document; bytes that are not UTF-8 are a SchemaError too.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8: {exc}") from exc
        try:
            # newlines as a text-mode read gives them, so error positions read as before
            doc = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
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

    Each name in ``integers`` must hold a JSON integer (not a bool) below
    :data:`INT_LIMIT`; one that is not in ``fields`` may also be absent or
    null.  A record that is not an object, lacks a field or holds a wrongly
    typed one raises :class:`SchemaError` naming it by position, e.g.
    ``g.json: edges[3]``.
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
            if value is None and name not in fields:
                continue
            if type(value) is not int:
                raise SchemaError(
                    f"{path}: {key}[{k}]: {name!r} must be an integer, got {value!r}")
            if value >= INT_LIMIT:
                raise SchemaError(f"{path}: {key}[{k}]: {name!r} must be below 2**63, got {value}")
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
    key = k.tobytes()
    if key not in cache:
        cache[key] = CameraIntrinsics(k.reshape(3, 3))
    return cache[key]


def _pair_geometry(rec) -> TwoViewGeometry:
    """One pair's geometry, converted and checked on its own: the error it
    raises is the one :func:`load_pairs` reports for that pair."""
    return TwoViewGeometry(
        rotation=Rotation.identity(),  # checked apart, first
        translation=np.asarray(rec["t"], dtype=np.float64),
        intrinsics_i=CameraIntrinsics(np.asarray(rec["K_i"], dtype=np.float64).reshape(3, 3)),
        intrinsics_j=CameraIntrinsics(np.asarray(rec["K_j"], dtype=np.float64).reshape(3, 3)),
        matches=np.asarray(rec["matches"], dtype=np.float64),
    )


def _intrinsics_rows(values):
    """JSON Ks as (N, 9) row-major rows, and the (N,) mask of those
    :class:`CameraIntrinsics` accepts."""
    k, ok = _float_rows(values, 9, flat=True)
    return k, np.logical_and.reduce([ok, *(p for _, p in _intrinsics_checks(k.reshape(-1, 3, 3)))])


def _matches_rows(values):
    """All pairs' matches as one (M, 4) float array, each pair's start and end
    row in it, and the (P,) mask of the pairs whose matches
    :class:`TwoViewGeometry` accepts: a non-empty list of rows of 4 finite numbers."""
    lists = [m if type(m) is list else [] for m in values]  # like an empty list, bad
    rows, ok = _float_rows([row for m in lists for row in m], 4)
    counts = np.array([len(m) for m in lists], dtype=np.intp)
    ends = np.cumsum(counts)
    starts = ends - counts
    bad = np.concatenate([[0], np.cumsum(~(ok & np.isfinite(rows).all(axis=1)))])
    return rows, starts, ends, (counts > 0) & (bad[ends] == bad[starts])


def load_pairs(path) -> list[tuple[tuple[int, int], TwoViewGeometry]]:
    """Load the correspondence-set format: ``((i, j), TwoViewGeometry)`` in file order.

    All pairs are converted and checked in one array pass, under the rules
    of :class:`TwoViewGeometry` and :class:`CameraIntrinsics`: the first bad
    pair in file order raises the error it raises on its own, a bad
    quaternion before any other.  Every geometry's matches are a view into
    one (M, 4) array, and pairs with the same K share one
    :class:`CameraIntrinsics`, so its K^{-1} is computed once.
    """
    doc = read_json_object(path, ("pairs",))
    records = json_records(doc, "pairs", ("i", "j", "K_i", "K_j", "qwxyz", "t", "matches"),
                           path, integers=("i", "j"))
    q, rules = _quaternion_rules([rec["qwxyz"] for rec in records], "qwxyz", "pair ({i}, {j})")
    t, t_ok = _float_rows([rec["t"] for rec in records], 3, flat=True)
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.vecdot(t, t))  # rounds as np.linalg.norm of one row does
    ki, ki_ok = _intrinsics_rows([rec["K_i"] for rec in records])
    kj, kj_ok = _intrinsics_rows([rec["K_j"] for rec in records])
    matches, starts, ends, matches_ok = _matches_rows([rec["matches"] for rec in records])
    ok = (t_ok & np.isfinite(t).all(axis=1) & (norm < np.inf) & (norm >= 1e-12)
          & ki_ok & kj_ok & matches_ok)
    _check_records([*rules, ("pair ({i}, {j}): {error}", ok)], records, "qwxyz",
                   error=_pair_geometry)
    translations = t / norm[:, None]
    cache = {}
    out = []
    for k, rotation in enumerate(checked_rotations(q)):
        geom = TwoViewGeometry._trusted(rotation, translations[k], _intrinsics(ki[k], cache),
                                        _intrinsics(kj[k], cache), matches[starts[k]:ends[k]])
        out.append(((records[k]["i"], records[k]["j"]), geom))
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


def edge_data(g: ViewGraph, datum: str):
    """The (E,) mask of the edges of ``g`` that carry ``datum`` (a key of
    :data:`EDGE_DATA`: ``"inlier_count"`` or ``"covariance"``), and the float
    stack of their values in edge order."""
    values = [getattr(e, datum) for e in g.edges]
    has = np.array([v is not None for v in values], dtype=bool)
    stack = np.array([v for v in values if v is not None], dtype=np.float64)
    return has, stack.reshape((-1,) + EDGE_DATA[datum][1])


def _tree_weights(g: ViewGraph, criterion: str):
    """(E,) spanning-tree weights of the edges of ``g`` under ``criterion``."""
    if criterion not in _TREE_DATA:
        raise ValueError(f"unknown spanning-tree criterion {criterion!r}")
    datum = _TREE_DATA[criterion]
    if datum is None:
        return np.ones(len(g.edges))
    has, values = edge_data(g, datum)
    if not has.all():
        e = g.edges[int(np.argmin(has))]
        raise ValueError(f"edge ({e.i}, {e.j}) has no {EDGE_DATA[datum][0]}")
    return values if datum == "inlier_count" else 1.0 / np.trace(values, axis1=1, axis2=2)


def default_tree_criterion(g: ViewGraph) -> str:
    """Prefer inlier counts, then inverse covariance trace, then unit weight:
    the first criterion whose datum every edge carries."""
    return next(criterion for criterion, datum in _TREE_DATA.items()
                if datum is None or (g.edges and edge_data(g, datum)[0].all()))


def maximum_spanning_tree(g: ViewGraph, criterion: str) -> list[EdgeMeasurement]:
    """Kruskal maximum spanning tree; ties break on (i, j), the edges' own order."""
    parent = {nid: nid for nid in g.nodes}
    ranked = [g.edges[k] for k in np.argsort(-_tree_weights(g, criterion), kind="stable")]
    return [e for e in ranked if _union(parent, e.i, e.j)]


def spanning_tree_init(g: ViewGraph, criterion: str = "auto") -> dict[int, Rotation]:
    """Initialize absolute rotations along a maximum spanning tree.

    An edge weighs its inlier count, its inverse covariance trace or 1;
    ``"auto"`` takes the first that every edge has the datum for.  The
    smallest node id becomes the identity root; every tree-edge residual is
    exactly zero after initialization.  Raises
    :class:`~rotavg.errors.DisconnectedGraphError` on empty or disconnected
    graphs, and ``ValueError`` on a criterion not in :data:`TREE_CRITERIA` or
    an edge without the criterion's datum.
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
