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

A :class:`ViewGraph` holds its nodes and edges as columns, checked once
when the graph is built; the loaders, :func:`save_graph`, the solver and
the tree init read and write the columns.  :class:`ViewNode` and
:class:`EdgeMeasurement` are the one-record constructors, and the records
``g.nodes`` and ``g.edges`` return, built on first read.

Graph, correspondence-set and result files (:func:`rotavg.solver.save_result`)
are written by :func:`write_json` as one line of compact JSON with sorted
keys and a final newline, encoded by orjson; pretty-print one with
``python -m json.tool FILE``.  Every float is written in the shortest form
that reads back as the same double, so orjson and the stdlib ``json`` both
decode it bit for bit.  The notation is orjson's, not ``json.dumps``'s:
``0.00006078534989628322`` where the stdlib writes
``6.078534989628322e-05``, and no space after a separator.  Files in the
stdlib's notation, indented or not, load as before.  JSON has no NaN or
infinity, and orjson would write one as ``null``, so the writers refuse a
non-finite float with a :class:`~rotavg.errors.NumericalError` naming the
file, the field and the record.  Every loader reads through
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
from functools import cached_property
from typing import Optional

import numpy as np
import orjson

from .errors import DisconnectedGraphError, NumericalError, SchemaError, raise_first_failure
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
    "spanning_tree_init",
]


_NEGATIVE_ID = "node id must be non-negative, got {id}"
# integer fields must lie below this: orjson reads a larger integer as a float, the stdlib
# as an int, and numpy stores an int at or above it in an array as a float
INT_LIMIT = 2**63
# optional edge datum a weighting or tree criterion reads -> its name in messages
EDGE_DATA = {"inlier_count": "inlier count", "covariance": "covariance"}
# spanning-tree criterion -> the edge datum its weight reads (None: unit weight), in the
# order default_tree_criterion prefers them; "auto" picks the first all edges carry
_TREE_DATA = {"inlier_count": "inlier_count", "inverse_cov_trace": "covariance", "unit": None}
TREE_CRITERIA = ("auto", *_TREE_DATA)
# what a column holds where its datum is absent: values every rule accepts
_IDENTITY = [1.0, 0.0, 0.0, 0.0]
_EYE = np.eye(3).reshape(9).tolist()


def _id_rules(ids):
    """(message, passed) for each rule a node id (one, or an (N,) array) must pass."""
    return [(_NEGATIVE_ID, ids >= 0), ("node id must be below 2**63, got {id}", ids < INT_LIMIT)]


@dataclass(frozen=True)
class ViewNode:
    id: int
    gt_rotation: Optional[Rotation] = None

    def __post_init__(self):
        for message, passed in _id_rules(self.id):
            if not passed:
                raise SchemaError(message.format(id=self.id))


class EdgeMeasurement:
    """Relative-rotation measurement R_ij ~ R_i R_j^T with optional covariance.

    The covariance must be finite, symmetric and positive definite, and the
    inlier count non-negative and below 2**63.  A :class:`ViewGraph` checks
    all its edges at once under the same rules (:func:`_edge_checks`).
    """

    __slots__ = ("i", "j", "rotation", "covariance", "inlier_count")

    def __init__(self, i, j, rotation, covariance=None, inlier_count=None):
        count = None if inlier_count is None else int(inlier_count)
        c = None if covariance is None else np.asarray(covariance, dtype=np.float64)
        for message, passed in _edge_checks(i, j, 0 if count is None else count, c):
            if not passed:
                raise SchemaError(message.format(i=i, j=j))
        self.i, self.j, self.rotation, self.covariance, self.inlier_count = (
            int(i), int(j), rotation, c, count)

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j)


def _edge_checks(i, j, inlier_count, covariance):
    """Yield (message, passed) for each rule an edge must pass, in check order.

    One edge passes scalars and a covariance that is None or an array, and
    stops at the first rule it fails.  A batch passes (E,) arrays and an
    (E, 3, 3) stack, and gets (E,) masks; its matrices that are not finite
    are left out of the later rules.  ``message`` is formatted with ``i``
    and ``j``.
    """
    yield "self-loop edge ({i}, {j})", i != j
    yield "edge ({i}, {j}): negative inlier count", inlier_count >= 0
    yield "edge ({i}, {j}): inlier count must be below 2**63", inlier_count < INT_LIMIT
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


def _int_column(values):
    """Integers as an (N,) int64 array, or an object array when int64 cannot hold one."""
    try:
        return np.array(values, dtype=np.int64).reshape(-1)
    except OverflowError:
        return np.array(values, dtype=object).reshape(-1)


def _filled(values, has, n, filler):
    """An optional datum of ``n`` rows as an array holding ``filler`` where the datum
    is absent, and the (n,) mask of the rows that hold it.  ``values`` None: absent
    on every row; ``has`` None: present on every row."""
    filler = np.asarray(filler)
    if values is None:
        return np.tile(filler, (n,) + (1,) * filler.ndim), np.zeros(n, dtype=bool)
    has = np.ones(n, dtype=bool) if has is None else np.asarray(has, dtype=bool).reshape(n)
    values = np.asarray(values).reshape((n,) + filler.shape)
    return np.where(has.reshape((n,) + (1,) * filler.ndim), values, filler), has


def _node_rows(ids, values):
    """Rows in the sorted int64 ``ids`` of the node ids ``values``, and the mask of
    those that are nodes."""
    if values.dtype != np.int64:  # an id int64 cannot hold is no node's
        values = np.array([v if 0 <= v < INT_LIMIT else -1 for v in values.tolist()],
                          dtype=np.int64)
    if not len(ids):
        return np.zeros(len(values), dtype=np.int64), np.zeros(len(values), dtype=bool)
    rows = np.searchsorted(ids, values).clip(max=len(ids) - 1)
    return rows, ids[rows] == values


def _frozen(a):
    a.setflags(write=False)
    return a


class ViewGraph:
    """Immutable view graph held as columns: nodes sorted by id, edges by (i, j).

    Nodes: ``ids`` (N,) int64, and ground-truth quaternions ``gt_quats``
    (N, 4) where ``has_gt`` is set.  Edges: ``ends`` (E, 2), the node rows
    of i and j; measured quaternions ``quats`` (E, 4); ``covariances``
    (E, 3, 3) where ``has_covariance`` is set; ``inlier_counts`` (E,) int64
    where ``has_inlier_count`` is set.  Quaternions are canonical, and a
    row without its datum holds the identity or a zero count.  The arrays
    are read-only.

    ``ViewGraph(nodes, edges)`` takes :class:`ViewNode` and
    :class:`EdgeMeasurement` records, :meth:`from_columns` arrays; both
    check every rule once, as arrays.  ``nodes`` and ``edges`` give the
    graph as records, built on first read.
    """

    def __init__(self, nodes, edges):
        # each argument is read several times below; a generator would be empty the second time
        nodes, edges = list(nodes), list(edges)
        gts = [n.gt_rotation for n in nodes]
        covs = [e.covariance for e in edges]
        counts = [e.inlier_count for e in edges]
        self._build(
            _int_column([n.id for n in nodes]),
            np.array([_IDENTITY if r is None else r.quaternion for r in gts]).reshape(-1, 4),
            np.array([r is not None for r in gts], dtype=bool),
            _int_column([e.i for e in edges]), _int_column([e.j for e in edges]),
            np.array([e.rotation.quaternion for e in edges]).reshape(-1, 4),
            np.array([np.eye(3) if c is None else c for c in covs]).reshape(-1, 3, 3),
            np.array([c is not None for c in covs], dtype=bool),
            _int_column([0 if n is None else n for n in counts]),
            np.array([n is not None for n in counts], dtype=bool))

    @classmethod
    def from_columns(cls, ids, i, j, quats, *, gt_quats=None, has_gt=None, covariances=None,
                     has_covariance=None, inlier_counts=None, has_inlier_count=None):
        """The graph of nodes ``ids`` and edges ``(i[k], j[k], quats[k])``.

        ``gt_quats`` (N, 4), ``covariances`` (E, 3, 3) and ``inlier_counts``
        (E,) are optional, each read only where its ``has_*`` mask is set
        (every row when the mask is omitted).  Every record is checked under
        the rules of :class:`ViewNode`, :class:`~rotavg.so3.Rotation` and
        :class:`EdgeMeasurement`, all at once: the first bad node, then the
        first bad edge, raises the SchemaError its record raises on its own
        (a bad quaternion's message names its node or edge).  The graph rules of
        ``ViewGraph(nodes, edges)`` follow.
        """
        ids, i, j = _int_column(ids), _int_column(i), _int_column(j)
        gt, has_gt = _filled(gt_quats, has_gt, len(ids), _IDENTITY)
        cov, has_cov = _filled(covariances, has_covariance, len(i), np.eye(3))
        counts, has_count = _filled(None if inlier_counts is None else _int_column(inlier_counts),
                                    has_inlier_count, len(i), 0)
        g = cls.__new__(cls)
        g._build(ids, gt, has_gt, i, j, np.asarray(quats, dtype=np.float64).reshape(-1, 4),
                 cov, has_cov, counts, has_count)
        return g

    def _build(self, ids, gt_quats, has_gt, i, j, quats, covariances, has_covariance,
               inlier_counts, has_inlier_count):
        """Check every record, then :meth:`_assemble`; absent data hold their fillers."""
        raise_first_failure(
            [*(("node {id}: " + m, p) for m, p in _quaternion_checks(gt_quats)), *_id_rules(ids)],
            SchemaError, lambda k: {"id": ids[k]})
        raise_first_failure(
            [*(("edge ({i}, {j}): " + m, p) for m, p in _quaternion_checks(quats)),
             *_edge_checks(i, j, inlier_counts, covariances)],
            SchemaError, lambda k: {"i": i[k], "j": j[k]})
        self._assemble(ids, gt_quats, has_gt, i, j, quats, covariances, has_covariance,
                       inlier_counts, has_inlier_count)

    def _assemble(self, ids, gt_quats, has_gt, i, j, quats, covariances, has_covariance,
                  inlier_counts, has_inlier_count):
        """Store columns whose records passed their rules, after the graph rules: unique
        node ids, then, for the first edge in input order that breaks one, endpoints
        that are nodes and one edge per unordered pair."""
        if len(np.unique(ids)) != len(ids):
            raise SchemaError("duplicate node ids")
        node_order = np.argsort(ids, kind="stable")
        sorted_ids = ids[node_order].astype(np.int64)
        a, found_a = _node_rows(sorted_ids, i)
        b, found_b = _node_rows(sorted_ids, j)
        found = found_a & found_b
        pair = np.where(found, np.minimum(a, b) * len(ids) + np.maximum(a, b),
                        -1 - np.arange(len(a)))
        repeat = np.ones(len(pair), dtype=bool)
        repeat[np.unique(pair, return_index=True)[1]] = False
        raise_first_failure(
            [("edge ({i}, {j}): endpoint not in node set", found),
             ("duplicate edge for pair {pair}", ~repeat)],
            SchemaError, lambda k: {"i": int(i[k]), "j": int(j[k]),
                                    "pair": (int(min(i[k], j[k])), int(max(i[k], j[k])))})
        edge_order = np.lexsort((b, a))
        self._store(ids=sorted_ids, gt_quats=canonical_quats(gt_quats[node_order]),
                    has_gt=has_gt[node_order],
                    ends=np.stack([a, b], axis=1)[edge_order],
                    quats=canonical_quats(quats[edge_order]),
                    covariances=covariances[edge_order],
                    has_covariance=has_covariance[edge_order],
                    inlier_counts=np.asarray(inlier_counts)[edge_order].astype(np.int64),
                    has_inlier_count=has_inlier_count[edge_order])

    def _store(self, **columns):
        for name, column in columns.items():
            setattr(self, name, _frozen(column))

    def _subgraph(self, node_rows, edge_rows, new_rows) -> "ViewGraph":
        """The nodes ``node_rows`` and edges ``edge_rows`` (both ascending) as a graph,
        an edge end's row becoming ``new_rows`` of it; nothing is checked again."""
        g = ViewGraph.__new__(ViewGraph)
        g._store(ids=self.ids[node_rows], gt_quats=self.gt_quats[node_rows],
                 has_gt=self.has_gt[node_rows], ends=new_rows[self.ends[edge_rows]],
                 quats=self.quats[edge_rows], covariances=self.covariances[edge_rows],
                 has_covariance=self.has_covariance[edge_rows],
                 inlier_counts=self.inlier_counts[edge_rows],
                 has_inlier_count=self.has_inlier_count[edge_rows])
        return g

    @property
    def node_ids(self) -> list[int]:
        return self.ids.tolist()

    @property
    def edge_ids(self) -> np.ndarray:
        """(E, 2) node ids (i, j) of the edges."""
        return self.ids[self.ends]

    def edge_datum(self, datum: str):
        """The (E,) mask of the edges that carry ``datum`` (a key of :data:`EDGE_DATA`)
        and its column."""
        if datum == "inlier_count":
            return self.has_inlier_count, self.inlier_counts
        return self.has_covariance, self.covariances

    @cached_property
    def nodes(self) -> dict[int, ViewNode]:
        """Node id -> :class:`ViewNode`, in id order."""
        gts = [Rotation._trusted(q) if h else None
               for q, h in zip(self.gt_quats, self.has_gt.tolist())]
        return {nid: ViewNode(nid, r) for nid, r in zip(self.node_ids, gts)}

    @cached_property
    def edges(self) -> list[EdgeMeasurement]:
        """The edges as :class:`EdgeMeasurement` records, in (i, j) order; the
        columns were checked, so the records are not checked again."""
        covs = [c if h else None for c, h in zip(self.covariances, self.has_covariance.tolist())]
        counts = [n if h else None for n, h in zip(self.inlier_counts.tolist(),
                                                   self.has_inlier_count.tolist())]
        out = []
        for (i, j), q, c, n in zip(self.edge_ids.tolist(), self.quats, covs, counts):
            e = EdgeMeasurement.__new__(EdgeMeasurement)
            e.i, e.j, e.rotation, e.covariance, e.inlier_count = i, j, Rotation._trusted(q), c, n
            out.append(e)
        return out

    def __repr__(self):
        return f"ViewGraph(n_nodes={len(self.ids)}, n_edges={len(self.ends)})"


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

    orjson writes each float in the shortest form that reads back as the
    same double.  It writes NaN and infinities as ``null``: callers check
    their floats first (:func:`refuse_non_finite`).
    """
    data = orjson.dumps(doc, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    with open(path, "wb") as fh:
        fh.write(data)


def refuse_non_finite(path, columns, where) -> None:
    """Raise NumericalError unless every float of ``columns`` is finite.

    ``columns`` maps a field name to an array with one row per record, in
    the order they are checked; ``where(k)`` names record k in the message.
    """
    for name, values in columns.items():
        values = np.asarray(values, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(values).all(axis=tuple(range(1, values.ndim))))
        if len(bad):
            raise NumericalError(f"{path}: cannot write {name!r} of {where(int(bad[0]))}: "
                                 "JSON has no non-finite numbers")


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


def load_graph(path) -> ViewGraph:
    """Read a graph file.  All records are checked in one pass; the first bad
    one in file order raises the error it would raise on its own."""
    doc = read_json_object(path, ("nodes", "edges"))
    nodes = json_records(doc, "nodes", ("id",), path, integers=("id",))
    edges = json_records(doc, "edges", ("i", "j", "qwxyz"), path, integers=("i", "j", "inliers"))

    ids = _int_column([rec["id"] for rec in nodes])
    gt_values = [rec.get("gt_qwxyz") for rec in nodes]
    has_gt = np.array([q is not None for q in gt_values], dtype=bool)
    gt, gt_rules = _quaternion_rules([_IDENTITY if q is None else q for q in gt_values],
                                     "gt_qwxyz", "node {id}")
    _check_records([*gt_rules, *_id_rules(ids)], nodes, "gt_qwxyz")

    i, j = _int_column([rec["i"] for rec in edges]), _int_column([rec["j"] for rec in edges])
    count_values = [rec.get("inliers") for rec in edges]
    has_count = np.array([n is not None for n in count_values], dtype=bool)
    counts = _int_column([0 if n is None else n for n in count_values])
    cov_values = [rec.get("cov") for rec in edges]
    has_cov = np.array([c is not None for c in cov_values], dtype=bool)
    rows, cov_ok = _float_rows([_EYE if c is None else c for c in cov_values], 9)
    covs = rows.reshape(-1, 3, 3)
    q, quaternion_rules = _quaternion_rules([rec["qwxyz"] for rec in edges], "qwxyz",
                                            "edge ({i}, {j})")
    _check_records([("edge ({i}, {j}): 'cov' must be 9 row-major floats", cov_ok),
                    *quaternion_rules, *_edge_checks(i, j, counts, covs)], edges, "qwxyz")
    g = ViewGraph.__new__(ViewGraph)
    g._assemble(ids, gt, has_gt, i, j, q, covs, has_cov, counts, has_count)
    return g


def save_graph(g: ViewGraph, path) -> None:
    ij = g.edge_ids
    refuse_non_finite(path, {"gt_qwxyz": g.gt_quats}, lambda k: f"node {g.ids[k]}")
    refuse_non_finite(path, {"qwxyz": g.quats, "cov": g.covariances},
                      lambda k: "edge ({}, {})".format(*ij[k]))
    nodes = [{"id": nid, "gt_qwxyz": q} if has else {"id": nid}
             for nid, q, has in zip(g.node_ids, g.gt_quats.tolist(), g.has_gt.tolist())]
    # one list per column, not per edge: every list made here is one more object for
    # the garbage collector to traverse
    i, j = ij.T.tolist()
    edges = [{"i": a, "j": b, "qwxyz": q} for a, b, q in zip(i, j, g.quats.tolist())]
    for rec, cov in zip(itertools.compress(edges, g.has_covariance.tolist()),
                        g.covariances[g.has_covariance].reshape(-1, 9).tolist()):
        rec["cov"] = cov
    for rec, count in zip(itertools.compress(edges, g.has_inlier_count.tolist()),
                          g.inlier_counts[g.has_inlier_count].tolist()):
        rec["inliers"] = count
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
    geoms = [geom for _, geom in pairs]
    columns = {
        "K_i": np.array([geom.intrinsics_i.k for geom in geoms]).reshape(-1, 9),
        "K_j": np.array([geom.intrinsics_j.k for geom in geoms]).reshape(-1, 9),
        "qwxyz": np.array([geom.rotation.quaternion for geom in geoms]).reshape(-1, 4),
        "t": np.array([geom.translation for geom in geoms]).reshape(-1, 3),
    }
    matches_finite = [0.0 if np.isfinite(geom.matches).all() else np.nan for geom in geoms]
    refuse_non_finite(path, {**columns, "matches": matches_finite},
                      lambda k: "pair ({}, {})".format(*pairs[k][0]))
    records = [{"i": i, "j": j, "matches": geom.matches.tolist()} for (i, j), geom in pairs]
    for name, column in columns.items():
        for rec, value in zip(records, column.tolist()):
            rec[name] = value
    write_json({"pairs": records}, path)


def _component_roots(g: ViewGraph) -> np.ndarray:
    """(N,) row of the first node (the smallest id) of each node's connected component.

    Each pass hooks the larger of the two roots of every edge whose ends
    have different roots to the smallest root it meets, then points every
    node at its new root; each root only ever moves to a smaller row, and
    every component that meets another merges, so the passes are
    logarithmically many.
    """
    root = np.arange(len(g.ids))
    a, b = g.ends.T
    while True:
        ra, rb = root[a], root[b]
        cross = ra != rb
        if not cross.any():
            return root
        np.minimum.at(root, np.maximum(ra, rb)[cross], np.minimum(ra, rb)[cross])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def is_connected(g: ViewGraph) -> bool:
    """True when the graph has exactly one connected component."""
    return bool(len(g.ids)) and not _component_roots(g).any()


def check_connected(g: ViewGraph) -> None:
    """Raise :class:`DisconnectedGraphError` unless ``g`` has exactly one component."""
    if not len(g.ids):
        raise DisconnectedGraphError("graph has no nodes")
    if not is_connected(g):
        raise DisconnectedGraphError(
            "graph is disconnected; split it with connected_components() first")


def connected_components(g: ViewGraph) -> list[ViewGraph]:
    """Partition into connected components, ordered by smallest node id."""
    if not len(g.ids):
        return []
    roots = _component_roots(g)
    # nodes and edges grouped by component, each group in the graph's own order
    node_order = np.argsort(roots, kind="stable")
    edge_roots = roots[g.ends[:, 0]]
    edge_order = np.argsort(edge_roots, kind="stable")
    firsts = np.flatnonzero(roots == np.arange(len(roots)))
    sizes = np.bincount(roots)[firsts]
    new_rows = np.empty(len(roots), dtype=np.int64)
    new_rows[node_order] = np.arange(len(roots)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    edge_splits = np.cumsum(np.bincount(edge_roots, minlength=len(roots))[firsts])[:-1]
    return [g._subgraph(nodes, edges, new_rows) for nodes, edges in
            zip(np.split(node_order, np.cumsum(sizes)[:-1]), np.split(edge_order, edge_splits))]


def _find(parent: list[int], a: int) -> int:
    """Root of ``a`` in the union-find forest ``parent`` (path halving)."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _union(parent: list[int], a: int, b: int) -> bool:
    """Join the sets of a and b under the smaller root; False if already one."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[max(ra, rb)] = min(ra, rb)
    return True


def _tree_weights(g: ViewGraph, criterion: str):
    """(E,) spanning-tree weights of the edges of ``g`` under ``criterion``."""
    if criterion not in _TREE_DATA:
        raise ValueError(f"unknown spanning-tree criterion {criterion!r}")
    datum = _TREE_DATA[criterion]
    if datum is None:
        return np.ones(len(g.ends))
    has, values = g.edge_datum(datum)
    if not has.all():
        i, j = g.edge_ids[np.argmin(has)].tolist()
        raise ValueError(f"edge ({i}, {j}) has no {EDGE_DATA[datum]}")
    if datum == "inlier_count":
        return values.astype(np.float64)
    return 1.0 / np.trace(values, axis1=1, axis2=2)


def default_tree_criterion(g: ViewGraph) -> str:
    """Prefer inlier counts, then inverse covariance trace, then unit weight:
    the first criterion whose datum every edge carries."""
    return next(criterion for criterion, datum in _TREE_DATA.items()
                if datum is None or (len(g.ends) and g.edge_datum(datum)[0].all()))


def _tree_rows(g: ViewGraph, criterion: str) -> list[int]:
    """Edge rows of the Kruskal maximum spanning tree; ties break on (i, j), the
    edges' own order."""
    parent = list(range(len(g.ids)))
    a, b = g.ends.T.tolist()
    ranked = np.argsort(-_tree_weights(g, criterion), kind="stable").tolist()
    return [k for k in ranked if _union(parent, a[k], b[k])]


def maximum_spanning_tree(g: ViewGraph, criterion: str) -> list[EdgeMeasurement]:
    """The edges of the Kruskal maximum spanning tree, in the order it takes them."""
    return [g.edges[k] for k in _tree_rows(g, criterion)]


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
    tree = _tree_rows(g, criterion)
    ends = g.ends[tree].reshape(-1, 2)
    q = g.quats[tree].reshape(-1, 4)
    # each tree edge both ways: R_ij = R_i R_j^T  =>  R_j = R_ij^T R_i,  R_i = R_ij R_j
    src, dst = np.concatenate([ends, ends[:, ::-1]]).T
    rel = np.concatenate([canonical_quats(quat_conj(q)), q])
    quats = np.empty((len(g.ids), 4))
    quats[0] = (1.0, 0.0, 0.0, 0.0)
    reached = np.arange(len(g.ids)) == 0
    while not reached.all():
        # one tree level per pass: a node not yet reached has at most one reached neighbor
        step = reached[src] & ~reached[dst]
        quats[dst[step]] = canonical_quats(quat_mul(rel[step], quats[src[step]]))
        reached[dst[step]] = True
    return dict(zip(g.node_ids, checked_rotations(quats)))
