"""CLI pipeline: exit codes, idempotence, report layout, help coverage."""

import functools
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotavg.cli as cli
from rotavg.errors import NumericalError
from rotavg.so3 import Rotation
from rotavg.synth import SynthConfig, generate_graph, generate_two_view_scene
from rotavg.viewgraph import (ViewGraph, ViewNode, load_graph, load_result_rotations, save_graph,
                              save_pairs)

from conftest import bad_two_view_geometries, moderate_rotation, random_unit_vector


def _synth(tmp_path, name="g.json", seed=7, cameras=25, outliers=0.1, extra=()):
    path = tmp_path / name
    rc = cli.main([
        "synth", "--cameras", str(cameras), "--density", "0.4",
        "--outliers", str(outliers), "--seed", str(seed), "--out", str(path),
        *extra,
    ])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path / "g.json")]) == 1  # --cameras missing
    assert cli.main(["average", "--in", "g.json", "--out", "r.json",
                     "--loss", "nope"]) == 1
    assert cli.main(["average", "--in", "g.json", "--out", "r.json",
                     "--unknown-flag"]) == 1
    # each re-weighting takes one step; there is no inner iteration cap
    assert cli.main(["average", "--in", "g.json", "--out", "r.json",
                     "--max-inner", "3"]) == 1
    assert cli.main(["synth", "--cameras", "5", "--out", str(tmp_path / "g.json"),
                     "--threads", "0"]) == 1
    assert cli.main(["synth", "--cameras", "1", "--out", str(tmp_path / "g.json")]) == 1
    assert cli.main(["bench", "--in", "g.json", "--repeats", "0"]) == 1
    # too sparse to sample a connected graph
    assert cli.main(["synth", "--cameras", "30", "--density", "0.01",
                     "--out", str(tmp_path / "g.json")]) == 1


def test_bad_noise_mixture_exits_1(tmp_path, capsys):
    """A bad --noise is a usage error with a message of its own, not numpy's."""
    for noise, why in (("1:nan", "mixture fractions and sigmas must be finite"),
                       ("1:inf", "mixture fractions and sigmas must be finite"),
                       ("nan:1", "mixture fractions and sigmas must be finite"),
                       ("-0.5:1,1.5:1", "mixture fractions must be in [0, 1]"),
                       ("1:1e200", "mixture sigmas must be at most 180 degrees"),
                       ("x", "argument --noise: expected 'frac:sigma_deg,...', got 'x'")):
        assert cli.main(["synth", "--cameras", "8", f"--noise={noise}",
                         "--out", str(tmp_path / "g.json")]) == 1
        assert capsys.readouterr() == ("", f"usage error: {why}\n")
    assert not (tmp_path / "g.json").exists()


def test_non_finite_loss_scale_exits_1(tmp_path, capsys):
    """An infinite --loss-scale, or one whose square is not a finite normal float, is a
    usage error, not all-zero weights, a warning or a blamed edge."""
    g = _synth(tmp_path)
    capsys.readouterr()
    r = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loss in ("magsac", "cauchy"):
            assert cli.main(["average", "--in", str(g), "--out", str(r),
                             "--loss", loss, "--loss-scale", "inf"]) == 1
            assert capsys.readouterr() == (
                "", "usage error: loss scale must be positive and finite\n")
            # finite, but the square overflows or underflows
            for scale in ("1e300", "1e-300"):
                assert cli.main(["average", "--in", str(g), "--out", str(r),
                                 "--loss", loss, "--loss-scale", scale]) == 1
                out, err = capsys.readouterr()
                assert out == ""
                assert err.startswith(f"usage error: loss scale {float(scale)!r} is out of range")
    assert not r.exists()


@pytest.mark.parametrize("loss, scale, message", [
    ("magsac", "1e-104", "non-finite IRLS weight on edge (0, 15)"),
    ("gm", "2e-154", "non-finite IRLS weight on edge (0, 15)"),
    ("magsac", "2e-103", "non-finite normal equations on edge (0, 15)"),
    ("cauchy", "2e-154", "non-finite cost contribution on edge (0, 7)"),
])
def test_loss_scale_that_overflows_exits_3(tmp_path, capsys, loss, scale, message):
    """A loss scale that passes LossSpec but overflows the loss, its weights or the
    normal equations is a numerical failure naming an edge, with no RuntimeWarning
    on the way (tier-1 turns one into an error)."""
    g = tmp_path / "g.json"
    assert cli.main(["synth", "--cameras", "20", "--density", "0.25", "--outliers", "0.1",
                     "--seed", "0", "--out", str(g)]) == 0
    r = tmp_path / "r.json"
    capsys.readouterr()
    assert cli.main(["average", "--in", str(g), "--out", str(r),
                     "--loss", loss, "--loss-scale", scale]) == 3
    assert capsys.readouterr() == ("", f"numerical failure: {message}\n")
    assert not r.exists()
    # a scale this small that overflows nothing still solves
    assert cli.main(["average", "--in", str(g), "--out", str(r),
                     "--loss", "magsac", "--loss-scale", "1e-100"]) == 0


@pytest.mark.parametrize("criterion", ["inlier_count", "inverse_cov_trace", "bogus"])
def test_init_criterion_takes_auto_or_unit(tmp_path, capsys, criterion):
    g = _synth(tmp_path)
    r = tmp_path / "r.json"
    capsys.readouterr()
    assert cli.main(["average", "--in", str(g), "--out", str(r),
                     "--init-criterion", criterion]) == 1
    assert capsys.readouterr().err.startswith(
        "usage error: argument --init-criterion: invalid choice: ")
    assert not r.exists()
    for ok in ("auto", "unit"):
        assert cli.main(["average", "--in", str(g), "--out", str(r),
                         "--init-criterion", ok]) == 0


def test_bad_weigh_sigma_exits_1(tmp_path, capsys):
    """--sigma must be positive and finite; the flag is blamed, not an edge."""
    pairs_path = tmp_path / "pairs.json"
    save_pairs(_pairs(np.random.default_rng(0)), pairs_path)
    out = tmp_path / "weighted.json"
    for sigma in ("-1", "0", "nan", "inf"):
        assert cli.main(["weigh", "--pairs", str(pairs_path), "--out", str(out),
                         f"--sigma={sigma}"]) == 1
        assert capsys.readouterr() == (
            "", f"usage error: residual sigma must be positive and finite, not {sigma}\n")
    assert not out.exists()


def test_duplicate_result_ids_exit_2(tmp_path, capsys):
    """A result file naming a node twice is a data error, not scored by its last record."""
    g = _synth(tmp_path)
    r = tmp_path / "r.json"
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 0
    doc = json.loads(r.read_text())
    doc["rotations"].append({"id": 0, "qwxyz": [1.0, 0.0, 0.0, 0.0]})
    r.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["evaluate", "--est", str(r), "--gt", str(g)]) == 2
    assert capsys.readouterr() == ("", f"data error: {r}: duplicate node id 0\n")


def test_negative_result_id_exits_2(tmp_path, capsys):
    """A result file's node ids pass the graph loader's rules: a view is not dropped."""
    g = _synth(tmp_path)
    r = tmp_path / "r.json"
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 0
    doc = json.loads(r.read_text())
    doc["rotations"][0]["id"] = -1
    r.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["evaluate", "--est", str(r), "--gt", str(g)]) == 2
    assert capsys.readouterr() == ("", "data error: node id must be non-negative, got -1\n")


def _edited_synth(tmp_path, edit):
    """The 20-camera synth graph, its JSON document changed in place by ``edit``."""
    g = tmp_path / "g.json"
    assert cli.main(["synth", "--cameras", "20", "--density", "0.3", "--seed", "0",
                     "--out", str(g)]) == 0
    doc = json.loads(g.read_text())
    edit(doc)
    g.write_text(json.dumps(doc))
    return g


def _zero_counts(doc):
    for e in doc["edges"]:
        e["inliers"] = 0


def _one_zero_count(doc):
    for e in doc["edges"]:
        e.pop("inliers")
    doc["edges"][0]["inliers"] = 0


@pytest.mark.parametrize("edit", [_zero_counts, _one_zero_count])
def test_all_zero_inlier_counts_exit_2(tmp_path, capsys, edit):
    """inlier_count weighting of counts that are all zero is a data error, not a
    RuntimeWarning and an edge blamed for a non-finite cost."""
    g = _edited_synth(tmp_path, edit)
    r = tmp_path / "r.json"
    capsys.readouterr()
    assert cli.main(["average", "--in", str(g), "--out", str(r),
                     "--weighting", "inlier_count"]) == 2
    assert capsys.readouterr() == (
        "", "data error: every inlier count is zero: inlier_count weighting needs a "
            "positive one\n")
    assert not r.exists()


def test_tiny_covariance_under_cov_trace_exits_3(tmp_path, capsys):
    """A covariance of 1e-320 I passes the positive-definite check; the squared norm its
    cov_trace scale overflows is a numerical failure naming the edge, with no
    RuntimeWarning on the way."""
    def tiny_cov(doc):
        doc["edges"][0]["cov"] = (1e-320 * np.eye(3)).reshape(9).tolist()

    g = _edited_synth(tmp_path, tiny_cov)
    r = tmp_path / "r.json"
    for loss, what in (("magsac", "normal equations"), ("trivial", "cost contribution"),
                       ("cauchy", "cost contribution")):
        capsys.readouterr()
        assert cli.main(["average", "--in", str(g), "--out", str(r), "--loss", loss,
                         "--weighting", "cov_trace"]) == 3
        assert capsys.readouterr() == ("", f"numerical failure: non-finite {what} on "
                                           "edge (0, 7)\n")
    assert not r.exists()


def test_duplicate_graph_ids_exit_2(tmp_path, capsys):
    """The first record in file order whose id repeats an earlier one is named, with its
    file: nodes 0, ..., 4, 9, 3, 5, ... repeat 3 before 9."""
    g = _synth(tmp_path)
    doc = json.loads(g.read_text())
    doc["nodes"][5:5] = [{"id": 9}, {"id": 3}]
    g.write_text(json.dumps(doc))
    capsys.readouterr()
    r = tmp_path / "r.json"
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 2
    assert capsys.readouterr() == ("", f"data error: {g}: duplicate node id 3\n")
    assert not r.exists()


def test_data_errors_exit_2(tmp_path, capsys):
    assert cli.main(["average", "--in", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "r.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["average", "--in", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    # graph without ground truth cannot be evaluated
    g = _synth(tmp_path)
    r = tmp_path / "r.json"
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 0
    no_gt = tmp_path / "nogt.json"
    doc = json.loads(g.read_text())
    for rec in doc["nodes"]:
        rec.pop("gt_qwxyz", None)
    no_gt.write_text(json.dumps(doc))
    assert cli.main(["evaluate", "--est", str(r), "--gt", str(no_gt)]) == 2
    # an empty graph and a disconnected one are data errors, not usage errors
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"nodes": [], "edges": []}))
    assert cli.main(["average", "--in", str(empty), "--out", str(r)]) == 2
    assert "graph has no nodes" in capsys.readouterr().err
    apart = tmp_path / "apart.json"
    apart.write_text(json.dumps({"nodes": [{"id": 0}, {"id": 1}], "edges": []}))
    assert cli.main(["average", "--in", str(apart), "--out", str(r)]) == 2
    assert "disconnected" in capsys.readouterr().err
    # a record list that is not a list
    bad.write_text(json.dumps({"nodes": {}, "edges": []}))
    assert cli.main(["average", "--in", str(bad), "--out", str(r)]) == 2
    assert capsys.readouterr().err == f"data error: {bad}: 'nodes' must be a list\n"
    bad.write_text(json.dumps({"pairs": {}}))
    assert cli.main(["weigh", "--pairs", str(bad), "--out", str(r)]) == 2
    assert capsys.readouterr().err == f"data error: {bad}: 'pairs' must be a list\n"
    # a result that shares no node id with the ground truth
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 0
    doc = json.loads(r.read_text())
    for rec in doc["rotations"]:
        rec["id"] += 1000
    r.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["evaluate", "--est", str(r), "--gt", str(g)]) == 2
    assert capsys.readouterr().err == "data error: estimate and ground truth share no node ids\n"


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    """Bytes that are not UTF-8 are a data error naming the file, not a usage error."""
    g = tmp_path / "g.json"
    g.write_bytes(b'{"nodes": [{"id": 0}], \xff"edges": []}')
    assert cli.main(["average", "--in", str(g), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr() == ("", f"data error: {g}: not UTF-8: 'utf-8' codec can't "
                                       "decode byte 0xff in position 23: invalid start byte\n")


def test_input_path_that_is_a_directory_exits_2(tmp_path, capsys):
    """A path that cannot be read as a file ends in exit 2 with one line, not a traceback."""
    out = str(tmp_path / "out.json")
    for argv in (["average", "--in", str(tmp_path), "--out", out],
                 ["weigh", "--pairs", str(tmp_path), "--out", out],
                 ["evaluate", "--est", str(tmp_path), "--gt", str(tmp_path)]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"data error: [Errno 21] Is a directory: "
                                           f"'{tmp_path}'\n")


@pytest.mark.parametrize("value", [2**63, 2**64])
@pytest.mark.parametrize("stdlib", [False, True], ids=["orjson", "stdlib"])
def test_ids_at_or_above_2_63_exit_2(tmp_path, capsys, value, stdlib):
    """Both decoders reject an id at or above 2**63: orjson reads 2**64 as a float,
    the stdlib as an int.  A NaN in an unread key sends the file to the stdlib."""
    g, r = tmp_path / "g.json", tmp_path / "r.json"
    doc = {"nodes": [{"id": 0}, {"id": value}],
           "edges": [{"i": 0, "j": value, "qwxyz": [1.0, 0.0, 0.0, 0.0]}]}
    if stdlib:
        doc["note"] = float("nan")
    g.write_text(json.dumps(doc))
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {g}: nodes[1]: 'id' must be ")
    if stdlib or value == 2**63:
        assert err.endswith(f"'id' must be below 2**63, got {value}\n")
    assert not r.exists()


def test_missing_keys_exit_2(tmp_path, capsys):
    """A record without a required key, or not an object, is a data error naming it."""
    g, r = tmp_path / "g.json", tmp_path / "r.json"
    two_nodes = [{"id": 0}, {"id": 1}]
    g.write_text(json.dumps({"nodes": two_nodes, "edges": [{"i": 0, "j": 1}]}))
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 2
    assert "edges[0]: missing key 'qwxyz'" in capsys.readouterr().err
    edge = {"i": 0, "j": 1, "qwxyz": [1.0, 0.0, 0.0, 0.0]}
    g.write_text(json.dumps({"nodes": [{"id": 0}, {"gt_qwxyz": [1, 0, 0, 0]}],
                             "edges": [edge]}))
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 2
    assert "nodes[1]: missing key 'id'" in capsys.readouterr().err
    g.write_text(json.dumps({"nodes": two_nodes, "edges": [edge, [0, 1]]}))
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 2
    assert "edges[1]: expected an object, got list" in capsys.readouterr().err

    synth = _synth(tmp_path)
    assert cli.main(["average", "--in", str(synth), "--out", str(r)]) == 0
    doc = json.loads(r.read_text())
    del doc["rotations"][2]["id"]
    r.write_text(json.dumps(doc))
    assert cli.main(["evaluate", "--est", str(r), "--gt", str(synth)]) == 2
    assert "rotations[2]: missing key 'id'" in capsys.readouterr().err


def test_wrongly_typed_ids_exit_2(tmp_path, capsys):
    """Ids and inlier counts must be JSON integers, and numeric fields numbers; anything
    else is a data error naming its record."""
    g, r = tmp_path / "g.json", tmp_path / "r.json"
    edge = {"i": 0, "j": 1, "qwxyz": [1.0, 0.0, 0.0, 0.0]}
    cases = [
        ([{"id": 0}, {"id": None}], [edge], "nodes[1]: 'id' must be an integer, got None"),
        ([{"id": "a"}, {"id": 1}], [edge], "nodes[0]: 'id' must be an integer, got 'a'"),
        ([{"id": 0}, {"id": True}], [edge], "nodes[1]: 'id' must be an integer, got True"),
        ([{"id": 0}, {"id": 1}], [dict(edge, inliers="x")],
         "edges[0]: 'inliers' must be an integer, got 'x'"),
        ([{"id": 0}, {"id": 1}], [dict(edge, j=1.7)], "edges[0]: 'j' must be an integer, got 1.7"),
        ([{"id": 0}, {"id": 1}], [dict(edge, i=0.0)], "edges[0]: 'i' must be an integer, got 0.0"),
        ([{"id": 0}, {"id": 1}], [dict(edge, cov=["a"] + [0.0] * 8)],
         "edge (0, 1): 'cov' must be 9 row-major floats"),
        ([{"id": 0}, {"id": 1}], [dict(edge, cov={"xx": 1.0})],
         "edge (0, 1): 'cov' must be 9 row-major floats"),
    ]
    for nodes, edges, message in cases:
        g.write_text(json.dumps({"nodes": nodes, "edges": edges}))
        assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 2
        assert message in capsys.readouterr().err
    g.write_text(json.dumps({"nodes": [{"id": 0}, {"id": 1}], "edges": [dict(edge, inliers=None)]}))
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 0  # null = no count

    pairs_path = tmp_path / "pairs.json"
    save_pairs(_pairs(np.random.default_rng(1)), pairs_path)
    doc = json.loads(pairs_path.read_text())
    doc["pairs"][2]["i"] = 1.5
    pairs_path.write_text(json.dumps(doc))
    assert cli.main(["weigh", "--pairs", str(pairs_path), "--out", str(g)]) == 2
    assert "pairs[2]: 'i' must be an integer, got 1.5" in capsys.readouterr().err
    doc["pairs"][2]["i"] = 2
    doc["pairs"][3]["K_i"] = {"fx": 600.0}
    pairs_path.write_text(json.dumps(doc))
    assert cli.main(["weigh", "--pairs", str(pairs_path), "--out", str(g)]) == 2
    assert "data error: pair (0, 3): " in capsys.readouterr().err

    synth = _synth(tmp_path)
    assert cli.main(["average", "--in", str(synth), "--out", str(r)]) == 0
    doc = json.loads(r.read_text())
    doc["rotations"][3]["id"] = "3"
    r.write_text(json.dumps(doc))
    assert cli.main(["evaluate", "--est", str(r), "--gt", str(synth)]) == 2
    assert "rotations[3]: 'id' must be an integer, got '3'" in capsys.readouterr().err


ZERO_QUATERNION = "bad quaternion [0, 0, 0, 0]: zero-norm quaternion"


def test_bad_edge_value_outranks_a_later_malformed_edge(tmp_path, capsys):
    """The first bad record in file order is named, whether its fault is a value or
    its structure: a zero quaternion in edges[0] before a string id in edges[1]."""
    def edit(doc):
        doc["edges"][0]["qwxyz"] = [0, 0, 0, 0]
        doc["edges"][1]["i"] = "x"

    g = _edited_synth(tmp_path, edit)
    edge = json.loads(g.read_text())["edges"][0]
    capsys.readouterr()
    assert cli.main(["average", "--in", str(g), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr() == (
        "", f"data error: edge ({edge['i']}, {edge['j']}): {ZERO_QUATERNION}\n")


def test_bad_node_outranks_a_malformed_edge(tmp_path, capsys):
    """A graph settles its nodes before its edges, as ViewGraph.from_columns does."""
    def edit(doc):
        doc["nodes"][0]["gt_qwxyz"] = [0, 0, 0, 0]
        doc["edges"][2]["inliers"] = "many"

    g = _edited_synth(tmp_path, edit)
    capsys.readouterr()
    assert cli.main(["average", "--in", str(g), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr() == ("", f"data error: node 0: {ZERO_QUATERNION}\n")


def test_bad_pair_value_outranks_a_later_malformed_pair(tmp_path, capsys):
    path = tmp_path / "pairs.json"
    save_pairs(_pairs(np.random.default_rng(1)), path)
    doc = json.loads(path.read_text())
    doc["pairs"][0]["qwxyz"] = [0, 0, 0, 0]
    doc["pairs"][2]["i"] = 1.5
    path.write_text(json.dumps(doc))
    assert cli.main(["weigh", "--pairs", str(path), "--out", str(tmp_path / "g.json")]) == 2
    assert capsys.readouterr() == ("", f"data error: pair (0, 1): {ZERO_QUATERNION}\n")


def test_bad_result_value_outranks_a_later_malformed_rotation(tmp_path, capsys):
    g, r = _synth(tmp_path), tmp_path / "r.json"
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 0
    doc = json.loads(r.read_text())
    doc["rotations"][0]["qwxyz"] = [0, 0, 0, 0]
    doc["rotations"][3]["id"] = "3"
    r.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["evaluate", "--est", str(r), "--gt", str(g)]) == 2
    assert capsys.readouterr() == ("", f"data error: node 0: {ZERO_QUATERNION}\n")


def test_importing_the_cli_loads_no_scipy():
    """scipy is imported by the functions that use it, so a process that never solves
    or evaluates a magsac loss (synth, weigh, evaluate) does not pay for loading it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, rotavg.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout == "[]\n"


def test_bad_result_quaternion_exits_2(tmp_path, capsys):
    synth = _synth(tmp_path)
    r = tmp_path / "r.json"
    assert cli.main(["average", "--in", str(synth), "--out", str(r)]) == 0
    doc = json.loads(r.read_text())
    rec = doc["rotations"][4]
    rec["qwxyz"] = [0, 0, 0, 0]
    r.write_text(json.dumps(doc))
    assert cli.main(["evaluate", "--est", str(r), "--gt", str(synth)]) == 2
    err = capsys.readouterr().err
    assert f"node {rec['id']}: bad quaternion [0, 0, 0, 0]: zero-norm quaternion" in err


def test_quaternion_whose_norm_overflows_exits_2(tmp_path, capsys):
    """Each bad file gives one ``data error:`` line on stderr and no numpy warning."""
    g = _synth(tmp_path)
    capsys.readouterr()
    doc = json.loads(g.read_text())
    edge, node = doc["edges"][3], doc["nodes"][2]
    edge["qwxyz"] = [1e308, 1e308, 0, 0]
    g.write_text(json.dumps(doc))
    r = str(tmp_path / "r.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["average", "--in", str(g), "--out", r]) == 2
        assert capsys.readouterr().err == (
            f"data error: edge ({edge['i']}, {edge['j']}): bad quaternion "
            "[1e+308, 1e+308, 0, 0]: quaternion norm overflows\n")
        doc = json.loads(_synth(tmp_path).read_text())
        capsys.readouterr()
        doc["nodes"][2]["gt_qwxyz"] = [1e200, 0, 0, 0]
        g.write_text(json.dumps(doc))
        assert cli.main(["average", "--in", str(g), "--out", r]) == 2
        assert capsys.readouterr().err == (
            f"data error: node {node['id']}: bad quaternion [1e+200, 0, 0, 0]: "
            "quaternion norm overflows\n")
        pairs_path = tmp_path / "pairs.json"
        save_pairs(_pairs(np.random.default_rng(1)), pairs_path)
        doc = json.loads(pairs_path.read_text())
        pair = doc["pairs"][1]
        pair["qwxyz"] = [1e200, 0, 0, 0]
        pairs_path.write_text(json.dumps(doc))
        assert cli.main(["weigh", "--pairs", str(pairs_path), "--out", r]) == 2
        assert capsys.readouterr().err == (
            f"data error: pair ({pair['i']}, {pair['j']}): bad quaternion [1e+200, 0, 0, 0]: "
            "quaternion norm overflows\n")


def test_report_rejects_unknown_names_exit_1(tmp_path, capsys, monkeypatch):
    """report's free-form lists name the bad entry as the solver config does,
    before any solve."""
    g = str(_synth(tmp_path, cameras=12))
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("report solved before checking its names")

    monkeypatch.setattr(cli, "solve", no_solve)
    assert cli.main(["report", "--in", g, "--weightings", "none,bogus"]) == 1
    assert capsys.readouterr().err == (
        "usage error: unknown weighting mode 'bogus'; choose from "
        "('none', 'inlier_count', 'cov_trace', 'cov_fro', 'cov_full')\n")
    assert cli.main(["report", "--in", g, "--losses", "bogus"]) == 1
    assert capsys.readouterr().err == (
        "usage error: unknown loss kind 'bogus'; choose from ('trivial', 'huber', "
        "'soft_l1', 'cauchy', 'tukey', 'gm', 'l_half', 'magsac')\n")
    assert cli.main(["report", "--in", g, "--thresholds", "2,nan"]) == 1
    assert capsys.readouterr() == (
        "", "usage error: argument --thresholds: threshold must be positive, not nan\n")


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_numerical_errors_exit_3(tmp_path, monkeypatch):
    g = _synth(tmp_path)

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "solve", boom)
    assert cli.main(["average", "--in", str(g), "--out", str(tmp_path / "r.json")]) == 3

    def singular(*args, **kwargs):  # LinAlgError subclasses ValueError
        raise np.linalg.LinAlgError("synthetic singular matrix")

    monkeypatch.setattr(cli, "solve", singular)
    assert cli.main(["average", "--in", str(g), "--out", str(tmp_path / "r.json")]) == 3


def test_non_finite_inputs_exit_2(tmp_path, capsys):
    pairs_path = tmp_path / "pairs.json"
    save_pairs(_pairs(np.random.default_rng(1)), pairs_path)
    doc = json.loads(pairs_path.read_text())
    doc["pairs"][1]["matches"][3][0] = float("nan")
    pairs_path.write_text(json.dumps(doc))
    out = tmp_path / "weighted.json"
    assert cli.main(["weigh", "--pairs", str(pairs_path), "--out", str(out)]) == 2
    assert "non-finite match coordinates" in capsys.readouterr().err
    g = _synth(tmp_path)
    doc = json.loads(g.read_text())
    edge = doc["edges"][2]
    edge["cov"][4] = float("nan")
    g.write_text(json.dumps(doc))
    assert cli.main(["average", "--in", str(g), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"edge ({edge['i']}, {edge['j']}): covariance has non-finite entries" in err


_JSON_VALUES = (
    st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                 lambda inner: st.lists(inner, max_size=10)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                 max_leaves=12)
    | st.lists(st.floats() | st.integers(), min_size=3, max_size=10)
    | st.lists(st.lists(st.floats(), min_size=3, max_size=5), max_size=6))
# (file, list, field, command reading it)
_NUMERIC_FIELDS = [("graph", "nodes", "gt_qwxyz", "average"),
                   ("graph", "edges", "qwxyz", "average"),
                   ("graph", "edges", "cov", "average"),
                   ("result", "rotations", "qwxyz", "evaluate")] + [
    ("pairs", "pairs", name, "weigh") for name in ("K_i", "K_j", "qwxyz", "t", "matches")]


@functools.cache
def _valid_docs():
    """A graph with ground truth and covariances, its result and a correspondence set."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in ("graph", "result", "pairs")}
        scene = generate_graph(SynthConfig(n_cameras=5, edge_density=1.0,
                                           noise_sigmas_deg=((1.0, 1.0),), seed=2))
        save_graph(scene.graph, paths["graph"])
        assert cli.main(["average", "--in", str(paths["graph"]),
                         "--out", str(paths["result"])]) == 0
        save_pairs(_pairs(np.random.default_rng(3)), paths["pairs"])
        return {name: path.read_text() for name, path in paths.items()}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_NUMERIC_FIELDS), st.integers(0, 3), _JSON_VALUES)
def test_any_json_value_in_a_numeric_field_exits_0_2_or_3(field, record, value):
    """Whatever JSON value a numeric field holds, a command reading it ends in
    success, a data error or a numerical failure: never a usage error, never
    an uncaught exception."""
    name, key, attr, command = field
    docs = {n: json.loads(text) for n, text in _valid_docs().items()}
    docs[name][key][record][attr] = value
    with tempfile.TemporaryDirectory() as tmp:
        paths = {n: Path(tmp) / f"{n}.json" for n in docs}
        for n, doc in docs.items():
            paths[n].write_text(json.dumps(doc))
        out = str(Path(tmp) / "out.json")
        argv = {"average": ["average", "--in", str(paths["graph"]), "--out", out],
                "evaluate": ["evaluate", "--est", str(paths["result"]),
                             "--gt", str(paths["graph"])],
                "weigh": ["weigh", "--pairs", str(paths["pairs"]), "--out", out]}[command]
        assert cli.main(argv) in (0, 2, 3)


# ---------------------------------------------------------------------------
# subcommand behavior
# ---------------------------------------------------------------------------


def test_synth_is_idempotent_bytewise(tmp_path):
    a = _synth(tmp_path, "a.json")
    b = _synth(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()
    g = load_graph(a)
    assert len(g.nodes) == 25
    assert all(e.covariance is not None for e in g.edges)
    c = _synth(tmp_path, "c.json", extra=("--no-covariance",))
    assert all(e.covariance is None for e in load_graph(c).edges)


def test_average_and_evaluate_pipeline(tmp_path, capsys):
    g = _synth(tmp_path)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["average", "--in", str(g), "--loss", "magsac", "--weighting", "cov_full"]
    assert cli.main(args + ["--out", str(r1)]) == 0
    assert cli.main(args + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()  # deterministic, byte-identical
    rotations = load_result_rotations(r1)
    assert len(rotations) == 25
    cdf = tmp_path / "cdf.csv"
    assert cli.main(["evaluate", "--est", str(r1), "--gt", str(g),
                     "--thresholds", "2,5,10,20", "--cdf", str(cdf)]) == 0
    out = capsys.readouterr().out
    assert "AUC@2" in out and "AUC@20" in out
    aucs = [float(v) for v in out.strip().splitlines()[-1].split()]
    assert all(b >= a for a, b in zip(aucs, aucs[1:]))  # monotone thresholds
    assert cdf.exists() and cdf.read_text().startswith("error_deg,cdf")
    # a bad threshold is a usage error, reported before any output
    for bad, why in (("nan", "threshold must be positive, not nan"),
                     ("0", "threshold must be positive, not 0"),
                     ("2,-1", "threshold must be positive, not -1"),
                     ("2,x", "could not convert string to float: 'x'")):
        assert cli.main(["evaluate", "--est", str(r1), "--gt", str(g),
                         "--thresholds", bad]) == 1
        assert capsys.readouterr() == ("", f"usage error: argument --thresholds: {why}\n")


def test_average_single_node_without_edges(tmp_path):
    g = tmp_path / "one.json"
    g.write_text(json.dumps({"nodes": [{"id": 0}], "edges": []}))
    r = tmp_path / "r.json"
    assert cli.main(["average", "--in", str(g), "--out", str(r)]) == 0
    doc = json.loads(r.read_text())
    assert doc["iterations"] == 0
    assert doc["final_cost"] == 0.0
    assert doc["converged"] is True
    assert doc["edge_weights"] == []
    assert doc["rotations"] == [{"id": 0, "qwxyz": [1.0, 0.0, 0.0, 0.0]}]
    assert cli.main(["bench", "--in", str(g), "--repeats", "2"]) == 0


def _pairs(rng):
    """Five well-conditioned pairs over four views, 40 matches each."""
    rotations = [moderate_rotation(rng, 2.0, 10.0) for _ in range(4)]
    pairs = []
    for idx, (i, j) in enumerate([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]):
        rel = rotations[i].compose(rotations[j].inverse())
        pairs.append(((i, j), generate_two_view_scene(
            n_points=40, pixel_sigma=1.0, rotation=rel,
            translation=random_unit_vector(rng), seed=idx,
        )))
    return pairs


def test_weigh_pipeline(tmp_path):
    pairs_path = tmp_path / "pairs.json"
    save_pairs(_pairs(np.random.default_rng(0)), pairs_path)
    out = tmp_path / "weighted.json"
    assert cli.main(["weigh", "--pairs", str(pairs_path), "--out", str(out),
                     "--sigma", "1.0", "--mode", "rotation_only"]) == 0
    g = load_graph(out)
    assert len(g.edges) == 5
    assert all(e.covariance is not None for e in g.edges)
    assert all(e.inlier_count == 40 for e in g.edges)
    r = tmp_path / "r.json"
    assert cli.main(["average", "--in", str(out), "--out", str(r),
                     "--loss", "magsac", "--weighting", "cov_full"]) == 0


def test_weigh_with_base_keeps_its_nodes(tmp_path):
    """--base supplies nodes: they keep their gt_qwxyz, ids that only the pairs
    name get bare nodes, and ids that only the base names stay."""
    rng = np.random.default_rng(0)
    pairs_path = tmp_path / "pairs.json"
    save_pairs(_pairs(rng), pairs_path)  # views 0..3
    gt = {nid: moderate_rotation(rng) for nid in (0, 1, 2, 7)}
    base = tmp_path / "base.json"
    save_graph(ViewGraph([ViewNode(nid, r) for nid, r in gt.items()], []), base)
    out = tmp_path / "weighted.json"
    assert cli.main(["weigh", "--pairs", str(pairs_path), "--base", str(base),
                     "--out", str(out)]) == 0
    g = load_graph(out)
    assert g.node_ids == [0, 1, 2, 3, 7]
    assert {nid: g.nodes[nid].gt_rotation for nid in gt} == gt
    assert g.nodes[3].gt_rotation is None
    assert len(g.edges) == 5 and all(e.covariance is not None for e in g.edges)


def test_weigh_leaves_bad_pairs_unweighted(tmp_path, capsys, caplog):
    rng = np.random.default_rng(0)
    bad_keys = [(1, 3), (3, 4), (2, 4)]
    bad = bad_two_view_geometries(rng)
    pairs = _pairs(rng) + [(key, geom) for key, (geom, _, _) in zip(bad_keys, bad)]
    pairs_path = tmp_path / "pairs.json"
    save_pairs(pairs, pairs_path)
    out = tmp_path / "weighted.json"
    assert cli.main(["weigh", "--pairs", str(pairs_path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    for (i, j), (_, _, message) in zip(bad_keys, bad):
        assert f"pair ({i}, {j}): {message}; leaving covariance unset" in err
    g = load_graph(out)
    assert sorted(e.key for e in g.edges if e.covariance is None) == sorted(bad_keys)
    assert sum(e.covariance is not None for e in g.edges) == 5
    r = tmp_path / "r.json"
    assert cli.main(["average", "--in", str(out), "--out", str(r),
                     "--loss", "magsac", "--weighting", "cov_full"]) == 0
    assert "3 of 8 edges have a missing covariance; using unit weight" in caplog.text
    assert len(load_result_rotations(r)) == 5


def test_report_ranks_covariance_weighted_magsac_first(tmp_path, capsys):
    """End-to-end pipeline: the marginalized loss with full covariance
    weighting tops the AUC@5 column on the default heteroscedastic config."""
    path = tmp_path / "g.json"
    assert cli.main(["synth", "--cameras", "50", "--density", "0.25",
                     "--outliers", "0.1", "--seed", "7", "--out", str(path)]) == 0
    csv_path = tmp_path / "report.csv"
    assert cli.main(["report", "--in", str(path),
                     "--losses", "soft_l1,magsac",
                     "--weightings", "none,inlier_count,cov_full",
                     "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln.strip()]
    assert lines[0].split() == ["setting", "AUC@2", "AUC@5", "AUC@10", "AUC@20"]
    rows = {}
    for ln in lines[1:]:
        parts = ln.split()
        rows[parts[0]] = [float(v) for v in parts[1:]]
    assert len(rows) == 6  # losses x weightings
    best = max(rows, key=lambda k: rows[k][1])
    assert best == "magsac+cov_full"
    csv_lines = csv_path.read_text().strip().splitlines()
    assert csv_lines[0] == "loss,weighting,auc@2,auc@5,auc@10,auc@20"
    assert len(csv_lines) == 7


def test_bench_runs(tmp_path, capsys):
    g = _synth(tmp_path, cameras=10)
    assert cli.main(["bench", "--in", str(g), "--repeats", "3"]) == 0
    out = capsys.readouterr().out
    assert "edge_terms numpy" in out
    assert "full solve" in out


# ---------------------------------------------------------------------------
# help coverage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command,flags", [
    ("synth", ["--cameras", "--density", "--noise", "--outliers", "--seed",
               "--no-covariance", "--honest-outlier-covariance", "--out"]),
    ("weigh", ["--pairs", "--out", "--base", "--sigma", "--mode"]),
    ("average", ["--in", "--out", "--loss", "--loss-scale",
                 "--magsac-alpha", "--weighting", "--init-criterion",
                 "--max-outer"]),
    ("evaluate", ["--est", "--gt", "--thresholds", "--cdf"]),
    ("report", ["--in", "--losses", "--weightings", "--thresholds",
                "--loss-scale", "--csv"]),
    ("bench", ["--in", "--repeats", "--loss", "--weighting"]),
])
def test_help_documents_every_flag(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in flags:
        assert flag in out


def test_default_loss_scales():
    assert cli.default_loss_scale("none") == pytest.approx(0.02)
    assert cli.default_loss_scale("inlier_count") == pytest.approx(0.06)
    for mode in ("cov_full", "cov_trace", "cov_fro"):
        assert cli.default_loss_scale(mode) == pytest.approx(3.0)
