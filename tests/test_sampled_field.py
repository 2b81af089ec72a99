"""SampledField on (N, n, n) stacks against the one-value-at-a-time load it replaced.

``tests/_oracles.sampled_field_per_value`` builds a MatrixPair per value, checking
each value before the next.  The stacked ``from_json`` must give the same stacks
on every valid document and the same InvalidInputError text on every malformed
one, and the scan norms must equal the per-point ``np.linalg.norm`` path bit for
bit, as must ``frobenius``, the package's one Frobenius norm, and so ``assoc_residual``.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformcs.algebra_core import MatrixPair, assoc_residual, entry_stacks, frobenius
from deformcs.dda_registry import SampledField, cs_residual_scan, lookup
from deformcs.errors import InvalidInputError

from _oracles import (cs_scan_norms_per_point, sampled_field_json_per_value,
                      sampled_field_per_value)

NAMES = {2: "BCEGMN", 3: "ABCDEGLMN"}
SCAN_DDAS = ("L2a", "L3", "L2b", "L4", "L5")


def _grid(dda: str, start: float, h: float, npts: int) -> np.ndarray:
    """A uniform grid, unit-spaced from an integer for a discrete DDA."""
    if lookup(dda).discrete:
        return float(round(start)) + np.arange(float(npts))
    return start + h * np.arange(npts)


def _doc(dda: str, n: int, npts: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    C1, C2 = entry_stacks(n, dict(zip(NAMES[n], rng.uniform(-2.0, 2.0, (len(NAMES[n]), npts)))))
    return {"dda": dda, "grid": _grid(dda, 1.0, 0.1, npts).tolist(),
            "values": [{"C1": a, "C2": b} for a, b in zip(C1.tolist(), C2.tolist())]}


def _bits(fld: SampledField):
    return fld.dda, [(a.shape, a.tobytes()) for a in (fld.grid, fld.C1, fld.C2)]


def _outcome(load, doc):
    """The error text of ``load(doc)``, or the ``_bits`` of the field it loads."""
    try:
        return _bits(load(copy.deepcopy(doc)))
    except InvalidInputError as exc:
        return str(exc)


def _with(doc: dict, *edits) -> dict:
    """A copy of doc with each (value index, key, new matrix or entry edit) applied; an
    edit (r, c, x) sets one entry, and a key of None replaces the whole value."""
    doc = copy.deepcopy(doc)
    for i, key, new in edits:
        if key is None:
            doc["values"][i] = new
        elif isinstance(new, tuple):
            r, c, x = new
            doc["values"][i][key][r][c] = x
        else:
            doc["values"][i][key] = new
    return doc


DOC2, DOC3 = _doc("L2b", 2, 5, 0), _doc("L5", 3, 5, 1)
# 2x2: the shared P1P2 column is column 1 of C1 and column 0 of C2
BAD_SHARED_2 = ("C2", (0, 0, 99.0))
# 3x3: column 0 of C1 is the unital column, column 2 of C1 is column 1 of C2
BAD_UNIT_3, BAD_SHARED_3 = ("C1", (1, 0, 0.5)), ("C2", (2, 1, 99.0))


def _malformed():
    cases = []
    for doc in (DOC2, DOC3):
        n = len(doc["values"][0]["C1"])
        for i in (0, 2, 4):
            for key in ("C1", "C2"):
                for bad in (None, "x", 10 ** 400, math.nan, math.inf, -math.inf):
                    cases.append(_with(doc, (i, key, (n - 1, n - 1, bad))))
        cases += [
            _with(doc, (1, "C1", [[1.0, 2.0], [3.0]])),              # ragged rows
            _with(doc, (3, "C2", [[1.0, 2.0, 3.0], [3.0]])),
            _with(doc, *((i, k, [[1.0]]) for i in range(5) for k in ("C1", "C2"))),   # 1x1
            _with(doc, (2, "C1", [[1.0]]), (2, "C2", [[1.0]])),
            _with(doc, (2, "C1", 5.0)),                               # not a matrix
            _with(doc, (2, "C1", [1.0, 2.0])),
            _with(doc, (2, "C2", [[[1.0, 2.0], [3.0, 4.0]]] * 2)),
            _with(doc, (2, "C1", [[1.0, 2.0, 3.0]] * 2)),             # not square
            _with(doc, (2, "C2", np.eye(5 - n).tolist())),            # C2 of the other size
            _with(doc, (1, None, {"C1": doc["values"][1]["C1"]})),    # no C2
            _with(doc, (1, None, [1.0, 2.0])),
            _with(doc, (1, None, None)),
            _with(doc, (1, None, "C1")),
            _with(doc, (3, "C1", [["1", "2"], ["3", "x"]][:n])),
        ]
        # a layout defect before, and after, a non-finite value
        bad_layouts = (BAD_SHARED_2,) if n == 2 else (BAD_UNIT_3, BAD_SHARED_3)
        for key, edit in bad_layouts:
            cases += [_with(doc, (1, key, edit), (3, "C1", (0, 0, math.nan))),
                      _with(doc, (1, "C2", (0, 0, math.nan)), (3, key, edit)),
                      _with(doc, (4, key, edit)),
                      {**_with(doc, (2, key, edit)), "dda": "L9"}]
        other = (DOC3 if n == 2 else DOC2)["values"][0]
        mixed = _with(doc, (3, None, other))                          # 2x2 and 3x3 values
        cases += [mixed, {**mixed, "dda": "L9"}, {**mixed, "grid": mixed["grid"][:4]},
                  {**mixed, "grid": [0.0, 1.0, 2.0, 4.0, 5.0]},
                  {**doc, "grid": doc["grid"][:4]},                    # grid length mismatch
                  {**doc, "grid": doc["grid"] + [5.0]},
                  {**doc, "grid": [doc["grid"]]},
                  {**doc, "grid": 3.0},
                  {**doc, "grid": [0.0, 1.0, 2.0, 3.0, 5.0]},
                  {**doc, "grid": [0.0, 0.5, 1.0, 1.5, 2.0]},
                  {**doc, "grid": [4.0, 3.0, 2.0, 1.0, 0.0]},
                  {**doc, "dda": "L9"},
                  {**doc, "values": []}]
    cases += [{"dda": "L2a", "grid": [1.0], "values": []}, {"dda": "L2a", "grid": [1.0]},
              {"dda": "L2a", "grid": ["a"], "values": []}, {"dda": 3, "grid": [], "values": []},
              {"dda": "L2a", "grid": [], "values": {}}, [DOC2]]
    for doc in (DOC2, DOC3):   # a numeric string is not a number
        n = len(doc["values"][0]["C1"])
        cases += [_with(doc, (i, key, (n - 1, n - 1, "0.5"))) for i in (0, 2, 4)
                  for key in ("C1", "C2")]
    return cases


@pytest.mark.parametrize("doc", _malformed())
def test_stacked_load_names_the_first_bad_value_as_the_per_value_load_does(doc):
    want = _outcome(sampled_field_per_value, doc)
    assert isinstance(want, str), "each case is malformed"
    assert _outcome(SampledField.from_json, doc) == want


@pytest.mark.parametrize("doc", [DOC2, DOC3, _doc("L2a", 2, 7, 2), _doc("L3", 3, 3, 3),
                                 _doc("L4", 2, 1, 4), {"dda": "L2a", "grid": [], "values": []},
                                 _with(DOC2, (2, "C1", (0, 0, 0.5)), (2, "C1", (1, 0, True)),
                                       (2, "C2", (1, 1, 1e-320)), (3, "C2", (0, 1, -0.0)))])
def test_stacked_load_gives_the_per_value_stacks(doc):
    got = _outcome(SampledField.from_json, doc)
    assert not isinstance(got, str)
    assert got == _outcome(sampled_field_per_value, doc)


def test_stacks_are_read_only_and_pairs_a_view_built_when_read():
    fld = SampledField.from_json(DOC3)
    for a in (fld.grid, fld.C1, fld.C2):
        with pytest.raises(ValueError):
            a[0] = 0.0
    cs_residual_scan("L5", fld)
    assert fld.to_json() == DOC3
    assert "pairs" not in vars(fld)
    assert [(p.n, p.C1.tolist(), p.C2.tolist()) for p in fld.pairs] == [
        (3, v["C1"], v["C2"]) for v in DOC3["values"]]
    assert fld.pairs is fld.pairs


def _pinned_value_errors():
    n2 = len(DOC2["values"][0]["C1"])
    return [
        (_with(DOC2, (2,) + BAD_SHARED_2), "sampled field values[2]: shared P1P2 column "
                                           "disagrees between C1 and C2: "),
        (_with(DOC3, (4,) + BAD_UNIT_3), "sampled field values[4]: column 0 of C1 must be the "
                                         "unital column [0. 1. 0.]"),
        (_with(DOC2, (2, "C1", [[1.0]]), (2, "C2", [[1.0]])),
         "sampled field values[2]: matrix size must be an integer from 2 to 3, got 1"),
        (_with(DOC2, (2, "C1", [[1.0, 2.0, 3.0]] * n2)),
         "sampled field values[2]: expected a 2x2 matrix, got shape (2, 3)"),
        (_with(DOC3, (1, "C2", np.eye(2).tolist())),
         "sampled field values[1]: expected a 3x3 matrix, got shape (2, 2)"),
    ]


@pytest.mark.parametrize("doc, text", _pinned_value_errors())
def test_a_value_size_shape_or_layout_error_names_its_index(doc, text):
    with pytest.raises(InvalidInputError) as got:
        SampledField.from_json(doc)
    assert str(got.value).startswith(text)


@pytest.mark.parametrize("n, name, bad, at", [
    (2, "B", math.inf, 0), (2, "M", -math.inf, 1), (2, "N", math.nan, 2),
    (3, "A", math.nan, 1), (3, "L", math.inf, 2), (3, "C", math.nan, 0)])
def test_a_pairs_built_field_with_a_non_finite_value_fails_as_from_json_does(n, name, bad, at):
    # a MatrixPair takes an infinite or NaN entry off the shared and unital columns
    good = MatrixPair.from_entries(n, dict(zip(NAMES[n], np.linspace(0.5, 2.0, len(NAMES[n])))))
    pairs = [good] * 3
    pairs[at] = MatrixPair.from_entries(n, {**good.entries(), name: bad})
    key = "C1" if name in "ABCDEG" else "C2"
    doc = sampled_field_json_per_value("L2a", [1, 2, 3], pairs)
    with pytest.raises(InvalidInputError) as want:
        SampledField.from_json(doc)
    with pytest.raises(InvalidInputError) as got:
        SampledField(dda="L2a", grid=[1, 2, 3], pairs=pairs)
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"sampled field values[{at}].{key} has a non-finite entry"


@pytest.mark.parametrize("dda, grid, text", [
    ("L2a", ["a", 1.0, 2.0], "sampled field 'grid' must be a list of numbers"),
    ("L2a", {}, "sampled field 'grid' must be a list of numbers"),
    ("L2a", [[1.0], [2.0, 3.0], [4.0]], "sampled field 'grid' must be a list of numbers"),
    ("L2a", [10 ** 400, 1, 2], "sampled field 'grid' must be a list of numbers"),
    (3, [1.0, 2.0, 3.0], "sampled field 'dda' must be a string"),
    (["L2a"], [1.0, 2.0, 3.0], "sampled field 'dda' must be a string"),
])
def test_a_pairs_built_field_judges_its_dda_and_grid_as_from_json_does(dda, grid, text):
    pairs = [MatrixPair.from_entries(2, {})] * 3
    doc = {"dda": dda, "grid": grid, "values": [{"C1": p.C1.tolist(), "C2": p.C2.tolist()}
                                                for p in pairs]}
    with pytest.raises(InvalidInputError) as want:
        SampledField.from_json(doc)
    with pytest.raises(InvalidInputError) as got:
        SampledField(dda=dda, grid=grid, pairs=pairs)
    assert str(got.value) == str(want.value) == text


@st.composite
def _fields(draw):
    dda = draw(st.sampled_from(("L1",) + SCAN_DDAS))
    n = draw(st.sampled_from((2, 3)))
    npts = draw(st.integers(0, 6))
    entry = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(entry, min_size=len(NAMES[n]), max_size=len(NAMES[n])),
                         min_size=npts, max_size=npts))
    grid = _grid(dda, draw(st.floats(-10.0, 10.0)), draw(st.floats(1e-3, 1.0)), npts)
    return dda, grid, [MatrixPair.from_entries(n, dict(zip(NAMES[n], row))) for row in rows]


@settings(max_examples=150, deadline=None)
@given(_fields())
def test_to_json_from_json_round_trip(case):
    dda, grid, pairs = case
    fld = SampledField(dda=dda, grid=grid, pairs=pairs)
    text = json.dumps(fld.to_json())
    assert text == json.dumps(sampled_field_json_per_value(dda, grid, pairs))
    back = SampledField.from_json(json.loads(text))
    assert json.dumps(back.to_json()) == text
    assert _bits(back) == _bits(fld) == _bits(sampled_field_per_value(json.loads(text)))
    assert [(p.C1.tobytes(), p.C2.tobytes()) for p in back.pairs] == [
        (p.C1.tobytes(), p.C2.tobytes()) for p in pairs]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dda", SCAN_DDAS)
def test_scan_norms_equal_the_per_point_path_bit_for_bit(dda, n):
    rng = np.random.default_rng([SCAN_DDAS.index(dda), n])
    fields = 0
    for npts in range(3, 9):
        count = 334   # 2004 fields per DDA and size
        scale = 10.0 ** rng.integers(-3, 4, size=(count, 1))
        C1, C2 = entry_stacks(n, {name: scale * rng.normal(size=(count, npts))
                                  for name in NAMES[n]})
        for a, b, start, h in zip(C1.tolist(), C2.tolist(), rng.uniform(-5.0, 5.0, count),
                                  rng.uniform(1e-3, 1.0, count)):
            doc = {"dda": dda, "grid": _grid(dda, start, h, npts).tolist(),
                   "values": [{"C1": x, "C2": y} for x, y in zip(a, b)]}
            got = cs_residual_scan(dda, SampledField.from_json(doc)).norms
            want = cs_scan_norms_per_point(dda, np.array(doc["grid"]), map(np.array, a),
                                           map(np.array, b))
            assert np.array(got).tobytes() == np.array(want).tobytes()
            fields += 1
    assert fields >= 2000


def test_batched_norm_is_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(5)
    total = 0
    for n in (2, 3):
        # plain, subnormal, near 1e-150 and 1e+150 (squares near the float range's ends)
        for scale in (1.0, 5e-324, 1e-300, 1e-160, 1e-150, 1e150, 1e154):
            for P in (1, 9, 15000):
                R = scale * rng.normal(size=(P, n, n)) * 10.0 ** rng.integers(-5, 6, (P, 1, 1))
                R[rng.random(R.shape) < 0.2] = 0.0
                R[::97] = 0.0
                with np.errstate(all="ignore"):   # squares beyond the float range
                    got = frobenius(R)
                    want = [float(np.linalg.norm(r)) for r in R]
                assert np.array(got).tobytes() == np.array(want).tobytes()
                total += P
    assert total >= 200_000


def test_assoc_residual_is_np_linalg_norm_of_the_commutator_bit_for_bit():
    rng = np.random.default_rng(6)
    for n in (2, 3):
        for scale in (1e-150, 1e-75, 1.0, 1e75, 1e150):
            for _ in range(200):
                C1, C2 = scale * rng.normal(size=(2, n, n)) * 10.0 ** rng.integers(-5, 6, (2, 1, 1))
                with np.errstate(all="ignore"):   # squares beyond the float range
                    want = float(np.linalg.norm(C1 @ C2 - C2 @ C1))
                    got = assoc_residual((C1, C2))
                assert np.array(got).tobytes() == np.array(want).tobytes()
