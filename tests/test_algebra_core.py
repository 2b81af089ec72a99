import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformcs.algebra_core import (MatrixPair, ResidualReport, StructTensor,
                                   assoc_residual, pair_from_tensor, tensor_from_pair)
from deformcs.errors import InvalidInputError

from _oracles import assoc_defect_loops, commuting_2x2_pair, polynomial_algebra_pair

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def test_assoc_residual_identity_commutes():
    assert assoc_residual((np.eye(3), np.eye(3))) == 0.0
    with pytest.raises(InvalidInputError):
        assoc_residual((np.eye(3), np.eye(2)))


def test_assoc_residual_2x2_identity_case():
    p = MatrixPair.from_entries(2, dict(B=1, C=1, E=1, G=0, M=0, N=1))
    assert p.C2.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert assoc_residual(p) == 0.0


def test_assoc_residual_nilpotent_offdiagonal():
    # raw matrices allowed: this pair is not a valid layout but has commutator
    # diag(1, -1), hence Frobenius norm sqrt(2)
    res = assoc_residual(([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]))
    assert res == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_pair_layout_validation():
    with pytest.raises(InvalidInputError):
        MatrixPair(3, np.eye(3), np.eye(3))  # wrong unital columns
    with pytest.raises(InvalidInputError):
        MatrixPair(2, [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])  # shared col
    with pytest.raises(InvalidInputError):
        MatrixPair(4, np.eye(4), np.eye(4))


@pytest.mark.filterwarnings("error")
def test_layout_check_accepts_equal_infinities():
    inf = math.inf
    p = MatrixPair(2, [[1.0, inf], [0.5, -inf]], [[inf, 0.2], [-inf, 0.3]])
    assert p.C1[:, 1].tolist() == p.C2[:, 0].tolist() == [inf, -inf]
    t = StructTensor(2, [[[inf, 0.0], [1.0, 2.0]], [[1.0, 2.0], [0.0, 1.0]]])
    assert t.c[0, 0, 0] == inf
    with pytest.raises(InvalidInputError, match="shared P1P2 column"):
        MatrixPair(2, [[1.0, inf], [0.5, 0.0]], [[-inf, 0.2], [0.0, 0.3]])


@pytest.mark.filterwarnings("error")
def test_layout_check_rejects_nan():
    nan = math.nan
    with pytest.raises(InvalidInputError, match="shared P1P2 column"):
        MatrixPair(2, [[1.0, nan], [0.5, 0.0]], [[nan, 0.2], [0.0, 0.3]])
    with pytest.raises(InvalidInputError, match="unital column"):
        MatrixPair(3, [[nan, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                   [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(InvalidInputError, match="must satisfy c"):
        StructTensor(2, [[[1.0, 0.0], [nan, 2.0]], [[nan, 2.0], [0.0, 1.0]]])


def test_tensor_from_pair_unital_trivial():
    t = tensor_from_pair(MatrixPair.from_entries(3, {}))
    expected = np.zeros((3, 3, 3))
    expected[0] = np.eye(3)
    expected[:, 0, :] = np.eye(3)
    assert np.array_equal(t.c, expected)


def test_tensor_from_pair_2x2_layout():
    t = tensor_from_pair(MatrixPair.from_entries(2, dict(B=1, G=1)))
    # B sits at c[P1][P1][P1], G at c[P1][P2][P2] (code indices 0/1)
    assert t.c[0, 0, 0] == 1.0
    assert t.c[0, 1, 1] == 1.0
    assert np.count_nonzero(t.c) == 3  # the symmetric copy c[1,0,1] as well


def test_pair_from_tensor_single_entry():
    pair = MatrixPair.from_entries(3, dict(A=1.0))
    t = tensor_from_pair(pair)
    back = pair_from_tensor(t)
    assert back.C1[0, 1] == 1.0
    nontrivial = back.C1[:, 1:].copy()
    nontrivial[0, 0] = 0.0
    assert np.count_nonzero(nontrivial) == 0
    assert np.count_nonzero(back.C2[:, 1:]) == 0


@pytest.mark.parametrize("dim, c, named", [
    (4, np.zeros((4, 4, 4)), "dim must be 2 or 3, got 4"),
    (2, np.zeros((3, 3, 3)), "tensor shape must be (2, 2, 2), got (3, 3, 3)"),
    (3, np.zeros((3, 3, 3)), "unital tensor must satisfy c[j][0][l] = delta_j^l"),
])
def test_struct_tensor_rejects_a_bad_dim_shape_or_unit_column(dim, c, named):
    with pytest.raises(InvalidInputError, match=re.escape(named)):
        StructTensor(dim, c)


def test_tensor_symmetry_enforced():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # no symmetric partner
    with pytest.raises(InvalidInputError):
        StructTensor(dim=2, c=c)


@given(st.lists(finite, min_size=9, max_size=9))
@settings(max_examples=60, deadline=None)
def test_roundtrip_pair_tensor_pair_3x3(vals):
    names = ("A", "B", "C", "D", "E", "G", "L", "M", "N")
    pair = MatrixPair.from_entries(3, dict(zip(names, vals)))
    back = pair_from_tensor(tensor_from_pair(pair))
    assert np.array_equal(back.C1, pair.C1)
    assert np.array_equal(back.C2, pair.C2)


@given(st.lists(finite, min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_roundtrip_tensor_pair_tensor_2x2(vals):
    names = ("B", "C", "E", "G", "M", "N")
    pair = MatrixPair.from_entries(2, dict(zip(names, vals)))
    t = tensor_from_pair(pair)
    again = tensor_from_pair(pair_from_tensor(t))
    assert np.array_equal(t.c, again.c)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_similarity_preserves_zero_classification(seed):
    rng = np.random.default_rng(seed)
    if rng.uniform() < 0.5:
        pair = commuting_2x2_pair(rng)
    else:
        pair = MatrixPair.from_entries(
            2, {k: rng.uniform(-1, 1) for k in ("B", "C", "E", "G", "M", "N")})
    while True:
        g = rng.uniform(-1, 1, size=(2, 2))
        if abs(np.linalg.det(g)) > 0.3:
            break
    ginv = np.linalg.inv(g)
    conj = (ginv @ pair.C1 @ g, ginv @ pair.C2 @ g)
    assert (assoc_residual(pair) < 1e-12) == (assoc_residual(conj) < 1e-10)


def test_assoc_residual_matches_quadruple_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        if rng.uniform() < 0.5:
            pair = polynomial_algebra_pair(*rng.uniform(-1, 1, size=3))
        else:
            pair = MatrixPair.from_entries(
                2, {k: rng.uniform(-1, 1) for k in ("B", "C", "E", "G", "M", "N")})
        brute = assoc_defect_loops(tensor_from_pair(pair).c)
        assert (assoc_residual(pair) < 1e-12) == (brute < 1e-12)


def test_residual_report_invariants():
    rep = ResidualReport(labels=("a", "b"), norms=(1.0, 0.0))
    assert rep.max_norm() == 1.0
    assert rep.as_dict() == {"a": 1.0, "b": 0.0}
    with pytest.raises(InvalidInputError):
        ResidualReport(labels=("a",), norms=(1.0, 2.0))
    with pytest.raises(InvalidInputError):
        ResidualReport(labels=("a",), norms=(-1.0,))
    with pytest.raises(InvalidInputError, match="residual 'b' is not a finite"):
        ResidualReport(labels=("a", "b", "c"), norms=(1.0, np.nan, np.inf))
    with pytest.raises(InvalidInputError, match="'b' occurs more than once"):
        ResidualReport(labels=("a", "b", "b"), norms=(1.0, 2.0, 3.0))
