import math

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
    p = MatrixPair.from_entries_2x2(B=1, C=1, E=1, G=0, M=0, N=1)
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


def test_tensor_from_pair_unital_trivial():
    t = tensor_from_pair(MatrixPair.from_entries_3x3(), unital=True)
    expected = np.zeros((3, 3, 3))
    expected[0] = np.eye(3)
    expected[:, 0, :] = np.eye(3)
    assert np.array_equal(t.c, expected)


def test_tensor_from_pair_2x2_layout():
    t = tensor_from_pair(MatrixPair.from_entries_2x2(B=1, G=1), unital=False)
    # B sits at c[P1][P1][P1], G at c[P1][P2][P2] (code indices 0/1)
    assert t.c[0, 0, 0] == 1.0
    assert t.c[0, 1, 1] == 1.0
    assert np.count_nonzero(t.c) == 3  # the symmetric copy c[1,0,1] as well


def test_pair_from_tensor_single_entry():
    pair = MatrixPair.from_entries_3x3(A=1.0)
    t = tensor_from_pair(pair, unital=True)
    back = pair_from_tensor(t)
    assert back.C1[0, 1] == 1.0
    nontrivial = back.C1[:, 1:].copy()
    nontrivial[0, 0] = 0.0
    assert np.count_nonzero(nontrivial) == 0
    assert np.count_nonzero(back.C2[:, 1:]) == 0


def test_unital_flag_must_match_layout():
    with pytest.raises(InvalidInputError):
        tensor_from_pair(MatrixPair.from_entries_2x2(), unital=True)


def test_tensor_symmetry_enforced():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # no symmetric partner
    with pytest.raises(InvalidInputError):
        StructTensor(dim=2, unital=False, c=c)


@given(st.lists(finite, min_size=9, max_size=9))
@settings(max_examples=60, deadline=None)
def test_roundtrip_pair_tensor_pair_3x3(vals):
    names = ("A", "B", "C", "D", "E", "G", "L", "M", "N")
    pair = MatrixPair.from_entries_3x3(**dict(zip(names, vals)))
    back = pair_from_tensor(tensor_from_pair(pair, unital=True))
    assert np.array_equal(back.C1, pair.C1)
    assert np.array_equal(back.C2, pair.C2)


@given(st.lists(finite, min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_roundtrip_tensor_pair_tensor_2x2(vals):
    names = ("B", "C", "E", "G", "M", "N")
    pair = MatrixPair.from_entries_2x2(**dict(zip(names, vals)))
    t = tensor_from_pair(pair, unital=False)
    again = tensor_from_pair(pair_from_tensor(t), unital=False)
    assert np.array_equal(t.c, again.c)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_similarity_preserves_zero_classification(seed):
    rng = np.random.default_rng(seed)
    if rng.uniform() < 0.5:
        pair = commuting_2x2_pair(rng)
    else:
        pair = MatrixPair.from_entries_2x2(
            **{k: rng.uniform(-1, 1) for k in ("B", "C", "E", "G", "M", "N")})
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
            unital = True
        else:
            pair = MatrixPair.from_entries_2x2(
                **{k: rng.uniform(-1, 1) for k in ("B", "C", "E", "G", "M", "N")})
            unital = False
        brute = assoc_defect_loops(tensor_from_pair(pair, unital).c)
        assert (assoc_residual(pair) < 1e-12) == (brute < 1e-12)


def test_residual_report_invariants():
    rep = ResidualReport(labels=("a", "b"), norms=(1.0, 0.0), integrals={"I1": 2.0})
    assert rep.max_norm() == 1.0
    assert rep.as_dict() == {"a": 1.0, "b": 0.0}
    with pytest.raises(InvalidInputError):
        ResidualReport(labels=("a",), norms=(1.0, 2.0))
    with pytest.raises(InvalidInputError):
        ResidualReport(labels=("a",), norms=(-1.0,))
    with pytest.raises(InvalidInputError, match="'b' occurs more than once"):
        ResidualReport(labels=("a", "b", "b"), norms=(1.0, 2.0, 3.0))
