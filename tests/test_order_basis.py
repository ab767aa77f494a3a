"""The order basis and the least-relation policy against dense boxes mod p."""

from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avoidwords import linalg
from avoidwords.fixtures import load_cached_recurrence, reference_equation, reference_recurrence
from avoidwords.guessing import (
    _least_relations,
    _recurrence_columns,
    _theta_to_n,
    guess_algebraic,
    guess_recurrence,
)
from avoidwords.linalg import echelon, integer_kernel, order_basis
from avoidwords.scheme import word_counts
from order_basis_oracle import _mod_rref_kernel, box_matrix, least_box

P = 2**31 - 1


def _check_basis(columns, p, shift):
    """Each row is a relation of its stated degree, and the relations within
    every box number as the reduced basis predicts."""
    m, length = len(columns), len(columns[0])
    basis, degrees = order_basis(columns, p, shift)
    for row, degree in zip(basis.tolist(), degrees):
        assert all(sum(q[t] * f[i - t] for q, f in zip(row, columns) for t in range(i + 1)) % p == 0
                   for i in range(length))
        assert max(len(np.trim_zeros(q, "b")) - 1 + s for q, s in zip(row, shift) if any(q)) == degree
    for order in range(max(degrees) + 2):
        matrix, unknowns = box_matrix(columns, p, shift, order, m)
        predicted = sum(max(0, order - d + 1) for d in degrees)
        found = len(_mod_rref_kernel(matrix, p)[1]) if unknowns else 0
        assert found == predicted, (order, list(degrees))


def _check_least(columns, p, shift, max_order, skip=0):
    """`_least_relations` finds the box `least_box` walks to, and its space."""
    found = _least_relations(np.array(columns), p, max_order, shift, skip)
    walked = least_box(columns, p, shift, max_order, skip)
    if walked is None:
        assert found is None
        return
    order, degree, kernel, unknowns = walked
    (got_order, got_degree, minus_dim, _), rows = found
    assert (got_order, got_degree, -minus_dim) == (order, degree, len(kernel))
    width = (order + 1) * (degree + 1)
    vectors = np.zeros((len(kernel), width), dtype=np.int64)
    for v, vec in zip(vectors, kernel):
        for (j, t), c in zip(unknowns, vec):
            if j >= skip:
                v[(j - skip) * (order + 1) + t] = c
    assert echelon(vectors, p)[1].tolist() == rows.tolist()


series = st.integers(1, 4).flatmap(lambda m: st.integers(1, 9).flatmap(
    lambda length: st.lists(st.lists(st.integers(0, 50), min_size=length, max_size=length),
                            min_size=m, max_size=m)))


@settings(max_examples=80, deadline=None)
@given(series, st.sampled_from([2, 3, 5, 7, 101, P]), st.data())
def test_random_columns_match_the_boxes(columns, p, data):
    shift = data.draw(st.lists(st.integers(0, 2), min_size=len(columns), max_size=len(columns)))
    _check_basis(columns, p, shift)
    _check_least(columns, p, shift, max_order=4)


def _dependent(drawn):
    # later columns are polynomial combinations of earlier ones, or zero, so
    # relations of low degree exist
    columns, mixes = drawn
    length = len(columns[0])
    out = list(columns)
    for mix in mixes:
        acc = [0] * length
        for f, poly in zip(out, mix):
            for t, c in enumerate(poly):
                for i in range(length - t):
                    acc[i + t] += c * f[i]
        out.append(acc)
    return out


deficient = st.integers(1, 3).flatmap(lambda m: st.integers(2, 10).flatmap(
    lambda length: st.tuples(
        st.lists(st.lists(st.integers(-20, 20), min_size=length, max_size=length),
                 min_size=m, max_size=m),
        st.lists(st.lists(st.lists(st.integers(-2, 2), max_size=2), min_size=m, max_size=m),
                 min_size=1, max_size=2),
    ))).map(_dependent)


@settings(max_examples=80, deadline=None)
@given(deficient, st.sampled_from([2, 3, 5, 7, 101, P]), st.data())
def test_rank_deficient_columns_match_the_boxes(columns, p, data):
    shift = data.draw(st.lists(st.integers(0, 1), min_size=len(columns), max_size=len(columns)))
    _check_basis(columns, p, shift)
    _check_least(columns, p, shift, max_order=3)


@pytest.mark.parametrize("small", [2, 3, 5, 7])
def test_recurrence_columns_mod_a_small_prime_match_the_boxes(small):
    # mod 2 and 3, n^j repeats in j, so low-degree relations appear that
    # the rationals do not have; the boxes must see the same ones
    terms = word_counts(2, 27)[:18]
    columns = _recurrence_columns(terms, 3, small).tolist()
    _check_basis(columns, small, [1, 0, 0, 0, 0])
    _check_least(columns, small, [1, 0, 0, 0, 0], max_order=2, skip=1)


@pytest.mark.parametrize("small", [2, 3, 5, 7])
def test_unlucky_first_prime_is_replaced_everywhere(monkeypatch, small):
    real = linalg.primes_below
    monkeypatch.setattr(linalg, "primes_below", lambda bound: chain((small,), real(bound)))
    assert guess_algebraic(word_counts(2, 40), 2, 4) == reference_equation(2)
    assert guess_recurrence(word_counts(3, 60), 2, 5).coeffs == reference_recurrence(3).coeffs
    matrix = [[small, 2 * small, 3], [small, 2 * small, 5], [0, 0, 7]]
    assert integer_kernel(lambda p: [[a % p for a in row] for row in matrix]) == [[-2, 1, 0]]


def _shifted(coeffs, k):
    # p(n + k) for p ascending, with exact integers
    out = []
    for c in reversed(coeffs):
        out = [k * a + b for a, b in zip(out + [0], [0] + out)]
        out[0] += c
    return out


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_theta_form_converts_to_the_shipped_n_form(r):
    # theta-form from n-form by the inverse shift p~_k(n) = p_k(n - k), then
    # back by `_theta_to_n`; and the theta-form row is a relation among the
    # recurrence columns, with column 1 of degree below the order
    rec = load_cached_recurrence(r)
    order, degree = rec.order, max(len(c) for c in rec.coeffs) - 1
    polys = [list(c) + [0] * (degree + 1 - len(c)) for c in rec.coeffs]
    theta = [0] * ((degree + 1) * (order + 1))
    for k, poly in enumerate(polys):
        for j, c in enumerate(_shifted(poly, -k)):
            theta[j * (order + 1) + order - k] = c
    nform = [c % P for poly in polys for c in poly]
    assert _theta_to_n(np.array([theta]) % P, order, degree, P).tolist() == [nform]

    terms = word_counts(r, 40)
    columns = _recurrence_columns(terms, degree, P)
    q = np.array(theta).reshape(degree + 1, order + 1) % P
    residual = [sum(int(qj[t]) * int(f[i - t]) for qj, f in zip(q, columns[1:])
                    for t in range(min(i, order) + 1)) % P for i in range(len(terms))]
    assert not any(residual[order:])
