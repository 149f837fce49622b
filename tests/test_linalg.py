import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regvi.linalg import companion_from_alpha, is_hurwitz, poly_from_roots, vecs, vecv_rows
from regvi.vi import _vec_maps

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


def sym_and_vec(draw_n, draw_entries):
    n = draw_n
    A = np.array(draw_entries[:n * n]).reshape(n, n)
    return A + A.T, np.array(draw_entries[n * n:n * n + n])


@st.composite
def sym_matrix_and_vector(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    entries = draw(st.lists(finite, min_size=n * n + n, max_size=n * n + n))
    return sym_and_vec(n, entries)


@given(sym_matrix_and_vector())
@settings(max_examples=200, deadline=None)
def test_vecs_vecv_duality(pair):
    P, x = pair
    lhs = vecs(P) @ vecv_rows(x[None])[0]
    rhs = x @ P @ x
    scale = float((np.abs(x)[:, None] * np.abs(x)[None, :] * np.abs(P)).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)


@given(sym_matrix_and_vector())
@settings(max_examples=200, deadline=None)
def test_unvecs_vecs_identity(pair):
    """vecs has an exact inverse through vi._vec_maps: halving the doubled
    off-diagonal entries gives the upper triangle p, and p.take(sym) is P."""
    P, _ = pair
    D, _, sym = _vec_maps(P.shape[0])
    assert np.array_equal((vecs(P) / D.sum(axis=1)).take(sym), P)


def test_vecv_rows_matches_vecv():
    """Each row of vecv_rows(X) is vecv(x) = x_i x_j over the upper triangle i <= j."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 4))
    rows = vecv_rows(X)
    i, j = np.triu_indices(4)
    for k in range(7):
        assert np.array_equal(rows[k], X[k, i] * X[k, j])


def test_vecs_rejects_asymmetric():
    with pytest.raises(ValueError):
        vecs(np.array([[1.0, 2.0], [0.0, 1.0]]))



@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=6,
                unique=True))
@settings(max_examples=200, deadline=None)
def test_companion_reproduces_root_multiset(int_roots):
    roots = 0.5 * np.array(int_roots, dtype=float)
    alpha = poly_from_roots(roots)
    eigs = np.linalg.eigvals(companion_from_alpha(alpha))
    assert np.max(np.abs(np.sort(eigs.real) - np.sort(roots))) <= 1e-8
    assert np.max(np.abs(eigs.imag)) <= 1e-8


def test_poly_from_roots_conjugate_pairs():
    alpha = poly_from_roots(np.array([-1.0 + 2.0j, -1.0 - 2.0j, -3.0]))
    # (s^2 + 2s + 5)(s + 3) = s^3 + 5 s^2 + 11 s + 15
    assert np.allclose(alpha, [15.0, 11.0, 5.0])


def test_poly_from_roots_rejects_unpaired_complex():
    with pytest.raises(ValueError):
        poly_from_roots(np.array([-1.0 + 2.0j, -3.0]))


def test_poly_from_roots_wants_exact_conjugate_pairs():
    """An exact pair, as a config's [re, im] and [re, -im] give it, is accepted;
    a pair off by 1e-10 in either part is rejected, not rounded to real."""
    assert np.array_equal(poly_from_roots(np.array([complex(-1.0, 2.0), complex(-1.0, -2.0)])),
                          [5.0, 2.0])
    for off in (1e-10, 1e-10j):
        with pytest.raises(ValueError, match="exact conjugates"):
            poly_from_roots(np.array([-1.0 + 2.0j, -1.0 - 2.0j + off]))
    with pytest.raises(ValueError):
        poly_from_roots(np.array([]))


def test_char_poly_roundtrip():
    alpha = np.array([6.0, 11.0, 6.0])  # (s+1)(s+2)(s+3)
    assert np.allclose(poly_from_roots(np.linalg.eigvals(companion_from_alpha(alpha))), alpha)


def test_is_hurwitz():
    ok, margin = is_hurwitz(np.array([[-1.0, 0.0], [0.0, -2.0]]))
    assert ok and margin == pytest.approx(-1.0)
    ok, margin = is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not ok and margin == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        is_hurwitz(np.zeros(3))
