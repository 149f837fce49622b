"""Half-vectorizations, companion forms and spectral tests.

The quadratic-monomial vector vecv(x), which ``vecv_rows`` takes of each
row, and the symmetric half-vectorization ``vecs`` use the row-major
upper-triangular ordering (0,0), (0,1), ..., (0,n-1), (1,1), ...,
(n-1,n-1).  This ordering is also the on-disk order for every packed vector
written by the rest of the package.  ``poly_from_roots`` expands its roots
with ``np.poly``, whose coefficients are real exactly when the complex roots
pair up as exact conjugates, and certifies that they annihilate the roots.
Every function takes ndarrays and converts none.
"""

import numpy as np

SYM_TOL = 1e-10


def vecv_rows(X):
    """vecv(x) = [x1^2, x1*x2, ..., x1*xn, x2^2, ..., xn^2] of each row x of
    an (N, n) array; returns (N, n(n+1)/2)."""
    i, j = np.triu_indices(X.shape[1])
    return X[:, i] * X[:, j]


def vecs(P):
    """Half-vectorize a symmetric matrix, doubling off-diagonal entries.

    Satisfies vecs(P)^T vecv(x) == x^T P x.  P is symmetrized by averaging;
    asymmetry beyond SYM_TOL (relative) is an error.
    """
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("vecs expects a square matrix, got shape %s" % (P.shape,))
    scale = max(1.0, np.abs(P).max())
    if np.abs(P - P.T).max() > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric to tolerance %g" % SYM_TOL)
    P = 0.5 * (P + P.T)
    i, j = np.triu_indices(P.shape[0])
    w = np.where(i == j, 1.0, 2.0)
    return w * P[i, j]


def poly_from_roots(roots):
    """Monic polynomial coefficients [a0, ..., a_{n-1}] from its roots.

    Complex roots must appear in exact conjugate pairs, the condition under
    which `np.poly` returns real coefficients.
    """
    if not roots.size:
        raise ValueError("a polynomial needs at least one root")
    coeffs = np.poly(roots)  # descending, monic
    if np.iscomplexobj(coeffs):
        raise ValueError("complex roots %s do not pair up as exact conjugates"
                         % roots[roots.imag != 0])
    alpha = coeffs[1:][::-1].copy()   # ascending [a0, ..., a_{n-1}]
    value = np.polyval(np.concatenate(([1.0], alpha[::-1])), roots)
    bound = 1e-9 * (1.0 + np.abs(roots) ** roots.size)
    if np.any(np.abs(value) > bound):
        raise ValueError("expanded polynomial does not annihilate its roots")
    return alpha


def companion_from_alpha(alpha):
    """Companion matrix with last row [-a0, ..., -a_{n-1}] and superdiagonal ones."""
    n = alpha.size
    A = np.zeros((n, n))
    if n > 1:
        A[np.arange(n - 1), np.arange(1, n)] = 1.0
    A[-1, :] = -alpha
    return A


def is_hurwitz(A):
    """Return (verdict, margin) where margin is the largest eigenvalue real part."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("is_hurwitz expects a square matrix, got shape %s" % (A.shape,))
    margin = float(np.max(np.linalg.eigvals(A).real))
    return margin < 0.0, margin


def require_sym_psd(W, name, definite=False):
    """Raise ValueError unless W is symmetric PSD (PD if definite) to 1e-12 relative."""
    tol = 1e-12 * max(1.0, np.abs(W).max())
    if not (np.abs(W - W.T).max() <= tol
            and np.linalg.eigvalsh(W).min() > (0.0 if definite else -tol)):
        raise ValueError("%s must be symmetric positive %sdefinite"
                         % (name, "" if definite else "semi"))
