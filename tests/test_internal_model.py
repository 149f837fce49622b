import numpy as np
import pytest

from regvi.experiment import PRESETS, build_objects
from regvi.internal_model import Exosystem, InternalModel
from regvi.linalg import poly_from_roots

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_exosystem_dims():
    exo = Exosystem(S=ROTATION, v0=[1.0, 0.8])
    assert exo.q == 2
    with pytest.raises(ValueError):
        Exosystem(S=ROTATION, v0=[1.0])


def test_p_copy_structure():
    im = InternalModel([1.0, 0.0], 2)   # minimal polynomial s^2 + 1, two copies
    assert im.n_z == 4
    assert np.array_equal(im.beta, ROTATION * 0 + [[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(im.G1, np.kron(np.eye(2), im.beta))
    assert np.array_equal(im.G2, np.kron(np.eye(2), [[0.0], [1.0]]))
    # (beta, sigma) controllable by construction
    ctrb = np.hstack([im.sigma, im.beta @ im.sigma])
    assert np.linalg.matrix_rank(ctrb) == 2


def test_companion_annihilates_minpoly():
    minpoly = [2.0, 3.0, 1.0]
    im = InternalModel(minpoly, 1)
    assert np.allclose(poly_from_roots(np.linalg.eigvals(im.beta)), minpoly)


def test_recast_exosystem_companion_form():
    # the config's minimal polynomial s^2 + 1 becomes the known exosystem
    exo = build_objects(PRESETS["paper-e-nonzero"]()).exo
    assert np.array_equal(exo.S, ROTATION)
    assert np.array_equal(exo.v0, [1.0, 0.8])


def test_sylvester_shadow_inconsistent_for_nonzero_v():
    """Z S = G1 Z + G2 V has no solution for V != 0 (and only Z = 0 for V = 0)
    when the internal model copies the exosystem modes."""
    im = InternalModel([1.0, 0.0], 1)
    S = ROTATION
    n_z, q = im.n_z, 2
    op = np.kron(S.T, np.eye(n_z)) - np.kron(np.eye(q), im.G1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        V = rng.standard_normal((1, q))
        V /= np.linalg.norm(V)
        rhs = (im.G2 @ V).reshape(-1, order="F")
        sol, *_ = np.linalg.lstsq(op, rhs, rcond=None)
        assert np.linalg.norm(op @ sol - rhs) > 0.1
    sol0, *_ = np.linalg.lstsq(op, np.zeros(n_z * q), rcond=None)
    assert np.linalg.norm(sol0) == 0.0
