import numpy as np
import pytest

from regvi.linalg import companion_from_alpha
from regvi.observer import ObserverKnown


def test_filter_bank_structure():
    known = ObserverKnown.from_poles(np.array([-5.0, -6.0, -7.0]), m=1, p=1)
    n = 3
    assert known.alpha.size == n
    assert known.n_zeta == n * 2
    # block-diagonal companion dynamics
    A_c = companion_from_alpha(known.alpha)
    assert np.array_equal(known.A_full, np.kron(np.eye(2), A_c))
    # input channel feeds the first block, output channel the second
    b = np.array([[0.0], [0.0], [1.0]])
    assert np.array_equal(known.B_zeta, np.vstack([b, np.zeros((n, 1))]))
    assert np.array_equal(known.E_zeta, np.vstack([np.zeros((n, 1)), b]))
    # polynomial (s+5)(s+6)(s+7) = s^3 + 18 s^2 + 107 s + 210
    assert np.allclose(known.alpha, [210.0, 107.0, 18.0])


def test_multichannel_shapes():
    known = ObserverKnown([2.0, 3.0], m=2, p=1)
    assert known.A_full.shape == (6, 6)
    assert np.array_equal(known.A_full[:2, :2], [[0.0, 1.0], [-2.0, -3.0]])
    assert known.B_zeta.shape == (6, 2)
    assert known.E_zeta.shape == (6, 1)
    # each input column excites exactly its own companion block
    assert np.count_nonzero(known.B_zeta[:, 0]) == 1 and known.B_zeta[1, 0] == 1.0
    assert np.count_nonzero(known.B_zeta[:, 1]) == 1 and known.B_zeta[3, 1] == 1.0
    assert np.count_nonzero(known.E_zeta) == 1 and known.E_zeta[5, 0] == 1.0


def test_complex_pole_pairs_allowed():
    known = ObserverKnown.from_poles(np.array([-1.0 + 2.0j, -1.0 - 2.0j]), m=1, p=1)
    eigs = np.linalg.eigvals(known.A_full[:2, :2])
    assert np.allclose(np.sort_complex(eigs), np.sort_complex([-1 - 2j, -1 + 2j]))


def test_unpaired_complex_pole_rejected():
    with pytest.raises(ValueError):
        ObserverKnown.from_poles(np.array([-1.0 + 2.0j, -3.0]), m=1, p=1)


@pytest.mark.parametrize("alpha", [[], [[2.0, 3.0]]])
def test_alpha_must_be_nonempty_vector(alpha):
    with pytest.raises(ValueError, match="nonempty coefficient vector"):
        ObserverKnown(alpha, m=1, p=1)
