"""Learner-visible observer machinery.

Everything in this module is constructible from user choices alone (the
observer polynomial and the channel counts m, p); nothing here touches the
plant matrices.  The filter bank runs one companion system per input and
output channel, so its state has dimension n*(m+p).
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import companion_from_alpha, poly_from_roots


@dataclass
class ObserverKnown:
    """Known matrices of the parameterized observer filter bank.

    alpha holds the ascending coefficients [a0, ..., a_{n-1}] of the observer
    polynomial s^n + a_{n-1} s^{n-1} + ... + a0, whose companion matrix A_c
    and last unit vector b form each channel's filter.  A_full =
    I_{m+p} (x) A_c drives the stacked filter state; B_zeta routes the m input
    channels and E_zeta the p output channels into their companion blocks.
    """

    alpha: np.ndarray
    m: int
    p: int
    A_full: np.ndarray = field(init=False)
    B_zeta: np.ndarray = field(init=False)
    E_zeta: np.ndarray = field(init=False)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.ndim != 1 or self.alpha.size < 1:
            raise ValueError("alpha must be a nonempty coefficient vector")
        n = self.alpha.size
        b = np.eye(n)[:, [-1]]
        self.A_full = np.kron(np.eye(self.m + self.p), companion_from_alpha(self.alpha))
        self.B_zeta = np.vstack([np.kron(np.eye(self.m), b),
                                 np.zeros((self.p * n, self.m))])
        self.E_zeta = np.vstack([np.zeros((self.m * n, self.p)),
                                 np.kron(np.eye(self.p), b)])

    @property
    def n_zeta(self):
        return self.alpha.size * (self.m + self.p)

    @classmethod
    def from_poles(cls, poles, m, p):
        """Build from user-chosen observer poles; the polynomial stays knowable."""
        return cls(poly_from_roots(poles), int(m), int(p))
