"""The known exosystem and the p-copy internal model of the config's minimal polynomial."""

from dataclasses import dataclass, field

import numpy as np

from .linalg import companion_from_alpha


@dataclass
class Exosystem:
    """Autonomous generator v' = S v with initial condition v0.

    That no mode of S decays is a standing assumption, the oracle's to check.
    """

    S: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        self.S = np.atleast_2d(np.asarray(self.S, dtype=float))
        self.v0 = np.atleast_1d(np.asarray(self.v0, dtype=float))
        if self.S.shape[0] != self.S.shape[1]:
            raise ValueError("S must be square")
        if self.v0.size != self.S.shape[0]:
            raise ValueError("v0 length %d does not match S dimension %d"
                             % (self.v0.size, self.S.shape[0]))

    @property
    def q(self):
        return self.S.shape[0]


@dataclass
class InternalModel:
    """p-copy compensator (G1, G2) built from a monic polynomial.

    beta is the bottom-row companion matrix of the polynomial and sigma the
    last unit vector, so (beta, sigma) is controllable by construction.
    """

    minpoly: np.ndarray
    p: int
    beta: np.ndarray = field(init=False)
    sigma: np.ndarray = field(init=False)
    G1: np.ndarray = field(init=False)
    G2: np.ndarray = field(init=False)

    def __post_init__(self):
        self.minpoly = np.asarray(self.minpoly, dtype=float)
        d = self.minpoly.size
        if d < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        self.beta = companion_from_alpha(self.minpoly)
        self.sigma = np.zeros((d, 1))
        self.sigma[-1, 0] = 1.0
        self.G1 = np.kron(np.eye(self.p), self.beta)
        self.G2 = np.kron(np.eye(self.p), self.sigma)

    @property
    def n_z(self):
        return self.p * self.minpoly.size

