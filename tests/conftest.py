import numpy as np
import pytest

from rssm.simplex import Simplex, make_regular_simplex


def haar_rotation(n, rng):
    """Random orthogonal matrix, Haar-distributed, via sign-fixed QR."""
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))[None, :]


def random_regular_simplex(n, rng, radius=None, center=None):
    """Regular simplex with random orientation, center and (optionally) radius."""
    if radius is None:
        radius = float(rng.uniform(0.2, 3.0))
    if center is None:
        center = rng.standard_normal(n) * 2.0
    s = make_regular_simplex(np.zeros(n), radius, n)
    Q = haar_rotation(n, rng)
    return Simplex(s.vertices @ Q.T + np.asarray(center)[None, :],
                   radius=radius)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def positive_count(g):
    """The positive eigenvalues of a GMatrix, with multiplicity: its
    spectrum's multiplicities where its signs are positive."""
    return int(g._spectrum[1][g._signs > 0].sum())
