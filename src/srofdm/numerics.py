"""Kernels and error types shared by every stage: partial DFT matrices, the
Gaussian tail, counter-based random streams, ScenarioError, SingularSystemError."""
from __future__ import annotations

import numpy as np

__all__ = [
    "ScenarioError",
    "SingularSystemError",
    "RandomStream",
    "partial_fourier",
    "q_function",
    "cn_from_normals",
    "draw_cn",
]

class ScenarioError(ValueError):
    """Configuration problem: a bad scenario value, or an axis the scenario
    cannot sweep. Each config type raises it where its rule fails."""


class SingularSystemError(ValueError):
    """Raised when a least-squares system is rank deficient."""


class RandomStream:
    """Counter-based random stream keyed by (master_seed, stream_id).

    Two streams built from the same key pair produce the same draw sequence no
    matter when or on which worker they run, which is what makes large Monte
    Carlo sweeps bit-reproducible under any trial scheduling. Streams are
    stateful: consecutive draws advance the underlying Philox counter. Never
    share one instance across workers; give each trial its own stream_id.
    """

    def __init__(self, master_seed: int, stream_id: int = 0):
        self._gen = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
        self.reset(master_seed, stream_id)

    def reset(self, master_seed: int, stream_id: int = 0):
        """Rewind to the start of the (master_seed, stream_id) sequence.

        Reuses the existing bit generator, so tight loops over many trial ids
        can recycle one instance; the resulting draw sequence is identical to
        a freshly constructed stream with the same key. Each key must lie in
        [0, 2^64): a wider one would alias another (ValueError).
        """
        for name, key in (("master_seed", master_seed), ("stream_id", stream_id)):
            if not 0 <= int(key) < 1 << 64:  # a Philox key word
                raise ValueError(f"{name} = {key} is outside [0, 2^64)")
        self.master_seed, self.stream_id = int(master_seed), int(stream_id)
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([self.master_seed, self.stream_id], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self

    def __repr__(self):
        return f"RandomStream(master_seed={self.master_seed}, stream_id={self.stream_id})"

    def integers(self, low, high, size=None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def normals(self, size=None, out=None):
        """Standard real normal draws, written into `out` when given (the
        same values, in C order, as a draw of its shape)."""
        return self._gen.standard_normal(size, out=out)


def partial_fourier(n: int, l: int) -> np.ndarray:
    """First l columns of the n-point DFT matrix, entries exp(-j*2*pi*p*q/n)
    (n x l, F^H F = n*I_l). l = n gives the whole matrix, whose product with
    x is numpy.fft.fft(x)."""
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    p = np.arange(n)[:, None]
    q = np.arange(l)[None, :]
    return np.exp(-2j * np.pi * p * q / n)


def q_function(z):
    """Gaussian tail probability Q(z) = P(N(0,1) > z).

    Evaluated as 0.5*erfc(z/sqrt(2)), halved in erfc's own result; accepts
    scalars (a numpy scalar comes back) or arrays. scipy loads at the first call.
    """
    from scipy.special import erfc

    q = erfc(np.asarray(z) / np.sqrt(2.0))
    q *= 0.5
    return q


def draw_cn(stream: RandomStream, count: int, variance: float) -> np.ndarray:
    """Draw `count` i.i.d. circularly symmetric complex Gaussian CN(0, variance).

    Unit-variance pairs are drawn internally and scaled by sqrt(variance), so
    streams with equal keys but different variances stay proportional.
    """
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    return cn_from_normals(stream.normals(size=(2, count))) * np.sqrt(variance)


def cn_from_normals(z) -> np.ndarray:
    """CN(0, 1) values (re + 1j·im)·√0.5 from real normals shaped
    (..., 2, count), whose first row is re and second im; built in one
    output array, which takes the same values as the expression."""
    unit = np.multiply(1j, z[..., 1, :])
    unit += z[..., 0, :]
    unit *= np.sqrt(0.5)
    return unit
