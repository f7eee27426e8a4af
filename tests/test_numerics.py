import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from srofdm.numerics import (
    RandomStream,
    draw_cn,
    partial_fourier,
    q_function,
)


class TestDftMatrix:
    def test_single_point(self):
        np.testing.assert_array_equal(partial_fourier(1, 1), np.array([[1.0 + 0j]]))

    def test_two_point_roots_of_unity(self):
        np.testing.assert_allclose(
            partial_fourier(2, 2), np.array([[1, 1], [1, -1]], dtype=complex), atol=1e-15
        )

    def test_unitarity_n64(self):
        w = partial_fourier(64, 64)
        gram = w.conj().T @ w
        np.testing.assert_allclose(gram, 64 * np.eye(64), atol=1e-10)

    def test_matches_fft(self):
        # the fast transform path used elsewhere must agree with the direct product
        rng = np.random.default_rng(3)
        for n in (2, 8, 64, 128):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            direct = partial_fourier(n, n) @ x
            fast = np.fft.fft(x)
            assert np.max(np.abs(fast - direct)) <= 1e-9 * np.linalg.norm(x)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            partial_fourier(0, 0)


class TestPartialFourier:
    def test_dc_column(self):
        np.testing.assert_allclose(partial_fourier(4, 1), np.ones((4, 1)), atol=1e-15)

    def test_orthogonality_n64_l5(self):
        f = partial_fourier(64, 5)
        np.testing.assert_allclose(f.conj().T @ f, 64 * np.eye(5), atol=1e-10)

    def test_matches_dft_columns(self):
        f = partial_fourier(8, 3)
        np.testing.assert_array_equal(f, partial_fourier(8, 8)[:, :3])

    def test_rejects_l_greater_than_n(self):
        with pytest.raises(ValueError):
            partial_fourier(4, 5)


class TestQFunction:
    def test_symmetry_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_tail_limit(self):
        assert q_function(40.0) == pytest.approx(0.0, abs=1e-300)

    def test_tenth_percentile_against_quadrature(self):
        # independent oracle: numerically integrate the defining integral
        val, err = quad(lambda u: np.exp(-u * u / 2) / np.sqrt(2 * np.pi), 1.2816, np.inf)
        assert err < 1e-10
        assert q_function(1.2816) == pytest.approx(val, abs=1e-12)
        assert q_function(1.2816) == pytest.approx(0.1000, abs=1e-4)

    def test_against_mpmath_high_precision(self):
        rng = np.random.default_rng(23)
        z = rng.uniform(-8, 8, size=100)
        oracle = np.array([float(0.5 * mpmath.erfc(v / mpmath.sqrt(2))) for v in z])
        np.testing.assert_allclose(q_function(z), oracle, atol=1e-10)

    @given(st.floats(min_value=-6, max_value=6), st.floats(min_value=0.001, max_value=2))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_monotone_decreasing(self, z, dz):
        # strict ordering holds while both values stay resolvable in float64
        assert q_function(z + dz) < q_function(z)

    @given(st.floats(min_value=-8, max_value=8))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_reflection(self, z):
        assert q_function(-z) == pytest.approx(1.0 - q_function(z), abs=1e-12)


class TestQFunctionContract:
    def test_scalar_in_numpy_scalar_out(self):
        for z in (1.5, np.array(1.5), np.float64(1.5)):
            q = q_function(z)
            assert type(q) is np.float64
            assert q == 0.5 * erfc(1.5 / np.sqrt(2.0))

    def test_array_in_array_out_argument_untouched(self):
        z = np.random.default_rng(24).uniform(-40, 40, size=(4, 5))
        z[0, :4] = [0.0, -0.0, np.inf, 5e-324]
        before = z.tobytes()
        z.setflags(write=False)
        q = q_function(z)
        assert isinstance(q, np.ndarray) and q.dtype == np.float64 and q.shape == z.shape
        assert z.tobytes() == before
        assert q.tobytes() == (0.5 * erfc(z / np.sqrt(2.0))).tobytes()


class TestRandomStream:
    def test_same_key_same_sequence(self):
        a = draw_cn(RandomStream(42, 7), 100, 1.0)
        b = draw_cn(RandomStream(42, 7), 100, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = draw_cn(RandomStream(42, 0), 100, 1.0)
        b = draw_cn(RandomStream(42, 1), 100, 1.0)
        assert not np.allclose(a, b)

    def test_sequence_advances_within_stream(self):
        s = RandomStream(42, 0)
        a = draw_cn(s, 50, 1.0)
        b = draw_cn(s, 50, 1.0)
        assert not np.allclose(a, b)

    def test_law_of_large_numbers(self):
        z = draw_cn(RandomStream(1, 0), 10**6, 1.0)
        assert abs(z.mean()) <= 0.005
        assert 0.99 <= np.mean(np.abs(z) ** 2) <= 1.01

    def test_real_imag_split_variance(self):
        z = draw_cn(RandomStream(2, 0), 10**6, 4.0)
        assert np.var(z.real) == pytest.approx(2.0, rel=0.01)
        assert np.var(z.imag) == pytest.approx(2.0, rel=0.01)

    def test_variance_scaling_is_exact(self):
        a = draw_cn(RandomStream(9, 3), 1000, 2.0)
        b = draw_cn(RandomStream(9, 3), 1000, 1.0)
        np.testing.assert_array_equal(a, b * np.sqrt(2.0))

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (2**64 + 7, 3)])
    def test_keys_outside_64_bits_rejected(self, key):
        # masking them would alias: seed s + 2^64 ran seed s's trials
        with pytest.raises(ValueError, match="is outside"):
            RandomStream(*key)
        with pytest.raises(ValueError, match="is outside"):
            RandomStream(0).reset(*key)
        assert RandomStream(2**64 - 1, 2**64 - 1).stream_id == 2**64 - 1

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            draw_cn(RandomStream(0), 10, 0.0)
