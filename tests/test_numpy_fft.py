"""kpwave's transforms run on numpy.fft's 1-D passes and give scipy.fft's
2-D transforms bit for bit: each pass in scipy's order, with its
1/(nx*ny) factor applied where and as scipy applies it.  The grids include
ones whose 1/(nx*ny) rounds differently from a double and from a long
double (126x178, 134x138), and ones with a large prime factor, which
pocketfft transforms by Bluestein's algorithm (2062 = 2*1031)."""

import numpy as np
import pytest
import scipy.fft

from kpwave.grids import ingest, samples_in_place, samples_of, spectrum
from kpwave.harness import next_fast_len

SHAPES = [(8, 8), (64, 32), (1024, 512), (1024, 256), (922, 116), (126, 178),
          (134, 138), (2062, 10), (58, 94)]


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", SHAPES)
def test_transforms_are_scipy_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    u = rng.standard_normal(shape)
    z = u + 1j * rng.standard_normal(shape)
    half, full = scipy.fft.rfft2(u, norm="forward"), scipy.fft.fft2(z, norm="forward")
    assert _same_bits(spectrum(u), half)
    assert _same_bits(spectrum(z), full)
    assert _same_bits(ingest(u)[1:], half[1:]) and not ingest(u)[0].any()
    irfft2 = scipy.fft.irfft2(half, s=shape, norm="forward")
    ifft2 = scipy.fft.ifft2(full, norm="forward")
    assert _same_bits(samples_of(half, shape), irfft2)
    assert _same_bits(samples_of(full, shape), ifft2)
    assert _same_bits(samples_in_place(half.copy(), shape[1]), irfft2)
    assert _same_bits(samples_in_place(full.copy(), shape[1]), ifft2)


def test_next_fast_len_is_scipys_real_length():
    assert all(next_fast_len(n) == scipy.fft.next_fast_len(n, real=True)
               for n in range(1, 4097))
