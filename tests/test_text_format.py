"""The %.12e text kernel: exactly the bytes of Python's ``%`` formatting."""
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isacsim import runner, text


def oracle(prefixes, values):
    """One ``%`` template over every row: the writer the kernel replaced."""
    fields = " ".join(["%.12e"] * values.shape[1]) + "\n"
    template = "".join(prefix + fields for prefix in prefixes)
    return (template % tuple(values.ravel().tolist())).encode("ascii")


def check(values, prefixes=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if prefixes is None:
        prefixes = [f"{i} row " for i in range(len(values))]
    got = text._format_rows(text._text(prefixes), values)
    assert got == oracle(prefixes, values)


def with_negatives(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def exact_ties():
    """Doubles whose exact decimal value has 14 significant digits ending in 5.

    q / 2**s with q odd is q * 5**s / 10**s: its last decimal is a 5, so it is
    a tie of the 13-digit rounding when q * 5**s has 14 digits.
    """
    rng = np.random.default_rng(5)
    ties = []
    for s in range(20):
        lo, hi = -(-10 ** 13 // 5 ** s), 10 ** 14 // 5 ** s
        for q in rng.integers(lo, hi, 40):
            x = (int(q) | 1) / 2 ** s
            digits = Decimal(x).as_tuple().digits
            if len(digits) == 14 and digits[-1] == 5:
                ties.append(x)
    return np.array(ties)


def test_exact_halfway_ties_round_half_even():
    ties = exact_ties()
    assert len(ties) > 500
    check(with_negatives(ties))


def test_neighbours_of_ties_inside_the_guard_band():
    ties = exact_ties()
    near = [np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)]
    for _ in range(3):
        near += [np.nextafter(near[-2], np.inf), np.nextafter(near[-1], -np.inf)]
    check(with_negatives(np.concatenate(near)))


def test_decimal_ties_at_inexact_powers_of_ten():
    """The double nearest d.dddddddddddd5e<k> sits within ~1e-3 of the tie,
    inside the guard band; where 10**(12 - k) is not a double, the scaled
    mantissa carries two roundings and can land on the wrong side of it."""
    rng = np.random.default_rng(7)
    mantissas = rng.integers(10 ** 12, 10 ** 13, 3000)
    exponents = rng.choice(np.r_[-280:-11, 35:280], 3000)
    values = [float(f"{m}5e{k - 13}") for m, k in zip(mantissas.tolist(), exponents.tolist())]
    check(with_negatives(values))


def test_neighbours_of_powers_of_ten_and_of_the_carry_point():
    centers = [float(f"1e{k}") for k in range(-310, 309)]
    centers += [float(f"9.9999999999995e{k}") for k in range(-310, 308)]
    centers += [float(f"9.9999999999994999e{k}") for k in range(-300, 300)]
    values = [np.array(centers)]
    for _ in range(3):
        values += [np.nextafter(values[-1], np.inf)]
    values += [np.nextafter(np.array(centers), 0.0)]
    values += [np.nextafter(values[-1], 0.0)]
    check(with_negatives(np.concatenate(values)))


def test_three_digit_exponents_and_the_fast_path_bounds():
    rng = np.random.default_rng(3)
    mantissa = rng.uniform(1.0, 10.0, 400)
    exponents = rng.integers(100, 308, 400) * rng.choice([-1, 1], 400)
    values = list(mantissa * 10.0 ** exponents.astype(float))
    for bound in (1e-290, 1e290, 1e-100, 1e100, 1e-99, 1e99):
        values += [bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)]
    check(with_negatives(values))


def test_special_values():
    tiny = np.finfo(float).tiny
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 2.2e-310,
              tiny, np.nextafter(tiny, 0.0), np.finfo(float).max, 1e-300]
    check(with_negatives(values))


def test_rows_of_every_width_and_prefix():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 33):
        values = rng.standard_normal((9, n)) * 10.0 ** rng.integers(-30, 30, (9, n))
        check(values, [("x" * (i % 11)) + " " for i in range(9)])
    check(np.zeros((3, 0)))
    check(np.zeros((0, 4)), [])


def test_empty_prefix_rows_as_in_cdf_files():
    values = np.column_stack([np.linspace(-3.0, 7.0, 50), np.arange(1, 51) / 50.0])
    got = text._format_rows(np.zeros((50, 0), np.uint8), values)
    assert got == oracle([""] * 50, values)
    assert got.startswith(b"-3.000000000000e+00 2.000000000000e-02\n")


@pytest.mark.parametrize("slice_values", [7, 64, None])
def test_blocks_crossing_slice_boundaries(monkeypatch, slice_values):
    if slice_values is not None:
        monkeypatch.setattr(text, "SLICE_VALUES", slice_values)
    n = 3
    rows = text.SLICE_VALUES // n * 2 + 1  # two full slices and one row more
    rng = np.random.default_rng(2)
    values = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-12, 12, (rows, n))
    assert len(text._row_slices(rows, n)) == 3
    check(values, [f"{i} " for i in range(rows)])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 5)),
              elements=st.floats(width=64)))
def test_any_doubles(values):
    check(values)


def test_cir_block_memory_is_bounded_by_the_slice():
    """A consumer that writes each slice out holds one slice's working set:
    no per-value Python floats, no copy of the drop's values and not the
    drop's text."""
    rng = np.random.default_rng(0)
    n_u, n_s, n_paths, n_t = 4, 4, 2000, 32  # 2,048,000 gain values
    gains = (rng.standard_normal((n_u, n_s, n_paths, n_t))
             + 1j * rng.standard_normal((n_u, n_s, n_paths, n_t))) * 1e-6
    delays = rng.uniform(1e-7, 1e-6, n_paths)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sizes = [len(chunk) for chunk in runner._cir_block(0, delays, gains)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total = sum(sizes)
    assert total > 19 * gains.size * 2  # the premise: ~20 bytes per value
    assert peak < 160 * text.SLICE_VALUES < total / 3
    assert max(sizes) < 25 * text.SLICE_VALUES
