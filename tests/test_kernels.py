"""The reduction kernels follow one canonical order, bit for bit.

Every reduction in the package funnels through ordered_sum / ordered_dot /
pompeiu_sum and their batched forms.  Two things pin their order: float.hex
goldens recorded from earlier kernels, and a pure-Python spelling of the
canonical order (``_reference_sum``) that the kernels must match exactly,
signed zeros included.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qclab import _kernels
from qclab._kernels import fallback


def _rand(n, seed):
    rng = np.random.default_rng(seed)
    # mix of magnitudes so compensation actually matters
    x = rng.normal(size=n) * np.exp(rng.uniform(-12, 12, size=n))
    return np.ascontiguousarray(x)


def test_backend_reports_a_lane():
    assert _kernels.backend_name() == "fallback"


def test_block_size_is_shared():
    assert fallback.BLOCK == _kernels.BLOCK


@pytest.mark.parametrize("n", [1, 64, 65, 1000, 4097])
def test_ordered_sum_matches_fsum(n):
    x = _rand(n, seed=n)
    want = math.fsum(x.tolist())
    got = _kernels.ordered_sum(x)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-300)


def test_ordered_sum_empty_is_zero():
    assert _kernels.ordered_sum(np.array([], dtype=np.float64)) == 0.0
    assert fallback.ordered_sum(np.array([], dtype=np.float64)) == 0.0


def test_ordered_sum_cancellation_is_exact():
    x = np.array([1e16, 1.0, -1e16], dtype=np.float64)
    assert _kernels.ordered_sum(x) == 1.0
    assert fallback.ordered_sum(x) == 1.0


def test_ordered_dot_shape_mismatch():
    with pytest.raises(ValueError):
        fallback.ordered_dot(np.ones(3), np.ones(4))


def test_ordered_sum_is_deterministic():
    x = _rand(4097, seed=99)
    assert _kernels.ordered_sum(x) == _kernels.ordered_sum(x.copy())


def test_pompeiu_sum_all_masked_is_zero():
    n = 17
    one = np.ones(n)
    mask = np.ones(n, dtype=np.uint8)
    re, im = _kernels.pompeiu_sum(one, one, one, one, one, 0.0, 0.0, mask)
    assert (re, im) == (0.0, 0.0)


def test_pompeiu_sum_matches_naive_numpy():
    rng = np.random.default_rng(5)
    n = 257
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    wt = rng.uniform(0.5, 1.5, size=n)
    w = 0.25 - 0.4j
    mask = np.zeros(n, dtype=np.uint8)
    re, im = _kernels.pompeiu_sum(
        np.ascontiguousarray(c.real),
        np.ascontiguousarray(c.imag),
        np.ascontiguousarray(wt),
        np.ascontiguousarray(v.real),
        np.ascontiguousarray(v.imag),
        w.real,
        w.imag,
        mask,
    )
    want = np.sum(v * wt / (c - w))
    assert complex(re, im) == pytest.approx(want, rel=1e-12)


# Bits pinned with float.hex from the single-target, per-row kernels that
# preceded the batched ones; the batched core must reproduce them exactly.
# Per n: ordered_sum, ordered_dot, pompeiu_sum real part, imaginary part.
GOLDEN_KERNELS = {
    0: ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    1: ("-0x1.972922991068ap+17", "-0x1.e9a47fd9b6672p+2", "0x1.76d281c834e9dp+3", "0x1.e18cac2de647cp+2"),
    63: ("0x1.70a04aa86f3ccp+15", "0x1.960d5dc1cc4edp+30", "-0x1.66a70ab954828p+3", "-0x1.46bab4fbc4844p-1"),
    64: ("-0x1.cbe23194b02c7p+15", "-0x1.b89930862ae15p+27", "0x1.6af3508b4bbd4p+2", "0x1.78b3a93d135f7p+3"),
    65: ("0x1.24cd1dfdde931p+15", "-0x1.56e502dfeb5c5p+24", "-0x1.a38727f272eb6p+2", "0x1.4cf80a87e2a5bp+2"),
    513: ("-0x1.0a4044704f735p+18", "-0x1.cc09c8bc5adddp+33", "0x1.48b881a176a0ap+4", "0x1.a6253794d1263p+4"),
    4096: ("0x1.1a54ad67baac0p+20", "0x1.ff7d928b0c3e0p+33", "-0x1.3b9e78496530ap+7", "-0x1.7a1bac6b19c7cp+2"),
}


def _pompeiu_inputs(n):
    rng = np.random.default_rng(n + 1)
    cr = rng.normal(size=n)
    ci = rng.normal(size=n)
    wt = rng.uniform(0.1, 2.0, size=n)
    vr = rng.normal(size=n)
    vi = rng.normal(size=n)
    mask = (rng.uniform(size=n) < 0.1).astype(np.uint8)
    return cr, ci, wt, vr, vi, mask


@pytest.mark.parametrize("n", sorted(GOLDEN_KERNELS))
def test_fallback_kernels_match_pinned_bits(n):
    cr, ci, wt, vr, vi, mask = _pompeiu_inputs(n)
    re, im = fallback.pompeiu_sum(cr, ci, wt, vr, vi, 0.317, -0.858, mask)
    got = (
        fallback.ordered_sum(_rand(n, n + 7)),
        fallback.ordered_dot(_rand(n, n + 11), _rand(n, n + 13)),
        re,
        im,
    )
    assert tuple(float(x).hex() for x in got) == GOLDEN_KERNELS[n]


# reconstruct on a 64x64 polar grid of the q = 0.5, k = 2 annulus,
# 1024 trace nodes, offset_targets(grid, 6, seed=1): (value.real, value.imag).
# The area sums the rings far from each target by series; that moved the
# conj values by at most 6 ulps from the all-direct sum, and left the
# phi-eps ones, whose area term is below their last bit there, unmoved.
# test_pompeiu.py::TestFarRings bounds the series against the direct sum.
GOLDEN_RECONSTRUCT = {
    "conj": [
        ("0x1.13fa2f467f686p-5", "0x1.5e416b9c972ddp-2"),
        ("-0x1.d72755fca2695p-3", "-0x1.6090cdaa15650p-2"),
        ("0x1.0535ae05765ecp-1", "-0x1.5d11c878e621fp-2"),
        ("0x1.2d57fce9855c4p-1", "-0x1.f348581fffdcbp-3"),
        ("-0x1.86a0f6a63180dp-1", "-0x1.36cdb6aa7d6ecp-3"),
        ("-0x1.a7784960dd494p-1", "-0x1.5ed05d7d6d147p-2"),
    ],
    "phi-eps:1e-3": [
        ("0x1.96a65a32d3541p-4", "-0x1.4f22ddb4f5007p-2"),
        ("-0x1.a296e8ed292ccp-2", "0x1.49d1d9f036780p-5"),
        ("-0x1.1a490973580d1p-1", "-0x1.d3b4a22d589dbp-3"),
        ("-0x1.182201f1ad438p-1", "-0x1.2b77df0f2be00p-2"),
        ("0x1.355b2acbafeddp-3", "0x1.84cf3f74c43d7p-1"),
        ("-0x1.616c0eec91baep-1", "0x1.220bc8392b6bap-1"),
    ],
}


@pytest.mark.parametrize("field", sorted(GOLDEN_RECONSTRUCT))
def test_reconstruct_matches_pinned_bits(field):
    from qclab.geometry import AnnulusDomain, build_polar_grid
    from qclab.maps import (
        Composition,
        ConjugationMap,
        InverseSpiralStretch,
        PiecewiseRadialStretch,
    )
    from qclab.pompeiu import annulus_trace, dbar_field, offset_targets, reconstruct

    if field == "conj":
        family = ConjugationMap()
    else:
        family = Composition(
            PiecewiseRadialStretch(0.5, 2.0, 1e-3), InverseSpiralStretch(0.5, 2.0, 0.0)
        )
    domain = AnnulusDomain(0.25)
    grid = build_polar_grid(domain, 64, 64, breaks=family.break_radii())
    results = reconstruct(
        annulus_trace(family, domain, 1024),
        dbar_field(family, grid),
        offset_targets(grid, 6, seed=1),
    )
    got = [(r.value.real.hex(), r.value.imag.hex()) for r in results]
    assert got == GOLDEN_RECONSTRUCT[field]


def _reference_sum(xs):
    """The canonical order spelled out one float at a time, in pure Python.

    Blocks of ``BLOCK`` values are summed sequentially with Neumaier
    compensation (ragged positions are literal ``0.0`` terms), and the block
    totals are combined by a pairwise tree padded with zeros to a power of
    two.  The kernels compute the compensation as TwoSum instead, in either
    of two scans; they must reproduce this spelling bit for bit.
    """
    n = len(xs)
    nb = -(-n // fallback.BLOCK)
    totals = []
    for b in range(nb):
        s = c = 0.0
        for j in range(fallback.BLOCK):
            idx = b * fallback.BLOCK + j
            x = xs[idx] if idx < n else 0.0
            t = s + x
            c += ((s - t) + x) if abs(s) >= abs(x) else ((x - t) + s)
            s = t
        totals.append(s + c)
    size = 1
    while size < nb:
        size *= 2
    buf = totals + [0.0] * (size - nb)
    while len(buf) > 1:
        buf = [buf[2 * i] + buf[2 * i + 1] for i in range(len(buf) // 2)]
    return buf[0] if buf else 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(
            allow_nan=False,
            allow_infinity=False,
            min_value=-1e30,
            max_value=1e30,
        ),
        max_size=300,
    )
)
@example([-0.0, -0.0, -0.0])
def test_ordered_sum_matches_reference(xs):
    got = fallback.ordered_sum(np.asarray(xs, dtype=np.float64))
    want = _reference_sum(xs)
    assert got.hex() == want.hex()
    assert np.signbit(got) == np.signbit(want)


@settings(max_examples=60)
@given(
    st.integers(0, 4),
    st.integers(0, 200),
    st.integers(0, 2**32 - 1),
)
def test_row_sums_match_per_row_sums(rows, n, seed):
    a = np.stack([_rand(n, seed + r) for r in range(rows)]) if rows else np.zeros((0, n))
    got = fallback.ordered_sums(a)
    assert got.shape == (rows,)
    for r in range(rows):
        want = _reference_sum(a[r].tolist())
        assert got[r].hex() == want.hex() == fallback.ordered_sum(a[r]).hex()
    # a strided view of the same rows reduces to the same bits
    doubled = np.repeat(a, 2, axis=-1)[..., ::2]
    assert np.array_equal(fallback.ordered_sums(doubled), got)


ALONG_MAX = fallback._ALONG_MAX


def _with_zeros(x):
    """``x`` with signed zeros mixed in, and a leading run of ``-0.0``."""
    x = x.copy()
    x[..., 3::11] = -0.0
    x[..., 5::13] = 0.0
    x[..., :70] = -0.0
    return x


def _bits(x):
    return [float(v).hex() for v in np.ravel(x)]  # the hex of -0.0 keeps its sign


@pytest.fixture
def scans(monkeypatch):
    """Count the calls to each block scan."""
    calls = {"along": 0, "across": 0}
    for name in calls:
        real = getattr(fallback, "_" + name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(fallback, "_" + name, counted)
    return calls


@pytest.mark.parametrize("n", [ALONG_MAX - 1, ALONG_MAX, ALONG_MAX + 1])
def test_vector_kernels_match_reference_at_the_crossover(n, scans):
    x = _with_zeros(_rand(n, n))
    w = _rand(n, n + 1)
    assert fallback.ordered_sum(x).hex() == _reference_sum(x.tolist()).hex()
    assert fallback.ordered_dot(w, x).hex() == _reference_sum((w * x).tolist()).hex()
    # the scan is chosen from the input's size alone
    assert scans == ({"along": 2, "across": 0} if n <= ALONG_MAX else {"along": 0, "across": 2})


def _cauchy_parts(t, n, seed):
    """The strided ``(T, 2, n)`` view of complex terms that ``cauchy_boundary`` reduces."""
    rng = np.random.default_rng(seed)
    term = _with_zeros(rng.normal(size=(t, n))) + 1j * rng.normal(size=(t, n))
    return np.moveaxis(term.view(np.float64).reshape(t, n, 2), -1, -2)


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(lambda: _with_zeros(_rand(3 * (ALONG_MAX // 3), 1).reshape(3, -1)), id="ragged-below"),
        pytest.param(lambda: _with_zeros(_rand(2 * (ALONG_MAX // 2), 2).reshape(2, -1)), id="at"),
        pytest.param(lambda: _with_zeros(_rand(3 * (ALONG_MAX // 3 + 1), 3).reshape(3, -1)), id="ragged-above"),
        pytest.param(lambda: _cauchy_parts(16, ALONG_MAX // 32 - 1, 4), id="strided-below"),
        pytest.param(lambda: _cauchy_parts(16, ALONG_MAX // 32, 5), id="strided-at"),
        pytest.param(lambda: _cauchy_parts(16, ALONG_MAX // 32 + 1, 6), id="strided-above"),
    ],
)
def test_row_sums_match_reference_at_the_crossover(rows, scans):
    a = rows()
    a[0, ...] = -0.0  # a row of negative zeros sums to +0.0
    got = fallback.ordered_sums(a)
    assert scans["along" if a.size <= ALONG_MAX else "across"] == 1
    assert got.shape == a.shape[:-1]
    want = [_reference_sum(row.tolist()) for row in a.reshape(-1, a.shape[-1])]
    assert _bits(got.ravel()) == _bits(np.array(want))
    assert not np.signbit(got.ravel()[0])


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(lambda: _with_zeros(_rand(3 * 1000, 8).reshape(3, -1)), id="below"),
        pytest.param(lambda: _with_zeros(_rand(3 * (ALONG_MAX // 2), 9).reshape(3, -1)), id="above"),
        pytest.param(lambda: _cauchy_parts(1, ALONG_MAX // 2 + 3, 10)[0], id="strided-complex"),
    ],
)
def test_ordered_dot_rows_share_one_weight_row(rows):
    # the rows form: each row has the bits of its own one-row call
    v = rows()
    w = _rand(v.shape[-1], 12)
    got = fallback.ordered_dot(w, v)
    assert got.shape == v.shape[:-1]
    assert _bits(got) == _bits(np.array([fallback.ordered_dot(w, row) for row in v]))
    assert _bits(got) == _bits(np.array([_reference_sum((w * row).tolist()) for row in v]))


def test_ordered_dot_needs_one_weight_row_as_long_as_the_rows():
    with pytest.raises(ValueError):
        fallback.ordered_dot(np.ones(3), np.ones((2, 4)))
    with pytest.raises(ValueError):
        fallback.ordered_dot(np.ones((2, 3)), np.ones((2, 3)))


def _along_totals(a, b=None):
    return fallback._tree(fallback._along(fallback._blocks(a, b)))


def _across_totals(a, b=None):
    return fallback._tree(fallback._across(fallback._columns(a, b)))


@pytest.mark.parametrize("shape", [(1,), (64,), (3, 1), (5, 63), (2, 3, 130), (2, ALONG_MAX + 65)])
def test_the_two_scans_give_identical_bits(shape):
    a = _with_zeros(_rand(int(np.prod(shape)), sum(shape)).reshape(shape))
    b = _rand(a.size, 7).reshape(shape)
    assert _bits(_along_totals(a)) == _bits(_across_totals(a))
    assert _bits(_along_totals(a, b)) == _bits(_across_totals(a, b))
    strided = np.repeat(a, 2, axis=-1)[..., 1::2]
    assert _bits(_along_totals(strided)) == _bits(_across_totals(a))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
        max_size=300,
    ),
    st.integers(1, 3),
)
@example([-0.0, 0.0, -0.0], 1)
@example([-0.0] * 130, 2)
def test_the_two_scans_agree_on_any_rows(xs, rows):
    a = np.asarray(xs * rows, dtype=np.float64).reshape(rows, -1)
    assert _bits(_along_totals(a)) == _bits(_across_totals(a))


@pytest.mark.parametrize("xs", [[math.inf], [math.nan], [1e308, 1e308]], ids=["inf", "nan", "overflow"])
@pytest.mark.parametrize("across", [False, True], ids=["along", "across"])
def test_non_finite_sums_are_nan(xs, across, monkeypatch):
    # an infinite partial sum makes the step error inf - inf; both the
    # Neumaier and the TwoSum spelling of the compensation turn it into NaN
    if across:
        monkeypatch.setattr(fallback, "_ALONG_MAX", -1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(fallback.ordered_sum(np.array(xs)))
        assert math.isnan(fallback.ordered_dot(np.ones(len(xs)), np.array(xs)))
        assert np.isnan(fallback.ordered_sums(np.array([xs, xs]))).all()


def _pompeiu_reference(cr, ci, wt, vr, vi, wr, wi, dead):
    """Per-target terms in plain numpy, reduced by ``_reference_sum``."""
    dr = cr - wr
    di = ci - wi
    with np.errstate(divide="ignore", invalid="ignore"):
        den = dr * dr + di * di
        re = (vr * wt * dr + vi * wt * di) / den
        im = (vi * wt * dr - vr * wt * di) / den
    re[dead] = 0.0
    im[dead] = 0.0
    return _reference_sum(re.tolist()), _reference_sum(im.tolist())


def _run(args, lo, hi, n):
    """``pompeiu_sum`` over cells ``lo:hi`` of the row ``args`` of ``n`` cells."""
    cr, ci, wt, vr, vi, wr, wi, mask = args
    cr, ci, wt, vr, vi, mask = (x[lo:hi] for x in (cr, ci, wt, vr, vi, mask))
    return fallback.pompeiu_sum(cr, ci, wt, vr, vi, wr, wi, mask, lo, n)


def _outside(n, lo, hi):
    """A uint8 mask of the cells of a row of ``n`` outside ``lo:hi``."""
    out = np.ones(n, dtype=np.uint8)
    out[lo:hi] = 0
    return out


# The names of the next four tests date from the batched kernel they first
# pinned; they now pin pompeiu_sum over runs of cells, which replaced it.
@pytest.mark.parametrize("n", [1, 63, 130, 700])
def test_pompeiu_sum_many_equals_single_target_loop(n):
    # each target over the whole row, and over a run from a start that is
    # not BLOCK-aligned (but for n = 1), against the pure-Python reference
    cr, ci, wt, vr, vi, mask = _pompeiu_inputs(n)
    wr = np.array([0.317, cr[n // 2], -0.2, 0.05, 1.7])
    wi = np.array([-0.858, ci[n // 2], 0.4, 0.05, -0.3])
    dead = [
        np.flatnonzero(mask),
        np.array([n // 2]),  # target on this cell's centre: 0/0, masked
        np.arange(n),  # every cell masked
        np.array([], dtype=np.intp),
        np.arange(0, n, 7),
    ]
    start = n // 3
    for t in range(5):
        one = np.zeros(n, dtype=np.uint8)
        one[dead[t]] = 1
        args = (cr, ci, wt, vr, vi, wr[t], wi[t], one)
        re, im = _kernels.pompeiu_sum(*args)
        if t == 2:
            assert (re, im) == (0.0, 0.0)
        ref = _pompeiu_reference(cr, ci, wt, vr, vi, wr[t], wi[t], dead[t])
        assert (re.hex(), im.hex()) == (ref[0].hex(), ref[1].hex())
        assert math.isfinite(re) and math.isfinite(im)
        got = _run(args, start, n, n)
        want = _kernels.pompeiu_sum(*args[:7], one | _outside(n, start, n))
        ref = _pompeiu_reference(
            cr, ci, wt, vr, vi, wr[t], wi[t], np.union1d(dead[t], np.arange(start))
        )
        assert _bits(got) == _bits(want) == _bits(ref)


def test_pompeiu_sum_many_rejects_bad_cells():
    one = np.ones(4)
    mask = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError):
        fallback.pompeiu_sum(one, one, one, one, one, 0.0, 0.0, mask[:3])
    with pytest.raises(ValueError):
        fallback.pompeiu_sum(one, one[:3], one, one, one, 0.0, 0.0, mask)
    with pytest.raises(ValueError):
        flat = np.ones((2, 2))
        fallback.pompeiu_sum(flat, flat, flat, flat, flat, 0.0, 0.0, mask.reshape(2, 2))


@pytest.mark.parametrize("n", [130, 700])
def test_ranged_pompeiu_sum_many_masks_the_cells_outside_each_range(n):
    # a run is the whole row with the cells outside it masked
    cr, ci, wt, vr, vi, mask = _pompeiu_inputs(n)
    runs = [
        (5, n - 3),  # not BLOCK-aligned at either end
        (70, 70),  # empty, in the middle of a block
        (fallback.BLOCK, fallback.BLOCK),  # empty, on a block edge
        (n // 2, n // 2 + 1),  # one cell
        (0, 9),
        (n - 11, n),  # ends the row
        (fallback.BLOCK, 2 * fallback.BLOCK),  # aligned
    ]
    targets = [(w, -0.8 + 0.2 * w) for w in np.linspace(-0.4, 0.6, len(runs))]
    # a target on the centre of a cell of its run, whose 0/0 term is masked
    c = n // 2 + 1
    runs.append((n // 2 - 3, n // 2 + 40))
    targets.append((cr[c], ci[c]))
    for t, ((lo, hi), (wr, wi)) in enumerate(zip(runs, targets)):
        dead = mask.copy()
        if t == len(runs) - 1:
            dead[c] = 1
        args = (cr, ci, wt, vr, vi, wr, wi, dead)
        got = _run(args, lo, hi, n)
        want = fallback.pompeiu_sum(*args[:7], dead | _outside(n, lo, hi))
        outside = np.setdiff1d(np.arange(n), np.arange(lo, hi))
        ref = _pompeiu_reference(
            cr, ci, wt, vr, vi, wr, wi, np.union1d(np.flatnonzero(dead), outside)
        )
        assert _bits(got) == _bits(want) == _bits(ref)
        if lo == hi:
            assert got == (0.0, 0.0)
        if hi - lo == 1:
            assert got[0] != 0.0 or mask[lo]


def test_pompeiu_sum_many_rejects_bad_ranges():
    one = np.ones(4)
    mask = np.zeros(4, dtype=np.uint8)
    call = lambda start, n: fallback.pompeiu_sum(  # noqa: E731
        one, one, one, one, one, 0.0, 1.0, mask, start, n
    )
    assert call(3, None) == call(3, 7)  # n defaults to the end of the run
    for start, n in ((-1, None), (-1, 4), (0, 3), (1, 4), (5, 8)):
        with pytest.raises(ValueError):
            call(start, n)
