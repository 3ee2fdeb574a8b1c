"""Tests for file populations and the two-moment size calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import FileSet, build_fileset, lognormal_sizes, preset
from repro.workload.filesets import _TiltRanker
from repro.workload.zipf import ZipfDistribution


def test_lognormal_sizes_hits_mean():
    sizes = lognormal_sizes(20_000, 30 * 1024, rng=np.random.default_rng(0))
    assert sizes.mean() == pytest.approx(30 * 1024, rel=0.01)
    assert (sizes > 0).all()


def test_lognormal_sizes_heavy_tail():
    sizes = lognormal_sizes(50_000, 20 * 1024, rng=np.random.default_rng(1))
    # Heavy tail: the max should dwarf the mean, and the median sit below it.
    assert sizes.max() > 20 * sizes.mean()
    assert np.median(sizes) < sizes.mean()


def test_lognormal_sizes_validation():
    with pytest.raises(ValueError):
        lognormal_sizes(0, 1024)
    with pytest.raises(ValueError):
        lognormal_sizes(10, 10)  # below MIN_FILE_BYTES


def test_fileset_basic_properties():
    fs = FileSet(sizes=np.array([100, 200, 300]), alpha=1.0, name="t")
    assert fs.num_files == 3
    assert fs.total_bytes == 600
    assert fs.mean_file_bytes == pytest.approx(200)
    assert fs.size_of(1) == 200


def test_fileset_validation():
    with pytest.raises(ValueError):
        FileSet(sizes=np.array([]), alpha=1.0)
    with pytest.raises(ValueError):
        FileSet(sizes=np.array([10, 0]), alpha=1.0)
    with pytest.raises(ValueError):
        FileSet(sizes=np.array([[1, 2]]), alpha=1.0)


def test_fileset_mean_request_bytes_uniform():
    fs = FileSet(sizes=np.array([100, 200, 300]), alpha=0.0)
    assert fs.mean_request_bytes() == pytest.approx(200.0)


def test_fileset_mean_request_bytes_skewed():
    # With strong skew, the mean request size approaches the hot file's
    # size: z(1, 100, 3) = 1/H_100(3) ≈ 0.832, so the expected requested
    # size is ≈ 0.832*100 + 0.168*10000 ≈ 1764 — far below the 9901-byte
    # per-file mean.
    fs = FileSet(sizes=np.array([100] + [10_000] * 99), alpha=3.0)
    assert fs.mean_request_bytes() == pytest.approx(1764, rel=0.01)
    assert fs.mean_request_bytes() < 0.2 * fs.mean_file_bytes


def test_build_fileset_matches_both_moments():
    fs = build_fileset(
        num_files=8_397,
        mean_file_bytes=42.9 * 1024,
        mean_request_bytes=19.7 * 1024,
        alpha=1.08,
        seed=0,
        name="calgary-like",
    )
    assert fs.num_files == 8_397
    assert fs.mean_file_bytes == pytest.approx(42.9 * 1024, rel=0.02)
    assert fs.mean_request_bytes() == pytest.approx(19.7 * 1024, rel=0.02)


def test_build_fileset_request_mean_above_file_mean():
    # Clarknet-style: requested files slightly larger than average file.
    fs = build_fileset(
        num_files=35_885,
        mean_file_bytes=11.6 * 1024,
        mean_request_bytes=11.9 * 1024,
        alpha=0.78,
        seed=0,
    )
    assert fs.mean_request_bytes() == pytest.approx(11.9 * 1024, rel=0.02)


def test_build_fileset_unreachable_target_raises():
    with pytest.raises(ValueError):
        build_fileset(
            num_files=100,
            mean_file_bytes=10 * 1024,
            mean_request_bytes=10_000 * 1024,  # absurdly large
            alpha=1.0,
            seed=0,
        )


def test_build_fileset_deterministic():
    a = build_fileset(1000, 20 * 1024, 15 * 1024, 0.9, seed=5)
    b = build_fileset(1000, 20 * 1024, 15 * 1024, 0.9, seed=5)
    assert (a.sizes == b.sizes).all()


def test_build_fileset_seed_changes_population():
    a = build_fileset(1000, 20 * 1024, 15 * 1024, 0.9, seed=5)
    b = build_fileset(1000, 20 * 1024, 15 * 1024, 0.9, seed=6)
    assert not (a.sizes == b.sizes).all()


@given(
    num_files=st.integers(min_value=200, max_value=3000),
    mean_kb=st.floats(min_value=5.0, max_value=80.0),
    ratio=st.floats(min_value=0.5, max_value=1.3),
    alpha=st.floats(min_value=0.5, max_value=1.2),
)
@settings(max_examples=25, deadline=None)
def test_property_build_fileset_two_moments(num_files, mean_kb, ratio, alpha):
    """Whenever calibration succeeds, both size moments are within 3%."""
    mean_bytes = mean_kb * 1024
    target_req = ratio * mean_bytes
    try:
        fs = build_fileset(num_files, mean_bytes, target_req, alpha, seed=1)
    except ValueError:
        return  # target outside the achievable range: acceptable, documented
    assert fs.mean_file_bytes == pytest.approx(mean_bytes, rel=0.03)
    assert fs.mean_request_bytes() == pytest.approx(target_req, rel=0.03)
    reference = _reference_sizes(num_files, mean_bytes, target_req, alpha, seed=1)
    assert np.array_equal(fs.sizes, reference)


# -- calibration exactness ------------------------------------------------------


def _reference_sizes(num_files, mean_file_bytes, mean_request_bytes, alpha, seed):
    """The calibration as first written: a plain stable argsort of the
    scores at every bisection step, and ``pmf @ ranked`` for the mean.
    The warm-started sorts in build_fileset must reproduce it exactly."""
    rng = np.random.default_rng(seed)
    sizes = np.sort(lognormal_sizes(num_files, mean_file_bytes, 1.6, rng))
    noise = rng.standard_normal(num_files) * 1.0
    pmf = ZipfDistribution(num_files, alpha).pmf

    def assignment(theta):
        order = np.argsort(theta * np.log(sizes) + noise, kind="stable")
        ranked = np.empty_like(sizes)
        ranked[:] = sizes[order]
        return ranked

    def weighted_mean(theta):
        return float(pmf @ assignment(theta))

    target = float(mean_request_bytes)
    lo, hi = -8.0, 8.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if weighted_mean(mid) > target:
            lo = mid
        else:
            hi = mid
    r_lo = assignment(lo).astype(np.float64)
    r_hi = assignment(hi).astype(np.float64)
    m_lo, m_hi = float(pmf @ r_lo), float(pmf @ r_hi)
    if abs(m_lo - m_hi) < 1e-12:
        w = 0.0
    else:
        w = min(1.0, max(0.0, (m_lo - target) / (m_lo - m_hi)))
    ranked = (1.0 - w) * r_lo + w * r_hi
    return np.maximum(1, np.round(ranked)).astype(np.int64)


@pytest.mark.parametrize("name", ["calgary", "clarknet", "nasa", "rutgers"])
def test_build_fileset_matches_the_plain_sort_calibration(name):
    p = preset(name)
    args = (p.num_files, p.avg_file_kb * 1024, p.avg_request_kb * 1024, p.alpha)
    for seed in [*range(40), 2027]:
        fs = build_fileset(*args, seed=seed)
        assert np.array_equal(fs.sizes, _reference_sizes(*args, seed)), seed


def test_tilt_ranker_falls_back_to_the_plain_sort_on_a_tie():
    # Files 0 and 2 share a noise value, so their scores tie at theta = 0;
    # at theta = -1 the larger file 2 ranks first.  Warm-starting from
    # that order would keep 2 ahead of 0, where a plain stable sort puts
    # the lower index first.
    sizes = np.array([64, 128, 256, 512])
    noise = np.array([0.5, 0.1, 0.5, -0.3])
    ranker = _TiltRanker(sizes, noise)
    prev = ranker.order(-1.0)
    assert list(prev) == [3, 2, 1, 0]
    warm = prev[np.argsort(noise[prev], kind="stable")]
    plain = np.argsort(noise, kind="stable")
    assert list(warm) != list(plain)
    assert list(ranker.order(0.0)) == list(plain)
    # Tie-free tilts take the warm start and agree with a plain sort too.
    for theta in (0.25, 2.0, -3.0):
        scores = theta * np.log(sizes) + noise
        assert list(ranker.order(theta)) == list(np.argsort(scores, kind="stable"))
