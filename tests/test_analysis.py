"""Binned analysis tests: errors, subtraction, mistag correction, I/O."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flavourasym.analysis import (WRONG_TAG_ERROR, AsymmetrySpectrum,
                                  BinnedCounts, Binning, asymmetry, bin_events,
                                  expected_background_counts,
                                  mistag_correct_counts, mistag_systematic,
                                  read_counts, read_spectrum,
                                  subtract_background, write_counts,
                                  write_spectrum)
from flavourasym.models import ModelParams
from flavourasym.toygen import (BACKGROUND_CATEGORIES, BackgroundConfig,
                                BackgroundShape, CategoryYield,
                                DetectorConfig, GenModel, make_signal_events,
                                stream_rng)
from flavourasym.unfold import dsvd_unfold
from oracles import (bootstrap_error, per_class_asymmetry,
                     per_class_background, per_class_mistag,
                     per_class_subtraction, stacked)

TWO_BIN = Binning((0.0, 1.0, 2.0))


def fixture_text():
    from flavourasym.cli import fixture_path
    return fixture_path().read_text()


def counts_2(n_of, n_sf, **kw):
    return BinnedCounts(TWO_BIN, [n_of, n_sf], **kw)


class TestBinnedCounts:
    def test_counts_shape_checked(self):
        with pytest.raises(ValueError, match="counts of shape"):
            BinnedCounts(TWO_BIN, [1.0, 2.0])

    def test_variance_shape_refused(self):
        # one variance would broadcast to every bin of both classes
        n_of, n_sf = np.full(11, 30.0), np.full(11, 20.0)
        with pytest.raises(ValueError, match="variances of shape"):
            BinnedCounts(Binning(), [n_of, n_sf], [5.0])
        with pytest.raises(ValueError, match="variances of shape"):
            BinnedCounts(Binning(), [n_of, n_sf], [n_of])

    def test_negative_variance_refused(self):
        # it would reach the square root of the asymmetry's error
        with pytest.raises(ValueError, match="negative variance"):
            BinnedCounts(Binning((0.0, 1.0)), [[3.4], [-0.6]])
        with pytest.raises(ValueError, match="negative variance"):
            counts_2([3.0, 4.0], [5.0, 6.0], var=[[3.0, 4.0], [5.0, -1e-300]])

    def test_swapped_rows_swap_the_classes(self):
        c = counts_2([75.0, 50.0], [25.0, 50.0])
        swapped = BinnedCounts(TWO_BIN, c.n[::-1], c.var[::-1])
        np.testing.assert_array_equal(asymmetry(swapped).a, -asymmetry(c).a)

    def test_bin_lists_of_a_stack_are_bin_indices(self):
        """On a stack, a bin is listed once when any row qualifies: row 0
        has a negative OF count in bin 3, row 1 a negative total in bin 7
        (flat positions would read 3 and 18)."""
        n = np.full((2, 2, 11), 10.0)
        n[0, 0, 3] = -1.0
        n[1, :, 7] = -5.0
        stack = BinnedCounts(Binning(), n, np.ones_like(n))
        np.testing.assert_array_equal(stack.negative_bins, [3, 7])
        np.testing.assert_array_equal(stack.degenerate_bins, [7])
        for row, negative, degenerate in zip(n, ([3], [7]), ([], [7])):
            alone = BinnedCounts(Binning(), row, np.ones_like(row))
            np.testing.assert_array_equal(alone.negative_bins, negative)
            np.testing.assert_array_equal(alone.degenerate_bins, degenerate)


class TestBinning:
    def test_defaults(self):
        b = Binning()
        assert b.n_bins == 11
        assert b.array[0] == 0.0 and b.array[-1] == 20.0

    @pytest.mark.parametrize("edges", [(1.0,), (0.0, 1.0, 1.0),
                                       (2.0, 1.0), (-1.0, 0.0)])
    def test_validation(self, edges):
        with pytest.raises(ValueError):
            Binning(edges)


class TestAsymmetry:
    def test_binomial_error(self):
        # 75 OF / 25 SF: a = 0.5, err = 2 sqrt(75*25/100^3) = 0.0866
        spec = asymmetry(counts_2([75.0, 50.0], [25.0, 50.0]))
        assert spec.a[0] == pytest.approx(0.5)
        assert spec.stat_err[0] == pytest.approx(0.08660, abs=1e-4)
        assert spec.a[1] == pytest.approx(0.0)
        assert spec.stat_err[1] == pytest.approx(0.1, abs=1e-10)

    def test_error_formula_matches_binomial(self):
        for n_of, n_sf in [(10, 90), (500, 1), (33, 67)]:
            spec = asymmetry(counts_2([n_of, 1.0], [n_sf, 1.0]))
            n = n_of + n_sf
            assert spec.stat_err[0] == pytest.approx(
                2.0 * np.sqrt(n_of * n_sf / n ** 3), rel=1e-12)

    @pytest.mark.parametrize("n_of, n_sf", [(0.0, 0.0), (1.5, -2.0),
                                            (-0.5, 0.0), (0.0, -3.0)],
                             ids=["empty", "sf_below", "of_negative",
                                  "sf_negative"])
    @pytest.mark.parametrize("k", [0, 1], ids=["bin_1", "bin_2"])
    def test_degenerate_bin_reads_zero_plus_minus_one(self, n_of, n_sf, k):
        # a bin whose total is <= 0 holds no asymmetry: one trial at
        # p = 1/2, a = 0 +- 1; the other bin reads as it does alone
        n = np.array([[75.0, 75.0], [25.0, 25.0]])
        n[:, k] = n_of, n_sf
        c = counts_2(*n, var=np.abs(n))
        spec = asymmetry(c)
        assert spec.a[k] == 0.0 and spec.stat_err[k] == 1.0
        np.testing.assert_array_equal(c.degenerate_bins, [k])
        full = asymmetry(counts_2([75.0, 75.0], [25.0, 25.0]))
        assert spec.a[1 - k] == full.a[0]
        assert spec.stat_err[1 - k] == full.stat_err[0]

    def test_degenerate_bin_bootstrap(self):
        # one empty class: the propagated binomial error is spuriously 0,
        # the degenerate-bin width (the bootstrap's spread) is not
        spec = asymmetry(counts_2([40.0, 10.0], [0.0, 10.0]))
        assert spec.a[0] == pytest.approx(1.0)
        assert spec.stat_err[0] > 0.0

    def test_bootstrap_error_scale(self):
        # n=40 all-OF: the error is near the rule-of-succession binomial
        # width that the bootstrap in tests/oracles.py samples
        spec = asymmetry(counts_2([40.0, 10.0], [0.0, 10.0]))
        n, p = 40, 41.0 / 42.0
        expected = 2.0 * np.sqrt(p * (1.0 - p) / n)
        assert spec.stat_err[0] == pytest.approx(expected, rel=0.2)

    @pytest.mark.parametrize("n_of, n_sf, n, p", [
        (40.0, 0.0, 40, 41.0 / 42.0), (0.0, 25.0, 25, 1.0 / 27.0),
        (30.4, -2.3, 28, 29.0 / 30.0), (-0.6, 7.4, 7, 1.0 / 9.0),
        (7.6, 0.0, 8, 9.0 / 10.0), (0.3, 0.0, 1, 2.0 / 3.0),
    ], ids=["of_only", "sf_only", "sf_negative", "of_negative",
            "non_integer", "below_half"])
    def test_degenerate_bin_closed_form(self, n_of, n_sf, n, p):
        # one class empty or below zero: the propagated error would be 0,
        # so the bin gets the binomial width of n = max(round(tot), 1)
        # trials at the rule-of-succession p; the other bin keeps the
        # propagated error
        spec = asymmetry(counts_2([n_of, 60.0], [n_sf, 40.0],
                                  var=np.abs([[n_of, 60.0], [n_sf, 40.0]])))
        assert spec.a[0] == pytest.approx((n_of - n_sf) / (n_of + n_sf),
                                          rel=1e-12)
        assert spec.stat_err[0] == pytest.approx(
            2.0 * np.sqrt(p * (1.0 - p) / n), rel=1e-12)
        assert spec.stat_err[1] == 2.0 / 100.0 ** 2 * np.sqrt(
            40.0 ** 2 * 60.0 + 60.0 ** 2 * 40.0)

    @pytest.mark.parametrize("n_of, n_sf", [(40.0, 0.0), (0.0, 3.0),
                                            (12.2, -1.5), (0.3, 0.0)],
                             ids=["of_only", "sf_only", "sf_negative",
                                  "below_half"])
    def test_degenerate_bin_matches_bootstrap_oracle(self, n_of, n_sf):
        spec = asymmetry(counts_2([n_of, 10.0], [n_sf, 10.0],
                                  var=np.abs([[n_of, 10.0], [n_sf, 10.0]])))
        assert spec.stat_err[0] == pytest.approx(
            bootstrap_error(n_of, n_of + n_sf, draws=1_000_000), rel=0.01)


class TestSubtraction:
    def test_paper_scale_totals(self):
        # 6718 OF / 1847 SF observed minus the configured expectations
        b = BackgroundConfig.paper_scale()
        binning = Binning()
        n_bins = binning.n_bins
        raw = BinnedCounts(binning, [np.full(n_bins, 6718.0 / n_bins),
                                     np.full(n_bins, 1847.0 / n_bins)])
        out, syst = subtract_background(raw, b)
        assert out.n[0].sum() == pytest.approx(6718.0 - 458.0, abs=1e-9)
        assert out.n[1].sum() == pytest.approx(1847.0 - 292.5, abs=1e-9)
        assert np.all(syst >= 0.0) and np.any(syst > 0.0)

    def test_zero_background_noop(self):
        raw = counts_2([100.0, 50.0], [20.0, 30.0])
        out, syst = subtract_background(raw, BackgroundConfig())
        np.testing.assert_array_equal(out.n[0], raw.n[0])
        np.testing.assert_array_equal(out.n[1], raw.n[1])
        np.testing.assert_array_equal(syst, 0.0)

    def test_variance_inflated_by_yield_errors(self):
        b = BackgroundConfig.paper_scale()
        binning = Binning()
        raw = BinnedCounts(binning, [np.full(11, 600.0), np.full(11, 170.0)])
        out, _ = subtract_background(raw, b)
        assert np.all(out.var[0] >= raw.var[0])
        assert np.any(out.var[0] > raw.var[0])

    def test_expected_counts_sum_to_yields(self):
        b = BackgroundConfig.paper_scale()
        (exp_of, exp_sf), _ = expected_background_counts(b, Binning())
        assert exp_of.sum() == pytest.approx(458.0, abs=1e-9)
        assert exp_sf.sum() == pytest.approx(292.5, abs=1e-9)

    def test_negative_bins_flagged_not_clamped(self):
        raw = counts_2([1.0, 100.0], [1.0, 100.0])
        out, _ = subtract_background(raw, BackgroundConfig.paper_scale())
        assert np.any(out.n[0] < 0)
        assert 0 in out.negative_bins


def diluted_counts(a_true, w, n=1000.0):
    """Counts whose observed asymmetry is a_true diluted by (1 - 2w)."""
    a_obs = np.asarray(a_true, float) * (1.0 - 2.0 * w)
    return counts_2(n * (1.0 + a_obs) / 2.0, n * (1.0 - a_obs) / 2.0)


class TestMistag:
    def test_dilution_inverse(self):
        # flipping each tag with probability w undoes the correction
        w = 0.015
        c = counts_2([700.0, 90.0], [300.0, 110.0])
        out = mistag_correct_counts(c, w)
        np.testing.assert_allclose((1 - w) * out.n[0] + w * out.n[1], c.n[0],
                                   rtol=1e-12)
        np.testing.assert_allclose((1 - w) * out.n[1] + w * out.n[0], c.n[1],
                                   rtol=1e-12)

    def test_observed_097_recovers_unity(self):
        c = counts_2([985.0, 500.0], [15.0, 500.0])   # a_obs = 0.97, 0
        out = asymmetry(mistag_correct_counts(c, 0.015))
        assert out.a[0] == pytest.approx(1.0, abs=1e-12)
        assert out.a[1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_w_identity(self):
        c = counts_2([700.0, 90.0], [300.0, 110.0], var=[[690.0, 95.0],
                                                          [310.0, 100.0]])
        out = mistag_correct_counts(c, 0.0)
        np.testing.assert_array_equal(out.n, c.n)
        np.testing.assert_array_equal(out.var, c.var)

    def test_count_level_equivalence(self):
        # the corrected asymmetry is the observed one over (1 - 2w), and
        # the OF+SF total is preserved
        c = counts_2([700.0, 90.0], [300.0, 110.0])
        w = 0.08
        out = mistag_correct_counts(c, w)
        np.testing.assert_allclose(asymmetry(out).a,
                                   asymmetry(c).a / (1.0 - 2.0 * w),
                                   atol=1e-12)
        np.testing.assert_allclose(out.n[0] + out.n[1], c.n[0] + c.n[1],
                                   atol=1e-9)

    def test_invalid_w(self):
        c = counts_2([10.0, 10.0], [10.0, 10.0])
        spec = AsymmetrySpectrum(TWO_BIN, np.zeros(2), np.ones(2))
        for w in (-0.01, 0.5, 0.7):
            with pytest.raises(ValueError):
                mistag_correct_counts(c, w)
            with pytest.raises(ValueError):
                mistag_systematic(spec, w)

    def test_w_error_systematic(self):
        spec = AsymmetrySpectrum(TWO_BIN, np.array([0.8, -0.6]),
                                 np.array([0.1, 0.1]))
        syst = mistag_systematic(spec, 0.015)
        assert np.all(syst > 0.0)
        # the larger shift is the one towards w + w_err
        a_obs = spec.a * (1.0 - 2.0 * 0.015)
        np.testing.assert_allclose(
            syst, np.abs(a_obs / (1.0 - 2.0 * (0.015 + WRONG_TAG_ERROR))
                         - spec.a), rtol=1e-12)

    @pytest.mark.parametrize("w, w_up, w_dn", [(0.002, 0.007, 0.0),
                                               (0.498, 0.499999, 0.493)])
    def test_systematic_clamps(self, w, w_up, w_dn):
        spec = AsymmetrySpectrum(TWO_BIN, np.array([0.8, -0.6]),
                                 np.array([0.1, 0.1]))
        syst = mistag_systematic(spec, w)
        assert np.all(np.isfinite(syst))
        a_obs = spec.a * (1.0 - 2.0 * w)
        shifts = [np.abs(a_obs / (1.0 - 2.0 * v) - spec.a)
                  for v in (w_up, w_dn)]
        np.testing.assert_allclose(syst, np.maximum(*shifts), rtol=1e-9)


class TestBinEvents:
    def test_overflow_kept_aside(self):
        ev = make_signal_events(GenModel.QM, ModelParams(), 20000,
                                DetectorConfig(), stream_rng(3, 0))
        c = bin_events(ev["dt_rec_ps"], ev["cls_assigned"],
                       Binning((0.0, 1.0, 2.0)))
        in_total = c.n[0].sum() + c.n[1].sum()
        assert in_total + c.overflow[0] + c.overflow[1] == len(ev)
        assert c.overflow[0] > 0

    def test_in_range_rule_is_numpy_histogram(self):
        # every edge, every midpoint, just past the last edge and far out:
        # an event on the last edge is binned, not counted as overflow
        binning = Binning()
        e = binning.array
        values = np.concatenate([e, 0.5 * (e[1:] + e[:-1]), [20.5, 1e3]])
        dt = np.concatenate([values, values])
        cls = np.repeat(np.array([0, 1], dtype=np.int8), len(values))
        c = bin_events(dt, cls, binning)
        np.testing.assert_array_equal(c.n[0], np.histogram(values, e)[0])
        np.testing.assert_array_equal(c.n[1], np.histogram(values, e)[0])
        assert c.n[0].sum() == len(e) + len(e) - 1          # 23 binned
        assert c.overflow[0] == c.overflow[1] == 2
        assert (c.n[0].sum() + c.n[1].sum() + c.overflow[0]
                + c.overflow[1]) == len(dt)


@st.composite
def edges_and_values(draw):
    """A binning of 2 to 200 edges, and values on and beside them: every
    edge and its `np.nextafter` neighbours, values below and above the
    range, +-inf, NaN and arbitrary floats."""
    n = draw(st.integers(2, 200))
    start = draw(st.floats(0.0, 100.0))
    steps = draw(hnp.arrays(float, n - 1, elements=st.floats(1e-3, 10.0)))
    binning = Binning(tuple(start + np.concatenate([[0.0], np.cumsum(steps)])))
    e = binning.array
    return binning, np.concatenate([
        e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
        [e[0] - 1.0, e[-1] + 1.0, -np.inf, np.inf, np.nan],
        draw(hnp.arrays(float, st.integers(0, 50)))])


@given(case=edges_and_values())
@settings(max_examples=200, deadline=None)
def test_index_is_searchsorted_and_closed_bins_are_histogram(case):
    # searchsorted's count, except that the last edge is in the last bin
    binning, x = case
    e = binning.array
    want = np.searchsorted(e, x, side="right")
    want[x == e[-1]] = len(e) - 1
    np.testing.assert_array_equal(binning.index(x), want)
    bins = np.bincount(binning.index(x), minlength=len(e) + 1)
    np.testing.assert_array_equal(bins[1:-1], np.histogram(x, e)[0])


def test_index_counts_past_a_byte_of_edges():
    binning = Binning(tuple(np.arange(300.0)))
    x = np.array([-1.0, 0.0, 254.5, 255.0, 298.5, 299.0, 1e9, np.nan])
    np.testing.assert_array_equal(binning.index(x),
                                  [0, 1, 255, 256, 299, 299, 300, 300])


@given(case=edges_and_values(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_bin_events_overflow_is_what_histogram_leaves_out(case, data):
    binning, dt = case
    cls = data.draw(hnp.arrays(np.int8, len(dt), elements=st.integers(0, 1)))
    c = bin_events(dt, cls, binning)
    for n, overflow, code in zip(c.n, c.overflow, (0, 1)):
        in_bins = np.histogram(dt[cls == code], binning.array)[0]
        np.testing.assert_array_equal(n, in_bins)
        assert type(overflow) is int
        assert overflow == np.count_nonzero(cls == code) - in_bins.sum()


class TestSystematics:
    def test_quadrature_combination(self):
        spec = AsymmetrySpectrum(
            TWO_BIN, np.zeros(2), np.full(2, 0.1),
            {"s1": np.array([0.03, 0.04]), "s2": np.array([0.04, 0.03])})
        np.testing.assert_allclose(spec.syst_err, [0.05, 0.05], atol=1e-15)
        np.testing.assert_allclose(
            spec.total_err, np.hypot([0.1, 0.1], [0.05, 0.05]), atol=1e-15)

    def test_a_stack_takes_each_replica_in_quadrature(self):
        """Each row of a stack combines its own sources, bit for bit as
        that spectrum alone."""
        s1 = np.array([[0.03, 0.04], [0.3, 0.4]])
        s2 = np.array([[0.04, 0.03], [0.01, 0.2]])
        stack = AsymmetrySpectrum(TWO_BIN, np.zeros((2, 2)),
                                  np.full((2, 2), 0.1), {"s1": s1, "s2": s2})
        assert stack.syst_err.shape == (2, 2)
        for r1, r2, err in zip(s1, s2, stack.syst_err):
            alone = AsymmetrySpectrum(TWO_BIN, np.zeros(2), np.full(2, 0.1),
                                      {"s1": r1, "s2": r2})
            assert err.tobytes() == alone.syst_err.tobytes()
        one = asymmetry(BinnedCounts(Binning(), np.full((2, 2, 11), 50.0)))
        np.testing.assert_array_equal(
            one.with_syst("x", np.full((2, 11), 0.1)).syst_err,
            np.full((2, 11), 0.1))

    def test_with_syst_is_pure(self):
        spec = AsymmetrySpectrum(TWO_BIN, np.zeros(2), np.ones(2))
        out = spec.with_syst("x", [0.1, 0.2])
        assert not spec.syst_breakdown
        assert "x" in out.syst_breakdown


class TestSpectrumImmutable:
    def spec(self):
        return AsymmetrySpectrum(TWO_BIN, np.array([0.5, -0.2]),
                                 np.full(2, 0.1),
                                 {"s1": np.array([0.03, 0.04])})

    def test_attributes_frozen(self):
        spec = self.spec()
        for name in ("a", "stat_err", "syst_breakdown", "binning"):
            with pytest.raises(FrozenInstanceError):
                setattr(spec, name, getattr(spec, name))

    def test_arrays_read_only_copies(self):
        a, err, s1 = np.array([0.5, -0.2]), np.full(2, 0.1), np.full(2, 0.03)
        spec = AsymmetrySpectrum(TWO_BIN, a, err, {"s1": s1})
        for arr in (spec.a, spec.stat_err, spec.syst_breakdown["s1"],
                    spec.syst_err, spec.total_err):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        a[0], err[0], s1[0] = 9.0, 9.0, 9.0     # the caller's arrays
        assert (spec.a[0], spec.stat_err[0], spec.syst_breakdown["s1"][0]) == (
            0.5, 0.1, 0.03)

    def test_breakdown_mapping_read_only(self):
        spec = self.spec()
        with pytest.raises(TypeError):
            spec.syst_breakdown["s2"] = np.zeros(2)
        with pytest.raises(TypeError):
            del spec.syst_breakdown["s1"]

    def test_with_syst_leaves_original(self):
        spec = self.spec()
        total = spec.total_err.copy()
        out = spec.with_syst("s2", [0.05, 0.05])
        assert list(spec.syst_breakdown) == ["s1"]
        assert list(out.syst_breakdown) == ["s1", "s2"]
        np.testing.assert_array_equal(spec.total_err, total)
        assert np.all(out.total_err > total)

    def test_errors_computed_once(self):
        spec = self.spec()
        assert spec.total_err is spec.total_err
        assert spec.syst_err is spec.syst_err
        np.testing.assert_array_equal(
            spec.total_err, np.sqrt(spec.stat_err ** 2 + spec.syst_err ** 2))

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_errors_valid(self, bad):
        assert self.spec().errors_valid
        spec = AsymmetrySpectrum(TWO_BIN, np.zeros(2), np.array([0.1, bad]))
        assert not spec.errors_valid


class TestSpectrumIO:
    def test_round_trip_with_breakdown(self, tmp_path):
        spec = AsymmetrySpectrum(
            Binning(), np.linspace(-1, 1, 11), np.full(11, 0.05),
            {"deconvolution": np.full(11, 0.02),
             "wrong_tags": np.linspace(0.01, 0.03, 11)})
        path = tmp_path / "spec.csv"
        write_spectrum(spec, path)
        back = read_spectrum(path)
        np.testing.assert_allclose(back.a, spec.a, rtol=1e-8)
        np.testing.assert_allclose(back.stat_err, spec.stat_err, rtol=1e-8)
        assert set(back.syst_breakdown) == set(spec.syst_breakdown)
        np.testing.assert_allclose(back.total_err, spec.total_err, rtol=1e-7)

    def test_fixture_parses(self):
        from flavourasym.cli import fixture_path
        spec = read_spectrum(fixture_path())
        assert spec.binning.n_bins == 11
        assert spec.a[0] == pytest.approx(1.013)
        assert spec.stat_err[-1] == pytest.approx(0.240)
        assert set(spec.syst_breakdown) == {
            "background_subtraction", "deconvolution", "event_selection",
            "wrong_tags"}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_spectrum(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda t: t.replace(",0.916,", ",nan,"), "non-finite"),
        (lambda t: t.replace("3,1,2,", "3,1.5,2,"), "contiguous"),
        (lambda t: t.replace("\n4,2,3,", "\n5,2,3,"), "numbered"),
        (lambda t: t.rsplit(",", 1)[0] + "\n", "fields"),
        (lambda t: t.split("\n")[0] + "\n", "no data rows"),
        (lambda t: t.replace("wrong_tags", "deconvolution"), "header"),
    ])
    def test_malformed_rejected(self, tmp_path, edit, match):
        path = tmp_path / "spec.csv"
        path.write_text(edit(fixture_text()))
        with pytest.raises(ValueError, match=match):
            read_spectrum(path)

    def test_counts_round_trip(self, tmp_path):
        c = BinnedCounts(Binning(),
                         [np.linspace(1, 50, 11), np.linspace(60, 2, 11)],
                         [np.full(11, 3.5), np.full(11, 0.25)])
        path = tmp_path / "counts.csv"
        write_counts(c, path)
        back = read_counts(path)
        assert back.binning.array == pytest.approx(c.binning.array)
        for f in ("n", "var"):
            np.testing.assert_allclose(getattr(back, f), getattr(c, f),
                                       rtol=1e-8)


@given(n_of=st.integers(1, 10000), n_sf=st.integers(1, 10000))
@settings(max_examples=200, deadline=None)
def test_asymmetry_bounds_property(n_of, n_sf):
    spec = asymmetry(counts_2([float(n_of), 1.0], [float(n_sf), 1.0]))
    assert -1.0 <= spec.a[0] <= 1.0
    assert spec.stat_err[0] >= 0.0


@given(w=st.floats(0.0, 0.45), a=st.floats(-0.5, 0.5))
@settings(max_examples=100, deadline=None)
def test_mistag_round_trip_property(w, a):
    c = diluted_counts([a, a], w)
    out = mistag_correct_counts(c, w)
    # the correction recovers the undiluted asymmetry and keeps the total
    np.testing.assert_allclose(asymmetry(out).a, [a, a], atol=1e-12)
    np.testing.assert_allclose(out.n[0] + out.n[1], c.n[0] + c.n[1],
                               rtol=1e-12)


@st.composite
def class_axis_case(draw):
    """(2, n_bins) counts with zero and negative bins, their variances,
    three background categories of drawn yields and shapes, a mistag
    fraction and an unfolding map."""
    shape = (2, Binning().n_bins)
    # no magnitude in (0, 1e-3), whose square in a subtracted bin could
    # underflow to zero
    n = draw(hnp.arrays(float, shape, elements=st.one_of(
        st.just(0.0), st.integers(-50, 10_000).map(float),
        st.floats(1e-3, 1e5), st.floats(-1e3, -1e-3))))
    var = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1e5)))
    yields = {cat: CategoryYield(
        *draw(st.tuples(*[st.just(0.0) | st.floats(1e-3, 1e3)] * 4)),
        BackgroundShape(draw(st.sampled_from(["exp", "flat"])),
                        draw(st.floats(0.1, 20.0))))
        for cat in BACKGROUND_CATEGORIES}
    w = draw(st.floats(0.0, 0.49))
    lin = np.random.default_rng(draw(st.integers(0, 2 ** 32))).normal(
        size=(2 * shape[1], 2 * shape[1]))
    return BinnedCounts(Binning(), n, var), BackgroundConfig(yields), w, lin


@given(case=class_axis_case())
@settings(max_examples=200, deadline=None)
def test_class_axis_formulas_are_the_per_class_ones_bit_for_bit(case):
    c, b, w, lin = case
    per_class = (*c.n, *c.var)
    exp, var = expected_background_counts(b, c.binning)
    ref = per_class_background(b, c.binning)
    for got, want in zip((*exp, *var), ref):
        assert np.array_equal(got, want)

    out, syst = subtract_background(c, b)
    ref, ref_syst = per_class_subtraction(*per_class, b, c.binning)
    for got, want in zip((*out.n, *out.var), ref):
        assert np.array_equal(got, want)
    assert np.array_equal(syst, ref_syst)
    assert out.overflow == c.overflow

    out = mistag_correct_counts(c, w)
    for got, want in zip((*out.n, *out.var), per_class_mistag(*per_class, w)):
        assert np.array_equal(got, want)

    positive = BinnedCounts(c.binning, np.abs(c.n) + 1.0, c.var)
    spec = asymmetry(positive)
    a, err = per_class_asymmetry(*positive.n, *positive.var)
    assert np.array_equal(spec.a, a) and np.array_equal(spec.stat_err, err)

    # each unfolded count, variance and cross term is one row's
    # product-sum over the stacked (OF, SF) input
    x, cross = dsvd_unfold(c, lin)
    y, var_y = stacked(c)
    nb = c.binning.n_bins
    for i, row in enumerate(lin):
        assert x.n.reshape(-1)[i] == (y * row).sum()
        assert x.var.reshape(-1)[i] == (var_y * row * row).sum()
    for k in range(nb):
        assert cross[k] == (var_y * lin[k] * lin[nb + k]).sum()

    # in a stack of spectra each row keeps its classes and its bits; the
    # second row is not the first with its classes swapped, so a swap of
    # the rows shows
    rows = [c, BinnedCounts(c.binning, 2.0 * c.n[:, ::-1] + 1.0,
                            c.var[:, ::-1])]
    pair = BinnedCounts(c.binning, np.stack([r.n for r in rows]),
                        np.stack([r.var for r in rows]))
    sub, syst = subtract_background(pair, b)
    mis = mistag_correct_counts(pair, w)
    spec = asymmetry(pair)
    x, cross = dsvd_unfold(pair, lin)
    for j, row in enumerate(rows):
        sub_j, syst_j = subtract_background(row, b)
        mis_j = mistag_correct_counts(row, w)
        spec_j = asymmetry(row)
        x_j, cross_j = dsvd_unfold(row, lin)
        for got, want in ((sub.n[j], sub_j.n), (sub.var[j], sub_j.var),
                          (syst[j], syst_j), (mis.n[j], mis_j.n),
                          (mis.var[j], mis_j.var), (spec.a[j], spec_j.a),
                          (spec.stat_err[j], spec_j.stat_err),
                          (x.n[j], x_j.n), (x.var[j], x_j.var),
                          (cross[j], cross_j)):
            assert np.array_equal(got, want)
