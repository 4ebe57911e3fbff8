"""Unfolding tests: response construction, mixing, the truncated solver,
covariance propagation, and the ensemble bias correction."""

import numpy as np
import pytest

from flavourasym.analysis import BinnedCounts, Binning
from flavourasym.unfold import (ResponseMatrix, UnfoldConfig, bias_correct,
                                build_response, dsvd_unfold, mix_responses,
                                read_response, truncated_solver,
                                unfolded_asymmetry, write_response)

NB = Binning().n_bins
RNG = np.random.default_rng(202)


def random_response(rng, cls="OF", diag=8.0, scale=1000.0):
    """Diagonally dominant migration counts with positive truth totals."""
    m = rng.uniform(0.2, 1.0, (NB, NB)) + diag * np.eye(NB)
    m *= scale
    totals = m.sum(axis=0) / rng.uniform(0.6, 0.9, NB)
    return ResponseMatrix(Binning(), m, totals, cls=cls)


def identity_response(eff=1.0, n=1000.0):
    m = n * eff * np.eye(NB)
    return ResponseMatrix(Binning(), m, np.full(NB, n))


class TestResponseMatrix:
    def test_efficiency_normalized(self):
        r = identity_response(eff=0.5)
        np.testing.assert_allclose(r.efficiency_normalized, 0.5 * np.eye(NB))

    def test_negative_entries_rejected(self):
        m = -np.eye(NB)
        with pytest.raises(ValueError):
            ResponseMatrix(Binning(), m, np.ones(NB))

    def test_efficiency_above_one_rejected(self):
        with pytest.raises(ValueError, match="efficiency"):
            ResponseMatrix(Binning(), 2.0 * np.eye(NB), np.ones(NB))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            ResponseMatrix(Binning(), np.eye(NB - 1), np.ones(NB - 1))

    def test_doubling_statistics_invariant(self):
        r = random_response(np.random.default_rng(5))
        r2 = ResponseMatrix(r.binning, 2.0 * r.m, 2.0 * r.truth_totals)
        np.testing.assert_allclose(r2.efficiency_normalized,
                                   r.efficiency_normalized, rtol=1e-12)


class TestMixing:
    CFG = UnfoldConfig()

    def test_round_trip(self):
        # equal responses solved at full rank: de-mixing undoes the mixing,
        # so each class is only corrected for the efficiency
        eff = 0.7
        r = identity_response(eff=eff)
        cfg = UnfoldConfig(rank_of=NB, rank_sf=NB)
        counts = BinnedCounts(Binning(), RNG.uniform(0, 100, NB),
                              RNG.uniform(0, 100, NB))
        x, cov = dsvd_unfold(counts, r, r, cfg)
        np.testing.assert_allclose(x.n_of, counts.n_of / eff, atol=1e-10)
        np.testing.assert_allclose(x.n_sf, counts.n_sf / eff, atol=1e-10)
        np.testing.assert_allclose(
            cov,
            np.diag(np.concatenate([counts.var_of, counts.var_sf])) / eff ** 2,
            atol=1e-10)

    def test_zero_mixing_identity(self):
        cfg = UnfoldConfig(mix_s=0.0, mix_o=0.0)
        r_of = random_response(np.random.default_rng(9), "OF")
        r_sf = random_response(np.random.default_rng(10), "SF")
        of_m, sf_m = mix_responses(r_of, r_sf, cfg)
        np.testing.assert_array_equal(of_m.m, r_of.m)
        np.testing.assert_array_equal(of_m.truth_totals, r_of.truth_totals)
        np.testing.assert_array_equal(sf_m.m, r_sf.m)
        np.testing.assert_array_equal(sf_m.truth_totals, r_sf.truth_totals)
        counts = BinnedCounts(Binning(), RNG.uniform(50, 500, NB),
                              RNG.uniform(50, 500, NB))
        x, cov = dsvd_unfold(counts, r_of, r_sf, cfg)
        np.testing.assert_allclose(
            x.n_of, truncated_solver(r_of, cfg.rank_of) @ counts.n_of,
            rtol=1e-12)
        np.testing.assert_allclose(
            x.n_sf, truncated_solver(r_sf, cfg.rank_sf) @ counts.n_sf,
            rtol=1e-12)
        np.testing.assert_array_equal(cov[:NB, NB:], np.zeros((NB, NB)))

    def test_jacobian_matches_demix(self):
        # per-class efficiencies make the two full-rank solvers different
        # multiples of the identity, k = (1 + s) / (e_of + s e_sf) and
        # (1 + o) / (e_sf + o e_of); the estimator is then the scalar
        # de-mixing (u - s v, v - o u) / (1 - s o) of the solved mixed
        # counts u = k_of (of + s sf), v = k_sf (sf + o of) in every bin
        s, o = self.CFG.mix_s, self.CFG.mix_o
        e_of, e_sf = 0.8, 0.5
        k_of = (1 + s) / (e_of + s * e_sf)
        k_sf = (1 + o) / (e_sf + o * e_of)

        def demix(of, sf):
            u, v = k_of * (of + s * sf), k_sf * (sf + o * of)
            return (u - s * v) / (1 - s * o), (v - o * u) / (1 - s * o)

        cfg = UnfoldConfig(rank_of=NB, rank_sf=NB, mix_s=s, mix_o=o)
        of = RNG.uniform(50, 500, NB)
        sf = RNG.uniform(50, 500, NB)
        var_of = RNG.uniform(20, 600, NB)
        var_sf = RNG.uniform(20, 600, NB)
        x, cov = dsvd_unfold(
            BinnedCounts(Binning(), of, sf, var_of, var_sf),
            identity_response(eff=e_of), identity_response(eff=e_sf), cfg)
        of_b, sf_b = demix(of, sf)
        np.testing.assert_allclose(x.n_of, of_b, rtol=1e-10)
        np.testing.assert_allclose(x.n_sf, sf_b, rtol=1e-10)
        (j_oo, j_so), (j_os, j_ss) = demix(1.0, 0.0), demix(0.0, 1.0)
        np.testing.assert_allclose(np.diag(cov)[:NB],
                                   j_oo ** 2 * var_of + j_os ** 2 * var_sf,
                                   rtol=1e-10)
        np.testing.assert_allclose(np.diag(cov)[NB:],
                                   j_so ** 2 * var_of + j_ss ** 2 * var_sf,
                                   rtol=1e-10)
        np.testing.assert_allclose(np.diag(cov, NB),
                                   j_oo * j_so * var_of + j_os * j_ss * var_sf,
                                   rtol=1e-10)

    def test_singular_mixing_rejected(self):
        with pytest.raises(ValueError):
            UnfoldConfig(mix_s=1.0, mix_o=1.0)

    def test_mix_responses_consistent(self):
        r_of = random_response(np.random.default_rng(7), "OF")
        r_sf = random_response(np.random.default_rng(8), "SF")
        of_m, sf_m = mix_responses(r_of, r_sf, self.CFG)
        np.testing.assert_allclose(
            of_m.m, r_of.m + self.CFG.mix_s * r_sf.m, rtol=1e-12)
        np.testing.assert_allclose(
            sf_m.truth_totals,
            r_sf.truth_totals + self.CFG.mix_o * r_of.truth_totals,
            rtol=1e-12)


class TestTruncatedSolver:
    def test_identity_full_rank(self):
        k = truncated_solver(identity_response(), NB)
        np.testing.assert_allclose(k, np.eye(NB), atol=1e-10)

    def test_full_rank_is_inverse(self):
        r = random_response(np.random.default_rng(11))
        k = truncated_solver(r, NB)
        np.testing.assert_allclose(k @ r.efficiency_normalized, np.eye(NB),
                                   atol=1e-8)

    def test_prior_shape_exact_at_any_rank(self):
        # data matching the folded a-priori is returned as the scaled
        # a-priori regardless of truncation
        r = random_response(np.random.default_rng(12))
        y = 0.37 * (r.efficiency_normalized @ r.apriori)
        for rank in (2, 5, 8, NB):
            x = truncated_solver(r, rank) @ y
            np.testing.assert_allclose(x, 0.37 * r.apriori, rtol=1e-9)

    def test_linearity_preserved(self):
        # the normalization matching is itself linear, so the map is a
        # single matrix: check it reproduces the two-step construction
        r = random_response(np.random.default_rng(13))
        k = truncated_solver(r, 6)
        y1 = RNG.uniform(10, 100, NB)
        y2 = RNG.uniform(10, 100, NB)
        np.testing.assert_allclose(k @ (2.0 * y1 + 3.0 * y2),
                                   2.0 * k @ y1 + 3.0 * k @ y2, rtol=1e-9)

    def test_residual_monotone_in_rank(self):
        r = random_response(np.random.default_rng(14))
        y = RNG.uniform(50, 500, NB)
        w = 1.0 / np.sqrt(np.maximum(r.m.sum(axis=1), 1.0))
        a = r.efficiency_normalized
        norms = []
        for rank in range(1, NB + 1):
            x = truncated_solver(r, rank) @ y
            norms.append(np.linalg.norm(w * (a @ x - y)))
        assert all(n2 <= n1 + 1e-9 for n1, n2 in zip(norms, norms[1:]))

    def test_rank_too_large_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            truncated_solver(identity_response(), NB + 1)

    def test_nonpositive_apriori_rejected(self):
        # a truth bin the training sample never populated
        r = random_response(np.random.default_rng(15))
        r.m[:, 3] = 0.0
        r.truth_totals[3] = 0.0
        with pytest.raises(ValueError, match="a-priori"):
            truncated_solver(ResponseMatrix(Binning(), r.m, r.truth_totals), 5)

    def test_tiny_singular_value_raises(self):
        # a rank-deficient response has vanishing singular values at the end
        m = np.outer(np.ones(NB), np.ones(NB))
        r = ResponseMatrix(Binning(), m, np.full(NB, 2.0 * NB))
        with pytest.raises(ArithmeticError):
            truncated_solver(r, NB)


def measured_from_truth(r_of, r_sf, x_of, x_sf):
    return BinnedCounts(Binning(),
                        r_of.efficiency_normalized @ x_of,
                        r_sf.efficiency_normalized @ x_sf,
                        var_of=np.ones(NB), var_sf=np.ones(NB))


class TestDsvdUnfold:
    def test_identity_response(self):
        r = identity_response()
        counts = BinnedCounts(Binning(), RNG.uniform(50, 500, NB),
                              RNG.uniform(50, 500, NB))
        cfg = UnfoldConfig(rank_of=NB, rank_sf=NB, mix_s=0.0, mix_o=0.0)
        x, cov = dsvd_unfold(counts, r, r, cfg)
        np.testing.assert_allclose(x.n_of, counts.n_of, rtol=1e-9)
        np.testing.assert_allclose(x.n_sf, counts.n_sf, rtol=1e-9)
        np.testing.assert_allclose(cov[:NB, :NB], np.diag(counts.var_of),
                                   atol=1e-7)
        np.testing.assert_allclose(cov[:NB, NB:], np.zeros((NB, NB)),
                                   atol=1e-9)

    def test_noiseless_closure_full_rank_no_mixing(self):
        r_of = random_response(np.random.default_rng(21), "OF")
        r_sf = random_response(np.random.default_rng(22), "SF")
        x_of = RNG.uniform(10, 1000, NB)
        x_sf = RNG.uniform(10, 1000, NB)
        counts = measured_from_truth(r_of, r_sf, x_of, x_sf)
        cfg = UnfoldConfig(rank_of=NB, rank_sf=NB, mix_s=0.0, mix_o=0.0)
        x, *_ = dsvd_unfold(counts, r_of, r_sf, cfg)
        np.testing.assert_allclose(x.n_of, x_of, rtol=1e-8)
        np.testing.assert_allclose(x.n_sf, x_sf, rtol=1e-8)

    def test_noiseless_closure_full_rank_with_mixing(self):
        # mixing commutes with folding when both classes share the same
        # migration kernel, as they do physically
        r_of = random_response(np.random.default_rng(21), "OF")
        kernel = r_of.efficiency_normalized
        t_sf = RNG.uniform(500, 5000, NB)
        r_sf = ResponseMatrix(Binning(), kernel * t_sf, t_sf, cls="SF")
        x_of = RNG.uniform(10, 1000, NB)
        x_sf = RNG.uniform(10, 1000, NB)
        counts = measured_from_truth(r_of, r_sf, x_of, x_sf)
        cfg = UnfoldConfig(rank_of=NB, rank_sf=NB)
        x, *_ = dsvd_unfold(counts, r_of, r_sf, cfg)
        np.testing.assert_allclose(x.n_of, x_of, rtol=1e-8)
        np.testing.assert_allclose(x.n_sf, x_sf, rtol=1e-8)

    def test_covariance_symmetric_psd(self):
        r_of = random_response(np.random.default_rng(23), "OF")
        r_sf = random_response(np.random.default_rng(24), "SF")
        counts = BinnedCounts(Binning(), RNG.uniform(50, 500, NB),
                              RNG.uniform(50, 500, NB))
        _, cov = dsvd_unfold(counts, r_of, r_sf, UnfoldConfig())
        np.testing.assert_allclose(cov, cov.T, atol=1e-9)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-7 * np.max(cov)

    def test_exact_linear_propagation(self):
        # the estimator is one linear map L on the stacked (OF, SF) counts:
        # build L column by column from unit count vectors, then check the
        # mean is L y and the covariance L diag(var) L^T, cross term included
        r_of = random_response(np.random.default_rng(25), "OF")
        r_sf = random_response(np.random.default_rng(26), "SF")
        cfg = UnfoldConfig()

        def unfold(y, var):
            x, cov = dsvd_unfold(BinnedCounts(Binning(), y[:NB], y[NB:],
                                              var[:NB], var[NB:]),
                                 r_of, r_sf, cfg)
            return np.concatenate([x.n_of, x.n_sf]), cov

        ones = np.ones(2 * NB)
        lin = np.column_stack([unfold(e, ones)[0] for e in np.eye(2 * NB)])
        y = RNG.uniform(50, 500, 2 * NB)
        var = RNG.uniform(20, 600, 2 * NB)
        x, cov = unfold(y, var)
        expect = lin @ np.diag(var) @ lin.T
        np.testing.assert_allclose(x, lin @ y, rtol=1e-12)
        np.testing.assert_allclose(cov, expect, rtol=1e-12,
                                   atol=1e-12 * np.abs(expect).max())
        assert np.abs(cov[:NB, NB:]).max() > 1e-3 * np.abs(expect).max()

    def test_mixing_populates_empty_bin(self):
        # one class empty in a truth bin, the other populated: the mixed
        # response the solver sees is populated there, so the unfolding
        # goes through where the unmixed solver would refuse
        r_of = random_response(np.random.default_rng(27), "OF")
        r_sf = random_response(np.random.default_rng(28), "SF")
        r_sf = ResponseMatrix(Binning(), np.where(np.arange(NB) == 0, 0.0,
                                                  r_sf.m),
                              np.where(np.arange(NB) == 0, 0.0,
                                       r_sf.truth_totals), cls="SF")
        with pytest.raises(ValueError, match="a-priori"):
            truncated_solver(r_sf, 5)
        cfg = UnfoldConfig()
        _, sf_m = mix_responses(r_of, r_sf, cfg)
        assert sf_m.apriori[0] == pytest.approx(
            cfg.mix_o * r_of.truth_totals[0])
        of = np.full(NB, 100.0)
        sf = np.full(NB, 100.0)
        sf[0] = 0.0
        x, cov = dsvd_unfold(BinnedCounts(Binning(), of, sf), r_of, r_sf, cfg)
        assert np.all(np.isfinite(x.n_of)) and np.all(np.isfinite(x.n_sf))
        assert np.all(np.isfinite(cov))


class TestUnfoldedAsymmetry:
    def test_values_and_errors(self):
        x = BinnedCounts(Binning(), np.full(NB, 300.0), np.full(NB, 100.0))
        cov = np.diag(np.full(2 * NB, 4.0))
        a, cov_a = unfolded_asymmetry(x, cov, debias=False)
        np.testing.assert_allclose(a, 0.5, atol=1e-12)
        # da = (2 sf dof - 2 of dsf)/tot^2; var = 4 (sf^2+of^2) var / tot^4
        expect = 4.0 * (300.0 ** 2 + 100.0 ** 2) * 4.0 / 400.0 ** 4
        np.testing.assert_allclose(np.diag(cov_a), expect, rtol=1e-12)

    def test_debias_second_order(self):
        # Monte-Carlo expectation of the ratio vs the corrected estimate
        rng = np.random.default_rng(31)
        of0, sf0, sig = 60.0, 40.0, 8.0
        of = rng.normal(of0, sig, 400000)
        sf = rng.normal(sf0, sig, 400000)
        mc_mean = np.mean((of - sf) / (of + sf))
        x = BinnedCounts(Binning(), np.full(NB, of0), np.full(NB, sf0))
        cov = np.diag(np.full(2 * NB, sig ** 2))
        a_raw, _ = unfolded_asymmetry(x, cov, debias=False)
        a_cor, _ = unfolded_asymmetry(x, cov, debias=True)
        # the correction moves the estimate toward the true ratio by
        # approximately the observed expectation bias
        truth = (of0 - sf0) / (of0 + sf0)
        assert abs(a_cor[0] - truth) < abs(mc_mean - truth)
        assert a_raw[0] - a_cor[0] == pytest.approx(mc_mean - truth, rel=0.15)


class TestBiasCorrect:
    def test_arithmetic(self):
        truth = {"A": np.zeros(3), "B": np.zeros(3), "C": np.zeros(3)}
        ens = {
            "A": np.tile([0.1, 0.0, -0.1], (10, 1)),
            "B": np.tile([0.2, 0.1, 0.0], (10, 1)),
            "C": np.tile([0.3, 0.2, 0.1], (10, 1)),
        }
        corr, syst = bias_correct(ens, truth)
        np.testing.assert_allclose(corr, [0.2, 0.1, 0.0], atol=1e-12)
        np.testing.assert_allclose(syst, [0.1, 0.1, 0.1], atol=1e-12)

    def test_requires_three_models(self):
        with pytest.raises(ValueError):
            bias_correct({"A": np.zeros((5, 3))}, {"A": np.zeros(3)})

    def test_injected_shift_recovered(self):
        rng = np.random.default_rng(33)
        shift = np.array([0.05, -0.02, 0.08])
        truth = {m: np.zeros(3) for m in "ABC"}
        ens = {m: shift + rng.normal(0, 0.01, (200, 3)) for m in "ABC"}
        corr, syst = bias_correct(ens, truth)
        np.testing.assert_allclose(corr, shift, atol=0.005)
        assert np.all(syst < 0.01)


class TestResponseIO:
    def test_round_trip(self, tmp_path):
        r = random_response(np.random.default_rng(41), "SF")
        path = tmp_path / "resp_sf.csv"
        write_response(r, path)
        back = read_response(path)
        assert back.cls == "SF"
        assert back.binning.array == pytest.approx(r.binning.array)
        np.testing.assert_allclose(back.m, r.m, rtol=1e-8)
        np.testing.assert_allclose(back.truth_totals, r.truth_totals,
                                   rtol=1e-8)

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_response(path)


class TestBuildResponse:
    def test_diagonal_without_smearing(self):
        # truth dt exactly reconstructed -> purely diagonal migration
        from flavourasym.models import ModelParams
        from flavourasym.toygen import GenModel, response_sample, stream_rng
        dt_true, cls, [dt_rec] = response_sample(
            GenModel.QM, ModelParams(), 20000, [0.0], stream_rng(55, 0))
        r_of, r_sf = build_response(dt_true, dt_rec, cls, Binning())
        for r in (r_of, r_sf):
            off = r.m - np.diag(np.diag(r.m))
            assert np.all(off == 0)
            assert np.all(np.diag(r.m)[:-1] > 0)

    def test_edges_binned_as_numpy_histograms(self):
        # every edge (the last is 20.0), points between them and above 20.0,
        # in every (truth, reco) combination and both classes
        from oracles import histogram_responses
        b = Binning()
        e = b.array
        vals = np.concatenate([e, (e[:-1] + e[1:]) / 2, [20.5, 1e3]])
        t, r = (g.ravel() for g in np.meshgrid(vals, vals))
        dt_true, dt_rec = np.tile(t, 2), np.tile(r, 2)
        cls = np.repeat(np.array([0, 1], dtype=np.int8), len(t))
        for resp, (m, totals) in zip(build_response(dt_true, dt_rec, cls, b),
                                     histogram_responses(dt_true, dt_rec,
                                                         cls, b)):
            np.testing.assert_array_equal(resp.m, m)
            np.testing.assert_array_equal(resp.truth_totals, totals)
        # an event with dt_true == 20.0 counts in the last total only; one
        # with dt_rec == 20.0 migrates into the last reco bin
        one = np.array([20.0, 5.0]), np.array([5.0, 20.0])
        r_of, _ = build_response(*one, np.zeros(2, dtype=np.int8), b)
        assert r_of.truth_totals[-1] == 1 and r_of.m[:, -1].sum() == 0
        assert r_of.m.sum() == r_of.m[-1, list(e).index(5.0)] == 1
