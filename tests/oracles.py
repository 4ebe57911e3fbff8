"""Test oracles: quadrature for the t_min-marginalized model curves, the
band and PS draws from the per-edge joint formulas, the band's
sorted-flip prefix sums as first written, the pair sampler on
full columns, response training on the event record, the count formulas
written out once per class, the degenerate-bin bootstrap, the unfolding
built and applied in one call, the unfolding's full covariance as matrix
products, ensembles and the smear systematic with every replica
generated for one model alone, and the zeta fit's chi2_min + 1 interval
from a dense scan."""

from dataclasses import replace

import numpy as np
from scipy import integrate, optimize

from flavourasym.fitkit import DM_SEARCH, BinPredictor
# e^(-2*40) ~ 1e-35 at the reach bounds the truncation error far below the
# 1e-9 target
from flavourasym.models import (_UMAX_LIFETIMES, MarginalGrid, ModelParams,
                               _mod_pi, _ps_joint)
from flavourasym.pipeline import (RESPONSE_STREAM, build_training_responses,
                                  corrected_counts, train_responses)
from flavourasym.toygen import (EVENT_DTYPE, GenModel, _detect,
                                generate_ensemble, stream_rng)
from flavourasym.unfold import (bias_correct, dsvd_unfold, mix_responses,
                                truncated_solver, unfolded_asymmetry,
                                unfolding_map)

_QUAD_ABS_TOL = 1e-10


def marginalize(joint, dt: float, p) -> float:
    """Average joint(t_min, dt) over t_min with the pair-decay weight.

    At fixed dt the surviving-pair density is proportional to
    exp(-2 t_min / tau), so the marginal is
    int joint(u, dt) exp(-2u/tau) du / int exp(-2u/tau) du.
    The error check holds for smooth integrands only: across a kink, such
    as those of the band edges, the error estimate can miss by orders of
    magnitude.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    umax = _UMAX_LIFETIMES * p.tau
    num, err = integrate.quad(
        lambda u: joint(u, dt) * np.exp(-2.0 * u / p.tau),
        0.0, umax, epsabs=_QUAD_ABS_TOL, epsrel=1e-11, limit=400,
    )
    den = p.tau / 2.0 * (1.0 - np.exp(-2.0 * umax / p.tau))
    if err / den > 1e-9:
        raise ArithmeticError(
            f"quadrature did not converge: estimated error {err / den:.2e}"
        )
    return num / den


def ps_upper_joint(t_min, dt, dm):
    c, s = np.cos(dm * dt), np.sin(dm * dt)
    return 1.0 - np.abs((1.0 - c) * np.cos(dm * t_min) + s * np.sin(dm * t_min))


def ps_lower_joint(t_min, dt, dm):
    c, s = np.cos(dm * dt), np.sin(dm * dt)
    psi = (1.0 + c) * np.cos(dm * t_min) - s * np.sin(dm * t_min)
    return 1.0 - np.minimum(2.0 + psi, 2.0 - psi)


def per_edge_band(predictor, dm):
    """Per-bin (lower, upper) of the band, one edge at a time: each joint
    edge on the t_min grid, summed over the nodes of each dt, then averaged
    over the predictor's bin nodes."""
    grid = MarginalGrid(predictor.tau)
    return tuple(((joint(grid.u, predictor._t[..., None], dm) * grid.w)
                  .sum(axis=-1) * predictor._w).sum(axis=1)
                 for joint in (ps_lower_joint, ps_upper_joint))


def padded_prefix_edges(grid, dt, dm):
    """`MarginalGrid.edges` as first written: the sorted-flip prefix sums of
    a stacked (cos, sin) array, padded with a zero column, and the weight
    sum taken per call. The kernel must give these bits."""
    theta = dm * grid.u
    trig = np.stack([np.cos(theta), np.sin(theta)])
    flip = _mod_pi(theta + 0.5 * np.pi)
    order = np.argsort(flip)
    flips = flip[order]
    terms = (grid.w * np.sign(trig[0]) * trig)[:, order]
    prefix = np.cumsum(np.pad(terms, ((0, 0), (1, 0))), axis=1)
    c_k, s_k = prefix[:, -1:] - 2.0 * prefix
    phi = dm * np.asarray(dt, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    lo = np.searchsorted(flips, _mod_pi(-0.5 * phi))
    up = np.searchsorted(flips, _mod_pi(0.5 * (np.pi - phi)))
    sw = grid.w.sum()
    return (np.abs((1.0 + c) * c_k[lo] - s * s_k[lo]) - sw,
            sw - np.abs((1.0 - c) * c_k[up] + s * s_k[up]))


def ps_sample_pair(upper, p, rng, size):
    """(t1, t2, is_of, A) of PS_BOUNDARY_MAX (upper) or _MIN pairs from the
    per-edge joint formulas, on the draws `toygen.sample_pair` makes."""
    t1 = rng.exponential(p.tau, size)
    t2 = rng.exponential(p.tau, size)
    joint = ps_upper_joint if upper else ps_lower_joint
    a = joint(np.minimum(t1, t2), np.abs(t1 - t2), p.dm)
    return t1, t2, rng.random(size) < (1.0 + a) / 2.0, a


def histogram_responses(dt_true, dt_rec, cls, binning):
    """[(m, truth_totals) for OF, SF] binned per class with np.histogram for
    the totals and np.histogram2d for the migrations of the events whose
    true dt lies in [first edge, last edge)."""
    edges = binning.array
    out = []
    for code in (0, 1):
        sel = cls == code
        t, r = dt_true[sel], dt_rec[sel]
        totals, _ = np.histogram(t, bins=edges)
        in_t = (t >= edges[0]) & (t < edges[-1])
        m, _, _ = np.histogram2d(r[in_t], t[in_t], bins=(edges, edges))
        out.append((m, totals.astype(float)))
    return out


def one_shot_joint_asymmetry(model: GenModel, t1, t2, dt, p: ModelParams):
    """A_model(t1, t2) of each pair, given dt = |t1 - t2|; DECOHERED's is
    the mixture (1 - zeta) A_QM + zeta A_SD."""
    if model is GenModel.QM:
        return np.cos(p.dm * dt)
    if model is GenModel.SD:
        return np.cos(p.dm * t1) * np.cos(p.dm * t2)
    if model in (GenModel.PS_BOUNDARY_MAX, GenModel.PS_BOUNDARY_MIN):
        return _ps_joint(np.minimum(t1, t2), dt, p.dm,
                         model is GenModel.PS_BOUNDARY_MAX)
    if model is GenModel.DECOHERED:
        a_qm = np.cos(p.dm * dt)
        a_sd = np.cos(p.dm * t1) * np.cos(p.dm * t2)
        return (1 - p.zeta) * a_qm + p.zeta * a_sd
    raise ValueError(f"unknown generation model {model}")


def one_shot_sample_pair(model: GenModel, p: ModelParams,
                         rng: np.random.Generator, size: int = 1):
    """Draw (t1, t2, dt = |t1 - t2|, is_of) for `size` pairs under the
    given model, each step on full columns: the reference for the blocks
    of `toygen.sample_pair`.

    The pair time density factorizes as exp(-(t1+t2)/tau)/tau^2; the flavour
    class is Bernoulli with OF probability (1 + A_model(t1, t2)) / 2.
    """
    t1 = rng.exponential(p.tau, size)
    t2 = rng.exponential(p.tau, size)
    dt = np.abs(t1 - t2)
    a = one_shot_joint_asymmetry(model, t1, t2, dt, p)
    if np.any(np.abs(a) > 1.0 + 1e-9):
        raise ArithmeticError(
            "model asymmetry escaped [-1, 1]; generation envelope violated")
    is_of = rng.random(size) < (1.0 + a) / 2.0
    return t1, t2, dt, is_of


def signal_record(model, p, n, d, rng):
    """`n` signal events drawn by `one_shot_sample_pair`, then run through
    the detector model (`toygen._detect`) on their truth fields."""
    ev = np.zeros(n, dtype=EVENT_DTYPE)
    t1, t2, dt, is_of = one_shot_sample_pair(model, p, rng, n)
    ev["t1_ps"], ev["t2_ps"], ev["dt_true_ps"] = t1, t2, dt
    ev["cls_true"] = ~is_of
    ev["index"] = np.arange(n)
    return _detect(ev, ev["dt_true_ps"], ev["cls_true"], d, rng)


def record_responses(cfg, detector):
    """Response training on the event record: a full `signal_record` QM
    sample from the response stream, binned by `histogram_responses` on
    its true class."""
    mc = signal_record(GenModel.QM, cfg.params, cfg.n_response_mc,
                       detector, stream_rng(cfg.seed, RESPONSE_STREAM))
    return histogram_responses(mc["dt_true_ps"], mc["dt_rec_ps"],
                               mc["cls_true"], cfg.binning)


def per_class_background(b, binning):
    """Expected (OF, SF) background counts and yield variances, one class
    at a time: (exp_of, exp_sf, var_of, var_sf)."""
    nb = binning.n_bins
    exp_of, exp_sf, var_of, var_sf = (np.zeros(nb) for _ in range(4))
    for y in b.yields.values():
        frac = y.shape.bin_fractions(binning.array)
        exp_of += y.n_of * frac
        exp_sf += y.n_sf * frac
        var_of += (y.n_of_err * frac) ** 2
        var_sf += (y.n_sf_err * frac) ** 2
    return exp_of, exp_sf, var_of, var_sf


def per_class_subtraction(n_of, n_sf, v_of, v_sf, b, binning):
    """(n_of, n_sf, var_of, var_sf) after the background subtraction, and
    the systematic of the 1-sigma yield shifts on the asymmetry."""
    exp_of, exp_sf, var_of, var_sf = per_class_background(b, binning)
    n_of, n_sf = n_of - exp_of, n_sf - exp_sf
    tot = n_of + n_sf
    safe = np.where(tot == 0, 1.0, tot)
    dA_of = 2.0 * n_sf / safe ** 2 * np.sqrt(var_of)
    dA_sf = 2.0 * n_of / safe ** 2 * np.sqrt(var_sf)
    return (n_of, n_sf, v_of + var_of, v_sf + var_sf), np.hypot(dA_of, dA_sf)


def per_class_mistag(n_of, n_sf, v_of, v_sf, w):
    """(n_of, n_sf, var_of, var_sf) with the flip probability w inverted."""
    d = 1.0 - 2.0 * w
    return (((1.0 - w) * n_of - w * n_sf) / d,
            ((1.0 - w) * n_sf - w * n_of) / d,
            ((1.0 - w) ** 2 * v_of + w ** 2 * v_sf) / d ** 2,
            ((1.0 - w) ** 2 * v_sf + w ** 2 * v_of) / d ** 2)


def per_class_asymmetry(n_of, n_sf, v_of, v_sf):
    """(a, err) of counts with both classes positive in every bin."""
    tot = n_of + n_sf
    return ((n_of - n_sf) / tot,
            2.0 / tot ** 2 * np.sqrt(n_sf ** 2 * v_of + n_of ** 2 * v_sf))


def bootstrap_error(n_of, tot, draws, seed=20060207):
    """The spread of 2k/n - 1 over `draws` binomial draws k ~ B(n, p), with
    n = max(round(tot), 1) and p = n_of / tot clipped to [1/(n+2),
    1 - 1/(n+2)]: a sampled estimate of the degenerate-bin error."""
    rng = np.random.default_rng(seed)
    n = max(int(round(tot)), 1)
    p_lo = 1.0 / (n + 2.0)
    p_of = min(max(n_of / tot, p_lo), 1.0 - p_lo)
    return np.std(2.0 * rng.binomial(n, p_of, size=draws) / n - 1.0)


def stacked(measured):
    """The unfolding input y and its variances: the OF bins, then the SF
    bins."""
    return (np.concatenate([measured.n[0], measured.n[1]]),
            np.concatenate([measured.var[0], measured.var[1]]))


def one_shot_unfold(measured, resp_of, resp_sf, cfg):
    """`dsvd_unfold` of `measured` through a map built inside the call
    straight from a response pair: the mixing, the two truncated solvers
    and the linear map."""
    nb = measured.binning.n_bins
    eye = np.eye(nb)
    mix = np.block([[eye, cfg.mix_s * eye], [cfg.mix_o * eye, eye]])
    r_of_m, r_sf_m = mix_responses(resp_of, resp_sf, cfg)
    solve = np.zeros((2 * nb, 2 * nb))
    solve[:nb, :nb] = truncated_solver(r_of_m, cfg.rank_of)
    solve[nb:, nb:] = truncated_solver(r_sf_m, cfg.rank_sf)
    return dsvd_unfold(measured, np.linalg.inv(mix) @ solve @ mix)


def covariance_unfold(measured, lin):
    """(x, cov) of one spectrum as matrix products: x = L y and the full
    2nb x 2nb covariance L diag(var) L^T of the stacked (OF, SF) counts."""
    y, var_y = stacked(measured)
    return lin @ y, lin * var_y @ lin.T


def covariance_asymmetry(x, cov):
    """(a, cov_a) of unfolded counts x = (OF, SF) from their full
    covariance: the second-order debiased ratio and g cov g^T, with g the
    nb x 2nb Jacobian of the ratio."""
    nb = len(x) // 2
    n_of, n_sf = x[:nb], x[nb:]
    tot = n_of + n_sf
    var = np.diag(cov)
    a = (n_of - n_sf) / tot - (2.0 / tot ** 3) * (
        -n_sf * var[:nb] + (n_of - n_sf) * np.diag(cov, nb) + n_of * var[nb:])
    g = np.hstack([np.diag(2.0 * n_sf / tot ** 2),
                   np.diag(-2.0 * n_of / tot ** 2)])
    return a, g @ cov @ g.T


def counts_alone(model, cfg, replica_seed):
    """One replica's corrected counts, its full event records generated
    for `model` alone by `generate_ensemble`."""
    events = generate_ensemble(model, cfg.params, cfg.detector,
                               cfg.backgrounds, cfg.n_signal,
                               master_seed=cfg.seed * 1000003 + replica_seed)
    return corrected_counts(events, cfg)[0]


def ensemble_alone(models, n_replicas, cfg):
    """`pipeline.run_ensemble`'s result with each model's replicas
    generated alone (`counts_alone`), model by model, then unfolded."""
    lin = unfolding_map(*build_training_responses(cfg), cfg.unfold)
    p = cfg.params
    pred = BinPredictor(cfg.binning, tau=p.tau)
    unfolded, errors, truths = {}, {}, {}
    for m in models:
        a, err = zip(*(unfolded_asymmetry(*dsvd_unfold(
            counts_alone(m, cfg, r), lin)) for r in range(n_replicas)))
        unfolded[m.value] = np.array(a)
        errors[m.value] = np.array(err)
        truths[m.value] = pred.predict(m.value, p.dm, p.zeta)
    correction, syst = bias_correct(unfolded, truths)
    return {"unfolded": unfolded, "errors": errors, "truth": truths,
            "correction": correction, "deconvolution_systematic": syst}


def smear_alone(cfg, delta_um, n_replicas):
    """`pipeline.smear_systematic` one variant at a time: each variant
    trained alone, and each replica generated alone (`counts_alone`) for
    the nominal and again for the variant unfolding."""
    s = cfg.detector.extra_smear_sigma
    up = float(np.sqrt(s ** 2 + delta_um ** 2))
    dn = float(np.sqrt(max(s ** 2 - delta_um ** 2, 0.0)))
    nominal = unfolding_map(*build_training_responses(cfg), cfg.unfold)
    shifts = []
    for v in (up, dn):
        variant = unfolding_map(*train_responses(
            cfg, [replace(cfg.detector, extra_smear_sigma=v)])[0], cfg.unfold)
        diffs = []
        for r in range(n_replicas):
            a_nom, _ = unfolded_asymmetry(*dsvd_unfold(
                counts_alone(GenModel.QM, cfg, r), nominal))
            a_var, _ = unfolded_asymmetry(*dsvd_unfold(
                counts_alone(GenModel.QM, cfg, r), variant))
            diffs.append(a_var - a_nom)
        shifts.append(np.abs(np.mean(diffs, axis=0)))
    return np.max(shifts, axis=0)


def zeta_profile(spectrum, c, predictor, dm):
    """(zeta_hat, chi2, sum d^2) at dm: the zeta that minimizes chi2(dm, zeta)
    and the chi2 there, from the QM and SD bin predictions, with r = (a -
    QM) / sigma and d = (SD - QM) / sigma."""
    qm = predictor.predict("QM", dm)
    r = (spectrum.a - qm) / spectrum.total_err
    d = (predictor.predict("SD", dm) - qm) / spectrum.total_err
    dd = float(d @ d)
    z = float(r @ d) / dd
    return z, float(np.sum((r - z * d) ** 2)) + c.term(dm), dd


def zeta_interval(spectrum, c, predictor, level, coarse=701, dense=2001):
    """(lower, upper) ends of {zeta : min over dm of chi2(dm, zeta) <=
    level + 1}, over the dm stretch around the profile's minimum in
    DM_SEARCH where chi2_prof <= level + 1.

    chi2(dm, zeta) = chi2_prof(dm) + (zeta - zeta_hat(dm))^2 sum d^2, so
    the interval is the union over the stretch of zeta_hat(dm) +-
    sqrt((level + 1 - chi2_prof(dm)) / sum d^2). A coarse scan finds the
    minimum's cell and the stretch's crossings, which scipy refines; a
    dense scan of the stretch finds each end's cell, and scipy's bounded
    minimization refines it to xatol 1e-12."""
    target = level + 1.0
    prof = lambda dm: zeta_profile(spectrum, c, predictor, dm)
    c2 = lambda dm: prof(dm)[1]
    grid = np.linspace(*DM_SEARCH, coarse)
    vals = np.array([c2(dm) for dm in grid])
    k = int(np.argmin(vals))
    dm_min = optimize.minimize_scalar(
        c2, bounds=(grid[max(k - 1, 0)], grid[min(k + 1, coarse - 1)]),
        method="bounded", options={"xatol": 1e-12}).x
    above = np.flatnonzero(vals > target)
    below_k, above_k = above[above < k], above[above > k]
    lo = (optimize.brentq(lambda x: c2(x) - target, grid[below_k[-1]],
                          min(grid[below_k[-1] + 1], dm_min), xtol=1e-15)
          if len(below_k) else DM_SEARCH[0])
    hi = (optimize.brentq(lambda x: c2(x) - target,
                          max(grid[above_k[0] - 1], dm_min), grid[above_k[0]],
                          xtol=1e-15)
          if len(above_k) else DM_SEARCH[1])
    stretch = np.linspace(lo, hi, dense)
    z, chi, dd = np.array([prof(dm) for dm in stretch]).T
    reach = lambda sign, z, chi, dd: (
        sign * z + np.sqrt(np.maximum(target - chi, 0.0) / dd))
    ends = []
    for sign in (-1.0, 1.0):
        vals = reach(sign, z, chi, dd)
        j = int(np.argmax(vals))
        best = optimize.minimize_scalar(
            lambda dm: -reach(sign, *prof(dm)),
            bounds=(stretch[max(j - 1, 0)], stretch[min(j + 1, dense - 1)]),
            method="bounded", options={"xatol": 1e-12})
        ends.append(sign * max(vals[j], -best.fun))
    return tuple(ends)
