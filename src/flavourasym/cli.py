"""Command-line pipeline driver.

Subcommands: curves, generate, analyze, unfold, fit, reproduce.
Exit codes: 0 success, 2 validation error, 3 numerical failure or out
of memory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from ._table import write_table
from .analysis import (AsymmetrySpectrum, read_counts, read_spectrum,
                       write_counts, write_spectrum)
from .config import ConfigError, default_config_text, load_config
from .fitkit import BinPredictor, chi2, fit_model, fit_zeta, significance
from .models import ModelParams, curve_rows
from .pipeline import PipelineConfig, analyze_counts, build_training_responses
from .toygen import (BETA_GAMMA, C_UM_PER_PS, generate_ensemble, read_events,
                     write_events)
from .unfold import (dsvd_unfold, read_response, recorded_edges,
                     unfolded_asymmetry, unfolding_map, write_response)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_log(out_path, inputs: dict, extra: dict | None = None) -> None:
    """JSON sidecar `<out>.log`, written only next to a regular file, so an
    output sent to a device such as /dev/null leaves no sidecar."""
    if not Path(out_path).is_file():
        return
    log = {
        "version": __version__,
        "constants": {"c_um_per_ps": C_UM_PER_PS, "beta_gamma": BETA_GAMMA},
        "inputs": inputs,
    }
    if extra:
        log.update(extra)
    with open(str(out_path) + ".log", "w") as f:
        json.dump(log, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_run(args):
    if args.config is None:
        raise ConfigError("this command needs --config")
    run = load_config(args.config)
    seed = getattr(args, "seed", None)
    if seed is not None:
        run = replace(run, pipeline=replace(run.pipeline, seed=seed))
    return run


def cmd_init_config(args):
    out = Path(args.out or "run.cfg")
    out.write_text(default_config_text(seed=1 if args.seed is None
                                       else args.seed))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_curves(args):
    if args.step <= 0:
        raise ConfigError(f"grid step must be positive, got {args.step}")
    if args.max <= 0:
        raise ConfigError(f"grid maximum must be positive, got {args.max}")
    p = ModelParams(dm=args.dm, tau=args.tau)
    grid = np.arange(0.0, args.max + 0.5 * args.step, args.step)
    rows = curve_rows(grid, p).view([(n, "f8") for n in (
        "dt", "A_QM", "A_SD", "PS_min", "PS_max")])[:, 0]
    out = Path(args.out or "curves.csv")
    write_table(out, rows)
    _write_log(out, {"dm": p.dm, "tau": p.tau, "step": args.step,
                     "max": args.max})
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_generate(args):
    run = _load_run(args)
    cfg = run.pipeline
    events = generate_ensemble(run.model, cfg.params, cfg.detector,
                               cfg.backgrounds, cfg.n_signal,
                               master_seed=cfg.seed)
    out = Path(args.out or "events.csv")
    write_events(events, out)
    _write_log(out, {"config": _sha256(args.config), "seed": cfg.seed,
                     "model": run.model.value, "n_events": len(events)})
    print(f"wrote {len(events)} events to {out}")
    return EXIT_OK


def cmd_analyze(args):
    run = _load_run(args)
    events = read_events(args.events)
    counts, spec = analyze_counts(events, run.pipeline)
    out = Path(args.out or "spectrum.csv")
    write_spectrum(spec, out)
    counts_out = out.with_suffix(".counts.csv")
    write_counts(counts, counts_out)
    # the overflow, the bins the background subtraction or the tag
    # correction drove negative, and those whose total is <= 0 (read as
    # 0 +- 1), numbered as the files' `bin` column
    over_of, over_sf = counts.overflow
    _write_log(out, {"config": _sha256(args.config),
                     "events": _sha256(args.events),
                     "n_events": len(events)},
               {"counts_file": str(counts_out),
                "overflow_of": over_of, "overflow_sf": over_sf,
                "negative_bins": (counts.negative_bins + 1).tolist(),
                "degenerate_bins": (counts.degenerate_bins + 1).tolist()})
    print(f"wrote spectrum to {out} and corrected counts to {counts_out}")
    return EXIT_OK


def _saved_response(path, cls, binning):
    """The response in `path`, refused unless it is of class `cls` and on
    the edges of `binning`, compared as the file records them."""
    r = read_response(path)
    if r.cls != cls or recorded_edges(r.binning) != recorded_edges(binning):
        raise ConfigError(
            f"{path}: a class={r.cls} response on edges "
            f"{recorded_edges(r.binning)}, given as --response-{cls.lower()} "
            f"for counts on edges {recorded_edges(binning)}")
    return r


def cmd_unfold(args):
    run = _load_run(args)
    cfg = run.pipeline
    counts = read_counts(args.counts)
    if bool(args.response_of) != bool(args.response_sf):
        raise ConfigError("--response-of and --response-sf go together")
    if args.response_of:
        r_of, r_sf = (_saved_response(path, cls, counts.binning) for path, cls
                      in ((args.response_of, "OF"), (args.response_sf, "SF")))
        inputs = {"response_of": _sha256(args.response_of),
                  "response_sf": _sha256(args.response_sf)}
    else:
        if recorded_edges(cfg.binning) != recorded_edges(counts.binning):
            raise ConfigError(f"{args.config}: responses trained on edges "
                              f"{recorded_edges(cfg.binning)}, for counts on "
                              f"edges {recorded_edges(counts.binning)}")
        r_of, r_sf = build_training_responses(cfg)
        inputs = {"response": "trained", "seed": cfg.seed,
                  "n_response_mc": cfg.n_response_mc}
        if args.out:
            base = Path(args.out)
            write_response(r_of, base.with_suffix(".resp_of.csv"))
            write_response(r_sf, base.with_suffix(".resp_sf.csv"))
    # a finite but huge input overflows here; fail as a numerical error
    with np.errstate(over="raise", invalid="raise"):
        lin = unfolding_map(r_of, r_sf, cfg.unfold)
        a, err = unfolded_asymmetry(*dsvd_unfold(counts, lin))
    out = Path(args.out or "unfolded.csv")
    write_spectrum(AsymmetrySpectrum(counts.binning, a, err), out)
    inputs["counts"] = _sha256(args.counts)
    inputs["config"] = _sha256(args.config)
    # the input's bins, numbered as analyze numbers them
    _write_log(out, inputs, {
        "rank_of": cfg.unfold.rank_of, "rank_sf": cfg.unfold.rank_sf,
        "negative_bins": (counts.negative_bins + 1).tolist(),
        "degenerate_bins": (counts.degenerate_bins + 1).tolist()})
    print(f"wrote unfolded spectrum to {out}")
    return EXIT_OK


def _fit_all(spectrum, models, cfg: PipelineConfig) -> dict:
    """Fits of the named models in order, with the constraint and lifetime
    of `cfg`, and the one predictor they share."""
    c, pred = cfg.constraint, BinPredictor(spectrum.binning, cfg.params.tau)
    return {m: fit_zeta(spectrum, c, pred) if m == "DECOHERED"
            else fit_model(spectrum, m, c, pred) for m in models}, pred


NESTING_MARGIN = 1e-3   # chi2 units


def _nesting(spectrum, fits, cfg: PipelineConfig,
             pred: BinPredictor) -> list | None:
    """The nesting certificate's inequalities that fail, on the predictor
    `pred` the fits shared, or None when the fits do not hold DECOHERED
    with QM or SD. DECOHERED contains QM (zeta = 0) and SD (zeta = 1), so
    at global minima chi2_min(M) <= chi2_M at DECOHERED's dm, for M = QM
    and SD, and chi2_min(DECOHERED) <= the smaller chi2_min(M); each is
    checked to NESTING_MARGIN. A failure means that some fit stopped in a
    local minimum."""
    point = [m for m in ("QM", "SD") if m in fits]
    if "DECOHERED" not in fits or not point:
        return None
    dec = fits["DECOHERED"]
    dm = dec.extra["dm"]
    failed = []
    for m in point:
        at = chi2(spectrum, m, dm, cfg.constraint, pred)
        if fits[m].chi2 > at + NESTING_MARGIN:
            failed.append(f"chi2_min({m}) = {fits[m].chi2:.2f} > chi2_{m} at "
                          f"DECOHERED's dm {dm:.4f} = {at:.2f}")
    best = min(point, key=lambda m: fits[m].chi2)
    if dec.chi2 > fits[best].chi2 + NESTING_MARGIN:
        failed.append(f"chi2_min(DECOHERED) = {dec.chi2:.2f} > "
                      f"chi2_min({best}) = {fits[best].chi2:.2f}")
    return failed


def _fit_report(spectrum, models, cfg):
    """The fits, the failed nesting checks of `_nesting`, and the report."""
    fits, pred = _fit_all(spectrum, models, cfg)
    lines = []
    for m, f in fits.items():
        theta = "zeta" if m == "DECOHERED" else "dm"
        lines.append(f"{m}: {theta} = {f.theta_hat:.4f} +- {f.theta_err:.4f}  "
                     f"chi2 = {f.chi2:.2f}  dof = {f.dof}")
        if f.flags:
            lines.append(f"  flags: {'; '.join(f.flags)}")
        if len(f.residuals):
            lines.append("  residuals/sigma: "
                         + " ".join(f"{r:+.2f}" for r in f.residuals))
    point = [m for m in fits if m != "DECOHERED"]
    if len(point) > 1:
        lines.append("significance matrix [sigma, row favoured over column]:")
        lines.append("        " + "  ".join(f"{m:>9s}" for m in point))
        for a in point:
            row = [f"{significance(fits[a], fits[b]):9.2f}" for b in point]
            lines.append(f"{a:>7s} " + "  ".join(row))
    nesting = _nesting(spectrum, fits, cfg, pred)
    lines += [f"nesting: {f}" for f in nesting or ()]
    return fits, nesting, "\n".join(lines)


def cmd_fit(args):
    spectrum = read_spectrum(args.spectrum)
    cfg = load_config(args.config).pipeline if args.config else PipelineConfig()
    models = [m.strip().upper() for m in args.models.split(",")]
    for i, m in enumerate(models):
        if m not in ("QM", "SD", "PS", "DECOHERED"):
            raise ConfigError(f"unknown fit model {m!r}")
        if m in models[:i]:
            raise ConfigError(f"fit model {m!r} given twice")
    # as in cmd_unfold: a finite but huge input overflows in the fits; the
    # report reads every fit's error and flags, which are computed on first
    # read, so they too are computed inside this block
    with np.errstate(over="raise", invalid="raise"):
        fits, nesting, report = _fit_report(spectrum, models, cfg)
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n")
        inputs = {"spectrum": _sha256(args.spectrum)} | (
            {"config": _sha256(args.config)} if args.config else {})
        # per model: its parameters, chi2 = sum(pulls**2) + the dm term;
        # and the failed nesting checks, null where the certificate does
        # not apply
        _write_log(args.out, inputs, {
            "models": models, "flags": {m: f.flags for m, f in fits.items()},
            "fits": {m: {"theta_hat": f.theta_hat, "theta_err": f.theta_err,
                         "chi2": f.chi2, "dof": f.dof,
                         "pulls": f.residuals.tolist()} | f.extra
                     for m, f in fits.items()}, "nesting": nesting})
    return EXIT_OK


def fixture_path() -> Path:
    return Path(importlib.resources.files("flavourasym") / "fixtures"
                / "table1_asymmetry")


REPRODUCTION_TARGETS = [
    # label, attribute, published value, tolerance
    ("QM dm", ("QM", "theta_hat"), 0.501, 0.005),
    ("QM dm error", ("QM", "theta_err"), 0.009, 0.002),
    ("QM chi2", ("QM", "chi2"), 5.2, 1.0),
    ("SD dm", ("SD", "theta_hat"), 0.419, 0.010),
    ("SD chi2", ("SD", "chi2"), 174.0, 10.0),
    ("PS dm", ("PS", "theta_hat"), 0.447, 0.015),
    ("PS chi2", ("PS", "chi2"), 31.3, 5.0),
    ("QM over SD [sigma]", ("SIG", "SD"), 13.0, 0.5),
    ("QM over PS [sigma]", ("SIG", "PS"), 5.1, 0.3),
    ("zeta", ("DECOHERED", "theta_hat"), 0.029, 0.02),
    ("zeta error", ("DECOHERED", "theta_err"), 0.057, 0.01),
]


def reproduce_fixture():
    """Fit the shipped published-spectrum fixture; values keyed for reporting."""
    fits, _ = _fit_all(read_spectrum(fixture_path()),
                       ("QM", "SD", "PS", "DECOHERED"), PipelineConfig())
    values = {}
    for m, f in fits.items():
        values[(m, "theta_hat")] = f.theta_hat
        values[(m, "theta_err")] = f.theta_err
        values[(m, "chi2")] = f.chi2
    values[("SIG", "SD")] = significance(fits["QM"], fits["SD"])
    values[("SIG", "PS")] = significance(fits["QM"], fits["PS"])
    return fits, values


def cmd_reproduce(args):
    path = fixture_path()
    if not path.is_file():
        print(f"fixture not found: {path}", file=sys.stderr)
        return EXIT_VALIDATION
    _, values = reproduce_fixture()
    n_fail = 0
    print(f"{'quantity':>22s} {'published':>10s} {'computed':>10s} "
          f"{'tolerance':>10s}  status")
    for label, key, target, tol in REPRODUCTION_TARGETS:
        got = values[key]
        ok = abs(got - target) <= tol
        n_fail += not ok
        print(f"{label:>22s} {target:10.3f} {got:10.3f} {tol:10.3f}  "
              f"{'PASS' if ok else 'FAIL'}")
    if n_fail:
        print(f"{n_fail} of {len(REPRODUCTION_TARGETS)} targets out of tolerance")
    else:
        print("all reproduction targets within tolerance")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="flavourasym",
        description="Time-dependent flavour-asymmetry simulation, "
                    "unfolding and model fits")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, config=False, seed=False, out=False, **kw):
        p = sub.add_parser(name, **kw)
        if config:
            p.add_argument("--config", help="run configuration file (INI)")
        if seed:
            p.add_argument("--seed", type=int, help="override the master seed")
        if out:
            p.add_argument("--out", help="output path")
        p.set_defaults(func=func)
        return p

    c = add("curves", cmd_curves, out=True,
            help="export model asymmetry curves")
    c.add_argument("--dm", type=float, default=ModelParams().dm)
    c.add_argument("--tau", type=float, default=ModelParams().tau)
    c.add_argument("--step", type=float, default=0.1)
    c.add_argument("--max", type=float, default=20.0)

    add("generate", cmd_generate, config=True, seed=True, out=True,
        help="generate a toy event file")

    a = add("analyze", cmd_analyze, config=True, out=True,
            help="bin, subtract, and tag-correct events")
    a.add_argument("events", help="event file from 'generate'")

    u = add("unfold", cmd_unfold, config=True, seed=True, out=True,
            help="unfold corrected counts to truth level")
    u.add_argument("counts", help="counts file from 'analyze'")
    u.add_argument("--response-of", help="serialized OF response matrix")
    u.add_argument("--response-sf", help="serialized SF response matrix")

    f = add("fit", cmd_fit, config=True, out=True,
            help="fit models to a spectrum file")
    f.add_argument("spectrum")
    f.add_argument("--models", default="QM,SD,PS")

    add("reproduce", cmd_reproduce,
        help="fit the shipped published spectrum and compare")
    add("init-config", cmd_init_config, seed=True, out=True,
        help="write a configuration template")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:     # argparse exits on --help and on usage errors
        return EXIT_OK if e.code is None else e.code
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as e:    # numpy names the array it could not allocate
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
