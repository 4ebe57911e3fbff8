"""The benchmark's three workloads and the correctness check of their outputs.

Each workload drives the package only through its public modules, looked up
at call time so that the tracer's wrappers are seen. `run_pass` is the timed
work; `outputs` turns a pass into plain JSON values outside the timed region;
`compare` checks those values against the reference run's and returns one
verdict per op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

# Outputs that are straight-line arithmetic on seeded draws must match to
# rounding; a change in summation order moves them by ~1e-15.
ARRAY_RTOL, ARRAY_ATOL = 1e-9, 1e-12
# Fit results come out of minimizers (dm xatol 1e-5) and band averages; an
# exact closed-form band moves the PS fit by 4e-6 in dm and 1e-5 in chi2 and
# the PS truth asymmetry by 2e-6, all inside this, while a 400 -> 100 node
# t_min grid moves the PS chi2 by 2.4e-3, outside it.
FIT_RTOL, FIT_ATOL = 1e-5, 1e-4


def close(got, ref, rtol, atol) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= atol + rtol * np.abs(ref)))


class Probe:
    """Times each call of a package function bound at `owner.attr`, and
    keeps `keep(result)` of each call if given."""

    def __init__(self, owner, attr, keep=None):
        self.owner, self.attr, self.keep = owner, attr, keep
        self.seconds, self.kept = [], []

    def __enter__(self):
        fn = self.fn = getattr(self.owner, self.attr)

        def probe(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds.append(time.perf_counter() - t0)
            if self.keep is not None:
                self.kept.append(self.keep(out))
            return out

        setattr(self.owner, self.attr, probe)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.fn)


class Reproduce:
    name = "reproduce"
    why = ("the Table-1 fixture fits: fitkit and the models band do the work; "
           "no toygen, unfold or event I/O")
    layers = {"cli", "analysis", "fitkit", "models"}
    op = "one fresh cli.reproduce_fixture() call"
    ops_per_pass = 1

    def __init__(self, fa, seed, workdir):
        self.fa = fa

    def prepare(self):
        pass

    def run_pass(self):
        # a fresh call builds a fresh BinPredictor, so no band grid carries over
        return self.fa.cli.reproduce_fixture()[1]

    def outputs(self, raw):
        return {"values": {"|".join(k): float(v) for k, v in raw.items()}}

    def op_seconds(self, raw, wall):
        return [wall]

    def compare(self, got, ref):
        ok = (got["values"].keys() == ref["values"].keys() and all(
            close(got["values"][k], v, FIT_RTOL, FIT_ATOL)
            for k, v in ref["values"].items()))
        return [ok]

    def verdicts(self, got):
        """The package's own PASS/FAIL table against the published values."""
        lines, n_fail = [], 0
        targets = self.fa.cli.REPRODUCTION_TARGETS
        for label, key, target, tol in targets:
            v = got["values"]["|".join(key)]
            ok = abs(v - target) <= tol
            n_fail += not ok
            lines.append(f"{label:>22s} published {target:8.3f} computed "
                         f"{v:8.3f} tolerance {tol:6.3f}  {'PASS' if ok else 'FAIL'}")
        lines.append(f"{len(targets) - n_fail} of {len(targets)} reproduction "
                     f"targets within the published tolerance")
        return lines


class Ensemble:
    name = "ensemble"
    why = ("paper-scale calibration: toygen, analysis, unfold and pipeline do "
           "the work; the PS band is used once")
    layers = {"pipeline", "toygen", "analysis", "unfold", "fitkit", "models"}
    # per model, for QM, SD and PS_BOUNDARY_MAX; with the smear replicas,
    # 190 ops per pass, and a pass short enough that a run has 3 to 4 pairs
    n_replicas = 50
    n_smear_replicas = 10   # per smear variant; each runs 2 replicas
    n_response_mc = 2_000_000
    op = "one pipeline.run_replica() call"

    def __init__(self, fa, seed, workdir):
        self.fa, self.seed = fa, seed

    @property
    def ops_per_pass(self):
        return 3 * self.n_replicas + 4 * self.n_smear_replicas

    def prepare(self):
        P, G = self.fa.pipeline, self.fa.toygen.GenModel
        self.models = (G.QM, G.SD, G.PS_BOUNDARY_MAX)
        self.cfg = P.PipelineConfig.paper_scale(
            seed=self.seed, n_response_mc=self.n_response_mc)
        # the smear systematic at the acceptance test's response statistics
        self.smear_cfg = P.PipelineConfig.paper_scale(seed=self.seed)

    def run_pass(self):
        fa, cfg = self.fa, self.cfg
        P, F = fa.pipeline, fa.fitkit
        with Probe(P, "run_replica") as replicas, \
                Probe(P, "generate_ensemble", keep=len) as events:
            res = P.run_ensemble(self.models, self.n_replicas, cfg)
            pred = F.BinPredictor(cfg.binning, tau=cfg.params.tau)
            c = F.Constraint()
            sig = []
            for a, err in zip(res["unfolded"]["QM"], res["errors"]["QM"]):
                spec = fa.analysis.AsymmetrySpectrum(
                    cfg.binning, a - res["correction"], err)
                spec = spec.with_syst("deconvolution",
                                      res["deconvolution_systematic"])
                sig.append(F.significance(F.fit_model(spec, "QM", c, pred),
                                          F.fit_model(spec, "SD", c, pred)))
            smear = P.smear_systematic(self.smear_cfg, delta_um=35.0,
                                       n_replicas=self.n_smear_replicas)
        n_events = sum(events.kept)
        return (res, sig, smear, n_events), replicas.seconds

    def outputs(self, raw):
        (res, sig, smear, n_events), _ = raw
        per_model = lambda key: {m: np.asarray(v).tolist()
                                 for m, v in res[key].items()}
        return {
            "unfolded": per_model("unfolded"),
            "errors": per_model("errors"),
            "truth": per_model("truth"),
            "correction": res["correction"].tolist(),
            "deconvolution_systematic": res["deconvolution_systematic"].tolist(),
            "significance_qm_sd": [float(s) for s in sig],
            "smear_systematic": np.asarray(smear).tolist(),
            "n_events": n_events,
        }

    def op_seconds(self, raw, wall):
        return raw[1]

    def compare(self, got, ref):
        """One verdict per run_replica call: the ensemble replicas in model
        order, then the smear-systematic replicas, whose only output is the
        smear systematic. A wrong shared output fails every op."""
        n = self.n_replicas
        shared = all(close(got[k], ref[k], FIT_RTOL, FIT_ATOL) for k in
                     ("correction", "deconvolution_systematic")) and all(
            m in got["truth"] and close(got["truth"][m], t, FIT_RTOL, FIT_ATOL)
            for m, t in ref["truth"].items())
        smear = close(got["smear_systematic"], ref["smear_systematic"],
                      ARRAY_RTOL, ARRAY_ATOL)
        ok = []
        for m in self.models:
            g_rows, r_rows = got["unfolded"][m.value], ref["unfolded"][m.value]
            g_errs, r_errs = got["errors"][m.value], ref["errors"][m.value]
            for r in range(n):
                ok.append(shared and len(g_rows) == n
                          and close(g_rows[r], r_rows[r], ARRAY_RTOL, ARRAY_ATOL)
                          and close(g_errs[r], r_errs[r], ARRAY_RTOL, ARRAY_ATOL))
        for r in range(n):
            ok[r] = ok[r] and close(got["significance_qm_sd"][r:r + 1],
                                    ref["significance_qm_sd"][r:r + 1],
                                    FIT_RTOL, FIT_ATOL)
        ok += [shared and smear] * (self.ops_per_pass - len(ok))
        return ok


_NUMBER = re.compile(r"[-+]?\d+\.\d+")


class CliChain:
    name = "cli_chain"
    why = ("in-process CLI chain on a 100k-event toy: event CSV I/O, config "
           "and the file formats do the work")
    layers = {"cli", "config", "toygen", "analysis", "pipeline", "unfold",
              "fitkit", "models"}
    op = "one pass of init-config, generate, analyze, unfold and fit"
    ops_per_pass = 1
    n_signal = 100_000
    data_files = ("events.csv", "spectrum.csv", "spectrum.counts.csv",
                  "unfolded.csv", "unfolded.resp_of.csv", "unfolded.resp_sf.csv")

    def __init__(self, fa, seed, workdir):
        self.fa, self.seed, self.workdir = fa, seed, Path(workdir)

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self):
        d = Path(tempfile.mkdtemp(prefix="cli_chain.", dir=self.workdir))
        try:
            return d, self._chain(d)
        except BaseException:
            shutil.rmtree(d)
            raise

    def _chain(self, d):
        """Exit codes of the five subcommands, run in directory d."""
        main = self.fa.cli.main
        cfg, events = str(d / "run.cfg"), str(d / "events.csv")
        spectrum, unfolded = str(d / "spectrum.csv"), str(d / "unfolded.csv")
        rc = []
        with contextlib.redirect_stdout(io.StringIO()):
            rc.append(main(["init-config", "--out", cfg,
                            "--seed", str(self.seed)]))
            text, n = re.subn(r"(?m)^n_signal\s*=.*$",
                              f"n_signal = {self.n_signal}",
                              Path(cfg).read_text())
            if n != 1:
                raise RuntimeError("config template has no single n_signal line")
            Path(cfg).write_text(text)
            rc.append(main(["generate", "--config", cfg, "--out", events]))
            rc.append(main(["analyze", "--config", cfg, events,
                            "--out", spectrum]))
            rc.append(main(["unfold", "--config", cfg,
                            str(d / "spectrum.counts.csv"), "--out", unfolded]))
            rc.append(main(["fit", unfolded, "--config", cfg,
                            "--models", "QM,SD,PS", "--out",
                            str(d / "fit.txt")]))
        return rc

    def outputs(self, raw):
        d, rc = raw
        try:
            out = {"exit_codes": rc, "sha256": {}}
            for f in self.data_files:
                p = d / f
                out["sha256"][f] = (hashlib.sha256(p.read_bytes()).hexdigest()
                                    if p.is_file() else None)
            events = d / "events.csv"
            with open(events, "rb") as fh:
                out["n_events"] = sum(1 for _ in fh) - 1
            report = (d / "fit.txt").read_text()
            out["fit_text"] = _NUMBER.sub("#", report)
            out["fit_numbers"] = _NUMBER.findall(report)
            return out
        finally:
            shutil.rmtree(d)

    def op_seconds(self, raw, wall):
        return [wall]

    def compare(self, got, ref):
        """Data files byte for byte; the fit report's numbers to one unit in
        their last printed digit, since a fit value that moves in its 6th
        decimal can flip the rounding of a printed one."""
        ok = (all(c == 0 for c in got["exit_codes"])
              and got["sha256"] == ref["sha256"]
              and got["fit_text"] == ref["fit_text"]
              and len(got["fit_numbers"]) == len(ref["fit_numbers"]))
        if ok:
            for g, r in zip(got["fit_numbers"], ref["fit_numbers"]):
                ulp = 10.0 ** -len(r.split(".")[1])
                ok = ok and abs(float(g) - float(r)) <= ulp * (1 + 1e-9)
        return [ok]


WORKLOADS = {w.name: w for w in (Reproduce, Ensemble, CliChain)}
