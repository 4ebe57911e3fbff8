"""INI-style run configuration: sections [model], [detector], [backgrounds],
[run], plus optional [unfold], [fit], [binning]. The master seed is
mandatory; there is no wall-clock fallback."""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .analysis import Binning
from .fitkit import Constraint
from .models import ModelParams
from .pipeline import PipelineConfig
from .toygen import (BACKGROUND_CATEGORIES, BackgroundConfig,
                     BackgroundShape, CategoryYield, DetectorConfig, GenModel)
from .unfold import UnfoldConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "default_config_text"]


class ConfigError(ValueError):
    """Malformed configuration, with section/field diagnostics."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: model choice plus the pipeline config."""

    model: GenModel
    pipeline: PipelineConfig


# section -> (dataclass, {field: INI key}), in template order. [model] also
# holds the model name, [backgrounds] one line per category, and [binning]
# the edges; [run] holds PipelineConfig's own fields.
_SECTIONS = {
    "model": (ModelParams, {"dm": "dm", "tau": "tau", "zeta": "zeta"}),
    "detector": (DetectorConfig, {"resolution_sigma": "resolution_um",
                                  "extra_smear_sigma": "extra_smear_um",
                                  "mistag_fraction": "mistag"}),
    "backgrounds": (BackgroundConfig, {"fixed_counts": "fixed_counts"}),
    "run": (PipelineConfig, {"n_signal": "n_signal", "seed": "seed",
                             "n_response_mc": "n_response_mc"}),
    "unfold": (UnfoldConfig,
               {k: k for k in ("rank_of", "rank_sf", "mix_s", "mix_o")}),
    "fit": (Constraint, {"mean": "constraint_mean",
                         "sigma": "constraint_sigma"}),
}


# keys read outside the table
_OTHER_KEYS = {"model": {"name"}, "binning": {"edges"},
               "backgrounds": {cat.value for cat in BACKGROUND_CATEGORIES}}


def _get(cp, section, key, conv, default=None):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except ValueError as e:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {e}") from e


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _fields(cp, section) -> dict:
    """Every field of `section`'s dataclass, read from its key as its
    default's type, or the default where the key is absent."""
    cls, keys = _SECTIONS[section]
    d = vars(cls())
    return {f: _get(cp, section, k, _parse_bool if isinstance(d[f], bool)
                    else type(d[f]), d[f]) for f, k in keys.items()}


def _parse_background_line(cat: str, raw: str, tau: float) -> CategoryYield:
    parts = raw.split()
    try:
        if len(parts) < 2:
            raise ValueError("expected 'n_of n_sf [of_err sf_err] "
                             f"[shape [tau_eff]]', got {raw!r}")
        n_of, n_sf, of_err, sf_err = (float(v)
                                      for v in (parts + ["0", "0"])[:4])
        kind = parts[4] if len(parts) > 4 else "exp"
        tau_eff = float(parts[5]) if len(parts) > 5 else tau
        return CategoryYield(n_of, n_sf, of_err, sf_err,
                             BackgroundShape(kind, tau_eff))
    except ValueError as e:
        raise ConfigError(f"[backgrounds] {cat}: {e}") from e


def load_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   default_section="")  # [DEFAULT] is unknown
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    for section in ("model", "detector", "backgrounds", "run"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    if not cp.has_option("run", "seed"):
        raise ConfigError("[run] is missing required field 'seed'")
    for section in cp.sections():   # refuse what the reader does not know
        known = _OTHER_KEYS.get(section, set()) | set(
            _SECTIONS.get(section, (None, {}))[1].values())
        if not known:
            raise ConfigError(f"[{section}]: unknown section")
        for key in cp.options(section):
            if key not in known:
                raise ConfigError(f"[{section}] {key}: unknown key")

    name = _get(cp, "model", "name", str, default="QM").upper()
    try:
        model = GenModel[name]
    except KeyError:
        raise ConfigError(
            f"[model] name = {name!r}: expected one of "
            f"{', '.join(m.name for m in GenModel)}")
    params = ModelParams(**_fields(cp, "model"))
    yields = {cat: _parse_background_line(cat.value,
                                          cp.get("backgrounds", cat.value),
                                          params.tau)
              for cat in BACKGROUND_CATEGORIES
              if cp.has_option("backgrounds", cat.value)}
    binning = _get(cp, "binning", "edges",
                   lambda raw: Binning(tuple(float(x) for x in raw.split())),
                   Binning())
    pipeline = PipelineConfig(
        params=params, detector=DetectorConfig(**_fields(cp, "detector")),
        backgrounds=BackgroundConfig(yields, **_fields(cp, "backgrounds")),
        binning=binning, unfold=UnfoldConfig(**_fields(cp, "unfold")),
        constraint=Constraint(**_fields(cp, "fit")), **_fields(cp, "run"))
    return RunConfig(model=model, pipeline=pipeline)


def _ini(value) -> str:
    """INI text that reads back equal: 100.0 as 100, False as false."""
    return str(value).lower().removesuffix(".0")


def default_config_text(seed: int = 1) -> str:
    """A complete template at the published analysis scale, written from
    `PipelineConfig.paper_scale` through the key table."""
    cfg = PipelineConfig.paper_scale(seed=seed)
    of = {type(v): v for v in (cfg, cfg.params, cfg.detector,
                               cfg.backgrounds, cfg.unfold, cfg.constraint)}
    lines = []
    for section, (cls, keys) in _SECTIONS.items():
        lines.append(f"[{section}]")
        if section == "model":
            lines.append(f"name = {GenModel.QM.value}")
        if section == "backgrounds":
            lines.append("# category = n_of n_sf of_err sf_err shape "
                         "[tau_eff]")
            for cat in BACKGROUND_CATEGORIES:
                y = cfg.backgrounds.yields[cat]
                v = [y.n_of, y.n_sf, y.n_of_err, y.n_sf_err, y.shape.kind]
                if y.shape.tau_eff != cfg.params.tau:
                    v.append(y.shape.tau_eff)
                lines.append(f"{cat.value} = " + " ".join(map(_ini, v)))
        lines += [f"{k} = {_ini(getattr(of[cls], f))}"
                  for f, k in keys.items()]
        lines.append("")
    lines += ["[binning]", "edges = " + " ".join(_ini(e) for e in
                                                 cfg.binning.edges)]
    return "\n".join(lines) + "\n"
