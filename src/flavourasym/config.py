"""INI-style run configuration: sections [model], [detector], [backgrounds],
[run], plus optional [unfold], [fit], [binning]. The master seed is
mandatory; there is no wall-clock fallback."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .analysis import Binning
from .fitkit import Constraint
from .models import ModelParams
from .pipeline import PipelineConfig
from .toygen import (BackgroundConfig, BackgroundShape, CategoryYield,
                     DetectorConfig, EventCategory, GenModel)
from .unfold import UnfoldConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "default_config_text"]


class ConfigError(ValueError):
    """Malformed configuration, with section/field diagnostics."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: model choice plus the pipeline config."""

    model: GenModel
    pipeline: PipelineConfig


def _get(cp, section, key, conv, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] is missing required field {key!r}")
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except ValueError as e:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {e}") from e


def _fields(cp, section, cls, keys: dict):
    """cls from [section], keys mapping each field to its INI key; a missing
    key keeps the field's default, and values parse as the default's type."""
    d = cls()
    return cls(**{f: _get(cp, section, k, type(getattr(d, f)), getattr(d, f))
                  for f, k in keys.items()})


def _parse_bool(raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_background_line(cat: str, raw: str, tau: float) -> CategoryYield:
    parts = raw.split()
    if len(parts) < 2:
        raise ConfigError(
            f"[backgrounds] {cat}: expected 'n_of n_sf [of_err sf_err] "
            f"[shape [tau_eff]]', got {raw!r}")
    try:
        n_of, n_sf = float(parts[0]), float(parts[1])
        of_err = float(parts[2]) if len(parts) > 2 else 0.0
        sf_err = float(parts[3]) if len(parts) > 3 else 0.0
    except ValueError as e:
        raise ConfigError(f"[backgrounds] {cat}: {e}") from e
    kind = parts[4] if len(parts) > 4 else "exp"
    tau_eff = float(parts[5]) if len(parts) > 5 else tau
    return CategoryYield(n_of, n_sf, of_err, sf_err,
                         BackgroundShape(kind, tau_eff))


def load_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in ("model", "detector", "backgrounds", "run"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    name = _get(cp, "model", "name", str, default="QM").upper()
    try:
        model = GenModel[name]
    except KeyError:
        raise ConfigError(
            f"[model] name = {name!r}: expected one of "
            f"{', '.join(m.name for m in GenModel)}")
    params = _fields(cp, "model", ModelParams,
                     {"dm": "dm", "tau": "tau", "zeta": "zeta"})
    detector = _fields(cp, "detector", DetectorConfig,
                       {"resolution_sigma": "resolution_um",
                        "extra_smear_sigma": "extra_smear_um",
                        "mistag_fraction": "mistag"})
    yields = {}
    for cat in (EventCategory.DSTAR_FAKE, EventCategory.WRONG_COMBINATION,
                EventCategory.DSS_CHARGED):
        if cp.has_option("backgrounds", cat.value):
            yields[cat] = _parse_background_line(
                cat.value, cp.get("backgrounds", cat.value), params.tau)
    backgrounds = BackgroundConfig(
        yields=yields,
        fixed_counts=_get(cp, "backgrounds", "fixed_counts", _parse_bool, False),
    )
    binning = _get(cp, "binning", "edges",
                   lambda raw: Binning(tuple(float(x) for x in raw.split())),
                   Binning())
    unfold = _fields(cp, "unfold", UnfoldConfig,
                     {k: k for k in ("rank_of", "rank_sf", "mix_s", "mix_o")})
    constraint = _fields(cp, "fit", Constraint,
                         {"mean": "constraint_mean",
                          "sigma": "constraint_sigma"})
    seed = _get(cp, "run", "seed", int, required=True)
    if _get(cp, "run", "streams", int, 1) != 1:
        # a config written for split signal streams would silently give
        # different events
        raise ConfigError("[run] streams: only one signal stream is "
                          "supported; remove the key")
    dp = PipelineConfig()
    pipeline = PipelineConfig(
        params=params, detector=detector, backgrounds=backgrounds,
        binning=binning, unfold=unfold, constraint=constraint,
        n_signal=_get(cp, "run", "n_signal", int, dp.n_signal),
        n_response_mc=_get(cp, "run", "n_response_mc", int, dp.n_response_mc),
        seed=seed,
    )
    return RunConfig(model=model, pipeline=pipeline)


def default_config_text(seed: int = 1) -> str:
    """A complete commented template at the published analysis scale."""
    return f"""\
[model]
name = QM
dm = 0.507
tau = 1.53
zeta = 0.0

[detector]
resolution_um = 100
extra_smear_um = 46
mistag = 0.015

[backgrounds]
# category = n_of n_sf of_err sf_err shape [tau_eff]
dstar_fake = 126 54 6 4 exp
wrong_combination = 78 237 9 15 exp
dss_charged = 254 1.5 16 0.5 exp
fixed_counts = false

[run]
n_signal = 7815
seed = {seed}
n_response_mc = 400000

[unfold]
rank_of = 5
rank_sf = 6
mix_s = 0.2
mix_o = 0.2

[fit]
constraint_mean = 0.496
constraint_sigma = 0.014

[binning]
edges = 0 0.5 1 2 3 4 5 6 7 9 13 20
"""
