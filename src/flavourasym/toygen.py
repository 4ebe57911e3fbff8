"""Seeded toy generation of B-pair decays with detector response and backgrounds.

Events are kept in a numpy structured array whose fields match the event-file
columns. The flavour classes and the category are small integer codes in
memory and strings only in the file: `write_events` maps the codes to their
names and `read_events` maps validated names back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ._table import read_table, write_table
from .models import ModelParams, _ps_lower_joint, _ps_upper_joint

__all__ = [
    "C_UM_PER_PS",
    "BETA_GAMMA",
    "GenModel",
    "EventCategory",
    "DetectorConfig",
    "BackgroundShape",
    "BackgroundConfig",
    "CLASS_NAMES",
    "CLS_OF",
    "CATEGORY_CODE",
    "EVENT_DTYPE",
    "sample_pair",
    "apply_detector",
    "response_sample",
    "inject_backgrounds",
    "make_signal_events",
    "generate_ensemble",
    "write_events",
    "read_events",
]

C_UM_PER_PS = 299.792458  # speed of light in micrometres per picosecond
BETA_GAMMA = 0.425        # boost of the producing resonance along z
_DZ_PER_PS = BETA_GAMMA * C_UM_PER_PS   # um of vertex separation per ps
DT_RANGE = (0.0, 20.0)    # analysis window in ps


class GenModel(enum.Enum):
    QM = "QM"
    SD = "SD"
    PS_BOUNDARY_MAX = "PS_BOUNDARY_MAX"
    PS_BOUNDARY_MIN = "PS_BOUNDARY_MIN"
    DECOHERED = "DECOHERED"


class EventCategory(enum.Enum):
    SIGNAL = "signal"
    DSTAR_FAKE = "dstar_fake"
    WRONG_COMBINATION = "wrong_combination"
    DSS_CHARGED = "dss_charged"


# cls_true and cls_assigned hold an index into CLASS_NAMES; category holds
# an index into EventCategory in declaration order. Code 0 is OF and SIGNAL,
# so a zeroed record is an OF signal event.
CLASS_NAMES = ("OF", "SF")
CLS_OF = 0
CATEGORY_CODE = {cat: code for code, cat in enumerate(EventCategory)}

EVENT_DTYPE = np.dtype([
    ("t1_ps", "f8"),
    ("t2_ps", "f8"),
    ("dt_true_ps", "f8"),
    ("cls_true", "i1"),
    ("dz_rec_um", "f8"),
    ("dt_rec_ps", "f8"),
    ("cls_assigned", "i1"),
    ("category", "i1"),
    ("stream", "i4"),
    ("index", "i4"),
])


@dataclass(frozen=True)
class DetectorConfig:
    """Gaussian dz response and an effective flavour mistag probability."""

    resolution_sigma: float = 100.0   # um
    extra_smear_sigma: float = 46.0   # um, MC-to-data tuning term
    mistag_fraction: float = 0.015

    def __post_init__(self):
        if self.resolution_sigma < 0 or self.extra_smear_sigma < 0:
            raise ValueError("smearing sigmas must be non-negative")
        if not 0.0 <= self.mistag_fraction < 0.5:
            raise ValueError("mistag fraction must lie in [0, 0.5)")

    @property
    def total_sigma(self) -> float:
        return float(np.hypot(self.resolution_sigma, self.extra_smear_sigma))


@dataclass(frozen=True)
class BackgroundShape:
    """dt shape of one background category, normalized over the analysis window."""

    kind: str = "exp"       # "exp" or "flat"
    tau_eff: float = 1.53   # ps, used by the "exp" kind

    def __post_init__(self):
        if self.kind not in ("exp", "flat"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.kind == "exp" and self.tau_eff <= 0:
            raise ValueError("tau_eff must be positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = DT_RANGE
        if self.kind == "flat":
            return rng.uniform(lo, hi, size=n)
        # inverse CDF of the exponential truncated to the window
        u = rng.random(n)
        z = 1.0 - np.exp(-(hi - lo) / self.tau_eff)
        return lo - self.tau_eff * np.log1p(-u * z)

    def bin_fractions(self, edges: np.ndarray) -> np.ndarray:
        """Probability content of each bin of `edges` within the window."""
        lo, hi = DT_RANGE
        e = np.clip(np.asarray(edges, dtype=float), lo, hi)
        if self.kind == "flat":
            cdf = (e - lo) / (hi - lo)
        else:
            z = 1.0 - np.exp(-(hi - lo) / self.tau_eff)
            cdf = (1.0 - np.exp(-(e - lo) / self.tau_eff)) / z
        return np.diff(cdf)


@dataclass(frozen=True)
class CategoryYield:
    n_of: float
    n_sf: float
    n_of_err: float = 0.0
    n_sf_err: float = 0.0
    shape: BackgroundShape = field(default_factory=BackgroundShape)

    def __post_init__(self):
        if self.n_of < 0 or self.n_sf < 0:
            raise ValueError("background yields must be non-negative")


@dataclass(frozen=True)
class BackgroundConfig:
    """Expected OF/SF yields and dt shapes for the background categories."""

    yields: dict = field(default_factory=dict)  # EventCategory -> CategoryYield
    fixed_counts: bool = False                  # skip the Poisson fluctuation

    @classmethod
    def paper_scale(cls, tau: float = ModelParams().tau,
                    fixed_counts: bool = False):
        """Default yields at the scale of the published event sample."""
        return cls(yields={
            EventCategory.DSTAR_FAKE: CategoryYield(
                126.0, 54.0, 6.0, 4.0, BackgroundShape("exp", tau)),
            EventCategory.WRONG_COMBINATION: CategoryYield(
                78.0, 237.0, 9.0, 15.0, BackgroundShape("exp", tau)),
            EventCategory.DSS_CHARGED: CategoryYield(
                254.0, 1.5, 16.0, 0.5, BackgroundShape("exp", tau)),
        }, fixed_counts=fixed_counts)

    def total(self) -> float:
        return sum(y.n_of + y.n_sf for y in self.yields.values())


def _joint_asymmetry(model: GenModel, t1, t2, p: ModelParams,
                     rng: np.random.Generator):
    dt = np.abs(t1 - t2)
    t_min = np.minimum(t1, t2)
    if model is GenModel.QM:
        return np.cos(p.dm * dt)
    if model is GenModel.SD:
        return np.cos(p.dm * t1) * np.cos(p.dm * t2)
    if model is GenModel.PS_BOUNDARY_MAX:
        return _ps_upper_joint(t_min, dt, p.dm)
    if model is GenModel.PS_BOUNDARY_MIN:
        return _ps_lower_joint(t_min, dt, p.dm)
    if model is GenModel.DECOHERED:
        a_qm = np.cos(p.dm * dt)
        a_sd = np.cos(p.dm * t1) * np.cos(p.dm * t2)
        pick_sd = rng.random(np.shape(dt)) < p.zeta
        return np.where(pick_sd, a_sd, a_qm)
    raise ValueError(f"unknown generation model {model}")


def sample_pair(model: GenModel, p: ModelParams, rng: np.random.Generator,
                size: int = 1):
    """Draw (t1, t2, cls_true) for `size` pairs under the given model.

    The pair time density factorizes as exp(-(t1+t2)/tau)/tau^2; the flavour
    class is Bernoulli with OF probability (1 + A_model(t1, t2)) / 2.
    """
    t1 = rng.exponential(p.tau, size)
    t2 = rng.exponential(p.tau, size)
    a = _joint_asymmetry(model, t1, t2, p, rng)
    if np.any(np.abs(a) > 1.0 + 1e-9):
        raise ArithmeticError(
            "model asymmetry escaped [-1, 1]; generation envelope violated")
    is_of = rng.random(size) < (1.0 + a) / 2.0
    return t1, t2, is_of


def _smear(dt_true, sigma: float, z):
    """(dz_rec, dt_rec) of true dt under a Gaussian dz resolution `sigma`,
    given standard-normal draws `z` (unread when sigma is 0).

    dz is folded: the measured observable is |t1 - t2|, so negative dz maps
    to small dt. sigma * z equals rng.normal(0, sigma) on the same draws.
    """
    dz = _DZ_PER_PS * dt_true
    if sigma > 0:
        dz = dz + sigma * z
    return dz, np.abs(dz) / _DZ_PER_PS


def apply_detector(events: np.ndarray, d: DetectorConfig,
                   rng: np.random.Generator) -> np.ndarray:
    """Fill dz_rec/dt_rec and the assigned class from the truth fields.

    Works in place: `events` itself is filled and returned.
    """
    n = len(events)
    z = rng.standard_normal(n) if d.total_sigma > 0 else None
    events["dz_rec_um"], events["dt_rec_ps"] = _smear(
        events["dt_true_ps"], d.total_sigma, z)
    flip = rng.random(n) < d.mistag_fraction
    events["cls_assigned"] = events["cls_true"] ^ flip  # swaps codes 0, 1
    return events


def response_sample(model: GenModel, p: ModelParams, n: int, sigmas,
                    rng: np.random.Generator):
    """Columns of a response-training sample: (dt_true, cls_true codes,
    [dt_rec for each resolution in `sigmas`]).

    The draws are those of `make_signal_events` in its order, so each dt_rec
    equals that of a signal sample generated alone at that resolution: the
    pairs, then one standard-normal vector shared by every resolution (none
    when all are 0). The mistag flips, drawn last there, are not drawn;
    nothing that trains on the true class reads them.
    """
    t1, t2, is_of = sample_pair(model, p, rng, n)
    dt = np.abs(t1 - t2)
    z = rng.standard_normal(n) if max(sigmas) > 0 else None
    return dt, (~is_of).view(np.int8), [_smear(dt, s, z)[1] for s in sigmas]


def _join(parts) -> np.ndarray:
    """Concatenate event records as raw bytes: numpy's field-by-field
    structured concatenate is about 20 times slower for the same bytes."""
    return np.concatenate([np.ascontiguousarray(p, dtype=EVENT_DTYPE)
                           .view(np.uint8) for p in parts]).view(EVENT_DTYPE)


def make_signal_events(model: GenModel, p: ModelParams, n: int,
                       d: DetectorConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Generate `n` signal pairs and run them through the detector model;
    their `stream` field is 0."""
    ev = np.zeros(n, dtype=EVENT_DTYPE)
    t1, t2, is_of = sample_pair(model, p, rng, n)
    ev["t1_ps"] = t1
    ev["t2_ps"] = t2
    ev["dt_true_ps"] = np.abs(t1 - t2)
    ev["cls_true"] = ~is_of                 # code 1, SF, where not OF
    ev["index"] = np.arange(n)
    return apply_detector(ev, d, rng)


def inject_backgrounds(signal: np.ndarray, b: BackgroundConfig,
                       d: DetectorConfig, rng: np.random.Generator,
                       stream: int = 0) -> np.ndarray:
    """Append background events with configured yields, shapes and OF/SF split."""
    parts = [signal]
    next_index = int(signal["index"].max()) + 1 if len(signal) else 0
    for cat in (EventCategory.DSTAR_FAKE, EventCategory.WRONG_COMBINATION,
                EventCategory.DSS_CHARGED):
        y = b.yields.get(cat)
        if y is None or (y.n_of + y.n_sf) == 0:
            continue
        mean = y.n_of + y.n_sf
        n = int(round(mean)) if b.fixed_counts else int(rng.poisson(mean))
        if n == 0:
            continue
        ev = np.zeros(n, dtype=EVENT_DTYPE)
        dt = y.shape.sample(n, rng)
        ev["t1_ps"] = dt
        ev["dt_true_ps"] = dt
        is_of = rng.random(n) < y.n_of / mean
        ev["cls_true"] = ~is_of
        ev["category"] = CATEGORY_CODE[cat]
        ev["stream"] = stream
        ev["index"] = np.arange(next_index, next_index + n)
        next_index += n
        # backgrounds see the same vertex resolution but are never retagged
        parts.append(apply_detector(ev, DetectorConfig(
            d.resolution_sigma, d.extra_smear_sigma, 0.0), rng))
    return _join(parts) if len(parts) > 1 else signal


def stream_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic sub-stream of the master seed."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(master_seed), int(stream)])))


def generate_ensemble(model: GenModel, p: ModelParams, d: DetectorConfig,
                      b: BackgroundConfig, n_signal: int,
                      master_seed: int) -> np.ndarray:
    """Deterministic generation; identical inputs give identical events.

    Signal draws from stream 0 of the master seed and backgrounds from
    stream 1, so signal events do not move when the background
    configuration changes."""
    signal = make_signal_events(model, p, n_signal, d,
                                stream_rng(master_seed, 0))
    return inject_backgrounds(signal, b, d, stream_rng(master_seed, 1),
                              stream=1)


_COLUMNS = list(EVENT_DTYPE.names)
_FMT = {"f": "%.9g", "i": "%d"}
# the file strings of the code columns, indexed by code
_NAMES = {"cls_true": CLASS_NAMES, "cls_assigned": CLASS_NAMES,
          "category": tuple(c.value for c in EventCategory)}


def write_events(events: np.ndarray, path) -> None:
    """Events as CSV, one row per event, with the codes written as names."""
    write_table(path, [np.array(_NAMES[c], dtype=object)[events[c]]
                       if c in _NAMES else events[c] for c in _COLUMNS],
                ["%s" if c in _NAMES else _FMT[EVENT_DTYPE[c].kind]
                 for c in _COLUMNS], _COLUMNS)


def read_events(path) -> np.ndarray:
    """Events from a file written by `write_events`; rejects malformed rows,
    non-finite numbers, unknown class codes and unknown categories."""
    t = read_table(path, _COLUMNS)
    ev = np.zeros(len(t.columns[0]), dtype=EVENT_DTYPE)
    for j, col in enumerate(_COLUMNS):
        if col in _NAMES:
            ev[col] = t.codes(j, _NAMES[col])
        else:
            kind = EVENT_DTYPE[col].kind
            ev[col] = t.numbers(j, float if kind == "f" else int)
    return ev
