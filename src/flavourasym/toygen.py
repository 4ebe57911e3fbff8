"""Seeded toy generation of B-pair decays with detector response and backgrounds.

Events are kept in a numpy structured array whose fields match the event-file
columns; `generate_ensemble` can fill records of only some of those fields,
with the values the full records hold. The flavour classes and the category are small integer codes in
memory and names only in the file: their fields are code columns, which the
table layer writes as names and reads back as codes.

One routine, `_draw_pairs`, draws every signal pair, in one fixed order
whatever is kept. Where no time is kept and the model reads only dt (QM
records without t1_ps and t2_ps, and the response-training sample), dt
lives in the buffer t1 was drawn into and t2 is never whole.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ._table import code_field, read_table, write_table
from .models import ModelParams, _ps_joint

__all__ = [
    "C_UM_PER_PS",
    "BETA_GAMMA",
    "GenModel",
    "EventCategory",
    "BACKGROUND_CATEGORIES",
    "DetectorConfig",
    "BackgroundShape",
    "BackgroundConfig",
    "CLASS_NAMES",
    "CLS_OF",
    "CATEGORY_CODE",
    "EVENT_DTYPE",
    "sample_pair",
    "response_sample",
    "make_signal_events",
    "generate_ensemble",
    "write_events",
    "read_events",
]

C_UM_PER_PS = 299.792458  # speed of light in micrometres per picosecond
BETA_GAMMA = 0.425        # boost of the producing resonance along z
_DZ_PER_PS = BETA_GAMMA * C_UM_PER_PS   # um of vertex separation per ps
DT_RANGE = (0.0, 20.0)    # analysis window in ps
_BLOCK = 1 << 16          # pairs per block of the work after the draws


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


BACKGROUND_CATEGORIES = tuple(EventCategory)[1:]   # every category but SIGNAL

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
    ("cls_true", code_field(CLASS_NAMES)),
    ("dz_rec_um", "f8"),
    ("dt_rec_ps", "f8"),
    ("cls_assigned", code_field(CLASS_NAMES)),
    ("category", code_field(c.value for c in EventCategory)),
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
        for name in ("resolution_sigma", "extra_smear_sigma"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")
        if not 0.0 <= self.mistag_fraction < 0.5:
            raise ValueError("mistag fraction must lie in [0, 0.5)")

    @property
    def total_sigma(self) -> float:
        return float(np.hypot(self.resolution_sigma, self.extra_smear_sigma))


@dataclass(frozen=True)
class BackgroundShape:
    """dt shape of one background category, normalized over the analysis window."""

    kind: str = "exp"       # "exp" or "flat"
    tau_eff: float = ModelParams().tau  # ps, for the "exp" kind

    def __post_init__(self):
        if self.kind not in ("exp", "flat"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.kind == "exp" and not 0 < self.tau_eff < np.inf:
            raise ValueError(f"tau_eff must be positive and finite, "
                             f"got {self.tau_eff}")

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
        for name in ("n_of", "n_sf", "n_of_err", "n_sf_err"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")


@dataclass(frozen=True)
class BackgroundConfig:
    """Expected OF/SF yields and dt shapes for the background categories."""

    yields: dict = field(default_factory=dict)  # EventCategory -> CategoryYield
    fixed_counts: bool = False                  # skip the Poisson fluctuation

    @classmethod
    def paper_scale(cls):
        """Default yields at the scale of the published event sample."""
        return cls(yields=dict(zip(BACKGROUND_CATEGORIES, (
            CategoryYield(126.0, 54.0, 6.0, 4.0),
            CategoryYield(78.0, 237.0, 9.0, 15.0),
            CategoryYield(254.0, 1.5, 16.0, 0.5)))))


def _joint_asymmetry(model: GenModel, t1, t2, dt, p: ModelParams):
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
        return ((1 - p.zeta) * _joint_asymmetry(GenModel.QM, t1, t2, dt, p)
                + p.zeta * _joint_asymmetry(GenModel.SD, t1, t2, dt, p))
    raise ValueError(f"unknown generation model {model}")


def _draw_pairs(models: tuple, p: ModelParams, rng: np.random.Generator,
                size: int, times: bool):
    """(t1, t2, dt = |t1 - t2|, is_of) of `size` pairs, with one row of
    `is_of` per model of `models`: the one routine that draws pairs, and
    so owns their order.

    The draws come in a fixed order: all of t1, all of t2, then the class
    uniforms. The models differ only in the OF probability (1 + A_model) / 2
    each compares the uniforms with, so every model draws the same numbers,
    and row j holds the classes of models[j] drawn alone. Work past the
    time draws runs in blocks of _BLOCK pairs that draw their values in
    turn; a Generator draws a call of n values one value at a time, so
    blocks give the numbers of one draw of the whole and no result depends
    on the block size. With `times` False and only QM, whose asymmetry
    reads only dt, t2 too is drawn a block at a time and folded into t1's
    buffer as dt; t1 and t2 then come back None, and only dt and is_of
    span all pairs.
    """
    t1 = rng.exponential(p.tau, size)
    if times or any(m is not GenModel.QM for m in models):
        t2 = rng.exponential(p.tau, size)
        dt = t1 - t2
        np.abs(dt, out=dt)
    else:
        t1, t2, dt = None, None, t1
        for i in range(0, size, _BLOCK):
            b = dt[i:i + _BLOCK]
            np.abs(b - rng.exponential(p.tau, len(b)), out=b)
    is_of = np.empty((len(models), size), dtype=bool)
    for i in range(0, size, _BLOCK):
        s = slice(i, i + _BLOCK)
        b1, b2, b_dt = (None if c is None else c[s] for c in (t1, t2, dt))
        u = rng.random(len(b_dt))
        for row, model in zip(is_of, models):
            a = _joint_asymmetry(model, b1, b2, b_dt, p)
            if not np.all(np.abs(a) <= 1.0 + 1e-9):    # NaN fails it too
                raise ArithmeticError("model asymmetry escaped [-1, 1]; "
                                      "generation envelope violated")
            row[s] = u < (1.0 + a) / 2.0
    return t1, t2, dt, is_of


def sample_pair(model: GenModel, p: ModelParams, rng: np.random.Generator,
                size: int = 1):
    """Draw (t1, t2, is_of) for `size` pairs under the given model.

    The pair time density factorizes as exp(-(t1+t2)/tau)/tau^2; the flavour
    class is Bernoulli with OF probability (1 + A_model(t1, t2)) / 2. The
    draws are those of `_draw_pairs`, in its order: all of t1, all of t2,
    then the class uniforms; every model draws the same numbers.
    """
    t1, t2, _, is_of = _draw_pairs((model,), p, rng, size, times=True)
    return t1, t2, is_of[0]


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


def _put(events: np.ndarray, **columns) -> None:
    """Write each column to the field of its name, where `events` has one."""
    for name, col in columns.items():
        if name in events.dtype.fields:
            events[name] = col


def _detect(events: np.ndarray, dt_true, cls_true, d: DetectorConfig,
            rng: np.random.Generator) -> np.ndarray:
    """Fill dz_rec/dt_rec and the assigned class from the truth columns
    given, into the fields of `events` that hold them, and return `events`.
    The draws: the standard normals (none when d.total_sigma is 0), then
    the mistag uniforms, drawn at any mistag fraction. The events may have
    leading axes, one entry per model; the draws are made once for all."""
    n = events.shape[-1]
    z = rng.standard_normal(n) if d.total_sigma > 0 else None
    dz, dt_rec = _smear(dt_true, d.total_sigma, z)
    flip = rng.random(n) < d.mistag_fraction
    _put(events, dz_rec_um=dz, dt_rec_ps=dt_rec,
         cls_assigned=cls_true ^ flip)          # swaps codes 0, 1
    return events


def response_sample(model: GenModel, p: ModelParams, n: int, sigmas,
                    rng: np.random.Generator):
    """Columns of a response-training sample, one block of _BLOCK pairs at
    a time: yields (dt_true, cls_true codes, [dt_rec for each resolution
    in `sigmas`]) per block.

    The draws are those of `make_signal_events` in its order, so each dt_rec
    equals that of a signal sample generated alone at that resolution: all
    the pairs, then one standard-normal vector shared by every resolution
    (none when all are 0), drawn block by block. The mistag flips, drawn
    last there, are not drawn; nothing that trains on the true class reads
    them. No time is kept: each dt_true is a view of the one dt array of
    `_draw_pairs`, which with the classes is all that spans the sample.
    """
    _, _, dt, (is_of,) = _draw_pairs((model,), p, rng, n, times=False)
    smeared = max(sigmas) > 0
    for i in range(0, n, _BLOCK):
        s = slice(i, i + _BLOCK)
        b = dt[s]
        z = rng.standard_normal(len(b)) if smeared else None
        yield b, (~is_of[s]).view(np.int8), [_smear(b, sigma, z)[1]
                                             for sigma in sigmas]


def _join(parts, dtype: np.dtype) -> np.ndarray:
    """Concatenate records of `dtype` along their last axis as raw bytes,
    each part repeated over the rows of the first: numpy's field-by-field
    structured concatenate is about 20 times slower for the same bytes."""
    rows = parts[0].shape[:-1]
    return np.concatenate(
        [np.ascontiguousarray(np.broadcast_to(p, rows + p.shape[-1:]),
                              dtype=dtype).view(np.uint8) for p in parts],
        axis=-1).view(dtype)


def _signal(models: tuple, p: ModelParams, n: int, d: DetectorConfig,
            rng: np.random.Generator, dtype: np.dtype) -> np.ndarray:
    """`n` signal records of `dtype` for each model of `models`, one row
    per model, drawn as `make_signal_events` draws them. The times are kept
    only where `dtype` has a field for one."""
    ev = np.zeros((len(models), n), dtype=dtype)
    t1, t2, dt, is_of = _draw_pairs(
        models, p, rng, n, times=not {"t1_ps", "t2_ps"}.isdisjoint(dtype.names))
    cls = (~is_of).view(np.int8)        # code 1, SF, if not OF
    _put(ev, t1_ps=t1, t2_ps=t2, dt_true_ps=dt, cls_true=cls,
         index=np.arange(n))
    return _detect(ev, dt, cls, d, rng)


def _backgrounds(b: BackgroundConfig, d: DetectorConfig,
                 rng: np.random.Generator, dtype: np.dtype,
                 next_index: int) -> list:
    """The background records of `dtype`, one array per category that has
    events, indexed on from `next_index`; their `stream` field is 1."""
    # backgrounds see the same vertex resolution but are never retagged;
    # their mistag uniforms are drawn all the same
    untagged = DetectorConfig(d.resolution_sigma, d.extra_smear_sigma, 0.0)
    parts = []
    for cat in BACKGROUND_CATEGORIES:
        y = b.yields.get(cat)
        if y is None or (y.n_of + y.n_sf) == 0:
            continue
        mean = y.n_of + y.n_sf
        n = int(round(mean)) if b.fixed_counts else int(rng.poisson(mean))
        if n == 0:
            continue
        ev = np.zeros(n, dtype=dtype)
        dt = y.shape.sample(n, rng)
        cls = (~(rng.random(n) < y.n_of / mean)).view(np.int8)
        _put(ev, t1_ps=dt, dt_true_ps=dt, cls_true=cls,
             category=CATEGORY_CODE[cat], stream=1,
             index=np.arange(next_index, next_index + n))
        next_index += n
        parts.append(_detect(ev, dt, cls, untagged, rng))
    return parts


def make_signal_events(model: GenModel, p: ModelParams, n: int,
                       d: DetectorConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Generate `n` signal pairs and run them through the detector model;
    their `stream` field is 0."""
    return _signal((model,), p, n, d, rng, EVENT_DTYPE)[0]


def stream_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic sub-stream of the master seed."""
    return np.random.default_rng([master_seed, stream])


def _record_dtype(dtype) -> np.dtype:
    """`dtype` if its fields are fields of EVENT_DTYPE, with their types."""
    dtype = np.dtype(dtype)
    if not dtype.names or any(
            n not in EVENT_DTYPE.fields or dtype[n] != EVENT_DTYPE[n]
            or dtype[n].metadata != EVENT_DTYPE[n].metadata
            for n in dtype.names):
        raise ValueError(f"event records take fields of EVENT_DTYPE with "
                         f"their types, not {dtype}")
    return dtype


def generate_ensemble(model, p: ModelParams, d: DetectorConfig,
                      b: BackgroundConfig, n_signal: int, master_seed: int,
                      dtype=EVENT_DTYPE) -> np.ndarray:
    """Deterministic generation; identical inputs give identical events.

    Signal draws from stream 0 of the master seed and backgrounds from
    stream 1, so signal events do not move when the background
    configuration changes. The records are of `dtype`, whose fields are
    some or all of EVENT_DTYPE's: the draws are the same whichever fields
    are kept, so each kept field holds the values of the full record.

    `model` is a GenModel, or a tuple of them drawn from one seed's draws:
    the records then have one column per model, shape (events, models),
    and column j holds the records of models[j] generated alone. Every
    model draws the same numbers, so the columns differ only in cls_true
    and cls_assigned."""
    dtype = _record_dtype(dtype)
    models = (model,) if isinstance(model, GenModel) else tuple(model)
    ev = _signal(models, p, n_signal, d, stream_rng(master_seed, 0), dtype)
    parts = _backgrounds(b, d, stream_rng(master_seed, 1), dtype,
                         next_index=n_signal)
    if parts:
        ev = _join([ev, *parts], dtype)
    return ev[0] if isinstance(model, GenModel) else ev.T


def write_events(events: np.ndarray, path) -> None:
    """Events as CSV, one row per event, with the codes written as names."""
    write_table(path, events)


def read_events(path) -> np.ndarray:
    """Events from a file written by `write_events`; rejects malformed rows,
    non-finite numbers, integers out of their field's range, unknown class
    codes and unknown categories."""
    return read_table(path, EVENT_DTYPE)[1]
