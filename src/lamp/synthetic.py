"""Synthetic 2D wake surrogates and the SNR-parameterized noise protocol.

Two generators stand in for unpublished CFD datasets:

* laminar surrogate: a downstream-convecting vortex-street pattern built
  from a handful of spatial harmonics that share one base frequency.  It is
  exactly periodic in time and low-rank per patch (each harmonic contributes
  a cos/sin pair, so the per-patch rank is at most twice the harmonic count).
* chaotic surrogate: a sum of many random-wavenumber traveling wave packets
  with mutually incommensurate frequencies and random phases; broadband,
  high effective rank, non-repeating over the series.

Both are pure functions of their spec: the same spec reproduces the dataset
bit for bit.  Noise is observed in one place, :func:`observe`, which both the
sweep and :func:`add_noise_fixed` take their noisy patch vectors from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .patches import (BLOCK_BYTES, MaskSpec, PatchGrid, SnapshotSet, check_positive,
                      check_int, check_seed, patch_blocks, patch_vectors)

LAMINAR = "laminar-surrogate"
CHAOTIC = "chaotic-surrogate"

#: Chaotic packets draw their wavenumber, in cycles across the shorter field
#: side, and their frequency, in cycles per snapshot, uniformly from these.
_WAVENUMBER_RANGE = (1.0, 8.0)
_FREQUENCY_RANGE = (0.02, 0.35)


@dataclass(frozen=True)
class LaminarParams:
    """Traveling vortex-street parameters.

    The temporal period is ``wavelength / speed`` snapshots; pick divisible
    values to make the series exactly periodic.  ``envelope_width`` is the
    half-width of the wake band (defaults to H/4); the envelope has compact
    support, so patches entirely outside the band are identically zero.
    """

    speed: float = 1.0
    wavelength: float = 32.0
    envelope_width: float | None = None
    harmonics: int = 6
    amplitude: float = 1.0
    decay: float = 3.5

    def __post_init__(self):
        for name in ("speed", "wavelength"):
            check_positive(name, getattr(self, name))
        if self.envelope_width is not None:
            check_positive("envelope_width", self.envelope_width)
        # A negative amplitude is a sign flip; zero gives an all-zero field.
        if not (math.isfinite(self.amplitude) and self.amplitude != 0.0):
            raise ValidationError(f"amplitude must be finite and nonzero, got {self.amplitude}")
        if not 1 <= check_int("harmonics", self.harmonics) <= 6:
            raise ValidationError(
                f"harmonics must be in [1, 6], got {self.harmonics}"
            )
        _check_decay(self.decay, self.harmonics)


@dataclass(frozen=True)
class ChaoticParams:
    """Broadband wave-packet parameters.

    Each packet's wavenumber and frequency are drawn uniformly from fixed
    ranges: 1 to 8 cycles across the shorter field side, and 0.02 to 0.35
    cycles per snapshot.  Frequencies are drawn from a continuous
    distribution, so they are incommensurate with probability one.
    ``packet_radius`` localizes each mode with a Gaussian envelope (defaults
    to a quarter of the shorter side), giving the field the spatially local
    correlation structure of a turbulent wake.
    """

    modes: int = 40
    decay: float = 0.5
    packet_radius: float | None = None

    def __post_init__(self):
        if check_int("modes", self.modes) < 1:
            raise ValidationError(f"mode count must be positive, got {self.modes}")
        if self.packet_radius is not None:
            check_positive("packet_radius", self.packet_radius)
            # The envelope divides by 2 * radius**2, which must neither
            # overflow nor underflow to zero.
            if not 0.0 < 2.0 * self.packet_radius * self.packet_radius < math.inf:
                raise ValidationError(
                    "packet_radius must keep 2 * radius**2 a finite nonzero float, "
                    f"got {self.packet_radius}"
                )
        _check_decay(self.decay, self.modes)


def _check_decay(decay: float, terms: int) -> None:
    """Term k = 1..terms is scaled by k**-decay, so either sign is valid, but
    the extreme factor terms**-decay must be a finite nonzero float: one that
    overflows breaks the synthesis, one that underflows to zero silently keeps
    only the first harmonic or mode, and a NaN decay poisons the whole field."""
    try:
        last = float(terms) ** -decay if math.isfinite(decay) else math.nan
    except OverflowError:
        last = math.inf
    if not (math.isfinite(last) and last != 0.0):
        raise ValidationError(
            f"decay must be finite and keep {terms}**-decay a finite nonzero float, got {decay}"
        )


@dataclass(frozen=True)
class FlowSpec:
    """Deterministic recipe for one synthetic dataset (always C=2)."""

    kind: str
    height: int
    width: int
    snapshots: int
    seed: int
    params: LaminarParams | ChaoticParams | None = None

    def __post_init__(self):
        if self.kind not in (LAMINAR, CHAOTIC):
            raise ValidationError(f"unknown flow kind: {self.kind!r}")
        sizes = [check_int(name, getattr(self, name)) for name in ("height", "width", "snapshots")]
        if min(sizes) < 1:
            raise ValidationError("height, width and snapshots must be positive")
        check_seed(self.seed)
        if self.params is None:
            default = LaminarParams() if self.kind == LAMINAR else ChaoticParams()
            object.__setattr__(self, "params", default)
        want = LaminarParams if self.kind == LAMINAR else ChaoticParams
        if not isinstance(self.params, want):
            raise ValidationError(
                f"{self.kind} expects {want.__name__}, got {type(self.params).__name__}"
            )


def _mode_synthesis(time_mat: np.ndarray, space_mat: np.ndarray, h: int, w: int) -> np.ndarray:
    """(T, 2K) @ (2K, H*W) -> (T, H, W); the separable core of both generators."""
    return (time_mat @ space_mat).reshape(time_mat.shape[0], h, w)


def _laminar(spec: FlowSpec) -> np.ndarray:
    p: LaminarParams = spec.params  # type: ignore[assignment]
    h, w, t = spec.height, spec.width, spec.snapshots
    half_width = p.envelope_width if p.envelope_width is not None else h / 4.0
    rng = np.random.default_rng(spec.seed)
    phases_u = rng.uniform(0.0, 2.0 * np.pi, size=p.harmonics)
    phases_v = rng.uniform(0.0, 2.0 * np.pi, size=p.harmonics)

    y = np.arange(h, dtype=np.float64)
    x = np.arange(w, dtype=np.float64)
    steps = np.arange(t, dtype=np.float64)
    rel = (y - (h - 1) / 2.0) / half_width
    env = np.where(np.abs(rel) < 1.0, np.cos(0.5 * np.pi * rel) ** 2, 0.0)
    odd = env * np.sin(np.pi * rel)  # antisymmetric profile for the v component

    kappa = 2.0 * np.pi / p.wavelength
    omega = kappa * p.speed
    time_mat = np.empty((t, 2 * p.harmonics))
    space_u = np.empty((2 * p.harmonics, h * w))
    space_v = np.empty((2 * p.harmonics, h * w))
    for k in range(1, p.harmonics + 1):
        amp = p.amplitude * k**-p.decay
        time_mat[:, 2 * k - 2] = np.cos(k * omega * steps)
        time_mat[:, 2 * k - 1] = np.sin(k * omega * steps)
        # cos(k kappa x - k omega t + phi) expanded over the time pair
        carrier_u = k * kappa * x + phases_u[k - 1]
        space_u[2 * k - 2] = (amp * np.outer(env, np.cos(carrier_u))).reshape(-1)
        space_u[2 * k - 1] = (amp * np.outer(env, np.sin(carrier_u))).reshape(-1)
        carrier_v = k * kappa * x + phases_v[k - 1]
        space_v[2 * k - 2] = (amp * np.outer(odd, np.sin(carrier_v))).reshape(-1)
        space_v[2 * k - 1] = (-amp * np.outer(odd, np.cos(carrier_v))).reshape(-1)
    u = _mode_synthesis(time_mat, space_u, h, w)
    v = _mode_synthesis(time_mat, space_v, h, w)
    return np.stack([u, v], axis=-1)


def _chaotic(spec: FlowSpec) -> np.ndarray:
    p: ChaoticParams = spec.params  # type: ignore[assignment]
    h, w, t = spec.height, spec.width, spec.snapshots
    side = min(h, w)
    radius = p.packet_radius if p.packet_radius is not None else side / 4.0
    rng = np.random.default_rng(spec.seed)

    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    steps = np.arange(t, dtype=np.float64)
    components = []
    for _ in range(2):  # u then v, independent draws from the same stream
        time_mat = np.empty((t, 2 * p.modes))
        space_mat = np.empty((2 * p.modes, h * w))
        for k in range(p.modes):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            cycles = rng.uniform(*_WAVENUMBER_RANGE)
            kx = 2.0 * np.pi * cycles * np.cos(angle) / side
            ky = 2.0 * np.pi * cycles * np.sin(angle) / side
            phase = rng.uniform(0.0, 2.0 * np.pi)
            freq = 2.0 * np.pi * rng.uniform(*_FREQUENCY_RANGE)
            cx = rng.uniform(0.0, w)
            cy = rng.uniform(0.0, h)
            amp = (1.0 + k) ** -p.decay
            envelope = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * radius**2))
            psi = kx * xx + ky * yy + phase
            space_mat[2 * k] = (amp * envelope * np.cos(psi)).reshape(-1)
            space_mat[2 * k + 1] = (amp * envelope * np.sin(psi)).reshape(-1)
            time_mat[:, 2 * k] = np.cos(freq * steps)
            time_mat[:, 2 * k + 1] = np.sin(freq * steps)
        components.append(_mode_synthesis(time_mat, space_mat, h, w))
    return np.stack(components, axis=-1)


def generate_nbytes(spec: FlowSpec) -> int:
    """A lower bound on the bytes :func:`generate` holds at once.

    Both generators hold the two (T, H, W) components together with the
    (T, H, W, 2) field they are stacked into, and a (2K, H*W) mode matrix
    of K harmonics or modes.
    """
    terms = spec.params.harmonics if spec.kind == LAMINAR else spec.params.modes
    return 8 * spec.height * spec.width * (4 * spec.snapshots + 2 * terms)


def generate(spec: FlowSpec) -> SnapshotSet:
    """Generate the unnormalized (T, H, W, 2) dataset described by the spec."""
    data = _laminar(spec) if spec.kind == LAMINAR else _chaotic(spec)
    return SnapshotSet(data)


def signal_power(fields: SnapshotSet) -> float:
    """Mean squared value across snapshots, pixels and components.

    Raises NumericalError when it overflows float64 (values near 1e154 and up).
    """
    with np.errstate(over="ignore"):
        power = float(np.mean(fields.data**2))
    if not math.isfinite(power):
        raise NumericalError("signal power (mean square of the field) overflows float64")
    return power


def noise_sigma2(fields: SnapshotSet, snr_db: float) -> float:
    """Noise variance of the SNR law: signal_power(fields) * 10**(-snr_db / 10).

    ``fields`` is the unnormalized input the noise is scaled to; snr_db = +inf
    means noise-free (zero variance).  A variance that is not a finite,
    positive float (snr_db NaN or -inf, or so far out that it overflows or
    underflows) is rejected: no finite SNR means noise-free.
    """
    if snr_db == math.inf:
        return 0.0
    power = signal_power(fields)
    if power == 0.0:
        raise ValidationError("signal power is zero; SNR-scaled noise is undefined")
    try:
        sigma2 = power * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise ValidationError(f"snr_db={snr_db} gives no finite, positive noise variance")
    return sigma2


def draw_noise(shape: tuple[int, ...], sigma2: float, seed: int | np.random.Generator) -> np.ndarray:
    """The noise protocol's one draw: i.i.d. N(0, sigma2) of ``shape`` from ``seed``
    (a Generator ``seed`` is drawn on from where it stands)."""
    if not 0.0 <= sigma2 < math.inf:
        raise ValidationError(f"noise variance must be finite and nonnegative, got {sigma2}")
    return np.random.default_rng(seed).normal(0.0, math.sqrt(sigma2), size=shape)


def observe(
    fields: SnapshotSet, mask: MaskSpec, sigma2: float, seed: int, grid: PatchGrid
) -> np.ndarray:
    """The (k, T, D) vectors of the unmasked patches, in mask order, as observed:
    unless ``sigma2`` (raw units) is 0, plus the same patches of a whole-field
    :func:`draw_noise` draw, divided by the training std on standardized fields.
    The draw is one stream, taken in snapshot blocks of about ``BLOCK_BYTES``."""
    grid.check_fields(fields)
    grid.check_mask(mask)
    sources = np.asarray(mask.unmasked, dtype=np.intp)
    x = patch_vectors(fields.data, grid, sources)
    if sigma2 != 0.0:
        rng, (t, *pixels) = np.random.default_rng(seed), fields.data.shape
        step = max(1, BLOCK_BYTES // (8 * math.prod(pixels)))  # snapshots per block
        stats = fields.norm_stats  # its std tiled as components vary fastest in a patch vector
        std = 1.0 if stats is None else np.tile(stats.std, grid.patch_size**2)
        for lo in range(0, t, step):
            eps = patch_vectors(draw_noise((min(step, t - lo), *pixels), sigma2, rng), grid, sources)
            x[:, lo : lo + step] += eps / std
    return x


def add_noise_fixed(
    fields: SnapshotSet, mask: MaskSpec, sigma2: float, seed: int, grid: PatchGrid
) -> SnapshotSet:
    """A copy of ``fields`` whose unmasked patches hold :func:`observe`'s vectors."""
    grid.check_fields(fields)
    grid.check_mask(mask)
    if sigma2 == 0.0:
        return fields
    data = fields.data.copy()
    rows, cols = np.divmod(np.asarray(mask.unmasked, dtype=np.intp), grid.cols)
    blocks = patch_blocks(data, grid)  # (T, rows, cols, P, P, C), a view of data
    x = observe(fields, mask, sigma2, seed, grid)
    blocks[:, rows, cols] = x.reshape(len(rows), len(data), *blocks.shape[3:]).swapaxes(0, 1)
    return SnapshotSet(data, norm_stats=fields.norm_stats)
