"""Euler-Maruyama path simulation with deterministic, splittable seeding.

Paths are generated on an internal grid of ``refine`` substeps per
observation step and then resampled to the observation times.  Gaussian
increments come from a counter-based Philox generator through the inverse
normal CDF, so a path is a pure function of (model, theta, config).

A list of seeds is simulated as rows of one array program: every row keeps
its own stream and the scalar loop's arithmetic in the same order, so each
row equals the single-seed path bit for bit, and a row that leaves the
domain is resimulated without the others.  The array program pays a fixed
numpy cost per substep that only several rows amortise, so batches of fewer
than ``_BATCH_MIN_ROWS`` rows, single paths included, run the scalar loop.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, SimulationError
from .models import Model, ParamVector

__all__ = ["SimConfig", "SamplePath", "euler_maruyama", "observation_schedule", "derive_seed_sequence"]

_MAX_RESIM_ATTEMPTS = 5

# fewer rows than this are simulated one path at a time: the batch loop
# pays a fixed numpy cost per substep that only many rows amortise
_BATCH_MIN_ROWS = 5

# observation steps whose normals a batch draws at once, which bounds the
# draw buffer to rows * _BLOCK_STEPS * refine values
_BLOCK_STEPS = 32


@dataclass(frozen=True)
class SimConfig:
    """Sampling design: n observations at step delta, refine substeps each."""

    n: int
    delta: float
    x0: float
    seed: int
    refine: int = 30

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.refine < 1:
            raise ConfigError("refine must be at least 1")


@dataclass(frozen=True)
class SamplePath:
    """Equispaced discrete observations X_0 ... X_n at spacing delta."""

    delta: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.size < 3:
            raise ConfigError("a sample path needs at least 3 observations")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("sample path contains non-finite values")

    @property
    def n(self) -> int:
        return self.values.size - 1

    @property
    def times(self) -> np.ndarray:
        return self.delta * np.arange(self.values.size)

    def to_csv(self, path_or_buf):
        if hasattr(path_or_buf, "write"):
            self._write(path_or_buf)
        else:
            with open(path_or_buf, "w", newline="") as fh:
                self._write(fh)

    def _write(self, fh):
        writer = csv.writer(fh)
        writer.writerow(["t", "x"])
        for t, x in zip(self.times, self.values):
            writer.writerow([repr(float(t)), repr(float(x))])

    @classmethod
    def from_csv(cls, path_or_buf) -> "SamplePath":
        if hasattr(path_or_buf, "read"):
            return cls._read(path_or_buf)
        with open(path_or_buf, newline="") as fh:
            return cls._read(fh)

    @classmethod
    def _read(cls, fh) -> "SamplePath":
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "x"]:
            raise ConfigError("sample path CSV must start with header 't,x'")
        times, values = [], []
        for row in reader:
            if not row:
                continue
            try:
                t, x = map(float, row)  # a short or long row fails to unpack
            except ValueError:
                raise ConfigError(
                    f"sample path CSV line {reader.line_num}: expected two numbers 't,x', got {row!r}"
                ) from None
            times.append(t)
            values.append(x)
        if len(values) < 3:
            raise ConfigError("sample path CSV needs at least 3 rows")
        steps = np.diff(times)
        delta = steps[0]
        if not np.allclose(steps, delta, rtol=1e-9, atol=1e-12):
            raise ConfigError("sample path CSV is not equispaced")
        return cls(delta=float(delta), values=np.asarray(values))


def observation_schedule(n: int):
    """Experiment sizing T = n**(1/3), delta = T / n = n**(-2/3)."""
    if n < 2:
        raise ConfigError("n must be at least 2")
    T = float(n) ** (1.0 / 3.0)
    return T, T / n


def derive_seed_sequence(*keys) -> np.random.SeedSequence:
    """Deterministic sub-seed from integer keys (order-sensitive)."""
    return np.random.SeedSequence([int(k) & 0xFFFFFFFFFFFFFFFF for k in keys])


def _standard_normals(rng, count):
    u = rng.random(count)
    # inverse-CDF sampling; keep u strictly inside (0, 1)
    np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
    return ndtri(u)


def euler_maruyama(model: Model, theta: ParamVector, config: SimConfig, seeds=None):
    """Simulate n+1 observations at spacing delta by refined Euler steps.

    The diffusion coefficient is evaluated at the state clipped into the
    closed state domain (full truncation), the drift at the raw state.
    If a retained observation still leaves the open domain the path is
    resimulated from a derived sub-seed, at most 5 times; then
    ``SimulationError`` is raised, carrying the first bad step.

    With ``seeds`` (``config.seed`` is then ignored) one path is simulated
    per seed and a list in seed order is returned; a slot holds the
    ``SamplePath``, or the ``SimulationError`` of a path that failed every
    attempt.  Each path equals the single-seed call bit for bit.
    """
    model.check_theta(theta)
    model.check_domain(config.x0)
    if seeds is not None:
        return _simulate(model, theta, config, [int(s) for s in seeds])
    slot = _simulate(model, theta, config, [config.seed])[0]
    if isinstance(slot, SimulationError):
        raise slot
    return slot


def _simulate(model, theta, config, seeds):
    """One slot per seed; rows that leave the domain retry without the rest."""
    slots = [None] * len(seeds)
    pending = list(range(len(seeds)))
    bad_steps = {}
    for attempt in range(_MAX_RESIM_ATTEMPTS):
        row_seeds = [seeds[i] for i in pending]
        if len(row_seeds) < _BATCH_MIN_ROWS:
            rows = [_path_attempt(model, theta, config, s, attempt) for s in row_seeds]
        else:
            rows = zip(*_batch_attempt(model, theta, config, row_seeds, attempt))
        retry = []
        for i, (values, bad_step) in zip(pending, rows):
            if bad_step:
                bad_steps[i] = int(bad_step)
                retry.append(i)
            else:
                slots[i] = SamplePath(delta=config.delta, values=values)
        pending = retry
        if not pending:
            break
    for i in pending:
        slots[i] = SimulationError(
            f"path left the state domain in all {_MAX_RESIM_ATTEMPTS} attempts",
            step_index=bad_steps[i],
        )
    return slots


def _philox(seed, attempt):
    return np.random.Generator(np.random.Philox(derive_seed_sequence(seed, attempt)))


def _path_attempt(model, theta, config, seed, attempt):
    """One attempt at one path, a scalar loop: (values, first bad step or 0)."""
    n, refine = config.n, config.refine
    h = config.delta / refine
    sqh = math.sqrt(h)
    lo, hi = model.state_domain
    drift, diff = model.drift, model.diff

    z = _standard_normals(_philox(seed, attempt), n * refine)
    values = np.empty(n + 1)
    values[0] = x = config.x0
    k = 0
    for i in range(1, n + 1):
        for _ in range(refine):
            xg = x
            if xg < lo:
                xg = lo
            elif xg > hi:
                xg = hi
            x = x + drift(theta, x) * h + diff(theta, xg) * sqh * z[k]
            k += 1
        if not (lo < x < hi) or not math.isfinite(x):
            return None, i
        values[i] = x
    return values, 0


def _batch_attempt(model, theta, config, seeds, attempt):
    """One attempt at len(seeds) paths as one array program over rows.

    Row r runs the scalar loop's arithmetic in the same order on its own
    stream, so it equals ``_path_attempt`` for seeds[r] bit for bit.
    Returns the (rows, n+1) values and each row's first bad step (0: none).
    """
    n, refine = config.n, config.refine
    h = config.delta / refine
    sqh = math.sqrt(h)
    lo, hi = model.state_domain
    drift, diff = model.drift, model.diff
    # np.clip(x, lo, hi), applying only the finite bounds: np.clip costs
    # several times one np.maximum on a short row
    clip_lo, clip_hi = math.isfinite(lo), math.isfinite(hi)

    rngs = [_philox(seed, attempt) for seed in seeds]
    rows = len(seeds)
    values = np.empty((n + 1, rows))
    values[0] = x = np.full(rows, float(config.x0))
    bad = np.zeros(rows, dtype=np.int64)
    draws = np.empty((rows, _BLOCK_STEPS * refine))
    with np.errstate(all="ignore"):
        for first in range(1, n + 1, _BLOCK_STEPS):
            steps = min(_BLOCK_STEPS, n + 1 - first)
            count = steps * refine
            # each row's next normals; a stream drawn in blocks gives the
            # same numbers as one draw of all n * refine
            for r, rng in enumerate(rngs):
                draws[r, :count] = _standard_normals(rng, count)
            z = draws[:, :count].T.copy()
            k = 0
            for i in range(first, first + steps):
                for _ in range(refine):
                    xg = x
                    if clip_lo:
                        xg = np.maximum(xg, lo)
                    if clip_hi:
                        xg = np.minimum(xg, hi)
                    x = x + drift(theta, x) * h + diff(theta, xg) * sqh * z[k]
                    k += 1
                # comparisons with NaN are false, so this also catches
                # non-finite states
                left = ~((lo < x) & (x < hi)) & (bad == 0)
                bad[left] = i
                values[i] = x
    return values.T.copy(), bad
