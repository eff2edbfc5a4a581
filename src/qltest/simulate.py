"""Euler-Maruyama path simulation with deterministic, splittable seeding.

Paths are generated on an internal grid of ``refine`` substeps per
observation step and then resampled to the observation times.  Gaussian
increments come from a counter-based Philox generator through the inverse
normal CDF, so a path is a pure function of (model, theta, config).
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
                t, x = float(row[0]), float(row[1])
            except (IndexError, ValueError):
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


def euler_maruyama(model: Model, theta: ParamVector, config: SimConfig) -> SamplePath:
    """Simulate n+1 observations at spacing delta by refined Euler steps.

    The diffusion coefficient is evaluated at the state clipped into the
    closed state domain (full truncation), the drift at the raw state.
    If a retained observation still leaves the open domain the whole path
    is resimulated from a derived sub-seed, at most 5 times.
    """
    model.check_theta(theta)
    model.check_domain(config.x0)

    n, refine = config.n, config.refine
    h = config.delta / refine
    sqh = math.sqrt(h)
    lo, hi = model.state_domain
    drift, diff = model.drift, model.diff

    last_bad_step = None
    for attempt in range(_MAX_RESIM_ATTEMPTS):
        rng = np.random.Generator(
            np.random.Philox(derive_seed_sequence(config.seed, attempt))
        )
        z = _standard_normals(rng, n * refine)
        values = np.empty(n + 1)
        values[0] = x = config.x0
        k = 0
        ok = True
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
                ok = False
                last_bad_step = i
                break
            values[i] = x
        if ok:
            return SamplePath(delta=config.delta, values=values)
    raise SimulationError(
        f"path left the state domain in all {_MAX_RESIM_ATTEMPTS} attempts",
        step_index=last_bad_step,
    )
