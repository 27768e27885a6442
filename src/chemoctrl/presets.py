"""Named analytic presets for initial conditions, desired states and controls.

Each table maps a preset name to the parameters it takes, with their
defaults; a preset takes no other parameter.  A default of ``None`` stands
for one entry per axis: the box center for ``center``, the first mode for
``modes``.  Centers and widths are fractions of the box size.  The builders
and the config loader check parameters with :func:`preset_parameters`.
"""

from __future__ import annotations

import math

import numpy as np

from .cost import DesiredState
from .grid import Field
from .sim import Control

_GAUSSIAN = {"amplitude": 1.0, "center": None, "width": 0.15, "base": 0.0}

FIELD_PRESETS = {
    "constant": {"value": 1.0},
    "zero": {},
    "gaussian": _GAUSSIAN,
    "cosine": {"base": 1.0, "amplitude": 0.5, "modes": None},
    "random": {"seed": 0, "low": 0.0, "high": 1.0},
}
DESIRED_PRESETS = {
    "constant": {"value": 0.0},
    "gaussian_bump": _GAUSSIAN,
    "time_decaying": {"rate": 1.0, **_GAUSSIAN},
}
CONTROL_PRESETS = {
    "zero": {},
    "none": {},  # the uncontrolled run, which is the zero control
    "constant": {"amplitude": 1.0},
    "random": {"times": 5, "seed": 0, "amplitude": 1.0},
}


# the least value of a parameter that has one
_LEAST = {"seed": 0, "times": 2, "rate": 0}


def checked_number(value, name, integral=False, error=ValueError):
    """``value`` as a finite float, or as an int when ``integral``; anything
    else (a bool, a string, NaN, an infinity, a fraction where ``integral``)
    raises ``error`` naming the field ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    if integral:
        if value != int(value):
            raise error(f"{name} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def preset_parameters(table, name, kw, ndim=None):
    """Preset ``name``'s defaults in ``table`` overridden by ``kw``, checked:
    ``center`` and ``modes`` hold one number per axis (``ndim``, if given),
    ``seed`` and ``times`` are counts, the rest finite numbers, a ``width`` is
    positive.  A ``ValueError`` names the parameter first (``preset`` for
    ``name``)."""
    if name not in table:
        raise ValueError(f"preset must be one of {sorted(table)}, got {name!r}")
    checked = dict(table[name])
    for key, value in kw.items():
        if key not in checked:
            raise ValueError(f"{key} is not a parameter of the {name!r} preset, "
                             f"which takes {sorted(table[name])}")
        if key in ("center", "modes"):
            if not isinstance(value, (list, tuple, np.ndarray)) \
                    or ndim is not None and len(value) != ndim:
                raise ValueError(f"{key} needs one entry per axis ({ndim}), got {value!r}")
            checked[key] = [checked_number(x, key) for x in value]
            continue
        checked[key] = checked_number(value, key, integral=key in ("seed", "times"))
        # a Gaussian preset's width is a positive fraction of the box, and a
        # negative decay rate lets the target overflow
        if key == "width" and not checked[key] > 0:
            raise ValueError(f"width must be positive, got {value!r}")
        if checked[key] < _LEAST.get(key, -math.inf):
            raise ValueError(f"{key} must be at least {_LEAST[key]}, got {value!r}")
    return checked


def _per_axis(grid, key, value, default):
    """``value``, one entry per axis, or ``default`` on every axis for ``None``."""
    if value is not None and len(value) != grid.ndim:
        raise ValueError(f"{key} needs one entry per axis ({grid.ndim}), got {value!r}")
    return [default] * grid.ndim if value is None else value


def _gaussian_values(grid, amplitude, center, width, base):
    centers = grid.cell_centers()
    center = _per_axis(grid, "center", center, 0.5)
    r_sq = np.zeros(grid.dims)
    for k in range(grid.ndim):
        c = center[k] * grid.lengths[k]
        w = width * grid.lengths[k]
        r_sq += ((centers[k] - c) / w) ** 2
    return base + amplitude * np.exp(-0.5 * r_sq)


def _cosine_values(grid, base, amplitude, modes):
    centers = grid.cell_centers()
    modes = _per_axis(grid, "modes", modes, 1)
    prof = np.ones(grid.dims)
    for k in range(grid.ndim):
        prof *= np.cos(modes[k] * np.pi * centers[k] / grid.lengths[k])
    return base + amplitude * prof


def field_preset(grid, name, **kw):
    """Build a field from a named profile of :data:`FIELD_PRESETS`."""
    kw = preset_parameters(FIELD_PRESETS, name, kw, grid.ndim)
    if name == "constant":
        return Field.full(grid, kw["value"])
    if name == "zero":
        return Field.zeros(grid)
    if name == "gaussian":
        return Field(grid, _gaussian_values(grid, **kw))
    if name == "cosine":
        return Field(grid, _cosine_values(grid, **kw))
    rng = np.random.default_rng(kw["seed"])
    return Field(grid, rng.uniform(kw["low"], kw["high"], size=grid.dims))


def desired_preset(name, **kw):
    """Desired-state presets of :data:`DESIRED_PRESETS`.  A target has no
    grid until it is evaluated, which checks the length of a ``center``."""
    kw = preset_parameters(DESIRED_PRESETS, name, kw)
    if name == "constant":
        return DesiredState.constant(kw["value"])
    if name == "gaussian_bump":
        return DesiredState.from_profile(lambda grid: _gaussian_values(grid, **kw))
    rate, base = kw.pop("rate"), kw.pop("base")

    def profile(t, grid):
        return base + np.exp(-rate * t) * _gaussian_values(grid, base=0.0, **kw)
    return DesiredState(profile)


def control_preset(grid, name, t_final, **kw):
    """Control presets of :data:`CONTROL_PRESETS`.

    The random preset draws seeded uniform values in ``[-amplitude,
    amplitude]`` on ``times`` equally spaced control times.  Every lattice
    is a :meth:`Control.lattice`, so a horizon of 0 has one.
    """
    kw = preset_parameters(CONTROL_PRESETS, name, kw, grid.ndim)
    if name in ("zero", "none"):
        return Control.zero(grid, t_final)
    if name == "constant":
        return Control.constant(grid, kw["amplitude"], t_final)
    rng = np.random.default_rng(kw["seed"])
    amp = kw["amplitude"]
    times = Control.lattice(t_final, kw["times"])
    return Control(grid, times, rng.uniform(-amp, amp, size=(times.size,) + grid.dims))
