"""Named analytic presets for initial conditions, desired states and controls.

Each table maps a preset name to the parameters it takes, with their
defaults; a preset takes no other parameter.  A default of ``None`` stands
for one entry per axis: the box center for ``center``, the first mode for
``modes``.  Centers and widths are fractions of the box size.
"""

from __future__ import annotations

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
    "constant": {"amplitude": 1.0},
    "random": {"times": 5, "seed": 0, "amplitude": 1.0},
}


def _parameters(what, table, name, kw):
    """The parameters of preset ``name``: its defaults overridden by ``kw``."""
    if name not in table:
        raise ValueError(f"unknown {what} preset {name!r}")
    unknown = sorted(set(kw) - set(table[name]))
    if unknown:
        raise ValueError(f"the {what} preset {name!r} takes no parameter "
                         f"{unknown[0]!r}")
    return {**table[name], **kw}


def _gaussian_values(grid, amplitude, center, width, base):
    centers = grid.cell_centers()
    center = [0.5] * grid.ndim if center is None else center
    r_sq = np.zeros(grid.dims)
    for k in range(grid.ndim):
        c = center[k] * grid.lengths[k]
        w = width * grid.lengths[k]
        r_sq += ((centers[k] - c) / w) ** 2
    return base + amplitude * np.exp(-0.5 * r_sq)


def _cosine_values(grid, base, amplitude, modes):
    centers = grid.cell_centers()
    modes = [1] * grid.ndim if modes is None else modes
    prof = np.ones(grid.dims)
    for k in range(grid.ndim):
        prof *= np.cos(modes[k] * np.pi * centers[k] / grid.lengths[k])
    return base + amplitude * prof


def field_preset(grid, name, **kw):
    """Build a field from a named profile of :data:`FIELD_PRESETS`."""
    kw = _parameters("field", FIELD_PRESETS, name, kw)
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
    """Desired-state presets of :data:`DESIRED_PRESETS`."""
    kw = _parameters("desired-state", DESIRED_PRESETS, name, kw)
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
    amplitude]`` on ``times`` equally spaced control times.
    """
    kw = _parameters("control", CONTROL_PRESETS, name, kw)
    if name == "zero":
        return Control.zero(grid, t_final)
    if name == "constant":
        return Control.constant(grid, kw["amplitude"], t_final)
    rng = np.random.default_rng(kw["seed"])
    amp = kw["amplitude"]
    times = np.linspace(0.0, t_final, kw["times"])
    return Control(grid, times, rng.uniform(-amp, amp, size=(times.size,) + grid.dims))
