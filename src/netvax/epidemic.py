"""Two-group SIR machinery on a contact network.

Holds the disease parameters and per-unit health states.  Vaccination is
treated as a perfect treatment: a vaccinated unit is recovered next period
with probability one regardless of its current state.

Group 1 is conventionally the younger group, group 2 the older one.  The
transmission matrix is indexed ``beta[own_group, source_group]``: the entry
is the per-period rate at which an infected neighbor from ``source_group``
exposes a unit whose own group is ``own_group``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import _reals

__all__ = [
    "SUSCEPTIBLE",
    "INFECTED",
    "RECOVERED",
    "GROUP1",
    "GROUP2",
    "SirParams",
    "Population",
]

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2
GROUP1, GROUP2 = 0, 1

_RATE_TOL = 1e-9
# the labels each label array of a Population may hold, and their names
_LABELS = {"state0": ((SUSCEPTIBLE, INFECTED, RECOVERED), "SUSCEPTIBLE, INFECTED, or RECOVERED"),
           "group": ((GROUP1, GROUP2), "GROUP1 or GROUP2")}


def _labels(values: object, name: str) -> np.ndarray:
    """values as an int8 array, checked before the cast to hold integers,
    not bools, each a label _LABELS allows for name: the one check of every
    label array."""
    allowed, names = _LABELS[name]
    values = np.asarray(values)
    if values.size and (values.dtype.kind not in "iu" or not np.isin(values, allowed).all()):
        raise ValueError(f"{name} entries must be {names}")
    return values.astype(np.int8, copy=False)


@dataclass(frozen=True)
class SirParams:
    """Disease parameters for the two-group model.

    beta : (2, 2) array, ``beta[own_group, source_group]`` in [0, 1].
    gamma : length-2 recovery rates per group, in [0, 1].
    delta : length-2 mortality rates per group, in [0, 1]; default zero.
            Requires gamma[s] + delta[s] <= 1 for each group.
    """

    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self) -> None:
        # copies, so freezing them leaves the caller's arrays writable
        rates = {name: _reals(getattr(self, name), name).copy()
                 for name in ("beta", "gamma", "delta")}
        beta, gamma, delta = rates.values()
        if beta.shape != (2, 2) or gamma.shape != (2,) or delta.shape != (2,):
            raise ValueError("beta must be 2x2, and gamma and delta must each have length 2,"
                             f" got shapes {beta.shape}, {gamma.shape}, {delta.shape}")
        for name, arr in rates.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(gamma + delta > 1 + _RATE_TOL):
            raise ValueError("gamma + delta must not exceed 1 in either group")


@dataclass(frozen=True)
class Population:
    """Per-unit health state, group membership, and welfare weight.

    state0 : current health state per unit (SUSCEPTIBLE/INFECTED/RECOVERED).
    group : group label per unit (GROUP1/GROUP2).
    weight : non-negative welfare weight per unit.
    susceptible/infected/recovered : boolean masks of state0, set once.
    """

    state0: np.ndarray
    group: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        # copies, so freezing them leaves the caller's arrays writable
        state0, group = _labels(self.state0, "state0").copy(), _labels(self.group, "group").copy()
        weight = _reals(self.weight, "weight", 0.0, np.inf).copy()
        if not (state0.shape == group.shape == weight.shape) or state0.ndim != 1 or not state0.size:
            raise ValueError("state0, group, weight must be 1-D arrays of equal length"
                             " holding at least one unit")
        for name, arr in (("state0", state0), ("group", group), ("weight", weight),
                          ("susceptible", state0 == SUSCEPTIBLE),
                          ("infected", state0 == INFECTED),
                          ("recovered", state0 == RECOVERED)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_units(self) -> int:
        return int(self.state0.size)
