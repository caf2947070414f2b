"""Two-group SIR machinery on a contact network.

Holds the disease parameters, per-unit health states, and the one-period
transition probabilities under a vaccine allocation.  Vaccination is treated
as a perfect treatment: a vaccinated unit is recovered next period with
probability one regardless of its current state.

Group 1 is conventionally the younger group, group 2 the older one.  The
transmission matrix is indexed ``beta[own_group, source_group]``: the entry
is the per-period rate at which an infected neighbor from ``source_group``
exposes a unit whose own group is ``own_group``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .graph import ContactGraph
    from .objective import Allocation

__all__ = [
    "SUSCEPTIBLE",
    "INFECTED",
    "RECOVERED",
    "GROUP1",
    "GROUP2",
    "SirParams",
    "Population",
    "infection_rate",
    "transition_probabilities",
]

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2
GROUP1, GROUP2 = 0, 1

_RATE_TOL = 1e-9


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
        beta = np.asarray(self.beta, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        if beta.shape != (2, 2):
            raise ValueError(f"beta must be 2x2, got shape {beta.shape}")
        if gamma.shape != (2,) or delta.shape != (2,):
            raise ValueError("gamma and delta must each have length 2")
        for name, arr in (("beta", beta), ("gamma", gamma), ("delta", delta)):
            if not np.all((arr >= 0) & (arr <= 1)):
                raise ValueError(f"{name} entries must lie in [0, 1]")
        if np.any(gamma + delta > 1 + _RATE_TOL):
            raise ValueError("gamma + delta must not exceed 1 in either group")
        beta.setflags(write=False)
        gamma.setflags(write=False)
        delta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class Population:
    """Per-unit health state, group membership, and welfare weight.

    state0 : current health state per unit (SUSCEPTIBLE/INFECTED/RECOVERED).
    group : group label per unit (GROUP1/GROUP2).
    weight : non-negative welfare weight per unit.
    """

    state0: np.ndarray
    group: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        state0 = np.asarray(self.state0, dtype=np.int8)
        group = np.asarray(self.group, dtype=np.int8)
        weight = np.asarray(self.weight, dtype=float)
        if not (state0.shape == group.shape == weight.shape) or state0.ndim != 1:
            raise ValueError("state0, group, weight must be 1-D arrays of equal length")
        if state0.size < 1:
            raise ValueError("population must contain at least one unit")
        if not np.all(np.isin(state0, (SUSCEPTIBLE, INFECTED, RECOVERED))):
            raise ValueError("state0 entries must be SUSCEPTIBLE, INFECTED, or RECOVERED")
        if not np.all(np.isin(group, (GROUP1, GROUP2))):
            raise ValueError("group entries must be GROUP1 or GROUP2")
        if not np.all((weight >= 0) & np.isfinite(weight)):
            raise ValueError("weights must be finite and non-negative")
        for arr in (state0, group, weight):
            arr.setflags(write=False)
        object.__setattr__(self, "state0", state0)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "weight", weight)

    @property
    def n_units(self) -> int:
        return int(self.state0.size)

    @property
    def susceptible(self) -> np.ndarray:
        return self.state0 == SUSCEPTIBLE

    @property
    def infected(self) -> np.ndarray:
        return self.state0 == INFECTED

    @property
    def recovered(self) -> np.ndarray:
        return self.state0 == RECOVERED


def _infection_load(unit: int, graph: "ContactGraph", pop: Population,
                    params: SirParams, vaccinated: np.ndarray) -> float:
    """Degree-normalized exposure of ``unit`` to infected unvaccinated neighbors."""
    nbrs = graph.neighbors(unit)
    if nbrs.size == 0:
        return 0.0
    live = pop.infected[nbrs] & ~vaccinated[nbrs]
    if not live.any():
        return 0.0
    src_groups = pop.group[nbrs[live]]
    own = int(pop.group[unit])
    count1 = int(np.count_nonzero(src_groups == GROUP1))
    count2 = int(src_groups.size - count1)
    denom = max(1, int(graph.degree[unit]))
    return (params.beta[own, GROUP1] * count1 + params.beta[own, GROUP2] * count2) / denom


def infection_rate(unit: int, graph: "ContactGraph", pop: Population,
                   params: SirParams, alloc: "Allocation",
                   mode: str = "linear") -> float:
    """One-period infection probability of ``unit`` given the allocation.

    mode="linear" returns the degree-normalized exposure itself; mode="exact"
    returns ``1 - exp(-exposure)``.  Defined for any unit regardless of its
    own state; vaccinated neighbors contribute nothing.
    """
    if mode not in ("linear", "exact"):
        raise ValueError(f"mode must be 'linear' or 'exact', got {mode!r}")
    if graph.n_units != pop.n_units:
        raise ValueError("graph and population sizes differ")
    z = float(_infection_load(unit, graph, pop, params, alloc.indicator(pop.n_units)))
    if mode == "linear":
        return z
    return -math.expm1(-z)


def transition_probabilities(unit: int, graph: "ContactGraph", pop: Population,
                             params: SirParams, alloc: "Allocation",
                             mode: str = "linear") -> tuple[float, float, float, float]:
    """One-period transition distribution (P_S, P_I, P_R, P_D) for ``unit``.

    A vaccinated unit moves to recovered with probability one.  Otherwise a
    susceptible unit is infected with the mode-dependent infection rate, an
    infected unit recovers/dies at its group's gamma/delta, and recovered
    units stay recovered.  The four probabilities sum to 1.
    """
    q = infection_rate(unit, graph, pop, params, alloc, mode)
    v = 1.0 if unit in alloc.selected else 0.0
    g = int(pop.group[unit])
    gamma = float(params.gamma[g])
    delta = float(params.delta[g])
    s = 1.0 if pop.state0[unit] == SUSCEPTIBLE else 0.0
    i = 1.0 if pop.state0[unit] == INFECTED else 0.0
    r = 1.0 if pop.state0[unit] == RECOVERED else 0.0
    stay_infected = 1.0 - gamma - delta

    p_s = (1.0 - v - q * (1.0 - v)) * s
    p_i = s * q * (1.0 - v) + i * stay_infected * (1.0 - v)
    p_r = v + (r + i * gamma) * (1.0 - v)
    p_d = i * delta * (1.0 - v)
    return (p_s, p_i, p_r, p_d)
