"""Hypothesis strategies for valid models and intervention distributions."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from tuning import ChainSpec, Strategy

# weights bounded away from 0 keep every transition strictly positive, so
# absorption is certain and all absorption probabilities are positive
_weights = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
_incomes = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-13, 1e-300, 5e-324, 1e20, 1e300, 1.5e308, 1.7e308, -1.7e308]


def _normalized(weights: list[float]) -> np.ndarray:
    arr = np.asarray(weights, dtype=float)
    return arr / arr.sum()


@st.composite
def chain_specs(draw, max_internal: int = 5) -> ChainSpec:
    n = draw(st.integers(min_value=1, max_value=max_internal))
    rows = [
        _normalized(draw(st.lists(_weights, min_size=n + 2, max_size=n + 2)))
        for _ in range(n)
    ]
    full = np.vstack(rows)
    incomes = st.lists(_incomes, min_size=n, max_size=n)
    return ChainSpec(
        n_internal=n,
        p00=full[:, 2:],
        p01=full[:, :2],
        c=draw(incomes),
        d0=draw(incomes),
        d1=draw(incomes),
    )


@st.composite
def strategies_for(draw, n: int) -> Strategy:
    alpha0 = _normalized(draw(st.lists(_weights, min_size=n, max_size=n)))
    alpha1 = _normalized(draw(st.lists(_weights, min_size=n, max_size=n)))
    return Strategy(alpha0=alpha0, alpha1=alpha1)


@st.composite
def spec_strategy_pairs(draw, max_internal: int = 5) -> tuple[ChainSpec, Strategy]:
    spec = draw(chain_specs(max_internal=max_internal))
    return spec, draw(strategies_for(spec.n_internal))


@st.composite
def mutated_alphas(draw, n: int) -> list:
    """One side of a strategy as a library caller may pass it, n >= 2: a
    distribution, or one mutated in type (bools, strings), in value (NaN,
    infinity), in mass or in length. Mass is either moved from the first
    label to the last, which goes negative when more is moved than the
    first label holds, or added, up to 3e-9 either way, so the sum falls on
    either side of the 1e-9 tolerance."""
    alpha = _normalized(draw(st.lists(_weights, min_size=n, max_size=n))).tolist()
    kind = draw(st.sampled_from(["valid", "bool", "str", "nan", "shift", "sum", "length"]))
    if kind == "bool":
        return draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if kind == "str":
        return draw(st.lists(st.sampled_from(["0.5", "1", "a"]), min_size=n, max_size=n))
    if kind == "nan":
        alpha[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "shift":
        shift = draw(st.floats(min_value=0.0, max_value=1.0))
        alpha[0] -= shift
        alpha[-1] += shift
    elif kind == "sum":
        alpha[0] += draw(st.floats(min_value=-3e-9, max_value=3e-9))
    elif kind == "length":
        alpha = draw(st.sampled_from([alpha[:-1], alpha + [0.0]]))
    return alpha


@st.composite
def one_sided_specs(draw, max_internal: int = 4) -> ChainSpec:
    """chain_specs() in which a state may keep to itself and exit one way:
    its exit to the other boundary and its moves to other internal states
    scaled by 1e-16 or 1e-13 before the row is normalized again, so a pair
    of such states exiting opposite ways switches sides with a mass below
    or above DEGENERACY_TOL."""
    spec = draw(chain_specs(max_internal=max_internal))
    n = spec.n_internal
    full = np.hstack([spec.p01, spec.p00])
    for i in range(n):
        side = draw(st.sampled_from([0, 1, None]))
        if side is not None:
            scale = draw(st.sampled_from([1e-16, 1e-13]))
            others = [1 - side] + [2 + k for k in range(n) if k != i]
            full[i, others] *= scale
    full /= full.sum(axis=1)[:, None]
    return ChainSpec(n_internal=n, p00=full[:, 2:], p01=full[:, :2], c=spec.c, d0=spec.d0, d1=spec.d1)


@st.composite
def edge_models(draw) -> dict:
    """Valid-looking models at the float edges: positive normalized rows of
    [p01 | p00], p01 sometimes scaled towards 0 first, extreme incomes."""
    n = draw(st.integers(min_value=1, max_value=3))
    weights = st.floats(min_value=0.01, max_value=1.0)
    rows = []
    for _ in range(n):
        row = np.array(draw(st.lists(weights, min_size=n + 2, max_size=n + 2)))
        row[:2] *= draw(st.sampled_from([1.0, 1.0, 0.0, 1e-13, 1e-9]))
        rows.append(row / row.sum())
    full = np.array(rows)
    vector = st.lists(st.sampled_from(_EDGE_VALUES), min_size=n, max_size=n)
    return {
        "n_internal": n, "p00": full[:, 2:].tolist(), "p01": full[:, :2].tolist(),
        "c": draw(vector), "d0": draw(vector), "d1": draw(vector),
    }
