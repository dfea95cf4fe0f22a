"""Incremental oracle for the varsel log posterior (acceptance criterion 6).

The chains take a fresh Cholesky factor of the active Gram block at every
evaluation.  ``ModelState``/``update_model`` here instead carry the factor
through add/drop/swap moves with rank-one extensions and downdates; the
fresh evaluation ``varsel.log_posterior`` is checked against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from discretemh.varsel import (
    SingularModel,
    VarSelData,
    VarSelHyper,
    _explained,
    _fresh_chol,
    _log_post_from_r2,
    _solve_lower,
)

# Incremental factors are rebuilt from scratch after this many updates.
REFRESH_EVERY = 1000


def _chol_append(chol: np.ndarray | None, gram: np.ndarray, active: list[int], j: int,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Extend a lower Cholesky factor of gram[active, active] by column j."""
    gjj = gram[j, j]
    if chol is None or len(active) == 0:
        if gjj <= tol:
            raise SingularModel(f"variable {j} has negligible norm")
        return np.array([[math.sqrt(gjj)]]), np.zeros(0)
    u = gram[np.ix_(active, [j])][:, 0]
    w = _solve_lower(chol, u)
    d2 = gjj - w @ w
    if d2 <= tol:
        raise SingularModel(f"adding variable {j} makes the model singular")
    s = len(active)
    out = np.zeros((s + 1, s + 1))
    out[:s, :s] = chol
    out[s, :s] = w
    out[s, s] = math.sqrt(d2)
    return out, w


def _chol_rank1_update(chol: np.ndarray, x: np.ndarray) -> np.ndarray:
    """In-place lower-triangular update: factor of L L' + x x'."""
    x = x.copy()
    k = chol.shape[0]
    for i in range(k):
        r = math.hypot(chol[i, i], x[i])
        c = r / chol[i, i]
        s = x[i] / chol[i, i]
        chol[i, i] = r
        if i + 1 < k:
            chol[i + 1 :, i] = (chol[i + 1 :, i] + s * x[i + 1 :]) / c
            x[i + 1 :] = c * x[i + 1 :] - s * chol[i + 1 :, i]
    return chol


def _chol_delete(chol: np.ndarray, pos: int) -> np.ndarray:
    """Lower Cholesky factor after deleting row/column ``pos``."""
    k = chol.shape[0]
    out = np.delete(np.delete(chol, pos, axis=0), pos, axis=1)
    if pos < k - 1:
        v = chol[pos + 1 :, pos].copy()
        _chol_rank1_update(out[pos:, pos:], v)
    return out


@dataclass(frozen=True)
class ModelState:
    """A model plus the cached factor that makes move evaluation cheap."""

    delta: tuple
    active: tuple
    chol: np.ndarray | None
    r2: float
    log_pi: float
    n_updates: int
    data: VarSelData
    hyper: VarSelHyper

    @staticmethod
    def from_delta(data: VarSelData, hyper: VarSelHyper, delta) -> "ModelState":
        delta = tuple(int(b) for b in delta)
        active = tuple(j for j in range(data.p) if delta[j])
        chol = _fresh_chol(data, list(active))
        r2 = min(max(_explained(data, chol, list(active)) / data.yty, 0.0), 1.0)
        return ModelState(
            delta=delta,
            active=active,
            chol=chol,
            r2=r2,
            log_pi=_log_post_from_r2(data, hyper, len(active), r2),
            n_updates=0,
            data=data,
            hyper=hyper,
        )


def update_model(state: ModelState, move) -> ModelState:
    """Apply ``("add", j)``, ``("drop", j)`` or ``("swap", j_out, j_in)``.

    The cached Cholesky factor is extended or downdated in place of a full
    refactorization; a from-scratch rebuild happens every REFRESH_EVERY
    updates to cap drift from repeated downdates.
    """
    kind = move[0]
    if kind == "swap":
        _, j_out, j_in = move
        return update_model(update_model(state, ("drop", j_out)), ("add", j_in))
    j = move[1]
    data, hyper = state.data, state.hyper
    active = list(state.active)
    if kind == "add":
        if state.delta[j]:
            raise ValueError(f"variable {j} already active")
        chol, _ = _chol_append(state.chol, data.gram, active, j, data.pivot_tol)
        active.append(j)
    elif kind == "drop":
        if not state.delta[j]:
            raise ValueError(f"variable {j} not active")
        pos = active.index(j)
        active.pop(pos)
        chol = _chol_delete(state.chol, pos) if len(active) else None
    else:
        raise ValueError(f"unknown move kind {kind!r}")
    delta = list(state.delta)
    delta[j] = 1 - delta[j]
    new = ModelState(
        delta=tuple(delta),
        active=tuple(active),
        chol=chol,
        r2=0.0,
        log_pi=0.0,
        n_updates=state.n_updates + 1,
        data=data,
        hyper=hyper,
    )
    if new.n_updates >= REFRESH_EVERY:
        return ModelState.from_delta(data, hyper, new.delta)
    r2 = min(max(_explained(data, chol, active) / data.yty, 0.0), 1.0)
    size = len(active)
    lp = _log_post_from_r2(data, hyper, size, r2)
    if hyper.s_max is not None and size > hyper.s_max:
        lp = -math.inf
    if size > data.n:
        lp = -math.inf
    return replace(new, r2=r2, log_pi=lp)
