"""Prediction-horizon stacking for condensed MPC.

Turns the recursion ``x⁺ = Φx + Gu + w`` with the move parameterization
``u(k+i) = u(k-1) + Σ_{t≤min(i, β₂-1)} Δu(k+t)`` into one affine map::

    Y = F_x x(k) + F_u u(k-1) + f_w + Θ ΔU

where ``Y`` stacks the predicted outputs ``y(k+1) … y(k+β₁)`` and ``ΔU``
stacks the ``β₂`` input increments.  This is the matrix algebra of
eqs. (39)–(41) in the paper, written for a general output matrix.

Θ is block-lower-*Toeplitz*: its ``(s, t)`` block is the impulse-response
block ``J_{s−t} = C (Σ_{i<s−t} Φⁱ) G``, a function of ``s − t`` alone.
:func:`build_horizon` therefore computes only the β₁ distinct blocks and
assembles the dense matrix by fancy indexing (no Python block-copy
loops).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..exceptions import ModelError
from .statespace import DiscreteStateSpace

__all__ = ["HorizonMatrices", "build_horizon", "move_selector"]


@dataclass
class HorizonMatrices:
    """Stacked prediction operators for a given (β₁, β₂) horizon pair.

    Attributes
    ----------
    F_x, F_u, f_w, Theta:
        ``Y = F_x @ x + F_u @ u_prev + f_w + Theta @ dU``.
    horizon_pred, horizon_ctrl:
        β₁ and β₂.
    n_outputs, n_inputs:
        Per-step dimensions (the stacked dimensions are these times the
        respective horizons).
    """

    F_x: np.ndarray
    F_u: np.ndarray
    f_w: np.ndarray
    Theta: np.ndarray
    horizon_pred: int
    horizon_ctrl: int
    n_outputs: int
    n_inputs: int

    def predict(self, x, u_prev, dU) -> np.ndarray:
        """Stacked output prediction, reshaped to ``(β₁, ny)``."""
        x = np.asarray(x, dtype=float).ravel()
        u_prev = np.asarray(u_prev, dtype=float).ravel()
        dU = np.asarray(dU, dtype=float).ravel()
        y = self.F_x @ x + self.F_u @ u_prev + self.f_w + self.Theta @ dU
        return y.reshape(self.horizon_pred, self.n_outputs)

    def free_response(self, x, u_prev) -> np.ndarray:
        """Prediction with all input increments frozen at zero."""
        x = np.asarray(x, dtype=float).ravel()
        u_prev = np.asarray(u_prev, dtype=float).ravel()
        return self.F_x @ x + self.F_u @ u_prev + self.f_w

    def free_response_batch(self, X, U_prev) -> np.ndarray:
        """Stacked free responses for ``S`` scenarios, shape ``(S, β₁ny)``.

        ``X`` is ``(S, n_states)`` states and ``U_prev`` ``(S, nu)``
        previous inputs; the operators — shared across the batch — are
        applied as two matmuls over the scenario axis.  Lane ``s``
        equals ``free_response(X[s], U_prev[s])`` (same elementwise
        products, summed in the same order by the underlying GEMM).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U_prev = np.atleast_2d(np.asarray(U_prev, dtype=float))
        return X @ self.F_x.T + U_prev @ self.F_u.T + self.f_w


@lru_cache(maxsize=256)
def _move_selector_cached(n_inputs: int, horizon_ctrl: int,
                          step: int) -> np.ndarray:
    mask = np.zeros(horizon_ctrl)
    mask[:min(step, horizon_ctrl - 1) + 1] = 1.0
    T = np.kron(mask, np.eye(n_inputs))
    T.setflags(write=False)  # cached and shared — callers must not mutate
    return T


def move_selector(n_inputs: int, horizon_ctrl: int, step: int) -> np.ndarray:
    """Matrix ``T_i`` with ``u(k+i) = u_prev + T_i @ dU``.

    ``T_i`` is ``[I, I, …, I, 0, …, 0]`` with ``min(step, β₂-1)+1``
    identity blocks — the block row of the paper's Ī matrix.  Built by a
    single Kronecker product and memoized per ``(n_inputs, β₂, step)``
    (the MPC requests the same selectors every period); the returned
    array is read-only, copy before mutating.
    """
    if step < 0:
        raise ModelError("step must be nonnegative")
    return _move_selector_cached(int(n_inputs), int(horizon_ctrl), int(step))


def build_horizon(model: DiscreteStateSpace, horizon_pred: int,
                  horizon_ctrl: int) -> HorizonMatrices:
    """Precompute the stacked prediction operators for ``model``.

    Complexity is O(β₁) matrix products of the state dimension — cheap for
    the (N+1)-dimensional cost model of the paper — and the result is
    reusable across MPC steps as long as the model matrices are unchanged.
    Θ is assembled from its β₁ distinct Toeplitz blocks by one fancy-index
    gather instead of the O(β₁·β₂) per-block Python copy loop.
    """
    if horizon_pred < 1:
        raise ModelError("prediction horizon must be >= 1")
    if not 1 <= horizon_ctrl <= horizon_pred:
        raise ModelError(
            f"control horizon must be in [1, {horizon_pred}], got {horizon_ctrl}")
    Phi, G, C, w = model.Phi, model.G, model.C, model.w
    n = model.n_states
    nu = model.n_inputs
    ny = model.n_outputs

    # powers[s] = Φ^s ; psums[s] = Σ_{i=0}^{s-1} Φ^i  (psums[0] = 0)
    powers = [np.eye(n)]
    for _ in range(horizon_pred):
        powers.append(Phi @ powers[-1])
    psums = [np.zeros((n, n))]
    for s in range(1, horizon_pred + 1):
        psums.append(psums[-1] + powers[s - 1])

    F_x = np.vstack([C @ powers[s] for s in range(1, horizon_pred + 1)])
    offset_map = np.vstack([C @ psums[s] for s in range(1, horizon_pred + 1)])
    f_w = offset_map @ w

    # Θ's (s, t) block is J_{s-t} = C psums[s-t] G — a function of s−t
    # only.  Compute the β₁ distinct blocks in one batched product …
    psums_G = np.stack([psums[j] @ G for j in range(1, horizon_pred + 1)])
    blocks = C @ psums_G                           # (β₁, ny, nu)
    # … F_u is the first block column continued down all β₁ steps …
    F_u = blocks.reshape(horizon_pred * ny, nu).copy()
    # … and the dense Θ is a fancy-index gather over the shift s−t, with
    # shift 0 padding the upper-triangular zero blocks.
    padded = np.concatenate(
        [np.zeros((1, ny, nu)), blocks])           # padded[j] = J_j, J_0 = 0
    shift = (np.arange(1, horizon_pred + 1)[:, None]
             - np.arange(horizon_ctrl)[None, :])   # s − t
    Theta = (padded[np.clip(shift, 0, horizon_pred)]
             .transpose(0, 2, 1, 3)
             .reshape(horizon_pred * ny, horizon_ctrl * nu))
    return HorizonMatrices(
        F_x=F_x, F_u=F_u, f_w=f_w, Theta=Theta,
        horizon_pred=horizon_pred, horizon_ctrl=horizon_ctrl,
        n_outputs=ny, n_inputs=nu,
    )

