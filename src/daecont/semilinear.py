"""SVD-based reduction of separated-variables semi-linear DAEs.

Systems ``E dx/dt = F(t) x + lam * C(t) S(x)`` with ``rank E = n/2`` are
reduced to the semi-explicit moving-constraint form: orthogonal factors
``P, Q`` diagonalizing ``E`` split the transformed system into an ODE
block for the first ``r`` variables and an algebraic block
``F3(t) x + F4(t) y = 0``, provided the kernel/image alignment conditions
hold (``ker C(t).T = ker E.T`` and ``im F(t) = ker E.T`` for all t).
The algebraic block then plays the role of the moving constraint with
frame ``F3`` and scaling ``F4``.

This module audits those conditions numerically; the reduced problem
itself is written as expression tables by
:func:`daecont.probfile.reduced_spec` and compiled like any ``dae1``
problem file, so ``daecont reduce --out`` writes exactly the problem
that the other commands run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (
    ConditionsViolatedError,
    RankMismatchError,
    SingularBlockError,
)
from .linalg import determinant, norm_inf, svd_small
from .paths import MatrixPath, _finite, _sup
from .transform import DaeProblem1

if TYPE_CHECKING:
    from .probfile import ProblemSpec

__all__ = ["SemiLinearDae", "ReductionReport", "check_conditions", "reduce_semilinear"]

COND_TOL = 1e-8
RANK_REL = 1e-10


@dataclass(frozen=True)
class SemiLinearDae:
    """Semi-linear DAE with separated variables, built from its problem spec.

    ``spec`` is the parsed ``semilinear`` problem, and the only field given
    at construction: the others are compiled from it then, and the class is
    frozen, so neither an assignment nor :func:`dataclasses.replace` can
    make the audit and the reduction read different systems.  ``mass`` is
    the (singular) constant matrix multiplying dx/dt; ``Fpath`` and
    ``Cpath`` are T-periodic matrix paths, which the audit samples.  The
    reduction reads the tables of ``F``, ``C`` and ``S`` in ``spec``, so
    ``S`` is never compiled on its own.
    """

    spec: ProblemSpec
    n: int = field(init=False)
    period: float = field(init=False)
    name: str = field(init=False)
    mass: np.ndarray = field(init=False)
    Fpath: MatrixPath = field(init=False)
    Cpath: MatrixPath = field(init=False)

    def __post_init__(self):
        # probfile imports this module for SemiLinearDae, so its compilers
        # are imported when a system is built, not when this module loads.
        from .probfile import _numeric_matrix, expr_path

        spec = self.spec
        paths = [expr_path(spec.tables[label], spec.period, derivative_mode=spec.derivative_mode,
                           fd_step=spec.fd_step, name=label) for label in ("F", "C")]
        fields = (spec.n, spec.period, spec.name, _numeric_matrix(spec.tables["E"]), *paths)
        for label, value in zip(("n", "period", "name", "mass", "Fpath", "Cpath"), fields):
            object.__setattr__(self, label, value)


def _numerical_rank(sigma: np.ndarray):
    # of each slice of a stack of singular values: those above RANK_REL * sigma[0]
    return np.count_nonzero(sigma > RANK_REL * sigma[..., :1], axis=-1)


def _subspace_residual(bases: np.ndarray, matches: np.ndarray, v: np.ndarray, name: str) -> float:
    # Max over the nodes of ||u u.T - v v.T||_inf, 0 iff span(u) == span(v):
    # u the node's basis, whose dimension is v's where ``matches`` holds; a
    # node where it is not counts as maximal.
    u = bases[matches]
    residual = _sup(u @ u.swapaxes(1, 2) - v @ v.T, name) if len(u) else 0.0
    return residual if matches.all() else max(1.0, residual)


@dataclass(frozen=True)
class ReductionReport:
    """Everything the reduction is allowed to assume, as residuals.

    Block residuals measure how far the transformed matrices are from
    their required zero patterns; kernel residuals compare the relevant
    subspaces via orthogonal projectors; determinant margins are minima
    over the audit grid.
    """

    P: np.ndarray
    Q: np.ndarray
    sigma: np.ndarray
    rank: int
    e_block_residual: float
    f_block_residual: float
    c_block_residual: float
    kernel_residual_c: float
    kernel_residual_f: float
    det_margin_f3: float
    det_margin_f4: float
    grid_size: int
    tol: float = COND_TOL

    @property
    def conditions_hold(self) -> bool:
        return (
            max(
                self.e_block_residual,
                self.f_block_residual,
                self.c_block_residual,
                self.kernel_residual_c,
                self.kernel_residual_f,
            )
            <= self.tol
        )

    def require_reducible(self) -> None:
        """Raise unless the conditions hold and ``F3``, ``F4`` stay nonsingular."""
        if not self.conditions_hold:
            raise ConditionsViolatedError(
                "reduction conditions failed: "
                + ", ".join(f"{k}={v:.3e}" for k, v in self.to_dict().items()
                            if k.endswith("residual") and isinstance(v, float))
            )
        if min(self.det_margin_f3, self.det_margin_f4) < 1e-12:
            raise SingularBlockError(
                f"transformed blocks are singular on the grid: |det F3| >= {self.det_margin_f3:.3e}, "
                f"|det F4| >= {self.det_margin_f4:.3e}"
            )

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "sigma": self.sigma,
            "e_block_residual": self.e_block_residual,
            "f_block_residual": self.f_block_residual,
            "c_block_residual": self.c_block_residual,
            "kernel_residual_c": self.kernel_residual_c,
            "kernel_residual_f": self.kernel_residual_f,
            "det_margin_f3": self.det_margin_f3,
            "det_margin_f4": self.det_margin_f4,
            "conditions_hold": self.conditions_hold,
            "tol": self.tol,
            "grid_size": self.grid_size,
            "P": self.P,
            "Q": self.Q,
        }


def _rank_checked_svd(dae: SemiLinearDae):
    p, sigma, q = svd_small(dae.mass)
    r = int(_numerical_rank(sigma))
    if dae.n % 2 != 0 or r != dae.n // 2:
        raise RankMismatchError(
            f"mass matrix rank {r} must equal n/2 = {dae.n / 2:g} (n = {dae.n})"
        )
    return p, sigma, q, r


def check_conditions(dae: SemiLinearDae, grid: int = 64) -> ReductionReport:
    """Audit the reduction hypotheses of a semi-linear DAE on a grid of
    ``grid >= 1`` times."""
    if grid < 1:
        raise ValueError(f"reduction audit grid must have at least 1 point, got {grid}")
    return _check_with(dae, *_rank_checked_svd(dae), grid)


def _check_with(dae, p, sigma, q, r, grid) -> ReductionReport:
    """The reduction audit with the mass matrix's factors ``p, sigma, q``
    and rank ``r`` given.

    ``F`` and ``C`` are read as ``(grid, n, n)`` stacks at the times
    ``k * period / grid`` (:meth:`~daecont.paths.MatrixPath.stack`); the
    transformed stacks ``P.T @ F @ Q`` and
    ``P.T @ C @ Q``, their block residuals, one stacked :func:`svd_small`
    per path (its sign rule applied per slice) and the determinants of
    the ``F3``, ``F4`` blocks are each one stacked expression.
    """
    n = dae.n
    e_t = p.T @ dae.mass @ q
    e_res = max(
        norm_inf(e_t[:r, r:]),
        norm_inf(e_t[r:, :r]),
        norm_inf(e_t[r:, r:]),
    )
    ker_e = p[:, r:]
    times = np.array([k * dae.period / grid for k in range(grid)])
    (f_raw,), (c_raw,) = dae.Fpath.stack(times), dae.Cpath.stack(times)
    (p_f, sigma_f, _), (p_c, sigma_c, _) = svd_small(f_raw), svd_small(c_raw)
    with np.errstate(all="ignore"):
        f_t, c_t = p.T @ f_raw @ q, p.T @ c_raw @ q
        return ReductionReport(
            P=p,
            Q=q,
            sigma=sigma,
            rank=r,
            e_block_residual=e_res,
            f_block_residual=_sup(f_t[:, :r, :], "f_block_residual"),
            c_block_residual=_sup(c_t[:, r:, :], "c_block_residual"),
            # ker C(t).T against ker E.T, im F(t) against ker E.T
            kernel_residual_c=_subspace_residual(p_c[:, :, r:], _numerical_rank(sigma_c) == r,
                                                 ker_e, "kernel_residual_c"),
            kernel_residual_f=_subspace_residual(p_f[:, :, : n - r],
                                                 _numerical_rank(sigma_f) == n - r,
                                                 ker_e, "kernel_residual_f"),
            det_margin_f3=_finite(np.abs(determinant(f_t[:, r:, :r])).min(), "det_margin_f3"),
            det_margin_f4=_finite(np.abs(determinant(f_t[:, r:, r:])).min(), "det_margin_f4"),
            grid_size=grid,
        )


def reduce_semilinear(
    dae: SemiLinearDae,
    grid: int = 64,
    *,
    report: Optional[ReductionReport] = None,
) -> DaeProblem1:
    """Reduce a semi-linear DAE to a first-order moving-constraint problem.

    The result has ``m = s = r = n/2``, frame path ``F3``, scaling path
    ``F4``, constraint ``g(p, q) = p + q`` and forcing
    ``f = E1^{-1} (C1(t) S1 + C2(t) S2)`` with ``(S1, S2) = Q.T S(Q ·)``.
    It is ``build_problem(reduced_spec(dae.spec, P, sigma, Q))``: compiled
    from expression tables like any ``dae1`` file, with symbolic frame
    derivatives (or differences, under ``derivatives = fd``), forcing
    Jacobian and constraint blocks, ``g`` and its blocks with ``arrays``.
    The frame ``F3`` is not audited here: a frame that fails
    ``frame_audit`` is outside the scope of the fixed-frame machinery
    (which then raises), while raw-mode integration still works.
    A given ``report`` supplies ``P``, ``Q``, ``sigma`` and the rank;
    without one, :func:`check_conditions` runs first.  A report whose
    conditions fail raises :class:`ConditionsViolatedError`, one with a
    singular ``F3`` or ``F4`` on the grid :class:`SingularBlockError`.
    """
    if report is None:
        report = check_conditions(dae, grid)
    report.require_reducible()
    # probfile imports this module for SemiLinearDae, so it is imported
    # when a reduction runs, not when this module loads.
    from .probfile import build_problem, reduced_spec

    return build_problem(reduced_spec(dae.spec, report.P, report.sigma, report.Q))
