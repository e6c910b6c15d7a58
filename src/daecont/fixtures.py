"""Built-in problem and path fixtures, loadable by name.

Problem fixtures are shipped as problem-file text and go through the
regular parser, so they double as format examples; path fixtures are
frame paths used by the audit tooling.  ``AVERAGED_MAP_REFERENCES`` holds
documented closed-form reference formulas shipped alongside fixtures for
comparison in reports; a reference is reported against, never assumed
correct.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .paths import MatrixPath
from .probfile import build_problem, expr_path, parse_problem

__all__ = [
    "PROBLEMS",
    "PATHS",
    "DESCRIPTIONS",
    "AVERAGED_MAP_REFERENCES",
    "problem_text",
    "load_fixture",
    "path_fixture",
    "fixture_names",
]

_TWO_PI = repr(2.0 * np.pi)

PROBLEMS: Dict[str, str] = {
    "rotating_surface": f"""
[problem]
kind = dae1
name = rotating_surface
m = 2
s = 1
period = {_TWO_PI}

[A]
cos(t), -sin(t)
sin(t), cos(t)

[B]
1

[g]
q^3 + q - p1^2 - 2*p2^2

[f]
cos(t) - x1
-x2
""",
    "rotating_surface_2nd": f"""
[problem]
kind = dae2
name = rotating_surface_2nd
m = 2
s = 1
period = {_TWO_PI}

[A]
cos(t), -sin(t)
sin(t), cos(t)

[B]
1

[g]
q^3 + q - p1^2 - 2*p2^2

[f]
cos(t) - x1
-x2
""",
    "commuting_h": f"""
[problem]
kind = dae1
name = commuting_h
m = 2
s = 1
period = {_TWO_PI}

[A]
cos(t), sin(t)
-sin(t), cos(t)

[B]
1

[g]
q^5 + q - p1

[f]
cos(t) - x1
-x2

[H]
-0.3, 0.5
-0.5, -0.3
""",
    "semilinear_4x4": f"""
[problem]
kind = semilinear
name = semilinear_4x4
n = 4
period = {_TWO_PI}

[E]
1, 0, 0, 0
0, 0, 0, 0
0, 0, 0, 1
0, 0, 0, 0

[F]
0, 0, 0, 0
cos(t), 1, 0, -sin(t)
0, 0, 0, 0
sin(t), 0, 1, cos(t)

[C]
2 + cos(t), 1, 0, 1
0, 0, 0, 0
1, 3 + sin(t), 2, 0
0, 0, 0, 0

[S]
x1
x2
x3
x4
""",
    "scalar_linear": f"""
[problem]
kind = dae1
name = scalar_linear
m = 1
s = 1
period = {_TWO_PI}

[A]
1

[B]
1

[g]
q^3 + q - p

[f]
cos(t) - x
""",
}

_PATH_TABLES = {
    "rot2": [
        ["cos(t)", "-sin(t)"],
        ["sin(t)", "cos(t)"],
    ],
    "rot2cw": [
        ["cos(t)", "sin(t)"],
        ["-sin(t)", "cos(t)"],
    ],
    "counterexample4": [
        ["0", "0", "sin(t)", "-cos(t)"],
        ["0", "0", "cos(t)", "sin(t)"],
        ["cos(t)", "sin(t)", "0", "0"],
        ["-sin(t)", "cos(t)", "0", "0"],
    ],
}

PATHS = tuple(_PATH_TABLES)

DESCRIPTIONS: Dict[str, str] = {
    "rotating_surface": "surface q^3+q = p1^2+2*p2^2 seen through a revolving frame; first order",
    "rotating_surface_2nd": "second-order variant of rotating_surface",
    "commuting_h": "clockwise frame, quintic constraint, constant commuting spiral drift H",
    "semilinear_4x4": "4x4 separated-variables semi-linear system with rank-2 mass matrix",
    "scalar_linear": "scalar dx/dt = lam*(cos t - x) with cubic constraint; closed-form orbit",
    "rot2": "counterclockwise planar rotation frame (path)",
    "rot2cw": "clockwise planar rotation frame (path)",
    "counterexample4": "4x4 orthogonal path with constant but unequal one-sided products (path)",
}


def _semilinear_reference(z: np.ndarray) -> np.ndarray:
    # Documented reference formula shipped with semilinear_4x4 for the
    # averaged-map report; compared against, not trusted.
    x1, x2, y1, y2 = z
    return np.array([y1, 3.0 * y1 + 2.0 * y2, x1 + y1, x2 + y2])


AVERAGED_MAP_REFERENCES = {"semilinear_4x4": _semilinear_reference}


def problem_text(name: str) -> str:
    return PROBLEMS[name]


def load_fixture(name: str):
    """Build the named problem fixture (DaeProblem1/2 or SemiLinearDae)."""
    return build_problem(parse_problem(PROBLEMS[name]))


def path_fixture(name: str, period: float = 2.0 * np.pi) -> MatrixPath:
    """Build the named path fixture as an analytic MatrixPath."""
    return expr_path(_PATH_TABLES[name], period, name=name)


def fixture_names():
    """(name, kind, description) rows for every shipped fixture."""
    rows = []
    for name in sorted(PROBLEMS):
        kind = parse_problem(PROBLEMS[name]).kind
        rows.append((name, kind, DESCRIPTIONS[name]))
    for name in sorted(_PATH_TABLES):
        rows.append((name, "path", DESCRIPTIONS[name]))
    return rows
