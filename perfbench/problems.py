"""Seeded problem files for the benchmark workloads.

A workload seed selects one of ``NVARIANTS`` variants (``seed % NVARIANTS``)
so that every input the benchmark can generate has a reference recorded in
``reference.json``.  Variant 0 of a branch workload is the shipped fixture,
run by name.  Any other (variant, slot) pair is a copy of a fixture whose
constraint and forcing coefficients are scaled by factors in
``1 +/- AMPLITUDE``, drawn from ``numpy.random.default_rng([variant, slot])``
and printed with four decimals, so the text is byte-deterministic.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

NVARIANTS = 16
AMPLITUDE = 0.02
TWO_PI = repr(2.0 * np.pi)

# Coefficients are named c0, c1, ... in order of appearance; each template
# lists the nominal value of every coefficient.
TEMPLATES = {
    "rotating_surface": ("""[problem]
kind = dae1
name = {name}
m = 2
s = 1
period = {period}

[A]
cos(t), -sin(t)
sin(t), cos(t)

[B]
1

[g]
q^3 + {c0}*q - {c1}*p1^2 - {c2}*p2^2

[f]
{c3}*cos(t) - {c4}*x1
-{c5}*x2
""", (1.0, 1.0, 2.0, 1.0, 1.0, 1.0)),
    "rotating_surface_2nd": ("""[problem]
kind = dae2
name = {name}
m = 2
s = 1
period = {period}

[A]
cos(t), -sin(t)
sin(t), cos(t)

[B]
1

[g]
q^3 + {c0}*q - {c1}*p1^2 - {c2}*p2^2

[f]
{c3}*cos(t) - {c4}*x1
-{c5}*x2
""", (1.0, 1.0, 2.0, 1.0, 1.0, 1.0)),
    "commuting_h": ("""[problem]
kind = dae1
name = {name}
m = 2
s = 1
period = {period}

[A]
cos(t), sin(t)
-sin(t), cos(t)

[B]
1

[g]
q^5 + {c0}*q - {c1}*p1

[f]
{c2}*cos(t) - {c3}*x1
-{c4}*x2

[H]
-0.3, 0.5
-0.5, -0.3
""", (1.0, 1.0, 1.0, 1.0, 1.0)),
    "semilinear_4x4": ("""[problem]
kind = semilinear
name = {name}
n = 4
period = {period}

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
{c0} + cos(t), {c1}, 0, {c2}
0, 0, 0, 0
{c3}, {c4} + sin(t), {c5}, 0
0, 0, 0, 0

[S]
{c6}*x1
x2
{c7}*x3
x4
""", (2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 1.0)),
    "scalar_linear": ("""[problem]
kind = dae1
name = {name}
m = 1
s = 1
period = {period}

[A]
1

[B]
1

[g]
q^3 + {c0}*q - {c1}*p

[f]
{c2}*cos(t) - {c3}*x
""", (1.0, 1.0, 1.0, 1.0)),
}


def variant_of(seed: int) -> int:
    return seed % NVARIANTS


def problem_text(fixture: str, variant: int, slot: int) -> str:
    """Text of the perturbed copy of ``fixture`` for (variant, slot)."""
    template, nominal = TEMPLATES[fixture]
    rng = np.random.default_rng([variant, slot])
    factors = 1.0 + AMPLITUDE * rng.uniform(-1.0, 1.0, size=len(nominal))
    coefs = {f"c{k}": f"{c * f:.4f}" for k, (c, f) in enumerate(zip(nominal, factors))}
    return template.format(name=f"{fixture}_v{variant}_{slot}", period=TWO_PI, **coefs)


def problem_source(fixture: str, variant: int, slot: int, workdir: Path) -> str:
    """CLI source for (fixture, variant, slot): the fixture name for
    (0, 0), else the path of a generated problem file under ``workdir``."""
    if variant == 0 and slot == 0:
        return fixture
    path = workdir / f"{fixture}_v{variant}_{slot}.prob"
    text = problem_text(fixture, variant, slot)
    if not path.exists() or path.read_text() != text:
        path.write_text(text)
    return str(path)

