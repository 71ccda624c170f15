"""Self-contained property suites behind `nf check`, and the direct-summation
oracles they and the tests compare the production transforms against.

Each suite returns (name, passed, detail) triples; the CLI prints one line
per entry and exits nonzero when anything fails. The same functions back
the corresponding acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harness import eval_grid, sandwich_check
from .model import ChebyshevGrid, Interval, UniformGrid
from .problems import PROBLEM_IDS, continuum_residual, make_problem
from .projection import ChebyshevBasis, TentBasis, dft_backward, dft_forward
from .quadrature import QuadratureRule, clenshaw_curtis, gauss_legendre_2, trapezium_rule
from .schemes import SchemeDiagnostics, SemiDiscreteSystem
from .timestep import euler_integrate, rk54_integrate

__all__ = [
    "CheckResult",
    "clenshaw_curtis_direct",
    "dft_forward_direct",
    "dft_backward_direct",
    "quadrature_suite",
    "residual_suite",
    "sandwich_suite",
    "SUITES",
]

_BOX = Interval(-1.0, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def clenshaw_curtis_direct(n: int) -> QuadratureRule:
    """O(n^2) cosine-sum evaluation of the Clenshaw-Curtis weights.

    Independent of the FFT construction in :func:`clenshaw_curtis` and kept
    as its cross-check.
    """
    if n < 2:
        raise ValueError("Clenshaw-Curtis needs n >= 2")
    theta = np.pi * np.arange(n + 1) / n
    inner = theta[1:-1]
    weights = np.zeros(n + 1)
    v = np.ones(n - 1)
    if n % 2 == 0:
        weights[0] = weights[n] = 1.0 / (n * n - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * inner) / (4.0 * k * k - 1)
        v -= np.cos(n * inner) / (n * n - 1)
    else:
        weights[0] = weights[n] = 1.0 / (n * n)
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * inner) / (4.0 * k * k - 1)
    weights[1:-1] = 2.0 * v / n
    return QuadratureRule(ChebyshevGrid(n).nodes, weights, _BOX)


def _dft_phases(m: int) -> np.ndarray:
    """Phases j * x_l for the modes j = 1..n and the samples x_l = 2*pi*l/m."""
    if m % 2 == 0:
        raise ValueError(f"transform length must be odd, got {m}")
    return np.outer(np.arange(1, (m - 1) // 2 + 1), 2.0 * np.pi * np.arange(m) / m)


def dft_forward_direct(samples) -> np.ndarray:
    """O(m^2) cosine/sine-sum oracle for :func:`dft_forward`'s packed layout."""
    v = np.asarray(samples, dtype=float)
    phase = _dft_phases(len(v))
    out = np.empty(len(v))
    out[0] = v.sum()
    out[1::2] = np.cos(phase) @ v
    out[2::2] = -np.sin(phase) @ v
    return out / len(v)


def dft_backward_direct(coeffs) -> np.ndarray:
    """O(m^2) cosine/sine-sum oracle for :func:`dft_backward`."""
    a = np.asarray(coeffs, dtype=float)
    phase = _dft_phases(len(a))
    return a[0] + 2.0 * (a[1::2] @ np.cos(phase) - a[2::2] @ np.sin(phase))


def scalar_decay_system() -> SemiDiscreteSystem:
    """One-component system a' = -a with a(0) = 1, for stepper checks."""
    return SemiDiscreteSystem(
        rhs=lambda t, a: -a,
        initial=np.array([1.0]),
        reconstruct=lambda a, xs: a[0] * np.ones(np.shape(xs)),
        diagnostics=SchemeDiagnostics(0.0, 0.0),
        norm="sup",
        encode=lambda fn: np.array([float(fn(0.0))]),
    )


def quadrature_suite() -> list[CheckResult]:
    """Quadrature exactness, projector reproduction, DFT round trips, and
    scalar stepper checks."""
    out: list[CheckResult] = []

    def check(name, passed, detail=""):
        out.append(CheckResult(name, bool(passed), detail))

    rule = trapezium_rule(_BOX, 2)
    check(
        "trapezium n=2 nodes and weights",
        np.allclose(rule.nodes, [-1.0, 0.0, 1.0]) and np.allclose(rule.weights, [0.5, 1.0, 0.5]),
    )
    sums_ok = all(
        abs(trapezium_rule(_BOX, n).weights.sum() - 2.0) <= 1e-12 * 2.0 for n in (1, 3, 7, 64, 513)
    )
    check("trapezium weights sum to the interval length", sums_ok)

    exact_exp = np.exp(1.0) - np.exp(-1.0)
    ns = np.array([8, 16, 32, 64, 128, 256, 512])
    errs = np.array([abs(trapezium_rule(_BOX, n).integrate(np.exp) - exact_exp) for n in ns])
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    check("trapezium second-order slope on exp", 1.9 <= slope <= 2.1, f"slope={slope:.3f}")

    cc2 = clenshaw_curtis(2)
    check(
        "clenshaw-curtis n=2 weights 1/3, 4/3, 1/3",
        np.allclose(cc2.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15),
    )
    mono_ok = True
    for n in (2, 4, 8, 16):
        rule = clenshaw_curtis(n)
        for p in range(n + 1):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            mono_ok &= abs(rule.integrate(lambda y: y**p) - exact) <= 1e-13
    check("clenshaw-curtis exact on monomials up to degree n", mono_ok)
    fft_ok = all(
        np.allclose(clenshaw_curtis(n).weights, clenshaw_curtis_direct(n).weights, atol=1e-14)
        for n in (2, 3, 5, 8, 16, 33, 64)
    )
    check("clenshaw-curtis FFT weights match the direct cosine sum", fft_ok)

    g2 = gauss_legendre_2()
    check(
        "gauss-2 exact on cubics",
        abs(g2.integrate(lambda y: y**3)) <= 1e-15
        and abs(g2.integrate(lambda y: y**2) - 2 / 3) <= 1e-15,
    )

    tent = TentBasis(UniformGrid(_BOX, 10))
    xs = np.linspace(-1.0, 1.0, 257)
    unity = sum(tent.eval(i, xs) for i in range(tent.size))
    check("tent partition of unity", np.allclose(unity, 1.0, atol=1e-14))
    delta_ok = all(
        abs(tent.eval(i, tent.grid.nodes[j]) - (1.0 if i == j else 0.0)) <= 1e-15
        for i in range(tent.size)
        for j in range(tent.size)
    )
    check("tent Lagrange delta property", delta_ok)
    vals = 2.0 * tent.grid.nodes + 1.0
    check(
        "tent interpolation reproduces linears",
        np.allclose(tent.interpolate(vals, xs), 2.0 * xs + 1.0, atol=1e-14),
    )

    cheb = ChebyshevBasis(ChebyshevGrid(9))
    vals = cheb.grid.nodes**3 - 2.0 * cheb.grid.nodes
    check(
        "chebyshev barycentric reproduces cubics",
        np.allclose(cheb.interpolate(vals, xs), xs**3 - 2.0 * xs, atol=1e-13),
    )
    resampled = cheb.interpolate(vals, cheb.grid.nodes)
    check("chebyshev projector idempotence", np.array_equal(resampled, vals))

    rng = np.random.default_rng(7)
    v = rng.standard_normal(9)
    c = dft_forward(v)
    check("dft round trip", np.allclose(dft_backward(c), v, rtol=1e-13, atol=1e-14))
    check(
        "dft matches the direct summation",
        np.allclose(c, dft_forward_direct(v), atol=1e-13)
        and np.allclose(dft_backward(c), dft_backward_direct(c), atol=1e-13),
    )
    # each packed entry past c_0 stands for a conjugate pair of modes
    parseval = abs(np.sum(v**2) - 9 * (c[0] ** 2 + 2.0 * np.sum(c[1:] ** 2)))
    check("dft Parseval identity", parseval <= 1e-11 * np.sum(v**2), f"gap={parseval:.2e}")

    scalar = scalar_decay_system()
    one = euler_integrate(scalar, 0.0, 0.1, 0.1, [0.0, 0.1])
    check("euler single step 1 -> 0.9", abs(one.states[-1][0] - 0.9) <= 1e-15)
    hs = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    errs = np.array(
        [
            abs(euler_integrate(scalar, 0.0, 1.0, h, [0.0, 1.0]).states[-1][0] - np.exp(-1.0))
            for h in hs
        ]
    )
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    check("euler first-order slope on the decay problem", 0.95 <= slope <= 1.05, f"slope={slope:.3f}")
    tight = rk54_integrate(scalar, 0.0, 1.0, 1e-8, 1e-10, [0.0, 1.0])
    check(
        "rk54 decay accuracy at rtol=1e-8",
        abs(tight.states[-1][0] - np.exp(-1.0)) <= 1e-7,
        f"err={abs(tight.states[-1][0] - np.exp(-1.0)):.2e}",
    )
    return out


def residual_suite() -> list[CheckResult]:
    """Manufactured-solution defect sweep on a 21 x 11 space-time grid.

    The kinked-modulation problems (P6, P9p) use a doubled reference
    resolution for the nonlocal term.
    """
    out = []
    for pid in PROBLEM_IDS:
        problem = make_problem(pid)
        if problem.interval.periodic:
            panels = 8192 if pid == "P9p" else 4096
            ref = trapezium_rule(problem.interval, panels)
        else:
            panels = 4096 if pid == "P6" else 2048
            ref = clenshaw_curtis(panels)
        xs = eval_grid(problem.interval, 21)
        ts = np.linspace(0.0, 1.0, 11)
        worst = max(
            abs(continuum_residual(problem, float(x), float(t), ref)) for x in xs for t in ts
        )
        out.append(
            CheckResult(f"residual sweep {pid}", worst <= 1e-8, f"max |residual| = {worst:.2e}")
        )
    return out


def sandwich_suite() -> list[CheckResult]:
    """Two-sided bound check on the compact problems for both collocation schemes."""
    out = []
    for pid in ("P1", "P2", "P3", "P4", "P5", "P6"):
        for scheme in ("fe-collocation", "cheb-collocation"):
            for n in (16, 32, 64):
                result = sandwich_check(pid, scheme, n)
                tag = "" if result.conclusive else " (inconclusive: projector error at the temporal floor)"
                out.append(
                    CheckResult(
                        f"sandwich {pid} {scheme} n={n}",
                        result.passed,
                        f"ratio={result.ratio:.3g} in [{result.lower:.3g}, {result.upper:.3g}]{tag}",
                    )
                )
    return out


SUITES = {
    "quadrature": quadrature_suite,
    "residual": residual_suite,
    "sandwich": sandwich_suite,
}
