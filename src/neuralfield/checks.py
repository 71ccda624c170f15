"""Self-contained property suites behind `nf check`, and the direct-summation
oracles they and the tests compare the production transforms against.

Each suite returns (name, passed, detail) triples; the CLI prints one line
per entry and exits nonzero when anything fails. The same functions back
the corresponding acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harness import StudyConfig, default_checkpoints, eval_grid, exact_grid, sandwich_check
from .model import ChebyshevGrid, Interval, UniformGrid
from .problems import PROBLEM_IDS, continuum_residual, make_problem
from .projection import ChebyshevBasis, TentBasis, dft_forward, fourier_reconstruct
from .quadrature import QuadratureRule, clenshaw_curtis, gauss_legendre_2, trapezium_rule
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


def dft_forward_direct(samples) -> np.ndarray:
    """O(m^2) exponential-sum oracle for :func:`dft_forward`: the complex
    c_j = (1/m) sum_l v_l exp(-i j x_l), x_l = 2*pi*l/m, for j = 0..n and
    m = 2n + 1, of one vector of samples or of each row of a stack."""
    v = np.asarray(samples, dtype=float)
    m = v.shape[-1]
    if m % 2 == 0:
        raise ValueError(f"transform length must be odd, got {m}")
    x = 2.0 * np.pi * np.arange(m) / m
    return v @ np.exp(-1j * np.outer(x, np.arange((m + 1) // 2))) / m


def dft_backward_direct(coeffs) -> np.ndarray:
    """O(m^2) exponential-sum oracle for the inverse of :func:`dft_forward`:
    the samples v_l = sum_{j=-n..n} c_j exp(i j x_l), c_{-j} = conj(c_j), at
    the m = 2n + 1 ring nodes x_l = 2*pi*l/m of the complex coefficients
    c_0..c_n, which :func:`fourier_reconstruct` evaluates there."""
    c = np.asarray(coeffs, dtype=complex)
    n = c.shape[-1] - 1
    x = 2.0 * np.pi * np.arange(2 * n + 1) / (2 * n + 1)
    modes = np.concatenate((np.conj(c[..., :0:-1]), c), axis=-1)  # c_-n..c_n
    return (modes @ np.exp(1j * np.outer(np.arange(-n, n + 1), x))).real


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
    # the interpolant of the i-th unit vector is tent i
    unity = tent.interpolate(np.eye(tent.size), xs).sum(axis=0)
    check("tent partition of unity", np.allclose(unity, 1.0, atol=1e-14))
    deltas = tent.interpolate(np.eye(tent.size), tent.grid.nodes)
    check("tent Lagrange delta property", np.all(np.abs(deltas - np.eye(tent.size)) <= 1e-15))
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
    nodes = 2.0 * np.pi * np.arange(9) / 9
    check("dft round trip", np.allclose(fourier_reconstruct(c, nodes), v, rtol=1e-13, atol=1e-14))
    check(
        "dft matches the direct summation",
        np.allclose(c, dft_forward_direct(v), atol=1e-13)
        and np.allclose(fourier_reconstruct(c, nodes), dft_backward_direct(c), atol=1e-13),
    )
    # each c_j past c_0 stands for the conjugate pair of modes j and -j
    parseval = abs(np.sum(v**2) - 9 * (abs(c[0]) ** 2 + 2.0 * np.sum(np.abs(c[1:]) ** 2)))
    check("dft Parseval identity", parseval <= 1e-11 * np.sum(v**2), f"gap={parseval:.2e}")

    decay = lambda t, a: -a  # noqa: E731  (from a(0) = 1, a = e^-t)
    one = euler_integrate(decay, [1.0], 0.0, 0.1, 0.1, [0.0, 0.1], drive=np.asarray)
    check("euler single step 1 -> 0.9", abs(one.states[-1][0] - 0.9) <= 1e-15)
    hs = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    runs = [euler_integrate(decay, [1.0], 0.0, 1.0, h, [0.0, 1.0], drive=np.asarray) for h in hs]
    errs = np.array([abs(run.states[-1][0] - np.exp(-1.0)) for run in runs])
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    check("euler first-order slope on the decay problem", 0.95 <= slope <= 1.05, f"slope={slope:.3f}")
    tight = rk54_integrate(decay, [1.0], 0.0, 1.0, 1e-8, 1e-10, [0.0, 1.0], drive=np.asarray)
    check(
        "rk54 decay accuracy at rtol=1e-8",
        abs(tight.states[-1][0] - np.exp(-1.0)) <= 1e-7,
        f"err={abs(tight.states[-1][0] - np.exp(-1.0)):.2e}",
    )
    return out


def residual_suite() -> list[CheckResult]:
    """Manufactured-solution defect sweep on a 21 x 11 space-time grid.

    The forcing holds the modulation's integral as a closed form, so the
    rule that integrates the nonlocal term here is independent of it: the
    sweep checks the forcing against an integral it did not build. The
    kinked-modulation problems (P6's |y|^3, P9p's |cos y|^3) use a doubled
    reference resolution, because their kinks limit the rule.
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
    """Two-sided bound check on the compact problems for both collocation schemes.

    Each problem is built once, and its closed form evaluated once on the
    checkpoint x point grid, and both are shared by its six cells. A conclusive
    cell's detail gives the ratio and its bounds; an inconclusive one gives
    the scheme and projector errors instead, as their ratio is noise there.
    """
    # sandwich_check runs every cell on the StudyConfig defaults
    defaults = StudyConfig(problems=(), scheme="fe-collocation", n_values=())
    cps = default_checkpoints(defaults.t0, defaults.duration, defaults.checkpoint_count)
    out = []
    for pid in ("P1", "P2", "P3", "P4", "P5", "P6"):
        problem = make_problem(pid)
        exact = exact_grid(problem, cps, defaults.eval_points)
        for scheme in ("fe-collocation", "cheb-collocation"):
            for n in (16, 32, 64):
                result = sandwich_check(problem, scheme, n, exact)
                if result.conclusive:
                    detail = f"ratio={result.ratio:.3g} in [{result.lower:.3g}, {result.upper:.3g}]"
                else:
                    detail = (
                        f"scheme error={result.scheme_error:.3g}, "
                        f"projector error={result.projector_error:.3g} "
                        "(inconclusive: projector error at the temporal floor)"
                    )
                out.append(CheckResult(f"sandwich {pid} {scheme} n={n}", result.passed, detail))
    return out


SUITES = {
    "quadrature": quadrature_suite,
    "residual": residual_suite,
    "sandwich": sandwich_suite,
}
