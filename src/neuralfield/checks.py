"""Self-contained property suites behind `nf check`, the oracles they compare
the production code against, and the paper's two-sided error bound as a
predicate over the study records (:func:`sandwich_verdict`).

Each suite returns :class:`CheckResult` entries; the CLI prints one line
per entry and exits nonzero when anything fails. The same functions back
the corresponding acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harness  # names read at call time, so rebinding harness.projector_error traces it
from .harness import StudyConfig, default_checkpoints, eval_grid, exact_grid
from .model import ChebyshevGrid, Interval, UniformGrid
from .problems import PROBLEM_IDS, TestProblem, make_problem
from .projection import ChebyshevBasis, TentBasis, dft_forward, fourier_reconstruct
from .quadrature import QuadratureRule, clenshaw_curtis, gauss_legendre_2, trapezium_rule
from .timestep import euler_integrate, rk54_integrate

__all__ = [
    "CheckResult",
    "clenshaw_curtis_direct",
    "continuum_residual",
    "dft_forward_direct",
    "dft_backward_direct",
    "quadrature_suite",
    "residual_suite",
    "sandwich_check",
    "sandwich_suite",
    "sandwich_verdict",
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


def continuum_residual(problem: TestProblem, x: float, t: float, ref_quad: QuadratureRule) -> float:
    """Defect of the closed form in the field equation at one point (x, t).

    The nonlocal term is evaluated with the supplied high-resolution rule
    and the forcing is bound to the single node x; by construction the true
    residual is zero, so what comes back is the rule's quadrature error on
    the kernel modulation plus the bound forcing's rounding (a few ulp).
    """
    firing = problem.firing
    integral = ref_quad.integrate(lambda y: problem.kernel(x, y) * firing(problem.exact(y, t)))
    forcing = problem.forcing_at(x)([t]).item()
    return float(problem.time_derivative(x, t) + problem.exact(x, t) - integral - forcing)


# the modulation's kinks inside its domain: P6's |y|^3 and P9p's |cos y|^3; every
# other modulation is analytic on its domain (periodic on the ring)
_KINKS = {"P6": (0.0,), "P9p": (0.5 * np.pi, 1.5 * np.pi)}
_PANEL_POINTS = 256


def _cc_panels(interval: Interval, kinks) -> QuadratureRule:
    """``clenshaw_curtis(_PANEL_POINTS)`` mapped affinely onto each panel of
    ``interval`` split at the ascending ``kinks``; a shared panel end is one
    node carrying both panels' end weights. With no kink on [-1, 1] it is
    that rule, node for node and weight for weight."""
    base = clenshaw_curtis(_PANEL_POINTS)
    # the Chebyshev nodes run from +1 down to -1, so the panels run right to left
    edges = (interval.b, *reversed(kinks), interval.a)
    nodes, weights = [], []
    for right, left in zip(edges, edges[1:]):
        mid, half = (right + left) / 2.0, (right - left) / 2.0
        panel_nodes, panel_weights = mid + half * base.nodes, half * base.weights
        if weights:
            weights[-1][-1] += panel_weights[0]
            panel_nodes, panel_weights = panel_nodes[1:], panel_weights[1:]
        nodes.append(panel_nodes)
        weights.append(panel_weights)
    return QuadratureRule(np.concatenate(nodes), np.concatenate(weights), interval)


def _reference_rule(problem: TestProblem) -> QuadratureRule:
    """The residual suite's rule for the nonlocal term: the periodic trapezium
    rule on ``_PANEL_POINTS`` nodes for a smooth ring problem, Clenshaw-Curtis
    of degree ``_PANEL_POINTS`` on each panel between the modulation's kinks
    otherwise. It is built per call; importing this module builds no rule."""
    kinks = _KINKS.get(problem.id, ())
    if problem.interval.periodic and not kinks:
        return trapezium_rule(problem.interval, _PANEL_POINTS)
    return _cc_panels(problem.interval, kinks)


def residual_suite() -> list[CheckResult]:
    """Manufactured-solution defect sweep on a 21 x 11 space-time grid.

    The forcing holds the modulation's integral as a closed form, so the
    rule that integrates the nonlocal term here is independent of it: the
    sweep checks the forcing against an integral it did not build. Each
    problem's rule (``_reference_rule``) converges geometrically on its
    integrand: Clenshaw-Curtis on the analytic box modulations (P1-P5), the
    periodic trapezium rule on the smooth ring ones (P7p, P8p, P10p), and
    Clenshaw-Curtis panels split at the kinks of P6's |y|^3 (y = 0) and
    P9p's |cos y|^3 (y = pi/2, 3 pi/2), on each of which the integrand is
    analytic. At 256 points per panel (at most 769 nodes, P9p) each
    residual is roundoff, below 1e-15, so the check asks for 1e-12: a
    modulation integral off by a relative 1e-10 fails it.
    """
    out = []
    for pid in PROBLEM_IDS:
        problem = make_problem(pid)
        ref = _reference_rule(problem)
        xs = eval_grid(problem.interval, 21)
        ts = np.linspace(0.0, 1.0, 11)
        worst = max(
            abs(continuum_residual(problem, float(x), float(t), ref)) for x in xs for t in ts
        )
        out.append(
            CheckResult(f"residual sweep {pid}", worst <= 1e-12, f"max |residual| = {worst:.2e}")
        )
    return out


# relative widening of both sandwich bounds, to absorb temporal error
SANDWICH_SLACK = 0.1


def sandwich_verdict(error: float, projector: float, beta_n: float, floor: float) -> tuple[bool, str]:
    """Whether ``error`` lies in [projector / (1 + beta_n), projector * exp(beta_n)],
    each bound widened by ``SANDWICH_SLACK``, and the detail to print. Below
    ``floor`` (> 0) the projector error says nothing of the bound: the cell passes
    as inconclusive, its detail giving both errors. A NaN or infinite scheme
    error fails before the floor is read, and a NaN projector error fails too.
    """
    if not np.isfinite(error):
        return False, f"scheme error={error:.3g} is not finite (projector error={projector:.3g})"
    if projector < floor:
        return True, (
            f"scheme error={error:.3g}, projector error={projector:.3g} "
            "(inconclusive: projector error at the temporal floor)"
        )
    ratio = error / projector
    lower, upper = 1.0 / (1.0 + beta_n), float(np.exp(beta_n))
    low, high = lower * (1.0 - SANDWICH_SLACK), upper * (1.0 + SANDWICH_SLACK)
    if low <= ratio <= high:
        return True, f"ratio={ratio:.3g} in [{lower:.3g}, {upper:.3g}]"
    if ratio > high:
        side = f"> exp(beta_n)*(1 + {SANDWICH_SLACK:g}) = {high:.3g}"
    else:
        side = f"< (1 - {SANDWICH_SLACK:g})/(1 + beta_n) = {low:.3g}"
    return False, (
        f"err/proj = {ratio:.3g} {side} "
        f"(err = {error:.3g}, proj = {projector:.3g}, beta_n = {beta_n:.3g})"
    )


def _sandwich(problem: str | TestProblem, schemes, n_values, exact=None):
    """Yield :func:`sandwich_verdict` on each record of a study per scheme under
    the :class:`StudyConfig` defaults, with its system's projector error, at
    the floor 10 * (rtol * sup|u| + atol), sup|u| over the :func:`exact_grid`
    ``exact``; on the ring the errors read the closed form's spectrum."""
    prob = make_problem(problem) if isinstance(problem, str) else problem
    studies = [StudyConfig(problems=(prob,), scheme=s, n_values=tuple(n_values)) for s in schemes]
    for cfg in studies:
        cfg.validate()
    cps = default_checkpoints(StudyConfig.t0, StudyConfig.duration, StudyConfig.checkpoint_count)
    if exact is None:
        exact = exact_grid(prob, cps, StudyConfig.eval_points)
    floor = 10.0 * (StudyConfig.rtol * float(np.max(np.abs(exact))) + StudyConfig.atol)
    if prob.interval.periodic:
        exact = harness._ring_spectrum(prob, cps, StudyConfig.eval_points, tuple(n_values))
    for cfg in studies:
        for record, system, _ in harness._records(prob, cfg, cps, exact):
            projector = harness.projector_error(system, prob, cps, cfg.eval_points, exact)
            passed, detail = sandwich_verdict(record.error, projector, record.beta_n, floor)
            yield CheckResult(f"sandwich {prob.id} {cfg.scheme} n={record.n}", passed, detail)


def sandwich_check(problem: str | TestProblem, scheme: str, n: int, exact=None) -> CheckResult:
    """The sandwich suite's check of one cell. ``exact`` is the defaults'
    :func:`exact_grid`, evaluated here when None; a problem's cells can share it."""
    return next(_sandwich(problem, (scheme,), (n,), exact))


def sandwich_suite() -> list[CheckResult]:
    """:func:`_sandwich` on P1-P6 for both collocation schemes at n = 16, 32, 64;
    each problem, its :func:`exact_grid` and floor are shared by its six cells."""
    schemes, ns = ("fe-collocation", "cheb-collocation"), (16, 32, 64)
    return [c for pid in ("P1", "P2", "P3", "P4", "P5", "P6") for c in _sandwich(pid, schemes, ns)]


SUITES = {
    "quadrature": quadrature_suite,
    "residual": residual_suite,
    "sandwich": sandwich_suite,
}
