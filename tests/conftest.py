import tracemalloc

import numpy as np
import pytest

from neuralfield.model import FiringRate
from neuralfield.problems import (
    AMPLITUDE,
    BOX,
    DECAY,
    GAIN,
    RING,
    THRESHOLD,
    TestProblem,
    _manufactured,
    make_problem,
    modulation_integral,
)


@pytest.fixture(scope="session")
def p1():
    return make_problem("P1")


@pytest.fixture(scope="session")
def p4():
    return make_problem("P4")


@pytest.fixture(scope="session")
def p7p():
    return make_problem("P7p")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _pure_decay(periodic: bool = False) -> TestProblem:
    """Kernel and forcing both identically zero.

    Every scheme reduces to a' = -a and the solution is exp(-t) times the
    initial condition 0.4 (time origin at zero). Useful as the configuration
    in which right-hand sides must equal -a exactly.
    """

    def exact(x, t):
        return np.exp(-t) * (0.4 * np.ones(np.shape(x)))

    return TestProblem(
        id="pure-decay-ring" if periodic else "pure-decay",
        interval=RING if periodic else BOX,
        kernel=lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))),
        firing=FiringRate(gain=GAIN, threshold=THRESHOLD),
        # one row per time for a sequence of times, as the manufactured forcing
        forcing_at=lambda nodes: (lambda t: np.zeros(np.shape(t) + np.shape(nodes))),
        exact=exact,
        time_derivative=lambda x, t: -exact(x, t),
    )


@pytest.fixture(scope="session")
def pure_decay_problem():
    """Factory of the pure-decay problem: call it with periodic=True for the ring."""
    return _pure_decay


def _zero_kernel(periodic: bool = False) -> TestProblem:
    """Manufactured problem with the kernel switched off.

    The closed form still solves it exactly because the forcing drops the
    integral term along with the kernel; the residual has no quadrature
    error at all, only the rounding of the node-bound forcing.
    """
    pid = "zero-kernel-ring" if periodic else "zero-kernel"
    return _manufactured(pid, lambda y: np.asarray(y) * 0.0, periodic, 0.0)


@pytest.fixture(scope="session")
def zero_kernel_problem():
    """Factory of the zero-kernel problem: call it with periodic=True for the ring."""
    return _zero_kernel


def _closed_form_envelope(problem: TestProblem, x, t):
    """The manufactured envelope A e^(-DECAY t - q(x)), with q written out
    here: x^2 on the box and cos(x)^2 on the ring."""
    q = np.cos(x) ** 2 if problem.interval.periodic else np.asarray(x) ** 2
    return AMPLITUDE * np.exp(-DECAY * t - q)


def _closed_form_forcing(problem: TestProblem, x, t):
    """The pointwise forcing that makes the manufactured u exact:
    du/dt + u - (integral of the modulation) * envelope, with
    du/dt = DECAY / (GAIN (1 - envelope)) and u the checked inverse firing
    rate of the envelope."""
    env = _closed_form_envelope(problem, x, t)
    return (
        DECAY / (GAIN * (1.0 - env))
        + problem.firing.inverse(env)
        - modulation_integral(problem.id) * env
    )


@pytest.fixture(scope="session")
def closed_form_envelope():
    """The envelope oracle (problem, x, t) -> A e^(-DECAY t - q(x))."""
    return _closed_form_envelope


@pytest.fixture(scope="session")
def closed_form_forcing():
    """The pointwise forcing oracle (problem, x, t) -> F(x, t) of a benchmark."""
    return _closed_form_forcing


def _peak_bytes(fn) -> tuple[int, int]:
    """Peak traced allocation of one call, after a warm-up call, and the
    bytes still traced when it returns, which its result holds."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        del result  # kept alive until the held bytes were read
        return peak, held
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def peak_bytes():
    """The tracemalloc helper fn -> (peak, held) of one warmed-up call."""
    return _peak_bytes
