import numpy as np
import pytest

from neuralfield.model import FiringRate
from neuralfield.problems import BOX, GAIN, RING, THRESHOLD, TestProblem, make_problem


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

    def initial(x):
        return 0.4 * np.ones(np.shape(x))

    return TestProblem(
        id="pure-decay-ring" if periodic else "pure-decay",
        interval=RING if periodic else BOX,
        kernel=lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))),
        firing=FiringRate(gain=GAIN, threshold=THRESHOLD),
        forcing=lambda x, t: np.zeros(np.shape(x)),
        forcing_at=lambda nodes: (lambda t: np.zeros(np.shape(nodes))),
        initial=initial,
        exact=lambda x, t: np.exp(-t) * initial(x),
    )


@pytest.fixture(scope="session")
def pure_decay_problem():
    """Factory of the pure-decay problem: call it with periodic=True for the ring."""
    return _pure_decay
