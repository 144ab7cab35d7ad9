import numpy as np
import pytest

from entbound import qstate
from entbound._linalg import pauli_power_entries
from entbound.qstate import CorrelationTriple, DenseState, M3NState

#: the class of each form a state may hold, by the names the tests give the forms
FORMS = {"pure": qstate._PureForm, "x": qstate._XForm, "mix": qstate._MixForm,
         "dense": qstate._DenseForm}


def refuse_matrix(monkeypatch):
    """Make building any built form's dense matrix fail the test (a dense form holds its own)."""
    def refuse(form):
        raise AssertionError(f"a {form.dim} x {form.dim} matrix was built")

    for form in (FORMS["pure"], FORMS["x"], FORMS["mix"]):
        monkeypatch.setattr(form, "matrix", refuse)


def pauli_power(j: int, n: int) -> np.ndarray:
    """Dense sigma_j^{xn} (j in 1..3) built from its nonzero entries."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    rows = idx if j == 3 else dim - 1 - idx
    out[rows, idx] = pauli_power_entries(j, n)
    return out


def random_density(n, rng, rank=None):
    """Haar-ish random density matrix of full (or given) rank."""
    dim = 2**n
    rank = rank or dim
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return DenseState(n, rho)


def random_m3n_inside_tetra(n, rng):
    """Uniform-ish valid triple for either parity."""
    if n % 2 == 0:
        e = (-1) ** (n // 2)
        verts = np.array([[1, e, 1], [-1, -e, 1], [1, -e, -1], [-1, e, -1]], dtype=float)
        w = rng.dirichlet(np.ones(4))
        return M3NState(n, CorrelationTriple(*(w @ verts)))
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    r = rng.uniform(0, 1) ** (1 / 3)
    return M3NState(n, CorrelationTriple(*(r * v)))


def random_m3n_outside_octahedron(n, rng, min_excess=0.02):
    """Valid triple with positive octahedron excess."""
    for _ in range(10000):
        state = random_m3n_inside_tetra(n, rng)
        if 0.5 * (state.c.abs_sum - 1) >= min_excess:
            return state
    raise RuntimeError("sampling failed")


def random_ghz_spectrum(n, rng, p_max_range=(0.55, 0.95)):
    """GHZ-diagonal spectrum with its largest eigenvalue above 1/2."""
    from entbound.locc import GHZDiagonalState

    size = 2**n
    top = rng.uniform(*p_max_range)
    rest = rng.dirichlet(np.ones(size - 1)) * (1 - top)
    flat = np.concatenate([[top], rest])
    rng.shuffle(flat)
    return GHZDiagonalState(n, flat.reshape(2 ** (n - 1), 2))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
