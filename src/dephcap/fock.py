"""Bosonic dephasing channel on truncated Fock spaces.

The channel multiplies the Fock-basis matrix element rho[m, n] by
exp(-gamma (m-n)^2 / 2): populations are untouched, coherences decay.
Besides that closed form, this module carries every equivalent
representation used for cross-validation: a truncated Kraus sum, a
fourth-order integration of the dephasing master equation, the explicit
system-environment dilation with coherent environment states, and a
Gauss-Hermite phase-randomization integral.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
JOINT_TOL = 1e-10
DEFAULT_RESIDUAL_BOUND = 1e-12

# Real-axis stability limit of the classical RK4 scheme.
RK4_STABILITY_LIMIT = 2.785


class TruncationError(ValueError):
    """A truncated representation cannot meet the requested accuracy."""


@dataclass(frozen=True)
class DephasingParams:
    """Dephasing rate gamma >= 0 of the channel family N_gamma."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")

    @property
    def epsilon(self) -> float:
        """e^{-gamma/2}, the small parameter of the large-gamma regime."""
        return math.exp(-self.gamma / 2.0)


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on a Fock space truncated to dimension dim = N+1.

    Construction validates Hermiticity (1e-12), unit trace (1e-12) and
    positivity (eigenvalues >= -1e-10); entries are frozen afterwards.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"entries must be a nonempty square matrix, got shape {m.shape}")
        herm = np.abs(m - m.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1 within {TRACE_TOL:.0e}, got {tr:.15g}")
        lo = np.linalg.eigvalsh(m).min()
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_max(self) -> int:
        return self.dim - 1

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()


@dataclass(frozen=True)
class CoherentVector:
    """Truncated Fock expansion of a coherent state |alpha>.

    entries[k] = e^{-|alpha|^2/2} alpha^k / sqrt(k!) for k < dim; the
    missing tail mass 1 - sum |entries[k]|^2 is the truncation residual.
    """

    amplitude: complex
    entries: np.ndarray

    @classmethod
    def build(cls, amplitude: complex, dim: int) -> "CoherentVector":
        if dim < 1:
            raise ValueError("dim must be >= 1")
        a = complex(amplitude)
        k = np.arange(dim)
        if a == 0:
            v = np.zeros(dim, dtype=complex)
            v[0] = 1.0
        else:
            log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
            log_mag = -abs(a) ** 2 / 2.0 + k * math.log(abs(a)) - 0.5 * log_fact
            v = np.exp(log_mag) * np.exp(1j * k * np.angle(a))
        v.setflags(write=False)
        obj = cls.__new__(cls)
        object.__setattr__(obj, "amplitude", a)
        object.__setattr__(obj, "entries", v)
        return obj

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def residual(self) -> float:
        return max(1.0 - float(np.vdot(self.entries, self.entries).real), 0.0)


@dataclass(frozen=True)
class JointState:
    """System-environment state on the tensor product, system-major order."""

    sys_dim: int
    env_dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        d = self.sys_dim * self.env_dim
        if m.shape != (d, d):
            raise ValueError(f"expected shape {(d, d)}, got {m.shape}")
        herm = np.abs(m - m.conj().T).max()
        if herm > JOINT_TOL:
            raise ValueError(f"joint state is not Hermitian: max deviation {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > JOINT_TOL:
            raise ValueError(f"joint trace must be 1 within {JOINT_TOL:.0e}, got {tr:.15g}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def _blocks(self) -> np.ndarray:
        return self.entries.reshape(self.sys_dim, self.env_dim, self.sys_dim, self.env_dim)

    def trace_out_environment(self) -> np.ndarray:
        """Reduced system matrix, sys_dim x sys_dim."""
        return np.einsum("mknk->mn", self._blocks())

    def trace_out_system(self) -> np.ndarray:
        """Reduced environment matrix, env_dim x env_dim."""
        return np.einsum("mkml->kl", self._blocks())


# ---------------------------------------------------------------------------
# state constructors

def fock_state(n: int, dim: int) -> FockDensityMatrix:
    """|n><n| on a dim-dimensional truncated space."""
    if not 0 <= n < dim:
        raise ValueError(f"need 0 <= n < dim, got n={n}, dim={dim}")
    m = np.zeros((dim, dim), dtype=complex)
    m[n, n] = 1.0
    return FockDensityMatrix(m)


def pure_state(vec) -> FockDensityMatrix:
    """|psi><psi| from an (unnormalized) coefficient vector."""
    v = np.asarray(vec, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero vector")
    v = v / nrm
    return FockDensityMatrix(np.outer(v, v.conj()))


def diagonal_state(weights) -> FockDensityMatrix:
    """Mixture of Fock states with the given probability weights."""
    w = np.asarray(getattr(weights, "p", weights), dtype=float)
    return FockDensityMatrix(np.diag(w.astype(complex)))


def random_density_matrix(dim: int, rng: np.random.Generator) -> FockDensityMatrix:
    """Full-rank random state from the complex Ginibre ensemble."""
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = x @ x.conj().T
    return FockDensityMatrix(m / m.trace().real)


# ---------------------------------------------------------------------------
# entropy helpers

def shannon_bits(values) -> float:
    """-sum x log2 x over the positive entries of values, with 0 log 0 = 0."""
    x = np.asarray(values, dtype=float)
    x = x[x > 0.0]
    if x.size == 0:
        return 0.0
    return float(-(x * np.log(x)).sum() / _LN2)


def vn_entropy_bits(matrix: np.ndarray) -> float:
    """Von Neumann entropy -Tr[rho log2 rho] of a Hermitian PSD matrix."""
    return max(shannon_bits(np.linalg.eigvalsh(matrix)), 0.0)


# ---------------------------------------------------------------------------
# channel representations

def _diff_sq(dim: int) -> np.ndarray:
    n = np.arange(dim)
    return np.subtract.outer(n, n) ** 2


def apply_dephasing(rho: FockDensityMatrix, params: DephasingParams) -> FockDensityMatrix:
    """Closed form of the channel: rho[m,n] -> e^{-gamma (m-n)^2 / 2} rho[m,n]."""
    factors = np.exp(-params.gamma * _diff_sq(rho.dim) / 2.0)
    return FockDensityMatrix(factors * rho.entries)


def kraus_operators(params: DephasingParams, dim: int, j_max: int) -> np.ndarray:
    """Diagonals of the Kraus operators K_0 .. K_{j_max}, shape (j_max+1, dim).

    K_j = e^{-gamma (a^dag a)^2 / 2} (-i sqrt(gamma) a^dag a)^j / sqrt(j!),
    diagonal in the Fock basis; magnitudes are assembled in log space so
    large j and gamma n^2 do not overflow.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    n = np.arange(dim, dtype=float)
    j = np.arange(j_max + 1, dtype=float)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, j_max + 1)))))
    sqrt_g_n = np.sqrt(params.gamma) * n
    with np.errstate(divide="ignore", invalid="ignore"):
        log_amp = np.where(sqrt_g_n > 0.0, np.log(sqrt_g_n), -np.inf)
        log_mag = -params.gamma * n[None, :] ** 2 / 2.0 + j[:, None] * log_amp[None, :] \
            - 0.5 * log_fact[:, None]
    # the j = 0 row hits 0 * (-inf) wherever the amplitude vanishes; K_0 is
    # e^{-gamma n^2 / 2} there
    log_mag[0, :] = -params.gamma * n ** 2 / 2.0
    phases = (-1j) ** np.arange(j_max + 1)
    return np.exp(log_mag) * phases[:, None]


def kraus_completeness_residual(params: DephasingParams, dim: int, j_max: int) -> float:
    """max_n |1 - sum_{j<=j_max} e^{-gamma n^2} (gamma n^2)^j / j!|.

    The inner sum is the head of a Poisson(gamma n^2) distribution, so the
    residual is that Poisson's upper-tail mass beyond j_max.
    """
    worst = 0.0
    j = np.arange(j_max + 1, dtype=float)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, j_max + 1)))))
    for n in range(dim):
        lam = params.gamma * float(n) ** 2
        if lam == 0.0:
            head = 1.0
        else:
            head = float(np.exp(j * math.log(lam) - lam - log_fact).sum())
        worst = max(worst, abs(1.0 - head))
    return worst


def adaptive_j_max(params: DephasingParams, dim: int, tol: float = DEFAULT_RESIDUAL_BOUND) -> int:
    """Smallest tried j_max whose completeness residual is below tol."""
    lam = params.gamma * (dim - 1) ** 2
    j = int(math.ceil(lam + 10.0 * math.sqrt(lam + 1.0) + 10.0))
    while kraus_completeness_residual(params, dim, j) > tol:
        j = 2 * j + 10
        if j > 1_000_000:
            raise TruncationError(f"no j_max below 1e6 reaches residual {tol:.1e}")
    return j


def kraus_apply(rho: FockDensityMatrix, params: DephasingParams) -> FockDensityMatrix:
    """Truncated Kraus sum sum_{j<=j_max} K_j rho K_j^dag.

    j_max comes from adaptive_j_max, so the completeness residual is below
    DEFAULT_RESIDUAL_BOUND and the truncated sum is trace preserving to
    that accuracy.
    """
    k = kraus_operators(params, rho.dim, adaptive_j_max(params, rho.dim))
    return FockDensityMatrix(np.einsum("ja,ab,jb->ab", k, rho.entries, k.conj()))


def master_equation_steps(t: float, dim: int, tol: float = 1e-9) -> int:
    """Step count for evolve_master_equation targeting global error ~tol.

    Conservative count from the RK4 local error model (h L)^5/120 per step
    with L = (dim-1)^2/2 the stiffest decay rate of the truncated generator.
    """
    lam = (dim - 1) ** 2 / 2.0
    if t <= 0.0 or lam == 0.0:
        return 1
    h = (120.0 * tol / (t * lam ** 5)) ** 0.25
    h = min(h, RK4_STABILITY_LIMIT / lam)
    return max(int(math.ceil(t / h)), 20)


def evolve_master_equation(rho: FockDensityMatrix, t: float, steps: int) -> FockDensityMatrix:
    """Integrate the dephasing master equation with classical RK4.

    Generator: D[n]rho = n rho n - (n^2 rho + rho n^2)/2 with n = a^dag a,
    normalized so that evolving for time t reproduces the closed form at
    rate gamma = t. Warns with the estimated local error when the step
    size exceeds the RK4 stability limit for the stiffest mode.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dim = rho.dim
    # elementwise action of the generator: -(j-k)^2 / 2 * rho[j, k]
    gen = -0.5 * _diff_sq(dim)
    h = t / steps
    lam_max = (dim - 1) ** 2 / 2.0
    if h * lam_max > RK4_STABILITY_LIMIT:
        est = (h * lam_max) ** 5 / 120.0
        warnings.warn(
            f"step size too coarse for RK4 stability (h*L = {h * lam_max:.3g} > "
            f"{RK4_STABILITY_LIMIT}); estimated local error per step {est:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )

    r = rho.entries.astype(complex)
    for _ in range(steps):
        k1 = gen * r
        k2 = gen * (r + 0.5 * h * k1)
        k3 = gen * (r + 0.5 * h * k2)
        k4 = gen * (r + h * k3)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return FockDensityMatrix(r)


def phase_rotate(rho: FockDensityMatrix, theta: float) -> FockDensityMatrix:
    """Conjugation by U_theta = e^{-i a^dag a theta}: rho[m,n] -> e^{-i theta (m-n)} rho[m,n]."""
    u = np.exp(-1j * theta * np.arange(rho.dim))
    return FockDensityMatrix(u[:, None] * rho.entries * u.conj()[None, :])


# ---------------------------------------------------------------------------
# dilation and complementary channel

def default_env_dim(params: DephasingParams, n_max: int) -> int:
    """Environment truncation so each coherent tail mass stays below ~1e-12.

    The photon number of |sqrt(gamma) m> is Poisson(gamma m^2); its mass
    concentrates around the mean, so mean + 10 sigma + 20 margins suffice.
    """
    lam = params.gamma * n_max ** 2
    return int(math.ceil(lam + 10.0 * math.sqrt(max(lam, 1.0)) + 20.0))


def _weights_array(p) -> np.ndarray:
    return np.asarray(getattr(p, "p", p), dtype=float)


def _coherent_family(
    params: DephasingParams,
    n_max: int,
    env_dim: int,
    residual_bound: float,
    rotated: bool,
) -> np.ndarray:
    """Columns |alpha_m> for m = 0..n_max; alpha_m = sqrt(gamma) m, times -i when rotated."""
    scale = -1j * math.sqrt(params.gamma) if rotated else math.sqrt(params.gamma)
    cols = []
    worst = (0.0, 0)
    for m in range(n_max + 1):
        cv = CoherentVector.build(scale * m, env_dim)
        r = cv.residual()
        if r > worst[0]:
            worst = (r, m)
        cols.append(cv.entries)
    if worst[0] > residual_bound:
        raise TruncationError(
            f"env_dim={env_dim} too small: coherent state m={worst[1]} has "
            f"truncation residual {worst[0]:.3e} > {residual_bound:.3e}"
        )
    return np.stack(cols, axis=1)


def complementary_output(
    p,
    params: DephasingParams,
    env_dim: int | None = None,
    residual_bound: float = DEFAULT_RESIDUAL_BOUND,
) -> FockDensityMatrix:
    """Environment output sum_m p_m |sqrt(gamma) m><sqrt(gamma) m|.

    The global phase rotation of the exact dilation is dropped; it is a
    unitary conjugation and leaves every spectral quantity unchanged.
    """
    w = _weights_array(p)
    n_max = w.size - 1
    if env_dim is None:
        env_dim = default_env_dim(params, n_max)
    c = _coherent_family(params, n_max, env_dim, residual_bound, rotated=False)
    omega = (c * w[None, :]) @ c.conj().T
    omega = 0.5 * (omega + omega.conj().T)
    return FockDensityMatrix(omega)


def build_dilated_state(
    rho: FockDensityMatrix,
    params: DephasingParams,
    env_dim: int | None = None,
    residual_bound: float = DEFAULT_RESIDUAL_BOUND,
) -> JointState:
    """U (rho x |0><0|) U^dag via the coherent closed form.

    Joint matrix sum_{m,n} rho[m,n] |m><n| x |-i sqrt(gamma) m><-i sqrt(gamma) n|.
    """
    if env_dim is None:
        env_dim = default_env_dim(params, rho.n_max)
    c = _coherent_family(params, rho.n_max, env_dim, residual_bound, rotated=True)
    joint = np.einsum("mn,km,ln->mknl", rho.entries, c, c.conj())
    d = rho.dim * env_dim
    return JointState(rho.dim, env_dim, joint.reshape(d, d))


def dilation_oracle(
    rho: FockDensityMatrix,
    params: DephasingParams,
    env_dim: int | None = None,
    residual_bound: float = DEFAULT_RESIDUAL_BOUND,
):
    """Both partial traces of the dilated state: (system output, environment output)."""
    joint = build_dilated_state(rho, params, env_dim, residual_bound)
    sys_out = FockDensityMatrix(joint.trace_out_environment())
    env_out = FockDensityMatrix(joint.trace_out_system())
    return sys_out, env_out


def phase_average_oracle(
    rho: FockDensityMatrix, params: DephasingParams, nodes: int
) -> FockDensityMatrix:
    """Gauss-Hermite evaluation of the phase randomization integral.

    Averages e^{-i n phi} rho e^{i n phi} over a centered Gaussian phase
    whose variance is gamma, which reproduces the closed-form decay
    e^{-gamma (m-n)^2 / 2} as the node count grows. gamma = 0 returns rho
    unchanged (the density degenerates to a point mass at phi = 0).
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    if params.gamma == 0.0:
        return rho
    x, wts = np.polynomial.hermite.hermgauss(nodes)
    phi = x * math.sqrt(2.0 * params.gamma)
    d = np.subtract.outer(np.arange(rho.dim), np.arange(rho.dim))
    # the sine part integrates to zero by symmetry; keep the real kernel
    factors = np.tensordot(wts / math.sqrt(math.pi), np.cos(np.multiply.outer(phi, d)), axes=1)
    return FockDensityMatrix(factors * rho.entries)


def coherent_information(
    rho: FockDensityMatrix,
    params: DephasingParams,
    env_dim: int | None = None,
) -> float:
    """J(rho) = S(channel output) - S(complementary output), in bits.

    Both entropies come from the partial traces of the explicit dilation,
    independent of the replica path.
    """
    sys_out, env_out = dilation_oracle(rho, params, env_dim)
    return vn_entropy_bits(sys_out.entries) - vn_entropy_bits(env_out.entries)
