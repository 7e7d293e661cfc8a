"""Named boundary-density families used by the experiments and tests.

Every builder returns a :class:`~hypercauchy.cauchy.BoundaryDensity` whose
evaluator is exact (closed form), so refinement-based thresholds can
resample the same density on finer meshes.  Seeded families are
deterministic for a fixed (mesh spec, seed) pair.
"""

import numpy as np

from .bvp import ProductKernel
from .clifford_core import batch_product, paravectors_as_coeffs
from .cauchy import BoundaryDensity, kernel_E_rows
from .fueter import (_as_alpha, _polynomial, _symmetric_powers,
                     multi_indices, symmetric_power_rows)
from .surface import _points

SMOOTH_DEGREE = 2
ROUGH_EXPONENT = 1.5


def _rowwise(fn, n):
    # the evaluator of a batch (M, n+1) -> (M, dim) map: one point, one row
    def ev(x):
        pts, single = _points(x, n)
        out = fn(pts)
        return out[0] if single else out

    return ev


def _from_rows(mesh, rows, regularity=("holder", 1.0, None)):
    """The density sampled at the nodes from a batch rows map, which stays
    its exact evaluator."""
    return BoundaryDensity(mesh, rows(mesh.nodes),
                           evaluator=_rowwise(rows, mesh.n),
                           regularity=regularity)


def _require_spec(mesh):
    if mesh.spec is None:
        raise ValueError("corpus densities need a mesh built from a DomainSpec")
    return mesh.spec


def _unit_direction(rng, m):
    v = rng.normal(size=m)
    return v / np.linalg.norm(v)


def interior_pole(spec, seed=0, frac=0.45):
    """A seeded point at distance frac*R from the center (inside for frac<1)."""
    rng = np.random.default_rng(seed)
    return spec.center_array + frac * spec.radius * _unit_direction(rng, spec.n + 1)


def exterior_pole(spec, seed=0, frac=1.9):
    return interior_pole(spec, seed=seed, frac=frac)


def coordinate_trace(mesh, j):
    """Trace of the coordinate x_j (scalar-valued), 0 <= j <= n."""
    dim = mesh.context.dim
    if not 0 <= j <= mesh.n:
        raise ValueError("coordinate index out of range")

    def rows(pts):
        out = np.zeros((pts.shape[0], dim))
        out[:, 0] = pts[:, j]
        return out

    return _from_rows(mesh, rows, ("holder", 1.0, 1.0))


def symmetric_power_traces(mesh, alphas):
    """Traces of the symmetric powers Z^alpha, one per multi-index.

    The samples come from one _symmetric_powers table, which builds each
    lower power once for all of alphas; every Z^beta is the same recurrence
    whatever else the table holds, so each trace is bitwise the one of its
    alpha alone.  Each evaluator is symmetric_power_rows of its alpha.
    """
    ctx = mesh.context
    alphas = [_as_alpha(alpha, ctx.n) for alpha in alphas]
    table = _symmetric_powers(ctx, alphas, mesh.nodes)
    return [BoundaryDensity(mesh, table[a], evaluator=_rowwise(
                lambda pts, a=a: symmetric_power_rows(ctx, a, pts), mesh.n))
            for a in alphas]


def symmetric_power_trace(mesh, alpha):
    """Trace of the symmetric power Z^alpha."""
    return symmetric_power_traces(mesh, [alpha])[0]


def _kernel_coeff_rows(ctx, pts, pole):
    return paravectors_as_coeffs(ctx, kernel_E_rows(pts, pole))


def kernel_trace(mesh, pole, scale=1.0):
    """Trace of scale * E(. - pole) for a pole off the surface."""
    pole = np.asarray(pole, dtype=np.float64)
    ctx = mesh.context

    def rows(pts):
        return scale * _kernel_coeff_rows(ctx, pts, pole)

    return _from_rows(mesh, rows)


def kernel_combo(mesh, vanishing_degree, seed=5):
    """Collinear combination of Cauchy-kernel traces with prescribed decay.

    Finite-difference coefficient patterns (1), (1, -1), (1, -2, 1) along a
    seeded direction annihilate the surface moments of every degree below
    ``vanishing_degree``, so the resulting density is the trace of a field
    of order -n - vanishing_degree at infinity.

    Parameters
    ----------
    vanishing_degree : int
        N in {0, 1, 2}: the first degree whose moment survives.
    seed : int
        Seeds the base pole and the pole line direction; the poles are
        0.15 R apart on that line, R the surface radius.

    Returns
    -------
    BoundaryDensity
    """
    patterns = {0: (1.0,), 1: (1.0, -1.0), 2: (1.0, -2.0, 1.0)}
    if vanishing_degree not in patterns:
        raise ValueError("vanishing_degree must be 0, 1 or 2")
    spec = _require_spec(mesh)
    rng = np.random.default_rng(seed)
    base = spec.center_array + 0.35 * spec.radius * _unit_direction(rng, spec.n + 1)
    line = _unit_direction(rng, spec.n + 1)
    s = 0.15 * spec.radius
    coeffs = patterns[vanishing_degree]
    poles = [base + l * s * line for l in range(len(coeffs))]

    ctx = mesh.context

    def rows(pts):
        out = coeffs[0] * _kernel_coeff_rows(ctx, pts, poles[0])
        for c, a in zip(coeffs[1:], poles[1:]):
            out += c * _kernel_coeff_rows(ctx, pts, a)
        return out

    return _from_rows(mesh, rows)


def _monomials(n_coords, degree):
    return [e for k in range(degree + 1) for e in multi_indices(n_coords, k)]


def _smooth_rows(spec, exps, coeffs, pts):
    """Rows of the polynomials sum_e (x - c)^e / R^|e| coeffs[k, e] at the
    (M, n+1) points, (K, M, 2^n) for the (K, len(exps), 2^n) coeffs.

    The monomial table is formed once and each polynomial sums it in the
    order of exps, so polynomial k is bitwise that of coeffs[k] alone.
    """
    xh = (pts - spec.center_array) / spec.radius
    # xh ** d by pow, as the monomials were always formed: an exponent
    # array keeps numpy from squaring, and x * x need not round as
    # pow(x, 2) does; pow(x, 0) = 1 and pow(x, 1) = x exactly
    powers = [np.ones_like(xh), xh] + [xh ** np.full(xh.shape[1], d)
                                       for d in range(2, SMOOTH_DEGREE + 1)]
    out = np.zeros((len(coeffs), pts.shape[0], coeffs.shape[-1]))
    for e, c in zip(exps, coeffs.swapaxes(0, 1)):
        mono = powers[e[0]][:, 0]
        for col, d in enumerate(e[1:], 1):
            mono = mono * powers[d][:, col]
        out += mono[None, :, None] * c[:, None, :]
    return out


def random_smooths(mesh, seeds):
    """random_smooth(mesh, seed) for each of seeds, from one monomial table.

    Each seed draws its own coefficients; the monomials at the nodes are
    formed once for all of them (_smooth_rows), so density k is bitwise
    random_smooth(mesh, seeds[k]).  Each evaluator is _smooth_rows with
    its own coefficients.
    """
    spec = _require_spec(mesh)
    exps = _monomials(mesh.n + 1, SMOOTH_DEGREE)
    coeffs = np.stack([np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(len(exps), mesh.context.dim)) for seed in seeds])
    coeffs /= len(exps)
    samples = _smooth_rows(spec, exps, coeffs, mesh.nodes)
    return [BoundaryDensity(mesh, rows, evaluator=_rowwise(
                lambda pts, c=coeffs[k:k + 1]:
                _smooth_rows(spec, exps, c, pts)[0], mesh.n))
            for k, rows in enumerate(samples)]


def random_smooth(mesh, seed):
    """Seeded multivector polynomial of degree SMOOTH_DEGREE in (x - c)/R."""
    return random_smooths(mesh, [seed])[0]


def rough_holder(mesh, seed, exponent=ROUGH_EXPONENT):
    """Chordal-distance power |x - p|^exponent at a seeded surface point.

    For 1 < exponent < 2 the density is Lipschitz with a merely Holder
    gradient at p, which keeps refinement errors off the rounding floor in
    fitted-order experiments.
    """
    spec = _require_spec(mesh)
    ctx = mesh.context
    rng = np.random.default_rng(seed)
    p = spec.center_array + spec.radius * _unit_direction(rng, spec.n + 1)
    cdir = np.zeros(ctx.dim)
    cdir[0] = 1.0
    if ctx.dim > 1:
        cdir[1] = rng.uniform(-0.5, 0.5)
    norm = (2.0 * spec.radius) ** exponent

    def rows(pts):
        d = np.linalg.norm(pts - p, axis=1)
        return (d ** exponent / norm)[:, None] * cdir[None, :]

    mu = min(1.0, exponent)
    return _from_rows(mesh, rows, ("holder", mu, None))


def polynomial_trace(mesh, coeffs):
    """Trace of sum_k Z^{alpha_k} c_k with scalar coefficients.

    Multi-indices of degree <= 6 go by total degree, lexicographically
    inside each degree, until the coefficient list is exhausted.
    """
    coeffs = [float(c) for c in coeffs]
    alphas = _monomials(mesh.n, 6)
    if len(coeffs) > len(alphas):
        raise ValueError("coefficient list longer than the multi-index table")
    return _from_rows(mesh, _polynomial(mesh.context, zip(alphas, coeffs)))


def trig_polynomial(mesh, seed, degree=5, coeffs=None):
    """Trigonometric polynomial sum_m c_m e^{i m theta} on a circle, e1 <-> i.

    ``coeffs`` maps m in [-degree, degree] to complex amplitudes; when
    omitted they are drawn uniformly from the seeded generator.
    """
    spec = _require_spec(mesh)
    if mesh.n != 1:
        raise ValueError("trigonometric densities require a circle mesh")
    if coeffs is None:
        rng = np.random.default_rng(seed)
        ms = range(-degree, degree + 1)
        coeffs = {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in ms}
    coeffs = {int(m): complex(c) for m, c in coeffs.items()}
    rows = _trig_rows(spec, coeffs, lambda m: 1.0)
    return _from_rows(mesh, rows), coeffs


def trig_polynomial_pv(mesh, coeffs):
    """Closed-form principal-value rows for :func:`trig_polynomial` data.

    On any circle the principal value of the Cauchy integral acts on
    e^{i m theta} as multiplication by +1/2 for m >= 0 and -1/2 for m < 0
    (residue calculus after mapping to the complex plane).
    """
    return _rowwise(_trig_rows(_require_spec(mesh), coeffs,
                               lambda m: 0.5 if m >= 0 else -0.5), mesh.n)


def _trig_rows(spec, coeffs, weight):
    """Rows of sum_m weight(m) c_m e^{i m theta} on spec's circle, e1 <-> i."""
    c0, R = spec.center_array, spec.radius

    def rows(pts):
        w = ((pts[:, 0] - c0[0]) + 1j * (pts[:, 1] - c0[1])) / R
        vals = np.zeros(pts.shape[0], dtype=np.complex128)
        for m, c in coeffs.items():
            vals += weight(m) * c * w ** m
        out = np.zeros((pts.shape[0], 2))
        out[:, 0] = vals.real
        out[:, 1] = vals.imag
        return out

    return rows


def holomorphic_combo(mesh, seed):
    """Seeded right-module combination of Z^alpha, |alpha| <= 2, and the
    kernel of one exterior pole, 1.6 to 2.4 radii from the centre.

    Every member is the trace of a field that is two-sided regular inside
    the surface, hence Dirichlet-solvable by construction.
    """
    spec = _require_spec(mesh)
    ctx = mesh.context
    rng = np.random.default_rng(seed)
    alphas = _monomials(mesh.n, 2)
    pole = spec.center_array + \
        rng.uniform(1.6, 2.4) * spec.radius * _unit_direction(rng, spec.n + 1)
    coeffs = rng.uniform(-1.0, 1.0, size=(len(alphas) + 1, ctx.dim)) \
        / (len(alphas) + 1)
    poly = _polynomial(ctx, zip(alphas, coeffs))

    def rows(pts):
        # the Z^alpha, then the pole's kernel, each right-multiplied by its
        # coefficient
        out = poly(pts)
        out += batch_product(ctx, _kernel_coeff_rows(ctx, pts, pole),
                             coeffs[-1])
        return out

    return _from_rows(mesh, rows)


# -- corpora ---------------------------------------------------------------------


def plemelj_corpus(mesh, seed=11):
    """Ten seeded Holder densities for two-sided boundary-limit experiments."""
    spec = _require_spec(mesh)
    out = random_smooths(mesh, range(seed, seed + 4))
    out.append(kernel_trace(mesh, interior_pole(spec, seed=seed + 4, frac=0.4)))
    out.append(kernel_trace(mesh, exterior_pole(spec, seed=seed + 5, frac=2.1)))
    out.append(symmetric_power_trace(mesh, next(iter(multi_indices(mesh.n, 1)))))
    out.append(symmetric_power_trace(mesh, next(iter(multi_indices(mesh.n, 2)))))
    out.append(coordinate_trace(mesh, 1))
    out.append(rough_holder(mesh, seed + 6, exponent=2.5))
    return out


def inversion_corpus(mesh, seed=13):
    """Densities for involution experiments; rough members keep the
    refinement error measurable above the rounding floor."""
    spec = _require_spec(mesh)
    out = random_smooths(mesh, range(seed, seed + 4))
    out.append(BoundaryDensity.constant(mesh))
    out.append(coordinate_trace(mesh, 0))
    out.append(symmetric_power_trace(mesh, next(iter(multi_indices(mesh.n, 2)))))
    out.append(kernel_trace(mesh, exterior_pole(spec, seed=seed + 4)))
    out.append(rough_holder(mesh, seed + 5))
    out.append(rough_holder(mesh, seed + 6))
    return out


def sie_corpus(mesh, seed=17):
    """Right-hand sides for the characteristic singular equation."""
    spec = _require_spec(mesh)
    out = random_smooths(mesh, range(seed, seed + 3))
    out.append(BoundaryDensity.constant(mesh, 1.0))
    out.append(kernel_trace(mesh, exterior_pole(spec, seed=seed + 3)))
    out.append(symmetric_power_trace(mesh, next(iter(multi_indices(mesh.n, 1)))))
    out.append(rough_holder(mesh, seed + 4))
    return out


def dirichlet_corpus(mesh, seed=19):
    """Labelled Dirichlet data: ten solvable and five unsolvable members.

    Solvable members are traces of fields regular inside the surface
    (symmetric-power combinations and exterior-pole kernels).  Unsolvable
    members carry an interior pole, or on the circle a conjugate-frequency
    component, so the exterior Cauchy field cannot vanish.

    Returns
    -------
    list of (name, BoundaryDensity, bool)
        The flag is True for solvable data.
    """
    spec = _require_spec(mesh)
    out = [("constant", BoundaryDensity.constant(mesh), True)]
    for k in (1, 2, 3):
        alpha = next(iter(multi_indices(mesh.n, k)))
        out.append(("zpow-%d" % k, symmetric_power_trace(mesh, alpha), True))
    for j in range(2):
        pole = exterior_pole(spec, seed=seed + j, frac=1.7 + 0.4 * j)
        out.append(("ekernel-ext-%d" % j, kernel_trace(mesh, pole), True))
    for j in range(3):
        out.append(("regular-combo-%d" % j,
                    holomorphic_combo(mesh, seed + 10 + j), True))
    out.append(("ekernel-ext-neg",
                kernel_trace(mesh, exterior_pole(spec, seed=seed + 2, frac=2.3),
                             scale=-1.0), True))

    for j in range(3 if mesh.n == 1 else 5):
        pole = interior_pole(spec, seed=seed + 20 + j, frac=0.25 + 0.075 * j)
        out.append(("ekernel-int-%d" % j, kernel_trace(mesh, pole), False))
    if mesh.n == 1:
        out.append(("coord-0", coordinate_trace(mesh, 0), False))
        _, coeffs = trig_polynomial(mesh, seed + 30, degree=2)
        coeffs = {m: c for m, c in coeffs.items() if m < 0}
        dens, _ = trig_polynomial(mesh, 0, coeffs=coeffs)
        out.append(("conjugate-frequencies", dens, False))
    return out


def product_kernel(mesh, seed=23):
    """Smooth two-point kernel k(x, t) = f(x) (1 + 0.2 g(t)), factored.

    f and g are seeded smooth densities.  Returns the bvp.ProductKernel
    with k[j, i] = k(x_j, x_i), the one kernel form that
    apply_full_sie_lhs and poincare_bertrand_discrepancy take: it holds
    the (N, 2^n) factor rows f(x_j) and 1 + 0.2 g(t_i), and each caller
    forms the products it reads or sums the factors apart.
    """
    f, g = random_smooths(mesh, [seed, seed + 1])
    tail = 0.2 * g.samples
    tail[:, 0] += 1.0
    return ProductKernel(mesh, f.samples, tail)


# the names make_density recognizes, with their arguments, as `list` shows them
DENSITY_FAMILIES = ("constant", "coord:<j>", "zpow:<a1,..,an>",
                    "poly:<c0,c1,..>", "etrace:<in|out>", "netrace:in",
                    "ecombo:<0|1|2>", "smooth:<seed>", "rough:<seed>",
                    "trig:<seed>")


def make_density(mesh, name, seed=0):
    """Build a named density (one of DENSITY_FAMILIES) for the experiments.

    Parameters
    ----------
    mesh : SurfaceMesh
    name : str
    seed : int
        Base seed mixed into families that do not embed their own.

    Returns
    -------
    BoundaryDensity
    """
    spec = _require_spec(mesh)
    head, _, arg = name.partition(":")
    if head == "constant":
        return BoundaryDensity.constant(mesh)
    if head == "coord":
        return coordinate_trace(mesh, int(arg or 0))
    if head == "zpow":
        alpha = tuple(int(a) for a in arg.split(",")) if arg else \
            next(iter(multi_indices(mesh.n, 1)))
        return symmetric_power_trace(mesh, alpha)
    if head == "poly":
        return polynomial_trace(mesh, [float(c) for c in arg.split(",")])
    if head in ("etrace", "netrace"):
        if arg not in ("", "in", "out"):
            raise ValueError("%s pole side must be 'in' or 'out', got %r"
                             % (head, arg))
        scale = -1.0 if head == "netrace" else 1.0
        if arg == "out":
            pole = exterior_pole(spec, seed=seed)
        else:
            pole = interior_pole(spec, seed=seed)
        return kernel_trace(mesh, pole, scale=scale)
    if head == "ecombo":
        return kernel_combo(mesh, int(arg or 0), seed=seed + 5)
    if head == "smooth":
        return random_smooth(mesh, int(arg or seed))
    if head == "rough":
        return rough_holder(mesh, int(arg or seed))
    if head == "trig":
        return trig_polynomial(mesh, int(arg or seed))[0]
    raise ValueError("unknown density family %r" % name)
