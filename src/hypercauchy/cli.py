"""Command-line front end: experiment configs, convergence sweeps, reports.

Configs are flat ``key = value`` text files (``#`` comments allowed) that
set only fields the experiment reads; ``--set key=value`` overrides one.  Each
run writes a CSV error table (columns level, h, nodes, error_maxnorm,
error_l2, runtime_ms) and a JSON report (config echo, per-criterion
verdicts) and exits 0 exactly when every criterion passed.  With a fixed
config and seed the outputs are byte-identical; set ``record_runtime =
true`` to trade that for wall-clock timings.
"""

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import _corpus
from .clifford_core import batch_conjugate, batch_product, get_context
from .surface import (DomainSpec, _node_count, _node_separation, build_mesh,
                      parse_mesh_spec, save_mesh)
from .cauchy import (BoundaryDensity, boundary_limit, principal_value_nodes,
                     span_indicator, symmetric_difference_limit,
                     symmetric_difference_steps, _integral_rows)
from .fueter import MAX_DEGREE, multi_indices, order_at_infinity
from .bvp import (CharacteristicCoefficients, constant_gap_residual,
                  invert_cauchy_pv, jump_residual, pair_orthogonality,
                  poincare_bertrand_discrepancy, solve_characteristic_sie,
                  solve_constant_gap, solve_dirichlet, solve_jump_rm,
                  _probe_indices)

# fitted-order criteria are waived once errors sit at the rounding floor
ORDER_FLOOR = 1e-12

# most nodes a config's finest mesh may have: 12.8 times the largest mesh a
# shipped or benchmark config builds (sphere2 L4, 5,120 nodes); one
# node-target kernel pass over 2^16 nodes already takes about a minute on
# a 2-core host
MAX_NODES = 1 << 16

SURFACES = {"circle": ("circle", 1), "sphere2": ("sphere", 2),
            "sphere3": ("sphere", 3)}

# fields every experiment reads; those on a mesh read MESH_FIELDS too
COMMON_FIELDS = ("experiment", "levels", "tolerance", "min_order",
                 "monotone", "seed", "csv", "json", "record_runtime")
MESH_FIELDS = ("surface", "center", "radius")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment configuration (defaults + file + overrides)."""

    experiment: str = ""
    surface: str = "circle"
    center: tuple = ()
    radius: float = 1.0
    levels: tuple = (2, 3, 4)
    density: str = "corpus"
    jump_m: int = -1
    gap_g: tuple = (2.0, 1.0)
    sie_a: float = 3.0
    sie_b: float = 1.0
    expect: str = "solvable"
    tolerance: float = math.nan
    min_order: float = math.nan
    monotone: bool = False
    seed: int = 0
    csv: str = ""
    json: str = ""
    record_runtime: bool = False

    def domain_spec(self):
        kind, n = SURFACES[self.surface]
        return DomainSpec(kind, n=n, center=self.center, radius=self.radius)


def _parse_bool(value, key):
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError("%s: expected a boolean, got %r" % (key, value))


def _finite(key, texts):
    """Parse floats, rejecting NaN and infinities (NaN means "not set")."""
    values = tuple(float(v) for v in texts)
    for v in values:
        if not math.isfinite(v):
            raise ConfigError("%s: expected a finite number, got %r"
                              % (key, v))
    return values


def _parse_field(key, value):
    value = value.strip()
    if key in ("experiment", "surface", "density", "expect", "csv", "json"):
        return value
    try:
        if key == "center":
            return _finite(key, value.split(",")) if value else ()
        if key == "gap_g":
            return _finite(key, value.split(","))
        if key == "levels":
            return tuple(int(v) for v in value.split(","))
        if key in ("radius", "sie_a", "sie_b", "tolerance", "min_order"):
            return _finite(key, [value])[0]
        if key in ("jump_m", "seed"):
            return int(value)
        if key in ("monotone", "record_runtime"):
            return _parse_bool(value, key)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError("%s: cannot parse %r" % (key, value)) from None
    raise ConfigError("unknown config field %r" % key)


def parse_config_file(path):
    """Read a flat key = value config file into a dict of parsed values."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError("%s:%d: expected key = value"
                                  % (path, lineno))
            key, _, value = text.partition("=")
            key = key.strip()
            out[key] = _parse_field(key, value)
    return out


def resolve_config(raw, overrides=()):
    """Apply an experiment's defaults, then file and --set fields it reads."""
    merged = dict(raw)
    for text in overrides:
        if "=" not in text:
            raise ConfigError("--set: expected key=value, got %r" % text)
        key, _, value = text.partition("=")
        merged[key.strip()] = _parse_field(key.strip(), value)
    name = merged.get("experiment", "")
    if name not in EXPERIMENTS:
        raise ConfigError("experiment: unknown name %r (see `list`)" % name)
    exp = EXPERIMENTS[name]
    reads = COMMON_FIELDS + exp.settable()
    for key in merged:
        if key not in reads:
            raise ConfigError("%s: experiment %s does not read this field "
                              "(see `list`)" % (key, name))
    cfg = ExperimentConfig(**dict(exp.defaults, **merged))
    if not cfg.levels:
        raise ConfigError("levels: must list at least one refinement level")
    if any(b <= a for a, b in zip(cfg.levels, cfg.levels[1:])):
        raise ConfigError("levels: must be strictly increasing")
    if cfg.surface not in SURFACES:
        raise ConfigError("surface: expected one of %s"
                          % sorted(SURFACES))
    if exp.refuse and exp.refuse[0](cfg):
        raise ConfigError(exp.refuse[1].format(**vars(cfg)))
    if exp.meshless:
        for level in cfg.levels:
            _checked("levels", get_context, level)
    else:
        if cfg.levels[0] < 0:
            raise ConfigError("levels: mesh levels must be >= 0")
        spec = _checked("surface %s" % cfg.surface, cfg.domain_spec)
        # build the coarsest mesh, so geometry whose nodes coincide or
        # whose weights leave float64 fails here with the fields named,
        # and check the finest level's node spacing without building it
        mesh = _coarsest_mesh(spec, cfg.levels[-1])
        if cfg.density == "corpus":
            _check_corpus_reach(spec, exp.corpus_degree)
        dim = 2 ** SURFACES[cfg.surface][1]
        if "gap_g" in reads and len(cfg.gap_g) > dim:
            raise ConfigError("gap_g: at most %d entries on %s, got %d"
                              % (dim, cfg.surface, len(cfg.gap_g)))
        if "density" in reads and cfg.density != "corpus":
            # build the density once on that mesh, so a bad family or
            # argument fails here with the field named; BoundaryDensity
            # refuses non-finite samples, so their overflow stays silent
            with np.errstate(all="ignore"):
                _checked("density", _corpus.make_density, mesh, cfg.density,
                         cfg.seed)
    # the solvability conditions of R_m need moments of degree -n - m - 1
    low = -SURFACES[cfg.surface][1] - MAX_DEGREE - 1
    if "jump_m" in reads and cfg.jump_m < low:
        raise ConfigError("jump_m: must be >= %d on %s, got %d"
                          % (low, cfg.surface, cfg.jump_m))
    if "expect" in reads and cfg.expect not in ("solvable", "unsolvable"):
        raise ConfigError("expect: expected solvable or unsolvable, got %r"
                          % cfg.expect)
    _checked("seed", np.random.SeedSequence, cfg.seed)
    return cfg


def _coarsest_mesh(spec, finest):
    """build_mesh(spec, 0), refusing with ConfigError geometry on which the
    nodes of level finest would lie closer than float64 resolves, and a
    level finest with more than MAX_NODES nodes.

    Two nodes a distance d apart differ by at least d / sqrt(n+1) in some
    coordinate, so they stay apart in float64 while that exceeds the
    spacing of floats at the largest coordinate, |center| + radius.  That
    float spacing is at least eps radius / 2 wherever the center lies, so
    a refused level whose nodes lie within sqrt(n+1) eps radii is too deep
    for about any geometry and names levels; other refusals name center,
    radius.
    """
    mesh = _checked("center, radius", build_mesh, spec, 0)
    # a level past C long's range is an OverflowError of ldexp
    gap = _checked("levels", _node_separation, spec, finest)
    reach = np.abs(spec.center_array).max() + spec.radius
    resolution = np.sqrt(spec.n + 1) * np.spacing(reach)
    if gap > resolution:
        count = _node_count(spec, finest)
        if count > MAX_NODES:
            raise ConfigError("levels: level %d would have %.4g nodes, over "
                              "MAX_NODES = %d" % (finest, count, MAX_NODES))
        return mesh
    floor = np.sqrt(spec.n + 1) * np.finfo(np.float64).eps
    if gap < floor * spec.radius:
        raise ConfigError("levels: nodes of level %d lie %.3g radii apart, "
                          "within float64's relative resolution %.3g at "
                          "any center and radius"
                          % (finest, gap / spec.radius, floor))
    raise ConfigError("center, radius: nodes of level %d lie %.3g apart, "
                      "within float64's resolution %.3g at coordinates up "
                      "to %.3g" % (finest, gap, resolution, reach))


def _check_corpus_reach(spec, degree):
    """Refuse geometry on which an experiment's corpus leaves float64,
    without sampling it: its polynomial traces of degree up to degree reach
    about (|center| + radius)^degree, and the runs square them (_norms),
    so 2 degree log2(|center| + radius) must stay below float64's 1024."""
    reach = float(np.abs(spec.center_array).max() + spec.radius)
    if 2 * degree * math.log2(reach) >= 1024:
        raise ConfigError("center, radius: the corpus's traces of degree %d "
                          "at coordinates up to %.3g square past float64"
                          % (degree, reach))


def _checked(key, check, *args):
    """Return check(*args), raising its ValueError or OverflowError (a
    Python float power past float64) as a ConfigError on key."""
    try:
        return check(*args)
    except (ValueError, OverflowError) as exc:
        raise ConfigError("%s: %s" % (key, exc)) from None


# -- generic sweep machinery -------------------------------------------------------


@dataclass(frozen=True)
class LevelRow:
    level: int
    h: float
    nodes: int
    error_maxnorm: float
    error_l2: float
    runtime_ms: float
    aux: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level error table with fitted order and per-criterion verdicts."""

    experiment: str
    rows: tuple
    fitted_order: float      # nan when not estimable
    order_width: float       # ~2 standard errors; nan when not estimable
    criteria: tuple          # dicts: name, value, limit, op, passed, waived
    passed: bool
    auxiliary: dict


def _fit_order(rows):
    pts = [(r.h, r.error_maxnorm) for r in rows
           if r.error_maxnorm > 0.0 and r.h > 0.0]
    if len(pts) < 2:
        return math.nan, math.nan
    lh = np.log([p[0] for p in pts])
    le = np.log([p[1] for p in pts])
    A = np.vstack([lh, np.ones_like(lh)]).T
    coef, res, *_ = np.linalg.lstsq(A, le, rcond=None)
    slope = float(coef[0])
    if len(pts) > 2 and res.size:
        dof = len(pts) - 2
        var = float(res[0]) / dof
        cov = var * np.linalg.inv(A.T @ A)[0, 0]
        return slope, 2.0 * math.sqrt(max(cov, 0.0))
    return slope, math.nan


def _criterion(name, value, limit, op, passed, waived=False):
    return {"name": name, "value": value, "limit": limit, "op": op,
            "passed": bool(passed), "waived": bool(waived)}


def _standard_criteria(cfg, rows, fitted):
    crits = []
    final = rows[-1].error_maxnorm
    if not math.isnan(cfg.tolerance):
        crits.append(_criterion("final_error_maxnorm", final, cfg.tolerance,
                                "<=", final <= cfg.tolerance))
    if not math.isnan(cfg.min_order):
        if final <= ORDER_FLOOR:
            crits.append(_criterion("fitted_order", fitted, cfg.min_order,
                                    ">=", True, waived=True))
        else:
            ok = not math.isnan(fitted) and fitted >= cfg.min_order
            crits.append(_criterion("fitted_order", fitted, cfg.min_order,
                                    ">=", ok))
    if cfg.monotone:
        errs = [r.error_maxnorm for r in rows]
        live = [e for e in errs if e > ORDER_FLOOR]
        ratios = [b / a for a, b in zip(live, live[1:])] or [0.0]
        worst = max(ratios)
        crits.append(_criterion("monotone_decrease", worst, 1.0, "<=",
                                worst <= 1.0, waived=len(live) < len(errs)))
    return crits


def _norms(err_rows):
    flat = np.asarray(err_rows, dtype=np.float64).ravel()
    if flat.size == 0:
        return 0.0, 0.0
    return float(np.abs(flat).max()), float(np.sqrt(np.mean(flat ** 2)))


# -- experiment runners -------------------------------------------------------------


def _densities(cfg, mesh, corpus):
    """corpus() when density = corpus, else the one named density."""
    if cfg.density == "corpus":
        return corpus()
    return [_corpus.make_density(mesh, cfg.density, seed=cfg.seed)]


def _run_pv_constant(cfg, mesh):
    ones = BoundaryDensity.constant(mesh, 1.0)
    idx = _probe_indices(mesh, 32)
    pv = principal_value_nodes(mesh, ones, indices=idx)
    err = pv.copy()
    err[:, 0] -= 0.5
    return _norms(err) + ({},)


def _run_reproduction(cfg, mesh):
    spec = mesh.spec
    rng = np.random.default_rng(cfg.seed + 4)
    dirs = rng.standard_normal((2, mesh.n + 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    interior = spec.center_array + 0.55 * spec.radius * dirs
    points = np.concatenate([interior,
                             spec.center_array + 1.8 * spec.radius * dirs[:1]])
    densities = _densities(cfg, mesh, lambda: _corpus.symmetric_power_traces(
        mesh, [a for k in range(4) for a in multi_indices(mesh.n, k)]))
    errs = []
    # one kernel pass for every density, one evaluator call per density
    for dens, rows in zip(densities,
                          _integral_rows(mesh, densities, points, "left")):
        for got, want in zip(rows, np.asarray(dens.evaluator(interior))):
            errs.append(np.abs(got - want).max()
                        / max(1.0, float(np.abs(want).max())))
        errs.extend(np.abs(rows[len(interior):]).max(axis=1))
    return _norms(errs) + ({},)


def _run_plemelj(cfg, mesh):
    densities = _densities(cfg, mesh, lambda: _corpus.plemelj_corpus(
        mesh, seed=cfg.seed + 11))
    rng = np.random.default_rng(cfg.seed + 3)
    idx = rng.integers(0, mesh.node_count, size=3)
    pvs = principal_value_nodes(mesh, densities, indices=idx)
    half = 0.5 * np.stack([dens.samples[idx] for dens in densities])
    # (density, node, sign) errors of the limits against +-f/2 + PV
    errs = np.abs(np.stack(boundary_limit(mesh, densities, idx), axis=2)
                  - np.stack([half + pvs, -half + pvs], axis=2)).max(axis=-1)
    return _norms(errs) + ({},)


def _run_inversion(cfg, mesh):
    densities = _densities(cfg, mesh, lambda: _corpus.inversion_corpus(
        mesh, seed=cfg.seed + 13))
    # S = (2/V_n) PV is an involution: S[S[f]] = f
    twice = invert_cauchy_pv(mesh, invert_cauchy_pv(mesh, densities))
    errs = [np.abs(phi.samples - dens.samples).max()
            for dens, phi in zip(densities, twice)]
    return _norms(errs) + ({},)


def _solve_and_score(cfg, mesh, solve, residual, data, aux):
    """Solve in the class R_{jump_m}; an unsolvable problem scores its
    worst moment residual, a solved one its residual at the 8 sampled
    nodes of the residual's default."""
    sol, rep = solve(mesh, *data, cfg.jump_m)
    aux = aux(rep)
    if sol is None:
        worst = max(rep.residuals.values()) if rep.residuals else math.inf
        return worst, worst, aux
    res = residual(mesh, sol, *data, seed=cfg.seed)
    return _norms([res]) + (aux,)


def _run_jump_rm(cfg, mesh):
    dens, = _densities(cfg, mesh, lambda: [_corpus.kernel_trace(
        mesh, _corpus.interior_pole(mesh.spec, seed=cfg.seed + 2, frac=0.35),
        scale=-1.0)])
    return _solve_and_score(
        cfg, mesh, solve_jump_rm, jump_residual, (dens,),
        lambda rep: {"verdict": rep.verdict,
                     "conditions": rep.condition_count,
                     "freedom": rep.freedom_count})


def _run_constant_gap(cfg, mesh):
    G = np.zeros(mesh.context.dim)
    G[:len(cfg.gap_g)] = cfg.gap_g
    dens, = _densities(cfg, mesh,
                       lambda: [_corpus.random_smooth(mesh, cfg.seed)])
    return _solve_and_score(cfg, mesh, solve_constant_gap,
                            constant_gap_residual, (dens, G),
                            lambda rep: {"verdict": rep.verdict})


def _run_dirichlet(cfg, mesh):
    corpus = _corpus.dirichlet_corpus(mesh, seed=cfg.seed + 19)
    rng = np.random.default_rng(cfg.seed + 7)
    recon = [0.0]
    reports = solve_dirichlet(mesh, [dens for _, dens, _ in corpus])
    agree = sum(int(rep.solvable == truth)
                for (_, _, truth), rep in zip(corpus, reports))
    solved = [dens for (_, dens, truth), rep in zip(corpus, reports)
              if truth and rep.solvable]
    if solved:
        # two nodes per density, in corpus order, all in one ladder call
        idx = rng.integers(0, mesh.node_count, size=(len(solved), 2))
        rec = symmetric_difference_limit(mesh, solved, idx.ravel(),
                                         symmetric_difference_steps(mesh))
        for k, dens in enumerate(solved):
            recon.extend(np.abs(rec[k, 2 * k:2 * k + 2]
                                - dens.samples[idx[k]]).max(axis=1))
    aux = {"verdict_agreement": agree / len(corpus), "corpus_size": len(corpus)}
    return _norms(recon) + (aux,)


def _dirichlet_extra(cfg, rows):
    agree = rows[-1].aux["verdict_agreement"]
    return [_criterion("verdict_agreement", agree, 1.0, ">=", agree >= 1.0)]


def _run_classical(cfg, mesh):
    polys = [_corpus.trig_polynomial(mesh, cfg.seed + 100 + k)
             for k in range(5)]
    pvs = principal_value_nodes(mesh, [dens for dens, _ in polys])
    errs = []
    for pv, (_, coeffs) in zip(pvs, polys):
        want = _corpus.trig_polynomial_pv(mesh, coeffs)(mesh.nodes)
        errs.append(np.abs(pv - want).max())
    return _norms(errs) + ({},)


def _run_order(cfg, mesh):
    devs = []
    aux = {}
    for N in (0, 1, 2):
        dens = _corpus.kernel_combo(mesh, N, seed=cfg.seed + 5)
        rep = order_at_infinity(mesh, dens)
        want = -mesh.n - N
        aux["order_N%d" % N] = rep.order
        aux["slope_raw_N%d" % N] = rep.slope_raw
        if rep.moment_route != want:
            devs.append(math.inf)
        devs.append(abs(rep.slope_raw - want))
    return _norms(devs) + (aux,)


def _run_algebra(cfg, mesh_level):
    # mesh-free: the "level" is the algebra dimension n
    n = mesh_level
    ctx = get_context(n)
    rng = np.random.default_rng(cfg.seed + n)
    # per blade pair (a, b): the anti-automorphism residual, then the
    # associativity residual of (a, b, c) for every dim/4-th blade c
    E = np.eye(ctx.dim)
    C = E[:: max(1, ctx.dim // 4)]
    Ebar = batch_conjugate(ctx, E)
    AB = batch_product(ctx, E[:, None], E)
    conj = batch_conjugate(ctx, AB) - batch_product(ctx, Ebar, Ebar[:, None])
    assoc = (batch_product(ctx, AB[:, :, None], C)
             - batch_product(ctx, E[:, None, None],
                             batch_product(ctx, E[:, None], C)))
    laws = np.concatenate([conj[:, :, None], assoc], axis=2)
    # paravector inversion residual P (bar P / |P|^2) - 1 on a random batch;
    # |P|^2 = x_0^2 + vec . vec, the dot taken per row as Paravector.inverse
    P = rng.standard_normal((10_000, n + 1))
    P = P[np.linalg.norm(P, axis=1) > 1e-6]
    V = P[:, 1:]
    n2 = P[:, 0] * P[:, 0] + (V[:, None] @ V[:, :, None])[:, 0, 0]
    Q = np.concatenate([P[:, :1], -V], axis=1) / n2[:, None]
    unit = batch_product(ctx, P, Q)
    unit[:, 0] -= 1.0
    errs = np.concatenate([[0.0], np.abs(laws).max(axis=-1).ravel(),
                           np.abs(unit).max(axis=1)])
    return _norms(errs) + ({},)


def _run_sie(cfg, mesh):
    a = BoundaryDensity.constant(mesh, cfg.sie_a)
    b = BoundaryDensity.constant(mesh, cfg.sie_b)
    coeffs = CharacteristicCoefficients.from_ab(mesh, a, b)
    densities = _densities(cfg, mesh, lambda: _corpus.sie_corpus(
        mesh, seed=cfg.seed + 17))
    errs = [sol.residual
            for sol in solve_characteristic_sie(mesh, coeffs, densities)]
    return _norms(errs) + ({},)


def _run_pbx(cfg, mesh):
    f, = _densities(cfg, mesh,
                    lambda: [_corpus.random_smooth(mesh, cfg.seed + 31)])
    # the separable identity at 8 sampled nodes (the default); the general
    # kernel, product_kernel's default of seed 23, and the pair integral at 4
    rep = poincare_bertrand_discrepancy(mesh, f=f, seed=cfg.seed)
    rep_k = poincare_bertrand_discrepancy(
        mesh, k=_corpus.product_kernel(mesh), sample_nodes=4, seed=cfg.seed)
    aux = {"general_kernel_discrepancy": rep_k.discrepancy_max,
           "pair_orthogonality": pair_orthogonality(mesh, 4, cfg.seed)}
    return rep.discrepancy_max, rep.discrepancy_max, aux


def _run_span(cfg, mesh):
    spec = mesh.spec
    rng = np.random.default_rng(cfg.seed + 9)
    d = _corpus._unit_direction(rng, mesh.n + 1)
    cases = [(spec.center_array, 1.0),
             (spec.center_array + 0.4 * spec.radius * d, 1.0),
             (mesh.nodes[int(rng.integers(0, mesh.node_count))], 0.5),
             (spec.center_array + 2.0 * spec.radius * d, 0.0)]
    errs = []
    for w, want in cases:
        coeffs = span_indicator(mesh, w).raw.coeffs
        errs.append(abs(coeffs[0] - want) + float(np.abs(coeffs[1:]).max()))
    return _norms(errs) + ({},)


def _verdict_matches(verdict, expect):
    # 'solvable' expectations accept unconditional problems as well
    if expect == "unsolvable":
        return verdict == "unsolvable"
    return verdict != "unsolvable"


@dataclass(frozen=True)
class ExperimentDef:
    runner: object
    description: str
    defaults: dict
    # fields read beyond COMMON_FIELDS and, on a mesh, MESH_FIELDS
    reads: tuple = ()
    extra: object = None
    meshless: bool = False
    # the largest polynomial degree in the coordinates of the corpus and of
    # what the run computes from it (_check_corpus_reach)
    corpus_degree: int = 0
    # (test, message): a config on which test holds is refused with message
    refuse: tuple = ()

    def settable(self):
        return self.reads if self.meshless else MESH_FIELDS + self.reads


EXPERIMENTS = {
    "pv-constant": ExperimentDef(
        _run_pv_constant,
        "principal value of the constant density against 1/2",
        {"surface": "circle", "levels": (2, 3, 4), "tolerance": 1e-3,
         "min_order": 1.0}),
    "reproduction": ExperimentDef(
        _run_reproduction,
        "Cauchy reproduction of symmetric-power traces at interior points",
        {"surface": "sphere2", "levels": (2, 3, 4), "tolerance": 1e-3,
         "monotone": True},
        ("density",), corpus_degree=3),
    "plemelj": ExperimentDef(
        _run_plemelj,
        "two-sided boundary limits against the jump relations",
        {"surface": "sphere2", "levels": (3, 4), "tolerance": 1e-2},
        ("density",), corpus_degree=2),
    "inversion": ExperimentDef(
        _run_inversion,
        "involution of the singular Cauchy operator on a density corpus",
        {"surface": "circle", "levels": (3, 4, 5, 6), "tolerance": 1e-3,
         "min_order": 1.0},
        ("density",), corpus_degree=2),
    "jump-rm": ExperimentDef(
        _run_jump_rm,
        "jump problem with prescribed order bound at infinity",
        {"surface": "circle", "levels": (4, 5), "tolerance": 1e-3,
         "density": "netrace:in", "jump_m": -1},
        ("density", "jump_m", "expect"),
        extra=lambda cfg, rows: [_criterion(
            "verdict",
            1.0 if _verdict_matches(rows[-1].aux["verdict"], cfg.expect)
            else 0.0, 1.0, ">=",
            _verdict_matches(rows[-1].aux["verdict"], cfg.expect))]),
    "constant-gap": ExperimentDef(
        _run_constant_gap,
        "linear conjugation with a constant multivector gap",
        {"surface": "circle", "levels": (4, 5), "tolerance": 1e-3,
         "density": "smooth:31", "jump_m": 0},
        ("density", "gap_g", "jump_m"),
        # the residual evaluates polynomial slots of degree jump_m
        refuse=(lambda cfg: cfg.jump_m > MAX_DEGREE, "jump_m: must be <= %d "
                "on constant-gap, got {jump_m}" % MAX_DEGREE)),
    "dirichlet": ExperimentDef(
        _run_dirichlet,
        "Dirichlet solvability verdicts and boundary reconstruction",
        {"surface": "circle", "levels": (3, 4), "tolerance": 1e-2},
        extra=_dirichlet_extra,
        corpus_degree=3),
    "classical-degeneration": ExperimentDef(
        _run_classical,
        "circle case against residue-calculus closed forms",
        {"surface": "circle", "levels": (4, 5, 6), "tolerance": 1e-8},
        refuse=(lambda cfg: cfg.surface != "circle",
                "surface: classical-degeneration requires circle")),
    "order-at-infinity": ExperimentDef(
        _run_order,
        "order at infinity of kernel combinations, moment and slope routes",
        {"surface": "circle", "levels": (4, 5), "tolerance": 0.2},
        corpus_degree=MAX_DEGREE),
    "algebra-laws": ExperimentDef(
        _run_algebra,
        "associativity, anti-automorphism and paravector inversion",
        {"levels": (1, 2, 3), "tolerance": 1e-12},
        meshless=True),
    "characteristic-sie": ExperimentDef(
        _run_sie,
        "characteristic singular equation with constant coefficients",
        {"surface": "circle", "levels": (3, 4, 5, 6), "tolerance": 1e-4,
         "monotone": True},
        ("density", "sie_a", "sie_b"), corpus_degree=1,
        # a + b or a - b is zero, so it has no inverse
        refuse=(lambda cfg: abs(cfg.sie_a) == abs(cfg.sie_b),
                "sie_a, sie_b: a + b and a - b must be nonzero, got "
                "sie_a = {sie_a!r}, sie_b = {sie_b!r}")),
    "poincare-bertrand": ExperimentDef(
        _run_pbx,
        "iterated principal values: special case and general-kernel report",
        {"surface": "circle", "levels": (3, 4, 5), "min_order": 1.0},
        ("density",)),
    "span": ExperimentDef(
        _run_span,
        "raw span values at interior, boundary and exterior points",
        {"surface": "sphere2", "levels": (2, 3), "tolerance": 0.05}),
}


def run_experiment(cfg) -> ConvergenceReport:
    """Execute the configured experiment across its refinement levels."""
    exp = EXPERIMENTS[cfg.experiment]
    rows = []
    for level in cfg.levels:
        t0 = time.perf_counter()
        if exp.meshless:
            mx, l2, aux = exp.runner(cfg, level)
            h, nodes = 0.0, 0
        else:
            mesh = build_mesh(cfg.domain_spec(), level)
            mx, l2, aux = exp.runner(cfg, mesh)
            h, nodes = mesh.h, mesh.node_count
        ms = (time.perf_counter() - t0) * 1e3 if cfg.record_runtime else 0.0
        rows.append(LevelRow(level, h, nodes, mx, l2, ms, aux))
    fitted, width = _fit_order(rows)
    crits = _standard_criteria(cfg, rows, fitted)
    if exp.extra is not None:
        crits.extend(exp.extra(cfg, rows))
    auxiliary = {"level_%d" % r.level: r.aux for r in rows if r.aux}
    passed = all(c["passed"] for c in crits)
    return ConvergenceReport(cfg.experiment, tuple(rows), fitted, width,
                             tuple(crits), passed, auxiliary)


# -- report emission ----------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _config_doc(cfg):
    """The config echo of the JSON report: unset floats become null."""
    return {f.name: _jsonable(getattr(cfg, f.name)) for f in fields(cfg)}


def _dump_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_reports(cfg, report):
    """Write the CSV error table and the JSON report; returns their paths."""
    paths = []
    if cfg.csv:
        with open(cfg.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["level", "h", "nodes", "error_maxnorm",
                             "error_l2", "runtime_ms"])
            for r in report.rows:
                writer.writerow([r.level, "%.17g" % r.h, r.nodes,
                                 "%.17g" % r.error_maxnorm,
                                 "%.17g" % r.error_l2,
                                 "%.17g" % r.runtime_ms])
        paths.append(cfg.csv)
    if cfg.json:
        doc = {
            "config": _config_doc(cfg),
            "experiment": report.experiment,
            "table": [{"level": r.level, "h": _jsonable(r.h),
                       "nodes": r.nodes,
                       "error_maxnorm": _jsonable(r.error_maxnorm),
                       "error_l2": _jsonable(r.error_l2),
                       "runtime_ms": _jsonable(r.runtime_ms)}
                      for r in report.rows],
            "fitted_order": _jsonable(report.fitted_order),
            "order_width": _jsonable(report.order_width),
            "criteria": [{k: _jsonable(v) for k, v in c.items()}
                         for c in report.criteria],
            "auxiliary": _jsonable(report.auxiliary),
            "passed": report.passed,
        }
        _dump_json(doc, cfg.json)
        paths.append(cfg.json)
    return paths


def _print_report(report):
    print("experiment: %s" % report.experiment)
    print("level     h        nodes   error_maxnorm  error_l2")
    for r in report.rows:
        print("%5d  %8.3g  %6d  %13.6g  %8.6g"
              % (r.level, r.h, r.nodes, r.error_maxnorm, r.error_l2))
    if not math.isnan(report.fitted_order):
        width = "" if math.isnan(report.order_width) else \
            " +- %.2g" % report.order_width
        print("fitted order: %.3g%s" % (report.fitted_order, width))
    for c in report.criteria:
        mark = "pass" if c["passed"] else "FAIL"
        note = " (waived)" if c.get("waived") else ""
        print("  [%s] %s: %.6g %s %.6g%s"
              % (mark, c["name"], c["value"], c["op"], c["limit"], note))
    print("overall: %s" % ("pass" if report.passed else "FAIL"))


def list_builtins():
    """Registry of builtin experiments, their fields and densities, as text."""
    lines = ["experiments, and the fields each reads besides %s:"
             % ", ".join(COMMON_FIELDS)]
    for name, exp in sorted(EXPERIMENTS.items()):
        lines.append("  %-24s %s" % (name, exp.description))
        lines.append("%27s%s" % ("", ", ".join(exp.settable()) or "none"))
    lines.append("density families:")
    for entry in _corpus.DENSITY_FAMILIES + ("corpus",):
        lines.append("  %s" % entry)
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hypercauchy",
        description="Convergence experiments for Cauchy-type integrals on "
                    "closed hypersurfaces.")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override a config field (repeatable)")

    sub.add_parser("list", help="list builtin experiments and densities")

    p_mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_command")
    p_export = mesh_sub.add_parser("export", help="build and save a mesh")
    p_export.add_argument("spec", help="e.g. 'sphere,n=2,radius=2,level=3'")
    p_export.add_argument("path", help="output file")

    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_builtins())
        return 0
    if args.command == "mesh":
        if args.mesh_command != "export":
            parser.error("mesh: expected the 'export' subcommand")
        try:
            spec, level = parse_mesh_spec(args.spec)
            mesh = build_mesh(spec, level)
            save_mesh(mesh, args.path)
        except (ValueError, OSError) as exc:
            print("mesh export: %s" % exc, file=sys.stderr)
            return 2
        print("wrote %d nodes (n=%d, h=%.3g) to %s"
              % (mesh.node_count, mesh.n, mesh.h, args.path))
        return 0
    if args.command != "run":
        parser.print_help()
        return 2

    try:
        raw = parse_config_file(args.config)
        cfg = resolve_config(raw, args.set)
    except (ConfigError, OSError) as exc:
        print("config: %s" % exc, file=sys.stderr)
        return 2

    try:
        report = run_experiment(cfg)
    except Exception as exc:  # numerical failure: report what we can
        doc = {"config": _config_doc(cfg),
               "experiment": cfg.experiment,
               "error": "%s: %s" % (type(exc).__name__, exc),
               "passed": False}
        if cfg.json:
            _dump_json(doc, cfg.json)
        print("run failed: %s" % doc["error"], file=sys.stderr)
        return 1

    write_reports(cfg, report)
    _print_report(report)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
