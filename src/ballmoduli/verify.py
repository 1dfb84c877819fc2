"""Property-verification suites and the oracle comparison battery.

Each registered suite turns a family of geometric inequalities into
``Check`` records over brackets.  A check passes when the brackets are
compatible with the asserted inequality, fails when the inequality is
violated by more than the combined bracket widths, and is inconclusive in
the narrow band between; inconclusive results are reported but do not
fail a run.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import oracle
from .beta import beta_global, beta_point, beta_sup
from .bracket import Bracket
from .config import Budget, resolve
from .denting import (d_global, d_point, d_star, d_star_global, d_star_zero,
                      modulus_convexity, s_point, s_star, _resolution)
from .errors import DomainError
from .lpsum import (ComponentModuli, alpha_star, delta_q_lower,
                    sum_beta_lower_bound, sum_slice_threshold_case1,
                    witness_functional)
from .presets import preset
from .slices import Slice, slice_diameter
from .spaces import (SpaceDescriptor, duality_preimage, lp_space, polar_space,
                     support_functional, _dual_norm_array, _norm_array)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Check:
    """One verified inequality instance: asserts lhs >= rhs on brackets."""

    name: str
    space: str
    params: dict
    status: str
    lhs: Bracket
    rhs: Bracket
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"name": self.name, "space": self.space, "params": self.params,
               "status": self.status, "lhs": self.lhs.to_json(),
               "rhs": self.rhs.to_json()}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple[Check, ...]
    seed: int
    config: dict
    flags: dict = field(default_factory=dict)

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.status == PASS)

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if c.status == FAIL)

    @property
    def n_inconclusive(self) -> int:
        return sum(1 for c in self.checks if c.status == INCONCLUSIVE)

    @property
    def n_vacuous(self) -> int:
        """The checks built by ``_vacuous``: passes whose premise did not hold."""
        return sum(1 for c in self.checks if c.params.get("vacuous"))

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def to_json(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "config": self.config,
                "flags": self.flags,
                "summary": {"pass": self.n_pass, "fail": self.n_fail,
                            "inconclusive": self.n_inconclusive,
                            "vacuous": self.n_vacuous},
                "checks": [c.to_json() for c in self.checks]}


SUITES: dict[str, Callable[..., VerificationReport]] = {}


def _suite(name: str, default_spaces: Sequence[str]):
    """Register a suite body in ``SUITES`` under ``name``.

    The body takes ``(names, seed, budget, **kwargs)``, with the budget
    resolved and the preset list defaulted to ``default_spaces``, and returns
    ``(checks, config)`` or ``(checks, config, flags)``.  The registered
    suite sorts the checks and builds the report; the config gets the
    budget's resolution as its last key unless the body set its own.
    """
    def register(body):
        def suite(spaces: Optional[Sequence[str]] = None, seed: int = 0,
                  budget: Optional[Budget] = None, **kwargs) -> VerificationReport:
            budget = resolve(budget)
            names = list(spaces) if spaces else list(default_spaces)
            checks, config, *flags = body(names, seed, budget, **kwargs)
            config.setdefault("resolution", budget.resolution)
            return VerificationReport(suite=name, checks=_sorted(checks), seed=seed,
                                      config=config, flags=flags[0] if flags else {})
        suite.__doc__ = body.__doc__
        SUITES[name] = suite
        return suite
    return register


def _sorted(checks: list[Check]) -> tuple[Check, ...]:
    """Canonical report order, independent of execution order."""
    return tuple(sorted(
        checks, key=lambda c: (c.name, c.space,
                               json.dumps(c.params, sort_keys=True, default=str))))


def compare(name: str, space: str, params: dict, lhs: Bracket, rhs: Bracket,
            counterexample: Optional[dict] = None) -> Check:
    """Three-way bracket comparison of the assertion lhs >= rhs.

    Tolerance is the combined bracket width, so a failure means the
    inequality is violated beyond what the certificates can explain.
    """
    tol = lhs.width + rhs.width
    if lhs.lower >= rhs.upper - tol - 1e-12:
        status = PASS
    elif lhs.upper < rhs.lower - tol - 1e-12:
        status = FAIL
    else:
        status = INCONCLUSIVE
    return Check(name=name, space=space, params=params, status=status,
                 lhs=lhs, rhs=rhs,
                 counterexample=counterexample if status == FAIL else None)


def _holds(name: str, space: str, params: dict, ok: bool, lhs: Bracket,
           rhs: Bracket) -> Check:
    """A check decided by ``ok`` outright, not by comparing the brackets."""
    return Check(name=name, space=space, params=params,
                 status=PASS if ok else FAIL, lhs=lhs, rhs=rhs)


def _vacuous(name: str, space: str, params: dict, rhs: Bracket) -> Check:
    return _holds(name, space, dict(params, vacuous=True), True,
                  Bracket.exact(0.0), rhs)


def _scaled(b: Bracket, k: float) -> Bracket:
    """k times a bracket, for k > 0."""
    return Bracket(lower=k * b.lower, upper=k * b.upper, method=b.method,
                   resolution=b.resolution, lipschitz=k)


def _unit(space: SpaceDescriptor, rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=space.dim)
        n = float(_norm_array(space, v))
        if n > 1e-9:
            return v / n


def _slice_budget(budget: Budget, dim: int) -> Budget:
    return budget.with_resolution(_resolution(budget, 5e-3, 0.1, dim))


# -- lemma battery ----------------------------------------------------------

LEMMA_PRESETS = ("l2-2", "l2-3", "lp:1.5-2d", "l1-2d", "linf-2d", "square-rot")

LEMMA_NAMES = (
    "slice-diameter-shrinks-under-positive-s",
    "dual-slice-diameter-shrinks-under-positive-s-star",
    "small-slice-forces-s-lower-bound",
    "small-slice-forces-high-threshold",
    "slice-diameter-threshold-scaling",
    "slice-diameter-2k-threshold",
)


@_suite("lemmas", LEMMA_PRESETS)
def suite_lemmas(names, seed, budget, instances_per_lemma: int = 210):
    """Randomized slice-geometry inequality battery across the presets."""
    checks: list[Check] = []
    spaces = {name: preset(name) for name in names}  # facets enumerated once
    for li, lemma in enumerate(LEMMA_NAMES):
        rng = np.random.default_rng(seed * 1000 + li)
        for i in range(instances_per_lemma):
            name = names[i % len(names)]
            space = spaces[name]
            bud = _slice_budget(budget, space.dim)
            checks.append(_lemma_instance(lemma, name, space, rng, bud, i))
    return checks, {"spaces": names, "instances_per_lemma": instances_per_lemma}


def _lemma_instance(lemma: str, name: str, space: SpaceDescriptor,
                    rng: np.random.Generator, bud: Budget, i: int) -> Check:
    dual = lemma == "dual-slice-diameter-shrinks-under-positive-s-star"
    if dual or lemma == "slice-diameter-shrinks-under-positive-s":
        # s with the slice of f, or s* with the w*-slice of x
        if dual:
            f = _unit(polar_space(space), rng)
            x = duality_preimage(space, f).array
        else:
            x = _unit(space, rng)
            f = support_functional(space, x).array
        t = float(rng.uniform(0.3, 1.2))
        params = {"i": i, "t": t}
        s = s_star(space, f, x, t, bud) if dual else s_point(space, x, f, t, bud)
        thr = float(f @ x) * (1.0 - s.upper)
        if s.lower <= 1e-12 or thr <= 0.0:
            return _vacuous(lemma, name, params, s)
        sl = Slice.of(x, thr, "dual") if dual else Slice.of(f, thr)
        return compare(lemma, name, params, Bracket.exact(2.0 * t),
                       slice_diameter(space, sl, bud),
                       {"x": x.tolist(), "f": f.tolist(), "s": s.to_json()})
    if lemma == "small-slice-forces-s-lower-bound":
        x = _unit(space, rng)
        f = support_functional(space, x).array
        alpha = float(rng.uniform(0.998, 0.9998))
        t = float(rng.uniform(0.7, 1.8))
        params = {"i": i, "t": t, "alpha": alpha}
        diam = slice_diameter(space, Slice.of(f, alpha), bud)
        if diam.upper >= t / 5.0:
            return _vacuous(lemma, name, params, diam)
        bound = min((float(f @ x) - alpha) / alpha, t / 20.0)
        s = s_point(space, x, f, t, bud)
        return compare(lemma, name, params, s, Bracket.exact(bound),
                       {"x": x.tolist(), "f": f.tolist(),
                        "diam": diam.to_json()})
    if lemma == "small-slice-forces-high-threshold":
        x = _unit(space, rng)
        alpha = float(rng.uniform(0.3, 0.95))
        params = {"i": i, "alpha": alpha}
        diam = slice_diameter(space, Slice.of(x, alpha, "dual"), bud)
        rhs = Bracket(lower=1.0 - diam.upper, upper=1.0 - diam.lower,
                      method=diam.method, resolution=diam.resolution,
                      lipschitz=diam.lipschitz)
        return compare(lemma, name, params, Bracket.exact(alpha), rhs,
                       {"x": x.tolist(), "diam": diam.to_json()})
    if lemma == "slice-diameter-threshold-scaling":
        x = _unit(space, rng)
        alpha = float(rng.uniform(0.5, 0.9))
        beta = float(rng.uniform(0.1, alpha - 0.05))
        params = {"i": i, "alpha": alpha, "beta": beta}
        d_a = slice_diameter(space, Slice.of(x, alpha, "dual"), bud)
        d_b = slice_diameter(space, Slice.of(x, beta, "dual"), bud)
        factor = (1.0 - beta) / (1.0 - alpha)
        return compare(lemma, name, params, _scaled(d_a, factor), d_b,
                       {"x": x.tolist()})
    if lemma == "slice-diameter-2k-threshold":
        x = _unit(space, rng)
        k = int(rng.integers(1, 4))
        gamma = 1.0 - float(rng.uniform(0.01, 0.45)) / (2.0 * k)
        eta = 1.0 - 2.0 * k * (1.0 - gamma)
        params = {"i": i, "k": k, "gamma": gamma, "eta": eta}
        d_g = slice_diameter(space, Slice.of(x, gamma, "dual"), bud)
        d_e = slice_diameter(space, Slice.of(x, eta, "dual"), bud)
        return compare(lemma, name, params, _scaled(d_g, 2.0 * k), d_e,
                       {"x": x.tolist()})
    raise DomainError(f"unknown lemma {lemma!r}")


# -- quantitative chain -----------------------------------------------------

CHAIN_PRESETS = ("lp:1.5-2d", "lp:2-2d", "lp:3-2d")
CHAIN_T = (0.4, 0.8, 1.2)


@_suite("chain", CHAIN_PRESETS)
def suite_chain(names, seed, budget):
    """Convexity/denting comparison inequalities between the dual moduli."""
    checks: list[Check] = []
    for name in names:
        space = preset(name)
        dual = polar_space(space)
        for t in CHAIN_T:
            delta_t = modulus_convexity(dual, t, budget)
            dstar_q = d_star_global(space, t / 4.0, budget)
            checks.append(compare(
                "dual-convexity-dominates-quarter-scale-dstar", name,
                {"t": t}, delta_t, dstar_q))
            dstar_t = d_star_global(space, t, budget)
            delta_s = modulus_convexity(dual, t / 20.0, budget)
            checks.append(compare(
                "dstar-dominates-twentieth-scale-dual-convexity", name,
                {"t": t}, dstar_t, delta_s))
            if t < 1.0:
                b = beta_global(space, [t], budget).values[0]
                checks.append(compare(
                    "beta-dominates-twice-dual-convexity", name,
                    {"t": t}, b, _scaled(delta_t, 2.0)))
    return checks, {"spaces": names, "t_grid": list(CHAIN_T)}


# -- MIP/UMIP detection -----------------------------------------------------


@_suite("mip-detect", ("l1-2d", "l2-2"))
def suite_mip_detect(names, seed, budget):
    """Classify spaces as intersection-property positive, violated or
    undetermined."""
    checks: list[Check] = []
    flags: dict = {}
    t_grid = (0.25, 0.5, 0.75)
    for name in names:
        space = preset(name)
        if space.kind == "polyhedral" and space.dim == 2:
            # a polytope never has MIP (its dual ball's w*-denting points are
            # its vertices); the witness is the first dual edge midpoint with
            # beta = d*0 = 0 exactly (at a dual vertex beta > 0), at the
            # largest t of 1/2, 1/4, 1/8 that has one, else open
            dual = oracle.to_polygon(space).polar()
            mids = [((v[0] + w[0]) / 2, (v[1] + w[1]) / 2) for v, w in dual.edges()]
            for t, m in itertools.product((0.5, 0.25, 0.125), mids):
                f = tuple(float(c / dual.gauge(m)) for c in m)
                val = float(oracle.exact_beta_sup(space, f, t))
                zero = oracle.exact_d_star_zero_is_zero(space, f, t)
                if val == 0.0 and zero:
                    break
            checks.append(compare(
                "beta-sup-vanishes-at-flat-face-functional", name,
                {"f": list(f), "t": t}, Bracket.exact(0.0), Bracket.exact(val)))
            checks.append(_holds(
                "no-wstar-denting-near-flat-face-functional", name,
                {"f": list(f), "t": t}, zero, Bracket.exact(0.0),
                Bracket.exact(0.0 if zero else 1.0)))
            flags[name] = ("MIP: violated" if (val == 0.0 and zero)
                           else "MIP: undetermined")
        else:
            curve = beta_global(space, t_grid, budget)
            positive = True
            for t, b in zip(curve.t_grid, curve.values):
                ok = b.lower > 0.0
                positive = positive and ok
                checks.append(_holds("beta-curve-lower-bracket-positive", name,
                                     {"t": t}, ok, b, Bracket.exact(0.0)))
            flags[name] = "MIP: positive" if positive else "MIP: undetermined"
    return checks, {"spaces": names, "t_grid": list(t_grid)}, flags


# -- lp-sum stability battery -----------------------------------------------


def _block_rotate(fa: np.ndarray, slices, angles) -> np.ndarray:
    g = fa.copy()
    for s, th in zip(slices, angles):
        c, sn = math.cos(th), math.sin(th)
        b = fa[s]
        g[s] = np.array([c * b[0] - sn * b[1], sn * b[0] + c * b[1]])
    return g


@_suite("lpsum", ("l2sum-4",))
def suite_lpsum(names, seed, budget, n_pairs: int = 1000):
    """Sum-stability contracts for the 2-sum of two Euclidean planes."""
    name = names[0]
    sum_space = preset(name)
    if sum_space.kind != "lp-sum":
        raise DomainError("the lpsum suite needs an lp-sum space")
    p, q = sum_space.p, sum_space.q
    ts, comp_grid = (0.4, 0.8), (0.05, 0.1, 0.2)
    # first, as beta_global refuses a non-Euclidean sum above dimension 3 at once
    sum_curve = beta_global(sum_space, ts, budget)
    curves = tuple(beta_global(c, comp_grid, budget)
                   for c in sum_space.components)
    cm = ComponentModuli(curves=curves)
    dual_sum = polar_space(sum_space)
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    rows = []
    scales_case1 = (0.001, 0.01, 0.05, 0.2, 0.5, 1.0)
    scales_gen = (1e-6, 1e-5, 5e-5, 1e-4, 5e-4)

    def rotate(j, fa, z):
        angles = rng.normal(scale=scales_case1[j % len(scales_case1)],
                            size=len(sum_space.components))
        return _block_rotate(fa, sum_space.block_slices, angles)

    def perturb(j, fa, z):
        g = z + rng.normal(scale=scales_gen[j % len(scales_gen)], size=sum_space.dim)
        ng = float(_norm_array(dual_sum, g))
        return g / ng if ng > 1.0 else g

    def _contract(cname, t, threshold, draw_g, draws):
        """g(z) > threshold must force ||f - g|| < t over ``draws`` pairs."""
        triggered, worst, ce = 0, 0.0, None
        for j in range(draws):
            fa = _unit(dual_sum, rng)
            z = witness_functional(sum_space, fa).array
            g = draw_g(j, fa, z)
            if float(g @ z) > threshold:
                triggered += 1
                dist = float(_norm_array(dual_sum, fa - g))
                if dist > worst:
                    worst, ce = dist, {"f": fa.tolist(), "g": g.tolist(), "dist": dist}
        return compare(cname, name, {"t": t, "n_pairs": n_pairs, "triggered": triggered},
                       Bracket.exact(t + 1e-9), Bracket.exact(worst), ce)

    for t, b_sum in zip(ts, sum_curve.values):
        tau = sum_slice_threshold_case1(q, t, cm)
        a_star = alpha_star(q, t, cm)
        bound = sum_beta_lower_bound(p, q, t, cm)
        # blockwise-equal-norm contract at tau, then the general contract at
        # the derived threshold, which draws nothing when the bound is vacuous
        checks.append(_contract("equal-block-norm-slice-contract", t, tau,
                                rotate, n_pairs))
        checks.append(_contract("derived-threshold-slice-contract", t, 1.0 - bound,
                                perturb, n_pairs if bound > 0.0 else 0))
        checks.append(_holds("sum-beta-exceeds-derived-bound", name, {"t": t},
                             b_sum.lower >= bound, b_sum, Bracket.exact(bound)))
        rows.append({"t": t, "beta0_t4": cm.floor(t / 4.0),
                     "tau_case1": tau, "alpha_star": a_star, "bound": bound,
                     "beta_sum_lower": b_sum.lower,
                     "pass": b_sum.lower >= bound})
    return (checks, {"space": name, "n_pairs": n_pairs,
                     "component_grid": list(comp_grid)}, {"rows": rows})


# -- ordering, dense-set, space algebra, beta slices, delta-q ---------------


@_suite("ordering", ("l2-2", "lp:1.5-2d", "l1-2d"))
def suite_ordering(names, seed, budget):
    """sup/inf structure: d*0(f,t) >= d*(f,t) >= s*(f,x,t)."""
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    for name in names:
        space = preset(name)
        for t in (0.5, 1.0):
            for j in range(2):
                f = _unit(polar_space(space), rng)
                ds = d_star(space, f, t, budget)
                dz = d_star_zero(space, f, t, budget)
                checks.append(compare(
                    "dstar-zero-dominates-dstar", name,
                    {"t": t, "j": j}, dz, ds, {"f": f.tolist()}))
                x = _unit(space, rng)
                ss = s_star(space, f, x, t, budget)
                checks.append(compare(
                    "dstar-dominates-s-star", name,
                    {"t": t, "j": j}, ds, ss,
                    {"f": f.tolist(), "x": x.tolist()}))
    return checks, {"spaces": names}


@_suite("dense-set", ("l2-2", "linf-2d"))
def suite_dense_set(names, seed, budget):
    """Halving the sphere-sample spacing gives a global denting bracket that
    overlaps the coarse one: both are certified brackets of d(t)."""
    checks: list[Check] = []
    for name in names:
        space = preset(name)
        t = 1.0 if name == "l2-2" else 0.5
        r = budget.resolution if budget.resolution is not None else 8e-3
        b1 = d_global(space, t, budget.with_resolution(r))
        b2 = d_global(space, t, budget.with_resolution(r / 2.0))
        checks.append(_holds("d-global-brackets-overlap-under-grid-refinement", name,
                             {"t": t, "spacing": r},
                             b1.overlaps(b2), b1, b2))
    return checks, {"spaces": names}


@_suite("spaces", LEMMA_PRESETS + ("l2sum-4",))
def suite_spaces(names, seed, budget):
    """Norm-algebra contracts: pairing bound, bipolarity, support
    functionals, blockwise sum duality."""
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    for name in names:
        space = preset(name)
        for j in range(5):
            x = rng.normal(size=space.dim)
            f = rng.normal(size=space.dim)
            prod = float(_norm_array(space, x)) * float(_dual_norm_array(space, f))
            checks.append(compare(
                "pairing-bounded-by-norm-product", name, {"j": j},
                Bracket.exact(prod), Bracket.exact(abs(float(f @ x)))))
            xu = _unit(space, rng)
            g = support_functional(space, xu).array
            err = max(abs(float(g @ xu) - 1.0),
                      abs(float(_dual_norm_array(space, g)) - 1.0))
            checks.append(compare(
                "support-functional-norms-its-point", name, {"j": j},
                Bracket.exact(1e-7), Bracket.exact(err)))
        if space.kind in ("lp", "weighted-lp", "polyhedral"):
            bipolar = polar_space(polar_space(space))
            pts = rng.normal(size=(8, space.dim))
            err = float(np.max(np.abs(_norm_array(space, pts)
                                      - _norm_array(bipolar, pts))))
            checks.append(compare(
                "bipolar-norm-roundtrip", name, {},
                Bracket.exact(1e-7), Bracket.exact(err)))
        if space.kind == "lp-sum":
            # the Hoelder maximiser, built from the components alone: with
            # the right ||f||*, the blocks x_s = (||f_s||*/||f||*)^(q-1) u_s,
            # u_s norming f_s, give ||x|| = 1 and f(x) = ||f||*
            dual = polar_space(space)
            q = space.q
            for j in range(5):
                f = rng.normal(size=space.dim)
                nf = float(_norm_array(dual, f))
                x = np.zeros(space.dim)
                for c, s in zip(space.components, space.block_slices):
                    ns = float(_dual_norm_array(c, f[s]))
                    x[s] = (ns / nf) ** (q - 1.0) * duality_preimage(c, f[s] / ns).array
                err = max(abs(float(_norm_array(space, x)) - 1.0),
                          abs(float(f @ x) - nf))
                checks.append(compare(
                    "sum-dual-norm-is-blockwise", name, {"j": j},
                    Bracket.exact(1e-7), Bracket.exact(err)))
    return checks, {"spaces": names}


@_suite("beta-slices", ("l2-2", "lp:1.5-2d"))
def suite_beta_slices(names, seed, budget):
    """Slice-containment and norming-slice facts behind the beta modulus."""
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    for name in names:
        space = preset(name)
        dual = polar_space(space)
        t = 0.5
        for j in range(2):
            f = _unit(dual, rng)
            x = duality_preimage(space, f).array
            b = beta_point(space, f, x, t, budget)
            params = {"t": t, "j": j}
            if b.lower <= 0.0:
                checks.append(_vacuous("deep-slice-points-stay-near-f",
                                       name, params, b))
            else:
                G = rng.normal(size=(500, space.dim))
                G /= np.maximum(_norm_array(dual, G), 1.0)[:, None]
                mask = G @ x > 1.0 - b.lower
                worst = (float(np.max(_norm_array(dual, G[mask] - f)))
                         if np.any(mask) else 0.0)
                checks.append(compare(
                    "deep-slice-points-stay-near-f", name,
                    dict(params, n_inside=int(np.sum(mask))),
                    Bracket.exact(t + b.width), Bracket.exact(worst),
                    {"f": f.tolist(), "beta": b.to_json()}))
            delta = modulus_convexity(dual, t / 2.0, budget)
            thr = 1.0 - 2.0 * delta.upper
            if thr <= 0.0:
                checks.append(_vacuous("norming-slice-diameter-below-t",
                                       name, params, delta))
            else:
                diam = slice_diameter(
                    space, Slice.of(x, thr, "dual"), _slice_budget(budget, space.dim))
                checks.append(compare(
                    "norming-slice-diameter-below-t", name, params,
                    Bracket.exact(t), diam, {"f": f.tolist()}))
        curve = beta_global(space, (0.25, 0.5, 0.75), budget)
        checks.append(_holds("beta-curve-monotone-in-t", name,
                             {"t_grid": [0.25, 0.5, 0.75]}, curve.is_monotone(),
                             curve.values[-1], curve.values[0]))
    return checks, {"spaces": names}


@_suite("delta-q", ())
def suite_delta_q(names, seed, budget):
    """The internal convexity-modulus evaluator for lq norms agrees with the
    certified engine on three-dimensional lq spaces."""
    if budget.resolution is None:
        budget = budget.with_resolution(0.3)
    checks: list[Check] = []
    for q in (1.5, 2.0, 4.0):
        space = lp_space(3, q)
        for t in (0.4, 1.0):
            b = modulus_convexity(space, t, budget)
            val = delta_q_lower(q, t)
            if q >= 2.0:
                ok = b.contains(val, slack=1e-9)
                cname = "closed-form-convexity-inside-bracket"
            else:
                ok = val <= b.upper + 1e-12
                cname = "quadratic-convexity-lower-bound-valid"
            checks.append(_holds(cname, f"lp:{q}-3d", {"t": t}, ok, b,
                                 Bracket.exact(val)))
    return checks, {"resolution": budget.resolution}


# -- registry ---------------------------------------------------------------


def list_suites() -> list[str]:
    return sorted(SUITES)


def run_suite(name: str, spaces: Optional[Sequence[str]] = None,
              seed: int = 0, budget: Optional[Budget] = None,
              **kwargs) -> VerificationReport:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; known: {list_suites()}")
    return SUITES[name](spaces=spaces, seed=seed, budget=budget, **kwargs)


# -- oracle/engine comparison battery ---------------------------------------

# kind -> (oracle resolution, engine bracket (space, args, budget), exact
# value on a 2-D polygon (space, args), or None where the oracle has none)
_BATTERY_KINDS = {
    "delta": (2e-3, lambda sp, a, b: modulus_convexity(sp, a["t"], b), None),
    "s": (1e-3, lambda sp, a, b: s_point(sp, a["x"], a["f"], a["t"], b),
          lambda sp, a: oracle.exact_s_point(sp, a["x"], a["f"], a["t"])),
    "d": (3e-3, lambda sp, a, b: d_point(sp, a["x"], a["t"], b), None),
    "beta": (4e-3, lambda sp, a, b: beta_point(sp, a["f"], a["x"], a["t"], b),
             lambda sp, a: oracle.exact_beta_point(sp, a["f"], a["x"], a["t"])),
    "beta_sup": (1.5e-2, lambda sp, a, b: beta_sup(sp, a["f"], a["t"], b),
                 lambda sp, a: oracle.exact_beta_sup(sp, a["f"], a["t"])),
    "slice-diameter": (
        2e-3,
        lambda sp, a, b: slice_diameter(sp, Slice.of(
            a["direction"], a["alpha"], a.get("ball_side", "primal")), b),
        lambda sp, a: oracle.exact_slice_diameter(
            sp, a["direction"], a["alpha"], a.get("ball_side", "primal"))),
}


def run_oracle_battery(budget: Optional[Budget] = None) -> dict:
    """Run the fixed 30-instance battery: engine bracket vs brute-force
    oracle bracket, plus the exact rational value where available."""
    records = []
    n_overlap = 0
    names = {item["space"] for item in oracle.BATTERY}
    spaces = {name: preset(name) for name in names}  # facets enumerated once
    for item in oracle.BATTERY:
        kind, args = item["kind"], item["args"]
        space = spaces[item["space"]]
        res, engine, exact_fn = _BATTERY_KINDS[kind]
        eng_budget = budget
        if kind == "delta" and space.dim == 3:
            res = 0.45
            if eng_budget is None or eng_budget.resolution is None:
                eng_budget = resolve(eng_budget).with_resolution(0.3)
        ob = oracle.grid_bracket(kind, space, res, **args)
        eb = engine(space, args, eng_budget)
        overlap = ob.overlaps(eb)
        n_overlap += overlap
        exact = (float(exact_fn(space, args)) if exact_fn is not None
                 and space.kind == "polyhedral" and space.dim == 2 else None)
        rec = {"problem": {"kind": kind, "space": item["space"], "args":
                           {k: (list(v) if isinstance(v, tuple) else v)
                            for k, v in args.items()}},
               "oracle": ob.to_json(), "engine": eb.to_json(),
               "overlap": bool(overlap)}
        if exact is not None:
            rec["exact"] = exact
            rec["exact_inside"] = bool(ob.contains(exact, 1e-9)
                                       and eb.contains(exact, 1e-9))
        records.append(rec)
    return {"n_instances": len(records), "n_overlap": int(n_overlap),
            "records": records}
