"""The three benchmark workloads: fixed op lists, seeded inputs, output gates.

Each op is one library call sequence a CLI user would run.  Its gate
checks a property or an independent oracle of the outputs, never byte
equality with an earlier run, and returns ``None`` when the outputs pass
or a one-line reason when they do not.  The seed only draws nodes and
shape parameters; the library receives only the generated arrays.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rkhsquad
from rkhsquad import cli

EPS = float(np.finfo(float).eps)

# -- mdm-decay ---------------------------------------------------------------
# (budget, cost, error) of the seed code's plans.  Cost is a policy output
# and must match exactly; the error is compared on the squared scale within
# 16 * eps * ||w||_1^2, the rounding scale of the dense Gram identity, so a
# more accurate evaluator still passes.
CURVE_A_REFERENCE = (
    (10.0, 9.0, 0.1589746032158469),
    (31.6, 25.0, 0.0919072244325027),
    (100.0, 89.0, 0.05794775485559438),
    (316.0, 293.0, 0.019721939860624246),
    (1000.0, 965.0, 0.007466849912128372),
    (3162.0, 3097.0, 0.0033355111913425926),
    (10000.0, 9873.0, 0.0011886842328833421),
    (31623.0, 31373.0, 0.0004124865586554171),
)
CURVE_B_REFERENCE = (
    (10.0, 9.0, 0.08200831898799664),
    (100.0, 89.0, 0.004992658113164744),
    (1000.0, 977.0, 0.0004377235070146891),
)
MDM_TRUNC = 2048
CURVE_A_MIN_EXPONENT = 0.65
CURVE_A_MIN_R2 = 0.9

# -- approx-spline / quad-gram ----------------------------------------------
SPLINE_CASES = ((2, 40, 8), (2, 60, 10), (3, 12, 6), (3, 16, 6))
SPLINE_SIGMA_RANGE = (0.2, 0.6)
BOX4 = (4, 20)
GRAM_CASES = ((4, 1500, 1.0), (4, 2000, 1.5), (6, 2000, 1.0))
GRAM_RESIDUAL = 1e-10

# CLI commands that quad-gram runs after its Gram ops: the Gauss-Hermite
# quadrature paths, through rkhsquad.cli.main.
GH_COMMANDS = (
    ("univariate-decay-hermite", ["univariate-decay", "--space", "hermite", "--param", "0.5", "--n-max", "200"]),
    ("univariate-decay-gaussian", ["univariate-decay", "--space", "gaussian", "--param", "1.0", "--n-max", "200"]),
    ("tensor-decay", ["tensor-decay", "--sigma", "1,1,1,1", "--eps-list", "0.1,0.01,0.001"]),
    ("verify-all", ["verify", "--suite", "all"]),
)

BIG_OP = {
    "mdm-decay": "A@31623",
    "approx-spline": "spline-d3-deg16-n6",
    "quad-gram": "gram-d6-n2000",
}


@dataclass
class Op:
    """One timed op: ``body`` calls the library, ``gate`` checks its outputs."""

    name: str
    body: Callable[[], dict]
    gate: Callable[[dict], str | None]


def inputs(workload: str, seed: int) -> dict:
    """Seeded inputs of a workload; the same seed gives the same arrays."""
    rng = np.random.default_rng(seed)
    if workload == "approx-spline":
        out = {}
        lo, hi = np.log(SPLINE_SIGMA_RANGE[0]), np.log(SPLINE_SIGMA_RANGE[1])
        for d, deg, n in SPLINE_CASES:
            sigma = np.exp(rng.uniform(lo, hi, size=d))
            out[(d, deg, n)] = (sigma, rng.standard_normal((n, d)))
        out[BOX4] = (np.exp(rng.uniform(lo, hi, size=BOX4[0])), None)
        return out
    if workload == "quad-gram":
        return {(d, n, s): rng.standard_normal((n, d)) for d, n, s in GRAM_CASES}
    if workload == "mdm-decay":
        return {}  # fixed op lists; nothing is drawn
    raise KeyError(f"unknown workload {workload!r}")


def build(workload: str, seed: int) -> list:
    """The op list of one pass."""
    return _BUILDERS[workload](inputs(workload, seed))


def digest(outputs: dict) -> str:
    """Hash of an op's outputs, exact to the bit."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, float):
            h.update(value.hex().encode())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _all_finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


# ---------------------------------------------------------------------------
# mdm-decay: the body of experiments.mdm_run_curve, one op per budget


def _mdm_op(label, gen, model, budget, ref_cost, ref_error, max_coord, pool_size, rows):
    def body():
        plan = rkhsquad.mdm_build(gen, budget, model, max_coord=max_coord, pool_size=pool_size)
        value, tail = rkhsquad.mdm_wce(plan, gen, MDM_TRUNC)
        if rows is not None:
            rows.append((plan.cost, value))
        return {"cost": plan.cost, "value": value, "tail": tail, "weights": plan.flattened.weights}

    def gate(out):
        if not _all_finite(out["cost"], out["value"], out["tail"], out["weights"]):
            return "non-finite output"
        if out["cost"] > budget:
            return f"cost {out['cost']} above budget {budget}"
        if out["cost"] != ref_cost:
            return f"cost {out['cost']} differs from the reference plan cost {ref_cost}"
        if out["tail"] < 0.0:
            return f"negative tail bound {out['tail']}"
        w1 = max(1.0, float(np.abs(out["weights"]).sum()))
        tol = 16.0 * EPS * w1 * w1
        gap = abs(out["value"] ** 2 - ref_error**2)
        if gap > tol:
            return f"squared error off the reference by {gap:.3e} > {tol:.3e}"
        return None

    return Op(f"{label}@{budget:g}", body, gate)


def _mdm_decay(_inputs):
    rows = []
    gen_a = rkhsquad.KernelGenerator.hermite_twin_of_gaussian(rkhsquad.ParamRule.parse("j^-1.5"))
    model_a = rkhsquad.CostModel.dollar([float(1 + m) for m in range(24)])
    gen_b = rkhsquad.KernelGenerator.hermite_twin_of_gaussian(rkhsquad.ParamRule.parse("0.5^j"))
    model_b = rkhsquad.CostModel.dollar([float(2**m) for m in range(24)])
    # Curve B runs first, so that its _component_local fill starts cold.
    ops = [
        _mdm_op("B", gen_b, model_b, budget, cost, err, 128, 512, None)
        for budget, cost, err in CURVE_B_REFERENCE
    ]
    ops.extend(
        _mdm_op("A", gen_a, model_a, budget, cost, err, 512, 2048, rows)
        for budget, cost, err in CURVE_A_REFERENCE
    )

    def fit():
        est = rkhsquad.decay_estimate(rows)
        return {"exponent": est.exponent, "r_squared": est.r_squared, "points": len(rows)}

    def fit_gate(out):
        if out["points"] != len(CURVE_A_REFERENCE):
            return f"fit over {out['points']} points, expected {len(CURVE_A_REFERENCE)}"
        if not out["exponent"] >= CURVE_A_MIN_EXPONENT:
            return f"decay exponent {out['exponent']:.3f} below {CURVE_A_MIN_EXPONENT}"
        if not out["r_squared"] >= CURVE_A_MIN_R2:
            return f"r^2 {out['r_squared']:.3f} below {CURVE_A_MIN_R2}"
        return None

    ops.append(Op("A-fit", fit, fit_gate))
    return ops


# ---------------------------------------------------------------------------
# approx-spline: dense L2 error operators and tuple-backed index sets


def _approx_prefactor(sigma):
    """Gaussian approximation initial error prod_j (1 - beta_j)^(1/2)."""
    return float(np.prod(np.sqrt(2.0 / (1.0 + np.sqrt(1.0 + 8.0 * sigma * sigma)))))


def _spline_op(case, sigma, nodes):
    d, deg, n = case

    def body():
        index_set = rkhsquad.MultiIndexSet.box(d, deg)
        gauss_sys, herm_sys = rkhsquad.spectral_pair(sigma, index_set)
        method = rkhsquad.spline_method(nodes, gauss_sys)
        twin = rkhsquad.transfer_sampling_to_hermite(method, sigma)
        e_g, tail_g = rkhsquad.wce_approximation(method, gauss_sys)
        e_h, tail_h = rkhsquad.wce_approximation(twin, herm_sys)
        return {"e_g": e_g, "tail_g": tail_g, "e_h": e_h, "tail_h": tail_h,
                "coeffs": method.coeff_table}

    def gate(out):
        if not _all_finite(*out.values()):
            return "non-finite output"
        if min(out["tail_g"], out["tail_h"]) < 0.0:
            return "negative tail bound"
        pref = _approx_prefactor(sigma)
        residual = abs(out["e_g"] - pref * out["e_h"])
        allowed = out["tail_g"] + pref * out["tail_h"] + 1e-14
        if residual > allowed:
            return f"transference residual {residual:.3e} above tails {allowed:.3e}"
        return None

    return Op(f"spline-d{d}-deg{deg}-n{n}", body, gate)


def _elementary_union(a):
    """1 - prod(1 - a_j) by inclusion-exclusion, free of cancellation for small a_j."""
    e = [1.0] + [0.0] * len(a)
    for x in a:
        for k in range(len(a), 0, -1):
            e[k] += e[k - 1] * x
    return math.fsum((-1) ** (k + 1) * e[k] for k in range(1, len(a) + 1))


def _box_tail_op(sigma):
    d, deg = BOX4

    def body():
        index_set = rkhsquad.MultiIndexSet.box(d, deg)
        gauss_sys, _ = rkhsquad.spectral_pair(sigma, index_set)
        return {"size": index_set.size, "max_tail": gauss_sys.max_tail_eigenvalue(),
                "tail_sum": gauss_sys.tail_eigenvalue_sum()}

    def gate(out):
        # Gaussian eigenvalues prod_j (1 - beta_j) beta_j^nu_j; outside a full
        # box the largest sits at deg+1 on one axis, and the mass outside is
        # 1 - prod_j (1 - beta_j^(deg+1)).
        beta = 1.0 - 2.0 / (1.0 + np.sqrt(1.0 + 8.0 * sigma * sigma))
        a = beta ** (deg + 1)
        want_max = float(np.prod(1.0 - beta) * a.max())
        want_sum = _elementary_union(list(a))
        if out["size"] != (deg + 1) ** d:
            return f"box size {out['size']}"
        for key, want in (("max_tail", want_max), ("tail_sum", want_sum)):
            if not abs(out[key] - want) <= 1e-12 * want:
                return f"{key} {out[key]:.17g} against closed form {want:.17g}"
        return None

    return Op(f"box-d{d}-deg{deg}-tails", body, gate)


def _approx_spline(inp):
    ops = [_spline_op(case, *inp[case]) for case in SPLINE_CASES]
    ops.append(_box_tail_op(inp[BOX4][0]))
    return ops


# ---------------------------------------------------------------------------
# quad-gram: dense Gram matrices, eigvalsh and Cholesky, then the
# Gauss-Hermite CLI commands below


def _gram_op(case, nodes):
    d, n, s = case
    sigma = (s,) * d

    def body():
        spec = rkhsquad.KernelSpec.gaussian(sigma)
        rule = rkhsquad.optimal_weights(nodes, spec)
        e_g = rkhsquad.wce_integration(rule, spec)
        twin = rkhsquad.transfer_quadrature_to_hermite(rule, sigma)
        e_h = rkhsquad.wce_integration(twin, rkhsquad.TransferConstants.integration(sigma).hermite_spec())
        return {"e_g": e_g, "e_h": e_h, "weights": rule.weights}

    def gate(out):
        if not _all_finite(*out.values()) or out["e_g"] <= 0.0:
            return "non-finite or non-positive output"
        pref = (1.0 + 4.0 * s * s) ** (-0.25 * d)
        residual = abs(out["e_g"] - pref * out["e_h"]) / out["e_g"]
        if residual > GRAM_RESIDUAL:
            return f"relative identity residual {residual:.3e} above {GRAM_RESIDUAL}"
        return None

    return Op(f"gram-d{d}-n{n}", body, gate)


# ---------------------------------------------------------------------------
# Gauss-Hermite CLI commands through rkhsquad.cli.main


def _cli_body(argv):
    def body():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return {"exit": code, "stdout": buf.getvalue()}

    return body


def _csv(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def _univariate_gate(n_max):
    def gate(out):
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        rows = _csv(out["stdout"], "n,error,lower_bound,rate_fit")
        if [int(r[0]) for r in rows] != list(range(1, n_max + 1)):
            return "rows are not n = 1..n_max"
        for r in rows:
            error, lower = float(r[1]), float(r[2])
            if not _all_finite(error, lower, float(r[3])):
                return f"non-finite row n={r[0]}"
            if not error >= lower:
                return f"error {error:.3e} below the lower bound {lower:.3e} at n={r[0]}"
        return None

    return gate


def _tensor_gate(sigma, eps_list):
    sigma = np.asarray(sigma, dtype=float)
    beta = 2.0 * sigma**2 / (1.0 + 2.0 * sigma**2)
    e0 = float(np.prod((1.0 + 4.0 * sigma**2) ** -0.25))

    def oracle(ns):
        # product identity on the Hermite twin: e^2 = prod_j (w K_j w) - 1,
        # with numpy's Gauss-Hermite nodes and the Mehler closed form
        log_terms = []
        for n, b in zip(ns, beta):
            x, w = np.polynomial.hermite_e.hermegauss(n)
            w = w / w.sum()
            k = np.exp(-(b * b * (x[:, None] ** 2 + x[None, :] ** 2) - 2 * b * np.outer(x, x))
                       / (2 * (1 - b * b))) / math.sqrt(1 - b * b)
            log_terms.append(math.log1p(float(w @ k @ w) - 1.0))
        return math.expm1(math.fsum(log_terms))

    def gate(out):
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        rows = _csv(out["stdout"], "eps,n_choice,size,error")
        if [float(r[0]) for r in rows] != list(eps_list):
            return "rows do not follow the eps list"
        last = math.inf
        for eps_text, n_text, size_text, err_text in rows:
            eps, error = float(eps_text), float(err_text)
            ns = [int(v) for v in n_text.split(";")]
            zeta = np.log1p(1.0 / (2.0 * sigma * sigma))
            want = [max(1, math.ceil(math.log(sigma.size / eps) / z)) for z in zeta]
            if ns != want:
                return f"n_choice {ns} at eps={eps}, expected {want}"
            if int(size_text) != math.prod(ns):
                return f"size {size_text} is not prod n_j at eps={eps}"
            if not (np.isfinite(error) and 0.0 < error < last):
                return f"error {error!r} not finite, positive and decreasing at eps={eps}"
            last = error
            gap = abs((error / e0) ** 2 - oracle(ns))
            if gap > 64.0 * EPS * sigma.size:
                return f"normalized squared error off the product oracle by {gap:.3e} at eps={eps}"
        return None

    return gate


def _verify_gate(out):
    if out["exit"] != 0:
        return f"exit code {out['exit']}"
    failed = [line for line in out["stdout"].splitlines() if not line.startswith("PASS ")]
    return f"{len(failed)} checks not passed: {failed[:3]}" if failed else None


def _gh_commands():
    gates = {
        "univariate-decay-hermite": _univariate_gate(200),
        "univariate-decay-gaussian": _univariate_gate(200),
        "tensor-decay": _tensor_gate((1.0, 1.0, 1.0, 1.0), (0.1, 0.01, 0.001)),
        "verify-all": _verify_gate,
    }
    return [Op(name, _cli_body(argv), gates[name]) for name, argv in GH_COMMANDS]


def _quad_gram(inp):
    return [_gram_op(case, inp[case]) for case in GRAM_CASES] + _gh_commands()


_BUILDERS = {
    "mdm-decay": _mdm_decay,
    "approx-spline": _approx_spline,
    "quad-gram": _quad_gram,
}
