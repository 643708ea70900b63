"""Golden CSV bytes for a fixed command set.

Each command writes its CSV through ``cli.main``; the bytes must equal
the committed file under ``tests/data/golden``, as must the stdout of
``verify --suite all``.  A refactor that keeps
the library's outputs must keep these files unchanged.  The MDM errors
are also checked against a 40-digit evaluation of the same plans.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from rkhsquad import CostModel, KernelGenerator, ParamRule, mdm_build, mdm_wce
from rkhsquad.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

_BUDGETS = (10.0, 40.0, 160.0)
_DOLLARS = [float(1 + m) for m in range(16)]
_TRUNC, _MAX_COORD, _POOL_SIZE = 512, 16, 64
_MDM = [
    "--budgets", ",".join(f"{b:g}" for b in _BUDGETS),
    "--dollar-table", ",".join(f"{d:g}" for d in _DOLLARS),
    "--trunc", str(_TRUNC), "--max-coord", str(_MAX_COORD), "--pool-size", str(_POOL_SIZE),
]
_MDM_RULES = {"mdm-run-power": "j^-1.5", "mdm-run-geometric": "0.5^j"}

COMMANDS = {
    "univariate-decay-gaussian-0.7": [
        "univariate-decay", "--space", "gaussian", "--param", "0.7", "--n-max", "40",
    ],
    "univariate-decay-hermite-0.5": [
        "univariate-decay", "--space", "hermite", "--param", "0.5", "--n-max", "40",
    ],
    # n = 1..200 spans several shared Hermite tables, with degrees that vary by rule
    "univariate-decay-hermite-0.5-n200": [
        "univariate-decay", "--space", "hermite", "--param", "0.5", "--n-max", "200",
    ],
    "tensor-decay": ["tensor-decay", "--sigma", "1,0.5,2", "--eps-list", "0.1,0.01"],
    **{name: ["mdm-run", "--sigma-rule", rule, *_MDM] for name, rule in _MDM_RULES.items()},
    # non-dyadic dollars: the cost column pins the order of the cost summation
    "mdm-run-fractional-dollars": [
        "mdm-run", "--sigma-rule", "j^-1.5", "--budgets", "10,100,1000",
        "--dollar-table", "1.1,1.7,2.3,3.1,4.3,5.9,7.7,9.1,11.3,13.7,16.1,19.3,23.9,29.7,37.1,45.3",
        "--trunc", str(_TRUNC), "--max-coord", str(_MAX_COORD), "--pool-size", str(_POOL_SIZE),
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_bytes_match_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main([*COMMANDS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_verify_all_stdout_matches_golden(capsys):
    # the detail digits of the mehler checks come from the series oracle
    assert main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-all.txt").read_text()


def _mp_e2(rule, beta, mp):
    """1 - 2 sum w + w^T K w of a rule on a Hermite space, node pair by node pair."""
    nodes = rule.nodes
    w = [mp.mpf(float(v)) for v in rule.weights]
    ratio = {}  # per coordinate: k(x, y) / k(0, 0) on the distinct values
    for c in range(rule.dimension):
        b = mp.mpf(float(beta[c]))
        vals = [mp.mpf(v) for v in sorted(set(nodes[:, c].tolist()))]
        ratio[c] = {
            (float(x), float(y)): mp.exp(-(b * b * (x * x + y * y) - 2 * b * x * y) / (2 * (1 - b * b)))
            for x in vals
            for y in vals
        }
    supp = [set(np.flatnonzero(row).tolist()) for row in nodes]
    quad = mp.fsum(
        w[i] * w[j] * mp.fprod(ratio[c][(nodes[i, c], nodes[j, c])] for c in supp[i] | supp[j])
        for i in range(len(w)) for j in range(len(w))
    )
    g0 = mp.fprod(1 / mp.sqrt(1 - mp.mpf(float(b)) ** 2) for b in beta)
    return 1 - 2 * mp.fsum(w) + g0 * quad


def _mp_gaussian_e2(rule, sigma, mp):
    """II - 2 sum w m + w^T K w of a rule on a Gaussian space, node pair by node pair.

    Built from the Gaussian kernel, its mean embedding and its double
    integral II directly, not through the transference.
    """
    nodes = rule.nodes
    w = [mp.mpf(float(v)) for v in rule.weights]
    s2 = [mp.mpf(float(s)) ** 2 for s in sigma]
    x = [[mp.mpf(float(v)) for v in row] for row in nodes]
    supp = [set(np.flatnonzero(row).tolist()) for row in nodes]
    quad = mp.fsum(
        w[i] * w[j] * mp.exp(-mp.fsum(s2[c] * (x[i][c] - x[j][c]) ** 2 for c in supp[i] | supp[j]))
        for i in range(len(w)) for j in range(len(w))
    )
    m0 = mp.fprod(1 / mp.sqrt(1 + 2 * t) for t in s2)  # the embedding at the anchor
    lin = m0 * mp.fsum(
        w[i] * mp.exp(-mp.fsum(s2[c] * x[i][c] ** 2 / (1 + 2 * s2[c]) for c in supp[i]))
        for i in range(len(w))
    )
    ii = mp.fprod(1 / mp.sqrt(1 + 4 * t) for t in s2)
    return ii - 2 * lin + quad


@pytest.mark.parametrize("name", sorted(_MDM_RULES))
def test_mdm_errors_match_40_digit_reference(name):
    # golden errors sit within 16 times the Gram identity's rounding scale
    # eps * |w|_1^2 (in e^2) of a 40-digit evaluation of the same plan
    mp = pytest.importorskip("mpmath")
    gen = KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse(_MDM_RULES[name]))
    model = CostModel.dollar(_DOLLARS)
    with open(GOLDEN / f"{name}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(_BUDGETS)
    eps = float(np.finfo(float).eps)
    for budget, row in zip(_BUDGETS, rows):
        plan = mdm_build(gen, budget, model, max_coord=_MAX_COORD, pool_size=_POOL_SIZE)
        assert plan.cost == float(row["cost"])
        with mp.workdps(40):
            reference = _mp_e2(plan.flattened, gen.params(_TRUNC), mp)
        w1 = float(np.abs(plan.flattened.weights).sum())
        assert abs(float(row["error"]) ** 2 - float(reference)) <= 16.0 * eps * w1 * w1, budget


@pytest.mark.parametrize("budget", [60.0, 400.0])
@pytest.mark.parametrize("rule", ["0.6^j", "0.5^j", "j^-1.5"])
def test_gaussian_mdm_errors_match_40_digit_reference(rule, budget):
    # a Gaussian generator is measured through its Hermite twin; its error
    # sits within 16 eps |w|_1^2 (in e^2) of the Gaussian-side 40-digit value
    mp = pytest.importorskip("mpmath")
    gen = KernelGenerator.gaussian(ParamRule.parse(rule))
    trunc = 256
    plan = mdm_build(gen, budget, CostModel.dollar([float(m) for m in range(1, 13)]), max_coord=64, pool_size=256)
    value, _ = mdm_wce(plan, gen, trunc=trunc)
    with mp.workdps(40):
        reference = _mp_gaussian_e2(plan.flattened, gen.params(trunc), mp)
    w1 = float(np.abs(plan.flattened.weights).sum())
    assert abs(value**2 - float(reference)) <= 16.0 * float(np.finfo(float).eps) * w1 * w1
