"""Command-line driver: initial errors, transference, convergence studies.

Subcommands
-----------
e0                initial error of a kernel spec for a problem
transfer          twin rule/method on the matched space, with both errors
univariate-decay  CSV of n-point Gauss-Hermite rule errors on one space
tensor-decay      CSV of accuracy-driven tensor rules
mdm-run           CSV of greedy MDM plans over a budget schedule
verify            run an oracle battery; exit 0 iff everything passes

CSV output uses a header row, comma separators, '.' decimals, and %.17g
number formatting, so repeated runs on one machine are byte-identical.
Exit status 1 reports invalid input or a numerical failure, 2 a file that
cannot be read or written (any OSError).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import experiments, verify
from .algorithms import KernelGenerator, ParamRule
from .errors import DomainError
from .kernels import APPROXIMATION, GAUSSIAN, HERMITE, INTEGRATION, KernelSpec, initial_error
from .transference import (
    TransferConstants,
    spectral_pair,
    transfer_quadrature_to_hermite,
    transfer_sampling_to_hermite,
)
from .worst_case import (
    CostModel,
    QuadratureRule,
    SamplingMethod,
    wce_approximation,
    wce_integration,
)

_PROBLEM_FLAGS = {"int": INTEGRATION, "approx": APPROXIMATION}
_SPACE_FLAGS = {"gauss": GAUSSIAN, "gaussian": GAUSSIAN, "hermite": HERMITE}


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _floats(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"cannot parse float list {text!r}") from exc


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_e0(args) -> int:
    spec = KernelSpec.from_json(_load_json(args.kernel))
    value = initial_error(spec, _PROBLEM_FLAGS[args.problem])
    print(_fmt(value))
    return 0


def _cmd_transfer(args) -> int:
    sigma = _floats(args.sigma)
    problem = _PROBLEM_FLAGS[args.problem]
    payload = _load_json(args.rule)
    if problem == INTEGRATION:
        rule = QuadratureRule.from_json(payload)
        constants = TransferConstants.integration(sigma)
        twin = transfer_quadrature_to_hermite(rule, sigma)
        e_gauss = wce_integration(rule, constants.gaussian_spec())
        e_herm = wce_integration(twin, constants.hermite_spec())
    else:
        method = SamplingMethod.from_json(payload)
        constants = TransferConstants.approximation(sigma)
        twin = transfer_sampling_to_hermite(method, sigma)
        gauss_sys, herm_sys = spectral_pair(sigma, method.index_set)
        e_gauss, tail_g = wce_approximation(method, gauss_sys)
        e_herm, tail_h = wce_approximation(twin, herm_sys)
        print(f"tail_gaussian={_fmt(tail_g)}")
        print(f"tail_hermite={_fmt(tail_h)}")
    residual = abs(e_gauss - constants.gauss_prefactor * e_herm)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(twin.to_json(), fh)
    else:
        print(json.dumps(twin.to_json()))
    print(f"error_gaussian={_fmt(e_gauss)}")
    print(f"error_hermite={_fmt(e_herm)}")
    print(f"prefactor={_fmt(constants.gauss_prefactor)}")
    print(f"identity_residual={_fmt(residual)}")
    return 0


def _cmd_univariate_decay(args) -> int:
    rows = experiments.univariate_decay_curve(
        _SPACE_FLAGS[args.space], args.param, args.n_max
    )
    _write_csv(args.out, ("n", "error", "lower_bound", "rate_fit"), rows)
    return 0


def _cmd_tensor_decay(args) -> int:
    rows = experiments.tensor_decay_curve(
        _floats(args.sigma), _floats(args.eps_list), _SPACE_FLAGS[args.space]
    )
    _write_csv(args.out, ("eps", "n_choice", "size", "error"), rows)
    return 0


def _cmd_mdm_run(args) -> int:
    gen = KernelGenerator.hermite_twin_of_gaussian(ParamRule.parse(args.sigma_rule))
    model = CostModel.dollar(_floats(args.dollar_table))
    budgets = _floats(args.budgets)
    if len(budgets) < 3:
        raise DomainError("need at least 3 budgets for the decay estimate")
    rows = experiments.mdm_run_curve(
        gen,
        budgets,
        model,
        trunc=args.trunc,
        max_coord=args.max_coord,
        pool_size=args.pool_size,
    )
    _write_csv(args.out, ("cost", "error", "tail_bound"), rows)
    est = experiments.decay_estimate([(c, e) for c, e, _ in rows])
    print(
        f"decay_exponent={_fmt(est.exponent)} intercept={_fmt(est.intercept)} "
        f"points_used={est.points_used} r_squared={_fmt(est.r_squared)}"
    )
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        line = f"{tag} {res.name}"
        if res.detail:
            line += f": {res.detail}"
        print(line)
        failed += 0 if res.passed else 1
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkhsquad",
        description="Worst-case integration and approximation on Gaussian/Hermite kernel spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("e0", help="initial error of a kernel spec")
    p.add_argument("--kernel", required=True, help="path to a kernel spec JSON")
    p.add_argument("--problem", required=True, choices=sorted(_PROBLEM_FLAGS))
    p.set_defaults(fn=_cmd_e0)

    p = sub.add_parser("transfer", help="twin algorithm on the matched space")
    p.add_argument("--rule", required=True, help="rule or sampling-method JSON")
    p.add_argument("--sigma", required=True, help="comma-separated shape parameters")
    p.add_argument("--problem", required=True, choices=sorted(_PROBLEM_FLAGS))
    p.add_argument("--out", help="write the twin JSON here instead of stdout")
    p.set_defaults(fn=_cmd_transfer)

    p = sub.add_parser("univariate-decay", help="Gauss-Hermite rule errors on one space")
    p.add_argument("--space", required=True, choices=sorted(_SPACE_FLAGS))
    p.add_argument("--param", required=True, type=float, help="sigma or beta")
    p.add_argument("--n-max", required=True, type=int, dest="n_max")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(fn=_cmd_univariate_decay)

    p = sub.add_parser("tensor-decay", help="accuracy-driven tensor rules")
    p.add_argument("--sigma", required=True, help="comma-separated shape parameters")
    p.add_argument("--eps-list", required=True, dest="eps_list")
    p.add_argument("--space", default="gauss", choices=sorted(_SPACE_FLAGS))
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(fn=_cmd_tensor_decay)

    p = sub.add_parser("mdm-run", help="greedy MDM plans over a budget schedule")
    p.add_argument("--sigma-rule", required=True, dest="sigma_rule", help="'j^-p' or 'r^j'")
    p.add_argument("--budgets", required=True, help="comma-separated cost budgets")
    p.add_argument("--dollar-table", required=True, dest="dollar_table",
                   help="comma-separated dollar(0..m_max)")
    p.add_argument("--trunc", type=int, default=2048, help="coordinate truncation for exact errors")
    p.add_argument("--max-coord", type=int, default=512, dest="max_coord")
    p.add_argument("--pool-size", type=int, default=2048, dest="pool_size")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(fn=_cmd_mdm_run)

    p = sub.add_parser("verify", help="run an oracle battery")
    p.add_argument("--suite", required=True, choices=[*verify.SUITES, "all"])
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, KeyError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
