"""Command-line front end.

Subcommands: generate | solve | verify | exp-stability | exp-otb |
exp-success | exp-compare | constants.  Exit codes: 0 success, 1 I/O or
parse error, 2 empty result / failed verification, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .descent import DescentBudgetError
from .game import Game, GameError, Profile, mixed
from .generator import (
    RESTRICTIONS,
    GeneratorInput,
    SamplingError,
    canonical_block,
    certificate_json,
    dfm_family,
    dfm_tight,
    half_sp,
    solve_b,
    tight_3x3,
    tight_m_n,
    tight_no_dominated,
    verify_tight,
)
from .lp import LpNumericalError
from .experiments import (
    ALGORITHMS,
    MAX_INPUT_DRAWS,
    ExperimentConfig,
    _tight_draws,
    exp_compare,
    exp_outside_ball,
    exp_stability,
    exp_success_rate,
    run_algorithm,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_EMPTY = 2
EXIT_NUMERIC = 3


def _parse_size(text: str) -> tuple[int, int]:
    try:
        m, n = text.lower().split("x")
        return int(m), int(n)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"size must look like 3x3, got {text!r}") from err


def _static_instance(name: str):
    # One name, one game: tight-3X3 is tight_3x3(), not tight_m_n(3, 3).
    name = name.lower()
    if name == "tight-3x3":
        return tight_3x3()
    if name.startswith("tight-"):
        try:
            m, n = _parse_size(name[len("tight-"):])
        except argparse.ArgumentTypeError as err:
            raise GameError(f"static instance {name!r}: {err}") from err
        return tight_m_n(m, n)
    if name == "no-dominated":
        return tight_no_dominated()
    if name == "dfm-tight":
        return dfm_tight()
    if name.startswith("dfm-family:"):
        try:
            return dfm_family(float(name.split(":", 1)[1]))
        except ValueError as err:  # not a number, or outside (0, 1/3]
            raise GameError(f"static instance {name!r}: expected dfm-family:EPS with EPS "
                            "in (0, 1/3]") from err
    if name == "half-sp":
        return half_sp()
    raise GameError(
        f"unknown static instance {name!r}; expected tight-3x3, tight-MxN, "
        "no-dominated, dfm-tight, dfm-family:EPS or half-sp"
    )


def _load_game(path: str, normalize: bool = False) -> tuple[Game, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return Game.from_doc(doc, normalize=normalize), doc


def _profile_from(block, where: str) -> Profile:
    if not isinstance(block, dict) or "x" not in block or "y" not in block:
        raise GameError(f"{where} must be an object with keys 'x' and 'y'")
    return Profile(mixed(block["x"]), mixed(block["y"]))


def _witness_input(block, keys, where: str) -> GeneratorInput:
    """The generator input stored under ``keys``, the names of x*, y*, w*
    and z* in that order."""
    if not isinstance(block, dict):
        raise GameError(f"{where} must be an object")
    for key in keys:
        if key not in block:
            raise GameError(f"{where} has no {key!r}")
    return GeneratorInput(*(block[key] for key in keys))


def _initial_profile(game: Game, spec: str, doc: dict) -> Profile:
    if spec == "uniform":
        return game.uniform_profile()
    if spec.startswith("pure:"):
        try:
            i, j = (int(t) for t in spec[len("pure:"):].split(","))
        except ValueError as err:
            raise GameError(f"init {spec!r}: expected pure:I,J with two integers") from err
        return game.pure_profile(i, j)
    if spec == "file:canonical":
        canon = doc.get("canonical")
        if not canon:
            raise GameError("game file carries no canonical block")
        return _profile_from(canon, "the game file's canonical block")
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path) as fh:
            d = json.load(fh)
        return _profile_from(d, f"init file {path!r}")
    raise GameError(f"unknown init {spec!r}")


def cmd_constants(args) -> int:
    cons = solve_b()
    print(json.dumps({
        "b": cons.b,
        "lambda0": cons.lambda0,
        "mu0": cons.mu0,
        "rhoStar": cons.rho_star,
    }))
    return EXIT_OK


# generate's sampling flags and their defaults.  The parser leaves each of
# them out of the namespace unless it is given, so that --static, which
# samples nothing, can reject them.
SAMPLING_DEFAULTS = {"size": (3, 3), "restriction": "disjoint", "seed": 0,
                     "max_attempts": MAX_INPUT_DRAWS, "lambda_intersect": False,
                     "mixed_duals": False}


def cmd_generate(args) -> int:
    given = [dest for dest in SAMPLING_DEFAULTS if hasattr(args, dest)]
    if args.static and given:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
        raise ValueError(f"--static writes a named instance and reads no sampling flag: {flags}")
    for dest, value in SAMPLING_DEFAULTS.items():
        if dest not in given:
            setattr(args, dest, value)
    low = [flag for flag, v in (("--count", args.count), ("--max-attempts", args.max_attempts))
           if v < 1]
    if low:
        raise ValueError(f"counts must be positive: {', '.join(low)}")
    os.makedirs(args.out, exist_ok=True)
    if args.static:
        inst = _static_instance(args.static)
        path = os.path.join(args.out, f"{inst.name}.json")
        with open(path, "w") as fh:
            fh.write(inst.game.to_json(canonical=canonical_block(inst.input, inst.rho_star)))
        print(json.dumps({"written": [path]}))
        return EXIT_OK

    m, n = args.size
    draws = _tight_draws(m, n, args.restriction, np.random.default_rng(args.seed),
                         pure_duals=not args.mixed_duals, per_draw=1,
                         lambda_intersect=args.lambda_intersect, max_draws=args.max_attempts)
    written = []
    attempts = 0
    feasible_inputs = 0
    while len(written) < args.count and (insts := next(draws, None)) is not None:
        attempts += 1
        if not insts:
            continue
        feasible_inputs += 1
        inst = insts[0]
        cert = verify_tight(inst.game, inst.input, full_square=args.lambda_intersect)
        stem = os.path.join(args.out, f"game_{len(written):04d}")
        with open(stem + ".json", "w") as fh:
            fh.write(inst.game.to_json(canonical=canonical_block(inst.input, inst.rho_star)))
        with open(stem + ".cert.json", "w") as fh:
            fh.write(certificate_json(inst, cert))
        written.append(stem + ".json")
    summary = {
        "written": len(written),
        "input_draws": attempts,
        "success_rate": feasible_inputs / attempts if attempts else 0.0,
        "out": args.out,
    }
    print(json.dumps(summary))
    return EXIT_OK if written else EXIT_EMPTY


def cmd_solve(args) -> int:
    game, doc = _load_game(args.game, normalize=args.normalize)
    p0 = _initial_profile(game, args.init, doc)
    t0 = time.perf_counter()
    f, profile, iterations, detail = run_algorithm(
        game, args.algorithm, p0, args.delta, args.rounds, np.random.default_rng(args.seed))
    print(json.dumps({
        "f": f,
        "profile": {"x": profile.x.tolist(), "y": profile.y.tolist()},
        "iterations": iterations,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
        "detail": detail,
    }))
    return EXIT_OK


def cmd_verify(args) -> int:
    game, doc = _load_game(args.game)
    if args.cert:
        with open(args.cert) as fh:
            cd = json.load(fh)
        inp = _witness_input(cd, ("xStar", "yStar", "wStar", "zStar"),
                             f"certificate {args.cert!r}")
    else:
        canon = doc.get("canonical")
        if not canon:
            raise GameError("no certificate file and no canonical block in the game file")
        inp = _witness_input(canon, ("x", "y", "w", "z"), "the game file's canonical block")
    cert = verify_tight(game, inp, full_square=args.full_square)
    print(json.dumps({"passed": cert.passed, "checks": cert.checks,
                      "values": cert.values, "mixedDuals": cert.mixed_duals}))
    return EXIT_OK if cert.passed else EXIT_EMPTY


def cmd_experiment(args) -> int:
    # The config takes the flags the subcommand binds and its user gave;
    # every other field keeps ExperimentConfig's default.
    given = {name: value for name, value in vars(args).items()
             if name not in ("command", "run", "experiment", "out", "format")}
    if "size" in given:
        given["sizes"] = tuple(given.pop("size"))
    report = args.experiment(ExperimentConfig(**given))
    if args.out:
        report.write(args.out, args.format)
        print(json.dumps({"out": args.out, "aggregates": report.aggregates}))
    else:
        print(json.dumps({"aggregates": report.aggregates}, indent=1))
    return EXIT_OK if report.records else EXIT_EMPTY


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="nashdescent", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="print the worst-case bound constants")
    c.set_defaults(run=cmd_constants)

    g = sub.add_parser("generate", help="generate worst-case instances")
    g.set_defaults(run=cmd_generate)
    unset = argparse.SUPPRESS  # see SAMPLING_DEFAULTS
    g.add_argument("--size", type=_parse_size, default=unset)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--restriction", choices=RESTRICTIONS, default=unset)
    g.add_argument("--seed", type=int, default=unset)
    g.add_argument("--out", default=".")
    g.add_argument("--max-attempts", type=int, default=unset)
    g.add_argument("--lambda-intersect", action="store_true", default=unset,
                   help="also make k best-respond to y*, and certify the whole square")
    g.add_argument("--mixed-duals", action="store_true", default=unset)
    g.add_argument("--static", default=None,
                   help="write a named instance instead of sampling")

    s = sub.add_parser("solve", help="solve one game")
    s.set_defaults(run=cmd_solve)
    s.add_argument("game")
    s.add_argument("--algorithm", default="ts", choices=ALGORITHMS)
    s.add_argument("--delta", type=float, default=1e-3)
    s.add_argument("--rounds", type=int, default=10_000)
    s.add_argument("--init", default="uniform")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--normalize", action="store_true",
                   help="affinely rescale out-of-range payoff matrices on load")

    v = sub.add_parser("verify", help="verify a worst-case certificate")
    v.set_defaults(run=cmd_verify)
    v.add_argument("game")
    v.add_argument("--cert", default=None)
    v.add_argument("--full-square", action="store_true",
                   help="also check f >= b - tol on the whole adjustment square, not "
                        "only on its boundary; both checks are exact")

    # Each experiment binds only the flags it reads; a flag left out keeps
    # ExperimentConfig's default, so that default is the only one.
    experiments = {"exp-stability": exp_stability, "exp-otb": exp_outside_ball,
                   "exp-success": exp_success_rate, "exp-compare": exp_compare}
    for name, experiment in experiments.items():
        e = sub.add_parser(name, help=f"run the {name[4:]} experiment",
                           argument_default=argparse.SUPPRESS)
        e.set_defaults(run=cmd_experiment, experiment=experiment)
        e.add_argument("--size", type=_parse_size, nargs="+")
        e.add_argument("--seed", type=int)
        e.add_argument("--lambda-intersect", action="store_true")
        e.add_argument("--out", default=None)
        e.add_argument("--format", default="json", choices=("json", "csv"))
        if name == "exp-success":
            e.add_argument("--trials", type=int)
            continue
        e.add_argument("--count", type=int)
        e.add_argument("--delta", type=float)
        e.add_argument("--restriction", choices=RESTRICTIONS)
        e.add_argument("--workers", type=int)
        e.add_argument("--mixed-duals", dest="pure_duals", action="store_false")
        if name == "exp-compare":
            e.add_argument("--points", type=int)
            e.add_argument("--rounds", type=int)
        else:
            e.add_argument("--samples", type=int)
            e.add_argument("--radius", type=float)

    args = top.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, json.JSONDecodeError, GameError, ValueError, SamplingError) as err:
        # A sampler that gave up is an empty result.
        print(f"error: {err}", file=sys.stderr)
        return EXIT_EMPTY if isinstance(err, SamplingError) else EXIT_IO
    except (LpNumericalError, DescentBudgetError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
