"""Command-line entry point.

One executable, eight subcommands, all deterministic: the same flags and
input files produce byte-identical output files. Static artifacts are JSON
with sorted keys; duel and builder traces are JSONL, one record per line.

Exit codes: 0 success, 1 domain error (a precondition or invariant failed;
a machine-readable error object goes to stderr), 2 malformed input or bad
usage, including a wire object of a type its input slot does not take.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys

from . import bits
from .blocktest import TestArray, build_parity_test, packing_certificate
from .builder import run_stage_machine
from .decompose import BlockSpec, block_decompose, parity_factorize
from .diagonal import IntStrategy, diagonalize, unit_bet_alternating, unit_bet_on_one
from .dimension import empirical_dim_bound, validate_s_test
from .errors import BettingLabError, PreconditionError
from .oracles import (
    all_in_growth_fixture,
    floor_parity_grid,
    growth_random,
    minimality_grid,
    two_round_grid,
    two_round_random,
)
from .programs import BetProgram, Component, StageApprox, at_stage
from .serialize import (
    WireError,
    dumps,
    from_jsonable,
    load_json,
    parse_frac,
    to_jsonable,
    trace_lines,
)
from .strategy import Kind, Parity, StrategyTable, validate

_STRATEGIES = (StrategyTable, BetProgram, StageApprox)


def _decode(raw, slot: str, *types):
    """The wire object in raw, which must be of one of the types the input
    slot takes; anything else is malformed input, named by its slot."""
    try:
        obj = from_jsonable(raw)
    except WireError as exc:
        raise WireError(f"{slot}: {exc}") from exc
    if not isinstance(obj, types):
        raise WireError(f"{slot} does not take a {raw['type']} object")
    return obj


def _write(texts, out: str | None) -> None:
    """Write each text in turn to stdout, or atomically to the file out:
    the texts go to a sibling temp file that then replaces out in one
    step, so out never holds a partial payload."""
    if out is None:
        sys.stdout.writelines(texts)
        return
    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
        os.replace(tmp, out)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    _write((text,), out)


def _emit_lines(lines, out: str | None) -> None:
    """Write lines one by one, each with its newline, never joined."""
    _write((f"{line}\n" for line in lines), out)


def _line(payload) -> str:
    return json.dumps(to_jsonable(payload), sort_keys=True)


# validate builds 2^(depth+1) states of a program or mixture
_MAX_DEPTH = 20
# dimhalf's ledger weighs a request of length L as 2^-L; at n = 6 the
# longest request is 30303, so the Kraft weight's denominator has 9123
# digits, past Python's 4300-digit limit on writing an int as a string
# (n = 5: 6240, 1879 digits)
_MAX_NMAX = 5
# dimhalf's time is linear in --stages: 10^5 stages took 0.5-0.9 s
_MAX_STAGES = 10**5
# diagonalize keeps a record of every bit it emits and writes about 86
# bytes for it with six adversaries: this caps --target and the
# 2*b*(2^k - 1) bits that --dim0-blocks b interpolates in settle mode for
# k adversaries (at the cap: 86 MB written, 85 MB peak memory)
_MAX_BITS = 10**6
# either mode emits more bits than --target the richer the adversaries
# are; this caps --max-bits and every run: a target at the cap plus a
# tenth for the bits the adversaries force (at 1.1 * 10^6 bits whose
# adversary capitals moved at every bit: 135 MB peak memory)
_MAX_TRACE_BITS = _MAX_BITS + _MAX_BITS // 10
# paritytest repeats the path in each level report and keeps the walk of
# every prefix read: depth 1000 took 3.5 s and 80 MB and wrote 15 MB.
# stest, whose level k compares with 2^-k, reads no deeper array: its time
# grows with the square of the level count (10^5 empty levels: 17.6 s)
_MAX_TEST_DEPTH = 1000
# dim reads the strategy at every prefix of --x, and the exact capitals
# grow with the length: a 2000-bit x takes seconds, 5000 bits a minute
_MAX_X_BITS = 2000
# verify --lemma growth keeps the floors of --n // 20 pairs: 10^4 took 6-9 s, 103 MB
_MAX_N = 10_000


def _cmd_validate(args) -> int:
    if args.depth > _MAX_DEPTH:
        raise PreconditionError(f"--depth {args.depth} is above {_MAX_DEPTH}")
    obj = _decode(load_json(args.path), "--in", *_STRATEGIES)
    table = at_stage(obj, args.stage).to_table(args.depth)
    payload = to_jsonable(validate(table))
    payload["depth"] = table.depth
    _emit(dumps(payload), args.out)
    return 0


def _cmd_decompose(args) -> int:
    m = _decode(load_json(args.path), "--in", StrategyTable)
    if args.mode == "parity":
        odd_factor, even_factor = parity_factorize(m)
        payload = {
            "mode": "parity",
            "root": m.value(bits.EMPTY),
            "odd_factor": odd_factor,
            "even_factor": even_factor,
        }
        _emit(dumps(payload), args.out)
        return 0
    if args.second is None or args.spec is None:
        raise WireError("block mode needs --second and --spec")
    n = _decode(load_json(args.second), "--second", StrategyTable)
    spec = _decode(load_json(args.spec), "--spec", BlockSpec)
    m_core, m_rest, n_core, n_rest = block_decompose(m, n, spec)
    payload = {
        "mode": "block",
        "m_core": m_core,
        "m_rest": m_rest,
        "n_core": n_core,
        "n_rest": n_rest,
    }
    _emit(dumps(payload), args.out)
    return 0


def _cmd_paritytest(args) -> int:
    if args.depth > _MAX_TEST_DEPTH:
        raise PreconditionError(f"--depth {args.depth} is above {_MAX_TEST_DEPTH}")
    raw = load_json(args.mixture)
    if not isinstance(raw, dict) or "odd" not in raw or "even" not in raw:
        raise WireError('mixture file must be an object with "odd" and "even"')
    m = _decode(raw["odd"], '"odd"', StageApprox)
    n = _decode(raw["even"], '"even"', StageApprox)
    result = build_parity_test(m, n, args.depth, args.stages)
    cert, growth = packing_certificate(result.array)
    report = empirical_dim_bound(cert, result.path)
    payload = to_jsonable(result)
    payload["certificate"] = {"growth": growth, "dim_report": report}
    _emit(dumps(payload), args.out)
    return 0


def _cmd_diagonalize(args) -> int:
    if args.target > _MAX_BITS:
        raise PreconditionError(f"--target {args.target} is above {_MAX_BITS}")
    if args.max_bits is not None and args.max_bits > _MAX_TRACE_BITS:
        raise PreconditionError(f"--max-bits {args.max_bits} is above {_MAX_TRACE_BITS}")
    raw = load_json(args.adversaries)
    if not isinstance(raw, list):
        raise WireError("adversaries file must hold a JSON list")
    k = len(raw)
    if args.dim0 and args.mode == "settle" and 2 * args.dim0_blocks * (2**k - 1) > _MAX_BITS:
        raise PreconditionError(
            f"--dim0-blocks {args.dim0_blocks} with {k} adversaries "
            f"interpolates more than {_MAX_BITS} bits"
        )
    adversaries = [_decode(entry, "--adversaries", IntStrategy) for entry in raw]
    engine = unit_bet_on_one() if args.engine == "N" else unit_bet_alternating()
    blocks = args.dim0_blocks if args.dim0 else None
    trace = diagonalize(
        adversaries,
        engine,
        args.target,
        mode=args.mode,
        dim0_blocks=blocks,
        max_bits=_MAX_TRACE_BITS if args.max_bits is None else args.max_bits,
    )
    _emit_lines(trace_lines(trace), args.out)
    return 0


def _cmd_stest(args) -> int:
    array = _decode(load_json(args.test_path), "--validate", TestArray)
    if array.depth() > _MAX_TEST_DEPTH:
        raise PreconditionError(f"--validate depth {array.depth()} is above {_MAX_TEST_DEPTH}")
    s = parse_frac(args.s)
    verdicts = validate_s_test(array, s)
    payload = {
        "s": s,
        "levels": verdicts,
        "ok": all(v.strict for v in verdicts),
    }
    _emit(dumps(payload), args.out)
    return 0


def _cmd_dim(args) -> int:
    strategy = _decode(load_json(args.strategy), "--strategy", *_STRATEGIES)
    # a byte that is not UTF-8 reads as U+FFFD, which the bit check refuses
    with open(args.x, "r", encoding="utf-8", errors="replace") as fh:
        x = "".join(fh.read().split())
    if not x or any(c not in "01" for c in x):
        raise WireError("--x must hold a nonempty string of 0/1 bits")
    if len(x) > _MAX_X_BITS:
        raise PreconditionError(f"--x holds {len(x)} bits, above {_MAX_X_BITS}")
    report = empirical_dim_bound(
        strategy, x, stage=args.stage, precision=args.precision
    )
    _emit(dumps(report), args.out)
    return 0


def _cmd_dimhalf(args) -> int:
    if args.nmax > _MAX_NMAX:
        raise PreconditionError(f"--nmax {args.nmax} is above {_MAX_NMAX}")
    if args.stages > _MAX_STAGES:
        raise PreconditionError(f"--stages {args.stages} is above {_MAX_STAGES}")
    components = []
    if args.components is not None:
        raw = load_json(args.components)
        if not isinstance(raw, list):
            raise WireError("components file must hold a JSON list")
        try:
            components = [from_jsonable(c, Component) for c in raw]
        except WireError as exc:
            raise WireError(f"--components: {exc}") from exc
    by_parity = {Parity.BETS_ON_ODD: [], Parity.BETS_ON_EVEN: []}
    for c in components:
        if c.program.parity not in by_parity:
            raise WireError("--components: every builder component needs a single-parity program")
        by_parity[c.program.parity].append(c)
    n_approx, t_approx = (
        StageApprox(tuple(parts), Kind.of_sum(c.program.kind for c in parts), parity)
        for parity, parts in by_parity.items()  # odd, then even
    )
    state, prefix, ledger = run_stage_machine(n_approx, t_approx, args.stages, args.nmax)
    _emit(dumps({"state": state, "ledger": ledger, "prefix": prefix}), args.out)
    if args.out is None:
        return 0
    base = args.out[:-5] if args.out.endswith(".json") else args.out
    lines = [_line({"type": "builder_header", "stages": args.stages, "nmax": args.nmax})]
    lines.extend(_line(ev) for ev in state.events)
    lines.append(
        _line({"type": "summary", "prefix": prefix, "kraft_weight": ledger.kraft_weight()})
    )
    _emit_lines(lines, base + ".trace.jsonl")
    _emit(prefix + "\n", base + ".prefix.txt")
    return 0


_LEMMAS = ("two-round", "minimality", "floor-parity", "growth")


def _cmd_verify(args) -> int:
    if not 1 <= args.n <= _MAX_N:
        raise PreconditionError(f"--n {args.n} is outside 1..{_MAX_N}")
    rng = random.Random(args.seed)
    reports = []
    if args.lemma == "two-round":
        reports.append(two_round_random(rng, count=args.n))
        reports.append(two_round_grid())
    elif args.lemma == "minimality":
        reports.append(minimality_grid())
    elif args.lemma == "floor-parity":
        reports.append(floor_parity_grid())
    else:
        reports.append(growth_random(rng, count=args.n))
        reports.append(all_in_growth_fixture())
    payload = {
        "lemma": args.lemma,
        "seed": args.seed,
        "reports": reports,
        "passed": all(r.passed for r in reports),
    }
    _emit(dumps(payload), args.out)
    return 0 if payload["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritybet",
        description="exact-rational betting strategies with parity restrictions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="diagnose a strategy artifact")
    p.add_argument("-i", "--in", dest="path", required=True)
    p.add_argument("--depth", type=int, default=8, help="table depth for programs")
    p.add_argument("--stage", type=int, default=None, help="mixture stage to evaluate")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("decompose", help="factor a martingale")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--mode", choices=("parity", "block"), required=True)
    p.add_argument("--second", default=None, help="first-bit bettor (block mode)")
    p.add_argument("--spec", default=None, help="block targets (block mode)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("paritytest", help="build the nested at-most-three test")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--stages", type=int, default=256, help="stage budget (default 256)")
    p.add_argument("--mixture", required=True, help='JSON {"odd": ..., "even": ...}')
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_paritytest)

    p = sub.add_parser("diagonalize", help="integer duel trace")
    p.add_argument("--engine", choices=("N", "D"), required=True)
    p.add_argument("--adversaries", required=True)
    p.add_argument("--mode", choices=("greedy", "settle"), default="greedy")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--dim0", action="store_true", help="interpolate 01 blocks")
    p.add_argument("--dim0-blocks", type=int, default=8, help="base block pair count")
    p.add_argument("--max-bits", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_diagonalize)

    p = sub.add_parser("stest", help="check the per-level weight bounds")
    p.add_argument("--validate", dest="test_path", required=True)
    p.add_argument("--s", required=True, help="scale, e.g. 1/2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stest)

    p = sub.add_parser("dim", help="growth-exponent report along a sequence")
    p.add_argument("--strategy", required=True)
    p.add_argument("--x", required=True, help="text file of bits")
    p.add_argument("--stage", type=int, default=None)
    p.add_argument("--precision", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("dimhalf", help="run the stage machine")
    p.add_argument("--components", default=None, help="JSON list of components")
    p.add_argument("--stages", type=int, default=1000, help="stage budget (default 1000)")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out", default=None, help="run summary; siblings get .trace.jsonl/.prefix.txt")
    p.set_defaults(func=_cmd_dimhalf)

    p = sub.add_parser("verify", help="run an oracle suite")
    p.add_argument("--lemma", choices=_LEMMAS, required=True)
    p.add_argument("--n", type=int, default=1000, help="randomized instance count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # validate's and dim's --stage: no component activates below 0
        if (getattr(args, "stage", None) or 0) < 0:
            raise PreconditionError(f"--stage {args.stage} is negative")
        return args.func(args)
    except (WireError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        sys.stderr.write(dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    except BettingLabError as exc:
        sys.stderr.write(dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
