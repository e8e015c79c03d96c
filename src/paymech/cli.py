"""Command line front end.

Exit codes: 0 success (including a passing verify and a bound report),
1 negative result (infeasible synthesis, failed verify, target not
implementable), 2 bad input or usage, 3 numerical failure or out of
memory.  Bad input is a malformed document, flag value or seed, a file
that cannot be read, an unbounded program, or a document nested more
than READ_DEPTH_CAP levels deep; it writes one line to stderr and
nothing to stdout.  A GAME or SCHEME argument of "-" reads from stdin.

Each command returns its exit code, its answer document and a stderr
note, and writes nothing: once it completes, `dispatch` writes the
document to -o or stdout, then the note, so a failing command leaves
only its error line.  `dispatch` writes everything, argparse's help and
usage errors too, to the streams it is given.

Each command runs with the cyclic garbage collector paused, and the
caller's setting is restored on every exit path.  A command builds large
graphs without reference cycles (parsed JSON, tree nodes, constraint
arrays), so its memory is freed by reference counting alone, and each
collection the allocations would trigger only rescans the live documents
to find nothing: the tests check that no command leaves cyclic garbage.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

import numpy as np

from . import jsonio
from .bounds import deposit_lower_bound
from .case_studies import (
    COMMERCE_ALPHABET,
    CommerceParams,
    PvcParams,
    build_commerce,
    build_pvc,
    pvc_alphabet,
)
from .errors import (
    Error,
    Infeasible,
    NoConstraints,
    NumericalBreakdown,
    TargetNotImplementable,
    Unbounded,
    ValidationError,
)
from .escrow import monte_carlo
from .game_core import backward_induction, expected_utilities
from .info_structure import scheme_for_target
from .reductions import AlaSpec, ala_scheme, lp_to_game
from .security import SecurityParams, verify
from .synthesis import (
    HONEST_EXPECTED,
    HONEST_PER_LEAF,
    OBJ_MINMAX,
    OBJ_WEIGHTED,
    SynthesisOptions,
    synthesize,
)


# json.loads recurses once per nesting level, so the recursion limit is
# set to this for that call alone.  With an 8 MB stack (Python 3.11),
# 60 000 nested objects loaded in a subprocess and 80 000 crashed it; a
# game chain takes about three levels per move.
READ_DEPTH_CAP = 20_000


def _read_doc(path: str, stdin):
    try:
        if path == "-":
            text = stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise ValidationError(
            f"{name} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(READ_DEPTH_CAP)
    try:
        return json.loads(text)
    finally:
        sys.setrecursionlimit(limit)


def _write_doc(doc, out_path, stdout) -> None:
    text = jsonio.dumps_canonical(doc) + "\n"
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _security_params(args) -> SecurityParams:
    return SecurityParams(delta=args.delta, t=args.t)


def _game_and_scheme(args, stdin):
    game = jsonio.parse_game_doc(_read_doc(args.game, stdin))
    alphabet, scheme = jsonio.parse_scheme_doc(_read_doc(args.scheme, stdin))
    if alphabet != game.info.alphabet:
        raise ValidationError("scheme and game alphabets differ")
    return game, scheme


def _cmd_synth(args, stdin):
    game = jsonio.parse_game_doc(_read_doc(args.game, stdin))
    opts = SynthesisOptions(
        objective=OBJ_WEIGHTED if args.objective == "cost" else OBJ_MINMAX,
        zero_inflation=args.zero_inflation,
        honest_invariance=args.honest_invariant,
        honest_form=args.honest_form,
    )
    # infinite cost entries pin scheme entries to zero, so the matrix
    # matters under either objective when the document carries one
    cost = game.costs
    if args.objective == "cost" and cost is None:
        raise ValidationError("--objective cost needs a 'costs' entry in the game document")
    try:
        scheme = synthesize(game.tree, game.info, game.profile,
                            _security_params(args), cost=cost, opts=opts)
    except Infeasible as exc:
        return 1, {"status": "infeasible", "reason": str(exc)}, f"infeasible: {exc}\n"
    return 0, jsonio.scheme_to_doc(game.info.alphabet, scheme), ""


def _cmd_verify(args, stdin):
    game, scheme = _game_and_scheme(args, stdin)
    report = verify(game.tree, game.info, scheme, game.profile, _security_params(args))
    doc = {
        "passed": report.passed,
        "delta": args.delta,
        "t": args.t,
        "num_constraints": int(report.slacks.size),
        "num_violations": len(report.violations),
        "min_slack": report.min_slack,
        "violations": [
            {
                "subgame": row.subgame,
                "coalition": list(row.coalition),
                "deviator": row.deviator,
                "leaf": row.leaf,
                "slack": slack,
            }
            for row, slack in report.violations
        ],
    }
    return (0 if report.passed else 1), doc, ""


def _cmd_implement(args, stdin):
    game = jsonio.parse_game_doc(_read_doc(args.game, stdin))
    target_doc = _read_doc(args.target, stdin)
    if not isinstance(target_doc, dict) or "target_e" not in target_doc:
        raise ValidationError("target document must contain 'target_e'")
    u = game.tree.u
    target = jsonio.read_array(target_doc["target_e"], "target_e", u.shape)
    try:
        scheme = scheme_for_target(u, target, game.info)
    except TargetNotImplementable as exc:
        doc = {"status": "not_implementable", "worst_residual": exc.worst_residual}
        return 1, doc, f"not implementable: {exc}\n"
    return 0, jsonio.scheme_to_doc(game.info.alphabet, scheme), ""


def _cmd_bound(args, stdin):
    game = jsonio.parse_game_doc(_read_doc(args.game, stdin))
    doc = {"delta": args.delta, "t": args.t}
    try:
        report = deposit_lower_bound(game.tree, game.info, game.profile, _security_params(args))
    except NoConstraints as exc:
        doc.update(optimistic_bound=None, conservative_bound=None,
                   delta_g=exc.min_max_deposit, alpha=0,
                   note="no deviation constraints at these parameters")
        return 0, doc, ""
    doc.update(optimistic_bound=report.optimistic_bound,
               conservative_bound=report.conservative_bound, delta_g=report.delta_g,
               n=report.n, num_symbols=report.num_symbols, alpha=report.alpha,
               au_norm=report.au_norm)
    return 0, doc, ""


def _cmd_spe(args, stdin):
    game = jsonio.parse_game_doc(_read_doc(args.game, stdin))
    profile = backward_induction(game.tree)
    values = expected_utilities(game.tree, profile)
    doc = {
        "profile": profile,
        "utilities": values.tolist(),
        "players": list(game.tree.players),
        "matches_intended": profile == game.profile,
    }
    return 0, doc, ""


def _cmd_simulate(args, stdin):
    game, scheme = _game_and_scheme(args, stdin)
    profile = game.profile
    if args.profile is not None:
        profile = jsonio.read_profile(_read_doc(args.profile, stdin), "profile document")
    result = monte_carlo(game.tree, game.info, scheme, profile, args.trials, args.seed)
    doc = {
        "trials": result.trials,
        "seed": result.seed,
        "players": list(game.tree.players),
        "alphabet": list(game.info.alphabet),
        "mean_utilities": result.mean_utilities.tolist(),
        "std_errors": result.std_errors.tolist(),
        "symbol_frequencies": result.symbol_frequencies.tolist(),
        "mean_net_losses": result.mean_net_losses.tolist(),
    }
    return 0, doc, ""


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{flag} expects finite numbers, got {text!r}")
    return values


def _parse_json_array(text: str, flag: str, shape):
    try:
        return jsonio.read_array(json.loads(text), flag, shape)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{flag} expects a JSON array: {exc}")


def _cmd_gen(args, stdin):
    note = ""
    if args.kind == "commerce":
        y = args.y if args.y is not None else 1.5 * args.x
        inst = build_commerce(CommerceParams(x=args.x, x_prime=args.x_prime, y=y, eps=args.eps))
        doc = jsonio.game_to_doc(inst.tree, COMMERCE_ALPHABET, inst.profile)
    elif args.kind == "pvc":
        u_plus = _parse_float_list(args.u_plus, "--u-plus")
        params = PvcParams(n=args.n, eps=args.eps,
                           u_plus=u_plus[0] if len(u_plus) == 1 else tuple(u_plus),
                           u_minus=args.u_minus, delta=args.delta)
        inst = build_pvc(params, collapse=not args.uncollapsed)
        doc = jsonio.game_to_doc(inst.tree, pvc_alphabet(params.n), inst.profile)
        # adding 0.0 turns a threshold of -0.0 into 0.0, as the document writer does
        note = (f"self-contained: {inst.self_contained} "
                f"(needs delta >= {inst.self_containment_threshold + 0.0:.6g}, "
                f"conservative threshold {inst.conservative_threshold + 0.0:.6g})\n")
    elif args.kind == "from-lp":
        a = _parse_json_array(args.a, "--a", (None, None))
        b = _parse_json_array(args.b, "--b", (None,))
        c = _parse_json_array(args.c, "--c", (None,))
        inst = lp_to_game(a, b, c)
        doc = jsonio.game_to_doc(inst.tree, inst.info.alphabet, inst.profile, costs=inst.costs)
    else:  # ala
        damages = _parse_float_list(args.damages, "--damages")
        alphabet, scheme = ala_scheme(AlaSpec(tuple(damages)))
        doc = jsonio.scheme_to_doc(alphabet, scheme)
    return 0, doc, note


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default=None, help="write the JSON result here instead of stdout")


def _add_security(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, required=True, help="required utility margin")
    p.add_argument("--t", type=int, default=1, help="maximum coalition size (default 1)")


class _ParserExit(Exception):
    """What argparse would print before exiting, and its exit status:
    0 for help (stdout), 2 for a usage error (stderr)."""

    def __init__(self, status: int, text: str):
        super().__init__(text)
        self.status, self.text = status, text


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises what it would print, so that
    `dispatch` writes it to its own streams; subparsers share the class."""

    def print_help(self, file=None):
        raise _ParserExit(0, self.format_help())

    def error(self, message):
        raise _ParserExit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paymech",
        description="Synthesize, verify, and simulate escrow payment schemes for game documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="solve for a payment scheme securing the intended profile")
    p.add_argument("game", help="game document path, or - for stdin")
    _add_security(p)
    p.add_argument("--objective", choices=["minmax", "cost"], default="minmax",
                   help="minimize the largest deposit, or the cost-weighted total")
    p.add_argument("--zero-inflation", action="store_true",
                   help="force every symbol's payments to sum to zero")
    p.add_argument("--honest-invariant", action="store_true",
                   help="forbid expected payments on the intended path")
    p.add_argument("--honest-form", choices=[HONEST_PER_LEAF, HONEST_EXPECTED],
                   default=HONEST_PER_LEAF,
                   help="honest invariance per support leaf, or in expectation")
    _add_output(p)

    p = sub.add_parser("verify", help="check a scheme against the deviation constraints")
    p.add_argument("game")
    p.add_argument("scheme", help="scheme document path, or - for stdin")
    _add_security(p)
    _add_output(p)

    p = sub.add_parser("implement", help="solve for a scheme hitting target utilities exactly")
    p.add_argument("game")
    p.add_argument("--target", required=True,
                   help="JSON file with a 'target_e' matrix (players x leaves)")
    _add_output(p)

    p = sub.add_parser("bound", help="report deposit lower bounds for the game")
    p.add_argument("game")
    _add_security(p)
    _add_output(p)

    p = sub.add_parser("spe", help="backward-induction profile of the raw game")
    p.add_argument("game")
    _add_output(p)

    p = sub.add_parser("simulate", help="Monte Carlo episodes of the escrow loop")
    p.add_argument("game")
    p.add_argument("scheme")
    p.add_argument("--profile", default=None, help="override the intended profile with this JSON map")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_output(p)

    p = sub.add_parser("gen", help="generate built-in games and schemes")
    gen_sub = p.add_subparsers(dest="kind", required=True)

    g = gen_sub.add_parser("commerce", help="two-party trade game with noisy receipts")
    g.add_argument("--x", type=float, required=True, help="price paid by the buyer")
    g.add_argument("--xprime", type=float, required=True, dest="x_prime",
                   help="seller's cost of the item")
    g.add_argument("--y", type=float, default=None, help="buyer's value of the item (default 1.5x)")
    g.add_argument("--eps", type=float, required=True, help="receipt noise level, in (0, 1/2)")
    _add_output(g)

    g = gen_sub.add_parser("pvc", help="n-party sequential computation with cheating lotteries")
    g.add_argument("--n", type=int, required=True,
                   help=f"number of parties, 2 to {PvcParams.MAX_N}")
    g.add_argument("--eps", type=float, required=True, help="probability a cheat is caught")
    g.add_argument("--u-plus", required=True,
                   help="cheat payoff(s) > 1, single number or comma-separated per player")
    g.add_argument("--u-minus", type=float, required=True, help="victim payoff, < 0")
    g.add_argument("--delta", type=float, required=True, help="required margin, >= 0")
    g.add_argument("--uncollapsed", action="store_true",
                   help="keep the explicit catch lottery as a chance node")
    _add_output(g)

    g = gen_sub.add_parser("from-lp", help="three-player game encoding a linear program")
    g.add_argument("--a", required=True, help="JSON rows of the constraint matrix (nonnegative)")
    g.add_argument("--b", required=True, help="JSON right-hand side")
    g.add_argument("--c", required=True, help="JSON objective vector")
    _add_output(g)

    g = gen_sub.add_parser("ala", help="blame-symbol scheme charging listed damages")
    g.add_argument("--damages", required=True, help="comma-separated damage per player")
    _add_output(g)

    return parser


def dispatch(argv=None, stdout=None, stderr=None, stdin=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    try:
        args = build_parser().parse_args(argv)
    except _ParserExit as exc:
        (stdout if exc.status == 0 else stderr).write(exc.text)
        return exc.status
    commands = {"synth": _cmd_synth, "verify": _cmd_verify, "implement": _cmd_implement,
                "bound": _cmd_bound, "spe": _cmd_spe, "simulate": _cmd_simulate, "gen": _cmd_gen}
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        # an overflow or underflow warning would add lines to stderr; every
        # result is range-checked where it is built or written instead
        with np.errstate(all="ignore"):
            code, doc, note = commands[args.command](args, stdin)
            _write_doc(doc, args.output, stdout)
        stderr.write(note)
        return code
    except NumericalBreakdown as exc:
        stderr.write(f"numerical failure: {exc}\n")
        return 3
    except Unbounded as exc:
        stderr.write(f"unbounded program: {exc}\n")
        return 2
    except (Error, json.JSONDecodeError, OSError) as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except RecursionError:
        stderr.write("error: document nests too deeply\n")
        return 2
    except MemoryError:
        stderr.write("error: out of memory\n")
        return 3
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
