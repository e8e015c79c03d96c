"""The benchmark's three workloads: instances, calls and answer checks.

`build(name, seed, workdir, dispatch, tiny)` generates a workload's
documents into `workdir` and returns its `Plan`: the command-line calls
of one pass, in order, and the known-failure probes.  Every call is
`paymech` argv exactly as a user would type it; the only inputs are
the documents written here.

Each call carries a check that compares its answer with a reference
computed without the package (`oracle`), so a wrong answer counts as
a failed call.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen
import oracle

REL = 1e-9  # printed floats carry 12 significant digits
LP_REL = 1e-6  # the package's simplex against the reference LP solver


@dataclass
class Call:
    label: str
    argv: list[str]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> problem or None
    save: str | None = None  # stdout is written here for a later call to read
    trials: int = 0  # simulated episodes

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Probe:
    """A call that fails today, run outside the timed passes and reported."""

    call: Call
    known: str


@dataclass
class Plan:
    calls: list[Call] = field(default_factory=list)
    probes: list[Probe] = field(default_factory=list)
    instances: list[tuple[str, str]] = field(default_factory=list)  # (name, why)
    notes: list[str] = field(default_factory=list)  # reference answers, filled by the checks


def _seed(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *path])


def _floats(values) -> list[float]:
    return [math.inf if v == "inf" else float(v) for v in values]


# -- checks ------------------------------------------------------------------

def _parse(code: int, text: str, want_code: int | None = None):
    if want_code is not None and code != want_code:
        raise ValueError(f"exit {code}, expected {want_code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"stdout is not JSON: {exc}") from None


def _checked(fn):
    """Turn a check that raises ValueError into one that returns the problem."""

    def check(code, text):
        try:
            return fn(code, text)
        except ValueError as exc:
            return str(exc)
        except (KeyError, TypeError, IndexError) as exc:
            return f"malformed document: {type(exc).__name__} {exc}"

    return check


def _reference_note(lp) -> str:
    return "infeasible" if lp[0] == "infeasible" else f"optimum {lp[1]:.12g}"


def _scheme_check(tree, delta, t, note, costs=None, minmax=True):
    def check(code, text):
        lp = oracle.lp_answer(tree, delta, t, costs, minmax)
        note(f"reference program {_reference_note(lp)}")
        if code == 1:
            doc = _parse(code, text)
            if doc.get("status") != "infeasible":
                raise ValueError("exit 1 without status 'infeasible'")
            if lp[0] != "infeasible":
                raise ValueError(f"reported infeasible, reference optimum {lp[1]:.12g}")
            return None
        doc = _parse(code, text, 0)
        lam = np.array(doc["lambda"], dtype=np.float64)
        if lam.shape != (tree.n, len(tree.alphabet)) or doc["alphabet"] != list(tree.alphabet):
            raise ValueError(f"scheme shape {lam.shape} or alphabet is wrong")
        if doc["max_deposits"] != [max(row) for row in doc["lambda"]]:
            raise ValueError("max_deposits are not the row maxima of lambda")
        answer = oracle.verify_answer(tree, lam, tree.intended, delta, t)
        slack_tol = 1e-7 * (1.0 + answer["scale"])
        if answer["min_slack"] is not None and answer["min_slack"] < -slack_tol:
            raise ValueError(f"scheme misses a constraint by {-answer['min_slack']:.3e}")
        if (lam.sum(axis=0) < -slack_tol).any():
            raise ValueError("scheme is not self-contained")
        if lp[0] != "optimal":
            raise ValueError("returned a scheme, reference program is infeasible")
        if costs is None or minmax:
            value = lam.max()
        else:
            value = float(np.where(np.isinf(costs), 0.0, costs).ravel() @ lam.ravel())
        if not oracle.close(value, lp[1], abs(lp[1]), LP_REL):
            raise ValueError(f"objective {value:.12g}, reference optimum {lp[1]:.12g}")
        return None

    return _checked(check)


def _verify_check(tree, scheme_path, delta, t):
    def check(code, text):
        with open(scheme_path, encoding="utf-8") as fh:
            lam = np.array(json.load(fh)["lambda"], dtype=np.float64)
        want = oracle.verify_answer(tree, lam, tree.intended, delta, t)
        doc = _parse(code, text, 0 if want["passed"] else 1)
        for key in ("passed", "num_constraints", "num_violations"):
            if doc[key] != want[key]:
                raise ValueError(f"{key} {doc[key]!r}, expected {want[key]!r}")
        scale = want["scale"]
        if want["min_slack"] is not None and not oracle.close(doc["min_slack"], want["min_slack"], scale, REL):
            raise ValueError(f"min_slack {doc['min_slack']!r}, expected {want['min_slack']!r}")
        if doc["delta"] != delta or doc["t"] != t or len(doc["violations"]) != want["num_violations"]:
            raise ValueError("delta, t or the violation count is wrong")
        for got, (sub, coalition, i, j, slack) in zip(doc["violations"], want["violations"]):
            same = (got["subgame"], got["coalition"], got["deviator"], got["leaf"]) == (sub, coalition, i, j)
            if not same or not oracle.close(got["slack"], slack, scale, REL):
                raise ValueError(f"violation {got} differs from {(sub, coalition, i, j, slack)}")
        return None

    return _checked(check)


def _bound_check(tree, delta, t, note):
    def check(code, text):
        doc = _parse(code, text, 0)
        alpha = len(oracle.constraint_rows(tree, tree.intended, t))
        echo = {"alpha": alpha, "n": tree.n, "num_symbols": len(tree.alphabet), "delta": delta, "t": t}
        for key, want in echo.items():
            if doc[key] != want:
                raise ValueError(f"{key} {doc[key]!r}, expected {want!r}")
        lp = oracle.lp_answer(tree, 0.0, t)
        note(f"reference delta=0 program {_reference_note(lp)}")
        if lp[0] == "infeasible":
            if doc["delta_g"] != "inf":
                raise ValueError(f"delta_g {doc['delta_g']!r}, reference program is infeasible")
        elif not oracle.close(float(doc["delta_g"]), lp[1], abs(lp[1]), LP_REL):
            raise ValueError(f"delta_g {doc['delta_g']!r}, reference optimum {lp[1]:.12g}")
        if not doc["conservative_bound"] <= doc["optimistic_bound"] * (1 + REL):
            raise ValueError("conservative bound exceeds the optimistic one")
        return None

    return _checked(check)


def _spe_check(tree):
    def check(code, text):
        doc = _parse(code, text, 0)
        if doc["matches_intended"] is not True or doc["profile"] != tree.intended:
            raise ValueError("spe does not reproduce the backward-induction profile")
        want = oracle.expected_utilities(tree, tree.intended)
        scale = float(np.abs(want).max())
        if not all(oracle.close(a, b, scale, REL) for a, b in zip(doc["utilities"], want)):
            raise ValueError(f"utilities {doc['utilities']} differ from {want.tolist()}")
        return None

    return _checked(check)


def _mc_check(tree, lam, profile, trials, seed):
    def check(code, text):
        doc = _parse(code, text, 0)
        if doc["trials"] != trials or doc["seed"] != seed:
            raise ValueError("trials or seed not echoed")
        if abs(sum(doc["symbol_frequencies"]) - 1.0) > 1e-9:
            raise ValueError("symbol frequencies do not sum to 1")
        exact = oracle.expected_implemented(tree, lam, profile)
        scale = float(np.abs(exact).max())
        for mean, se, want in zip(doc["mean_utilities"], doc["std_errors"], exact):
            if abs(mean - want) > 4.0 * se + 1e-9 * (1.0 + scale):
                raise ValueError(f"mean {mean:.6g} is more than 4 SE ({se:.3g}) from exact {want:.6g}")
        return None

    return _checked(check)


def _implement_check(lam_want, deposits_want):
    def check(code, text):
        doc = _parse(code, text, 0)
        if not np.allclose(doc["lambda"], lam_want, atol=1e-9):
            raise ValueError(f"lambda {doc['lambda']} differs from the closed form")
        if not np.allclose(doc["max_deposits"], deposits_want, atol=1e-9):
            raise ValueError(f"deposits {doc['max_deposits']}, closed form {deposits_want}")
        return None

    return _checked(check)


# -- building ----------------------------------------------------------------

class _Builder:
    """Writes documents into the work directory and collects the plan."""

    def __init__(self, workdir, dispatch):
        self.workdir = workdir
        self.dispatch = dispatch
        self.plan = Plan()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def game(self, name: str, tree: gen.Tree, why: str) -> str:
        self.plan.instances.append((name, why))
        return self.write(f"{name}.json", gen.game_text(tree))

    def generated(self, name: str, argv: list[str], why: str):
        """A built-in game written by `paymech gen`, read back as a Tree."""
        path = self.path(f"{name}.json")
        err = io.StringIO()
        code = self.dispatch(["gen", *argv, "-o", path], stdout=io.StringIO(), stderr=err,
                             stdin=io.StringIO(""))
        if code != 0:
            raise RuntimeError(f"paymech gen {' '.join(argv)} exited {code}: {err.getvalue()}")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.plan.instances.append((name, why))
        costs = np.array([_floats(row) for row in doc["costs"]]) if "costs" in doc else None
        return path, gen.tree_from_doc(doc), costs

    def note(self, label: str):
        return lambda text: self.plan.notes.append(f"{label}: {text}")

    def add(self, label, argv, check, **kw) -> Call:
        call = Call(label, argv, check, **kw)
        self.plan.calls.append(call)
        return call

    def synth_chain(self, name, path, tree, delta, t=1, costs=None, objective="minmax",
                    verify=True, bound=True):
        """synth, then verify of its scheme, then bound: the user's pipeline.

        Leave out verify where synthesis may be infeasible; the synth
        check then confirms infeasibility against the reference solver.
        """
        flags = ["--delta", repr(delta), "--t", str(t)]
        minmax = objective == "minmax"
        scheme = self.path(f"{name}.{objective}.scheme.json")
        label = f"synth {name} {objective}"
        self.add(label, ["synth", path, *flags, "--objective", objective],
                 _scheme_check(tree, delta, t, self.note(label), costs, minmax), save=scheme)
        if verify:
            self.add(f"verify {name} {objective}", ["verify", path, scheme, *flags],
                     _verify_check(tree, scheme, delta, t))
        if bound:
            self.add(f"bound {name}", ["bound", path, *flags],
                     _bound_check(tree, delta, t, self.note(f"bound {name}")))


def _synth_ladder(b: _Builder, seed: int, tiny: bool) -> None:
    commerce_path, commerce, _ = b.generated(
        "commerce", ["commerce", "--x", "100", "--xprime", "50", "--eps", "0.1"],
        "the paper's two-party trade case study; a 3-row program solved in a few pivots")
    for delta in (100.0, 1.0):
        b.synth_chain(f"commerce-d{delta:g}", commerce_path, commerce, delta)

    pvc_path, pvc, _ = b.generated(
        "pvc-4", ["pvc", "--n", "4", "--eps", "0.5", "--u-plus", "2", "--u-minus", "-1",
                  "--delta", "1"],
        "the covert-computation case study at n=4; a square emission matrix")
    b.synth_chain("pvc-4", pvc_path, pvc, 1.0)

    rng = np.random.default_rng(_seed(seed, 1))
    a = np.round(rng.uniform(0.5, 2.0, (3, 2)), 3)
    rhs = np.round(rng.uniform(1.0, 3.0, 3), 3).tolist()
    # the payments x are free, so min c.x over A x >= b is bounded only
    # when c lies in the cone of A's rows: draw c = A^T y with y > 0
    cost = np.round(a.T @ rng.uniform(0.5, 1.5, 3), 3).tolist()
    a = a.tolist()
    gadget_path, gadget, costs = b.generated(
        "gadget", ["from-lp", "--a", json.dumps(a), "--b", json.dumps(rhs), "--c", json.dumps(cost)],
        "an LP encoded as a game; pinned payments under both objectives")
    b.synth_chain("gadget", gadget_path, gadget, 0.0, costs=costs, bound=False)
    b.synth_chain("gadget", gadget_path, gadget, 0.0, costs=costs, objective="cost")

    depths = (2, 3) if tiny else (4, 5, 6)
    for k, depth in enumerate(depths):
        # the middle tree has whole-number utilities: ties in the security
        # rows make degenerate programs, as hand-written games do
        tree = gen.balanced_tree(_seed(seed, 2, k), depth, 3, integer_utilities=k == 1)
        name = f"tree-{tree.size}"
        why = "chance-free, so feasible: phase 1, phase 2, duals and re-verify"
        if k == 1:
            why += "; whole-number utilities, so a degenerate program"
        if k == len(depths) - 1:
            why += " on the largest program of the ladder"
        path = b.game(name, tree, why)
        b.synth_chain(name, path, tree, 0.0)

    for k, depth in enumerate(depths[:2]):
        tree = gen.balanced_tree(_seed(seed, 3, k), depth, 3, chance_share=0.15)
        name = f"chance-{tree.size}"
        path = b.game(name, tree, "15% chance nodes make it infeasible on most seeds: "
                                  "the solver stops after phase 1")
        b.add(f"synth {name}", ["synth", path, "--delta", "0"],
              _scheme_check(tree, 0.0, 1, b.note(f"synth {name}")))
        b.add(f"bound {name}", ["bound", path, "--delta", "0"],
              _bound_check(tree, 0.0, 1, b.note(f"bound {name}")))

    tree = gen.balanced_tree(_seed(seed, 4), 2 if tiny else 3, 3, players=3)
    name = f"coalition-{tree.size}"
    path = b.game(name, tree, "3 players at t=2: pair deviations as well as single ones; "
                              "infeasible on most seeds")
    b.synth_chain(name, path, tree, 0.0, t=2, verify=False)

    tree = gen.balanced_tree(PROBE_341_SEED, 4, 4, symbols=8, one_hot_share=0.0,
                             random_owners=True, integer_utilities=True)
    path = b.game("probe-341", tree, "known failure: the optimal basis fails its own recheck")
    b.plan.probes.append(Probe(
        Call("synth probe-341", ["synth", path, "--delta", "0"],
             _scheme_check(tree, 0.0, 1, b.note("synth probe-341"))),
        "exit 3: optimal basis violates an inequality on recheck"))


# a 341-node tree (depth 4, width 4, 2 players, 8 symbols, Dirichlet
# emissions, whole-number utilities) on which synthesis exits 3; fixed,
# so the failure shows on every seed
PROBE_341_SEED = 11


def _analyze_wide(b: _Builder, seed: int, tiny: bool) -> None:
    for k, depth in enumerate((3, 4) if tiny else (6, 7)):
        tree = gen.balanced_tree(_seed(seed, 1, k), depth, 3)
        name = f"wide-{tree.size}"
        path = b.game(name, tree, "wide tree: constraint building over every subgame, a dense "
                                  "constraint matrix, MBs of JSON; chance-free, so every seed "
                                  "builds the same number of rows")
        lam = gen.random_scheme(tree, _seed(seed, 2, k))
        scheme = b.write(f"{name}.scheme.json", gen.scheme_text(tree.alphabet, lam))
        b.add(f"verify {name}", ["verify", path, scheme, "--delta", "0"],
              _verify_check(tree, scheme, 0.0, 1))
        b.add(f"spe {name}", ["spe", path], _spe_check(tree))

    tree = gen.balanced_tree(_seed(seed, 3), 3 if tiny else 6, 3, players=3)
    name = f"coalition-{tree.size}"
    path = b.game(name, tree, "3 players at t=2 against a fixed scheme: a long violation list")
    lam = gen.random_scheme(tree, _seed(seed, 4))
    scheme = b.write(f"{name}.scheme.json", gen.scheme_text(tree.alphabet, lam))
    b.add(f"verify {name} t2", ["verify", path, scheme, "--delta", "0", "--t", "2"],
          _verify_check(tree, scheme, 0.0, 2))

    for k, depth in enumerate((20, 60) if tiny else (100, 300)):
        tree = gen.chain(_seed(seed, 5, k), depth)
        name = f"chain-{depth}"
        path = b.game(name, tree, "deep chain: the same walkers in the narrowest shape")
        lam = gen.random_scheme(tree, _seed(seed, 6, k))
        scheme = b.write(f"{name}.scheme.json", gen.scheme_text(tree.alphabet, lam))
        b.add(f"verify {name}", ["verify", path, scheme, "--delta", "0"],
              _verify_check(tree, scheme, 0.0, 1))
        b.add(f"spe {name}", ["spe", path], _spe_check(tree))

    tree = gen.chain(_seed(seed, 7), 1500)
    path = b.game("probe-chain-1500", tree, "known failure: recursion limit on a 1500-deep chain")
    b.plan.probes.append(Probe(Call("spe probe-chain-1500", ["spe", path], _spe_check(tree)),
                               "uncaught RecursionError"))


# the commerce case study's target utilities and their closed-form scheme
COMMERCE_TARGET = [[-100, 0, -50, 50], [100, -50, -50, 50]]
COMMERCE_LAMBDA = [[0.0, -25.0, 225.0], [0.0, 56.25, -6.25]]
COMMERCE_DEPOSITS = [225.0, 56.25]


def _escrow_mc(b: _Builder, seed: int, tiny: bool) -> None:
    commerce_path, commerce, _ = b.generated(
        "commerce", ["commerce", "--x", "100", "--xprime", "50", "--eps", "0.1"],
        "tiny tree: seeding and sampling dominate each episode")
    target = b.write("commerce.target.json", json.dumps({"target_e": COMMERCE_TARGET}) + "\n")
    scheme = b.path("commerce.scheme.json")
    b.add("implement commerce", ["implement", commerce_path, "--target", target],
          _implement_check(COMMERCE_LAMBDA, COMMERCE_DEPOSITS), save=scheme)
    # the buyer rejects after the seller sent: the deviation whose exact
    # implemented utilities the closed form sets to (-50, -50)
    deviation = {"root": "send", "after_send": "reject", "after_not_send": "reject"}
    trials = 500 if tiny else 10000
    profile_path = b.write("commerce.deviation.json", gen.profile_text(deviation))
    b.add("simulate commerce deviation",
          ["simulate", commerce_path, scheme, "--profile", profile_path,
           "--trials", str(trials), "--seed", str(seed * 10)],
          _mc_check(commerce, COMMERCE_LAMBDA, deviation, trials, seed * 10), trials=trials)

    for k, (depth, trials) in enumerate(((3, 100), (4, 100)) if tiny else ((6, 3000), (7, 1000))):
        tree = gen.balanced_tree(_seed(seed, 1, k), depth, 3, chance_share=0.15)
        name = f"wide-{tree.size}"
        path = b.game(name, tree, "wide tree with chance nodes: each episode re-checks "
                                  "the whole profile before sampling a path")
        lam = gen.random_scheme(tree, _seed(seed, 2, k))
        scheme = b.write(f"{name}.scheme.json", gen.scheme_text(tree.alphabet, lam))
        deviation = gen.deviation_profile(tree, _seed(seed, 3, k))
        for j, (label, profile) in enumerate((("intended", tree.intended), ("deviation", deviation))):
            mc_seed = seed * 10 + 2 + 2 * k + j
            argv = ["simulate", path, scheme, "--trials", str(trials), "--seed", str(mc_seed)]
            if label == "deviation":
                argv += ["--profile", b.write(f"{name}.deviation.json", gen.profile_text(profile))]
            b.add(f"simulate {name} {label}", argv, _mc_check(tree, lam, profile, trials, mc_seed),
                  trials=trials)


WORKLOADS = {
    "synth-ladder": (_synth_ladder, "LP-bound: synth, verify and bound over case studies, "
                                    "the LP gadget and random trees up to 1093 nodes"),
    "analyze-wide": (_analyze_wide, "no LP: verify and spe on wide trees and deep chains, "
                                    "dominated by constraint building and tree walks"),
    "escrow-mc": (_escrow_mc, "no LP, no constraints: Monte Carlo escrow episodes, "
                              "dominated by the per-episode profile check"),
}


def build(name: str, seed: int, workdir: str, dispatch, tiny: bool = False) -> Plan:
    builder = _Builder(workdir, dispatch)
    WORKLOADS[name][0](builder, seed, tiny)
    return builder.plan
