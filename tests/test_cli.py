"""End-to-end command line behavior through dispatch()."""

import gc
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import paymech
from paymech import (
    GameTree,
    PvcParams,
    backward_induction,
    branch,
    build_pvc,
    cli,
    expected_utilities,
    jsonio,
    leaf,
)
from paymech.cli import dispatch

from .helpers import chain_tree


def run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def gen_commerce(tmp_path, name="game.json"):
    path = tmp_path / name
    code, _, _ = run(["gen", "commerce", "--x", "100", "--xprime", "50",
                      "--y", "150", "--eps", "0.1", "-o", str(path)])
    assert code == 0
    return path


def test_gen_synth_verify_pipeline(tmp_path):
    game = gen_commerce(tmp_path)
    code, out, _ = run(["synth", str(game), "--delta", "100", "--t", "1"])
    assert code == 0
    scheme_doc = json.loads(out)
    assert scheme_doc["alphabet"] == ["top", "bot_B", "bot_S"]
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(out)
    code, out, _ = run(["verify", str(game), str(scheme_path), "--delta", "100"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["num_constraints"] == 3
    assert report["violations"] == []


def test_verify_zero_scheme_flags_the_cheat(tmp_path):
    game = gen_commerce(tmp_path)
    scheme_path = tmp_path / "zero.json"
    scheme_path.write_text(json.dumps({
        "alphabet": ["top", "bot_B", "bot_S"],
        "lambda": [[0, 0, 0], [0, 0, 0]],
    }))
    code, out, _ = run(["verify", str(game), str(scheme_path), "--delta", "0"])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["min_slack"] == pytest.approx(-100.0)
    worst = min(report["violations"], key=lambda v: v["slack"])
    # the buyer (player 0) walking away with the item is the binding break
    assert worst["deviator"] == 0 and worst["leaf"] == 2
    assert worst["slack"] == pytest.approx(-100.0)


def test_spe_and_stdin_dash(tmp_path):
    game = gen_commerce(tmp_path)
    code, out, _ = run(["spe", "-"], stdin_text=game.read_text())
    assert code == 0
    doc = json.loads(out)
    assert doc["profile"]["root"] == "not_send"
    assert doc["matches_intended"] is False
    assert doc["utilities"] == [0, 0]


def test_implement_reproduces_closed_form(tmp_path):
    game = gen_commerce(tmp_path)
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps({
        "target_e": [[-100, 0, -50, 50], [100, -50, -50, 50]],
    }))
    code, out, _ = run(["implement", str(game), "--target", str(target_path)])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["lambda"], [[0, -25, 225], [0, 56.25, -6.25]], atol=1e-9)
    np.testing.assert_allclose(doc["max_deposits"], [225.0, 56.25], atol=1e-9)


def test_implement_rejects_unreachable_target(tmp_path):
    game = gen_commerce(tmp_path)
    target_path = tmp_path / "target.json"
    # leaves 0 and 3 emit identically, so their adjustments cannot differ
    target_path.write_text(json.dumps({
        "target_e": [[0, 0, 150, 50], [100, 0, -50, 50]],
    }))
    code, out, err = run(["implement", str(game), "--target", str(target_path)])
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "not_implementable"
    assert doc["worst_residual"] > 1e-8
    assert "not implementable" in err


def test_bound_report(tmp_path):
    game = gen_commerce(tmp_path)
    code, out, _ = run(["bound", str(game), "--delta", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 3 and doc["n"] == 2 and doc["num_symbols"] == 3
    assert doc["optimistic_bound"] == pytest.approx(9.858206746887657, rel=1e-10)
    assert doc["conservative_bound"] == pytest.approx(9.7403556166899, rel=1e-10)
    assert doc["delta_g"] == pytest.approx(50.0, abs=1e-7)
    assert doc["au_norm"] == pytest.approx(100.0 * np.sqrt(2.0), rel=1e-9)


def test_bound_without_constraints_reports_null_bounds():
    # one player with one move: no deviation, so no constraint and no bound
    tree = GameTree(("P",), branch("r", 0, [("only", leaf("x", (1.0,), (1.0,)))]))
    text = json.dumps(jsonio.game_to_doc(tree, ("sym",), {"r": "only"}))
    assert run(["bound", "-", "--delta", "1"], stdin_text=text) == (0, """{
  "alpha": 0,
  "conservative_bound": null,
  "delta": 1,
  "delta_g": 0,
  "note": "no deviation constraints at these parameters",
  "optimistic_bound": null,
  "t": 1
}
""", "")


def test_scheme_over_another_alphabet_exits_2(tmp_path):
    game = str(gen_commerce(tmp_path))
    scheme = tmp_path / "other.json"
    scheme.write_text(json.dumps({"alphabet": ["a", "b", "c"],
                                  "lambda": [[0, 0, 0], [0, 0, 0]]}))
    for argv in (["verify", game, str(scheme), "--delta", "0"],
                 ["simulate", game, str(scheme), "--trials", "10"]):
        assert run(argv) == (2, "", "error: scheme and game alphabets differ\n"), argv


# the deviation's path crosses no chance node, so these bytes have stayed
# the same through every change of the Monte Carlo stream
SIMULATE_DEVIATION_SEED_9 = """{
  "alphabet": ["top", "bot_B", "bot_S"],
  "mean_net_losses": [117.5, 137.5],
  "mean_utilities": [32.5, -187.5],
  "players": ["B", "S"],
  "seed": 9,
  "std_errors": [3.92232270276, 0],
  "symbol_frequencies": [0, 0.08, 0.92],
  "trials": 300
}
"""


def test_simulate_reproducible(tmp_path):
    game = gen_commerce(tmp_path)
    code, scheme_text, _ = run(["synth", str(game), "--delta", "100"])
    assert code == 0
    scheme = tmp_path / "scheme.json"
    scheme.write_text(scheme_text)
    deviation = tmp_path / "deviation.json"
    deviation.write_text(json.dumps({
        "root": "send", "after_send": "reject", "after_not_send": "reject",
    }))
    argv = ["simulate", str(game), str(scheme), "--profile", str(deviation),
            "--trials", "300", "--seed", "9"]
    code1, out1, _ = run(argv)
    code2, out2, _ = run(argv)
    assert code1 == code2 == 0
    assert out1 == out2 == SIMULATE_DEVIATION_SEED_9
    code3, out3, _ = run(argv[:-1] + ["10"])
    assert code3 == 0 and out3 != out1
    doc = json.loads(out1)
    assert doc["trials"] == 300
    assert len(doc["mean_utilities"]) == 2


def test_gen_pvc_notes_self_containment(tmp_path):
    path = tmp_path / "pvc.json"
    code, _, err = run(["gen", "pvc", "--n", "2", "--eps", "0.5", "--u-plus", "2",
                        "--u-minus", "-1", "--delta", "1", "-o", str(path)])
    assert code == 0
    assert "self-contained: True" in err
    doc = json.loads(path.read_text())
    assert doc["players"] == ["P1", "P2"]
    code, out, _ = run(["synth", str(path), "--delta", "1"])
    assert code == 0
    assert json.loads(out)["alphabet"][0] == "top"
    # both thresholds are -0.0 at n = 3; the note prints them as 0
    code, out, err = run(["gen", "pvc", "--n", "3", "--eps", "0.5", "--u-plus", "2",
                          "--u-minus", "-1", "--delta", "1"])
    assert code == 0 and json.loads(out)["players"] == ["P1", "P2", "P3"]
    assert err == "self-contained: True (needs delta >= 0, conservative threshold 0)\n"


def test_failed_write_prints_only_the_error(tmp_path):
    # the note of a command is written after its document, so a document
    # that cannot be written leaves the error line alone on stderr
    code, out, err = run(["gen", "pvc", "--n", "3", "--eps", "0.5", "--u-plus", "2",
                          "--u-minus", "-1", "--delta", "1",
                          "-o", str(tmp_path / "missing" / "x.json")])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_gen_ala():
    code, out, _ = run(["gen", "ala", "--damages", "3,1.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == [[0, 3, 0], [0, 0, 1.5]]
    assert doc["max_deposits"] == [3, 1.5]


def test_lp_gadget_lifecycle(tmp_path):
    game = tmp_path / "lpgame.json"
    code, _, _ = run(["gen", "from-lp", "--a", "[[1, 1]]", "--b", "[1]",
                      "--c", "[1, 2]", "-o", str(game)])
    assert code == 0
    assert '"inf"' in game.read_text()
    # the gadget only expresses the inequalities at zero margin
    code, out, _ = run(["synth", str(game), "--delta", "0"])
    assert code == 0
    scheme = tmp_path / "scheme.json"
    scheme.write_text(out)
    code, out, _ = run(["verify", str(game), str(scheme), "--delta", "0"])
    assert code == 0 and json.loads(out)["passed"] is True
    # any positive margin is structurally impossible
    code, out, err = run(["synth", str(game), "--delta", "5"])
    assert code == 1
    assert json.loads(out)["status"] == "infeasible"
    assert "infeasible" in err
    # minimizing c over a free feasible region dives forever
    code, _, err = run(["synth", str(game), "--delta", "0", "--objective", "cost"])
    assert code == 2
    assert "unbounded" in err


def test_synth_structure_flags(tmp_path):
    game = gen_commerce(tmp_path)
    code, out, _ = run(["synth", str(game), "--delta", "1", "--zero-inflation"])
    assert code == 0
    lam = np.asarray(json.loads(out)["lambda"])
    np.testing.assert_allclose(lam.sum(axis=0), 0.0, atol=1e-8)
    code, out, _ = run(["synth", str(game), "--delta", "1", "--honest-invariant"])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["lambda"][0][0], 0.0, atol=1e-8)
    # the min-max program fixes only the largest deposit; the other one
    # depends on which optimal vertex the solver stops at
    assert max(doc["max_deposits"]) == pytest.approx(101.25, abs=1e-7)
    scheme_path = tmp_path / "invariant.json"
    scheme_path.write_text(out)
    code, _, _ = run(["verify", str(game), str(scheme_path), "--delta", "1"])
    assert code == 0


def test_honest_form_needs_honest_invariant(tmp_path):
    # alone, --honest-form would change nothing; it is rejected before the
    # game is read
    game = gen_commerce(tmp_path)
    want = (2, "", "error: --honest-form needs --honest-invariant\n")
    for form in ("per_leaf", "expected"):
        assert run(["synth", str(game), "--delta", "1", "--honest-form", form]) == want
        assert run(["synth", "missing.json", "--delta", "1", "--honest-form", form]) == want
    invariant = run(["synth", str(game), "--delta", "1", "--honest-invariant"])
    assert invariant[0] == 0
    assert run(["synth", str(game), "--delta", "1", "--honest-invariant",
                "--honest-form", "per_leaf"]) == invariant


def test_cached_parser_keeps_no_flags_between_calls(tmp_path):
    game = gen_commerce(tmp_path)
    cli.build_parser.cache_clear()
    plain = run(["synth", str(game), "--delta", "1"])
    inflated = run(["synth", str(game), "--delta", "1", "--zero-inflation"])
    assert plain[0] == 0 and inflated[0] == 0 and inflated[1] != plain[1]
    assert run(["synth", str(game), "--delta", "1"]) == plain
    assert cli.build_parser.cache_info().misses == 1


def test_cost_objective_needs_costs(tmp_path):
    game = gen_commerce(tmp_path)
    code, _, err = run(["synth", str(game), "--delta", "1", "--objective", "cost"])
    assert code == 2
    assert "costs" in err


def test_bad_inputs_exit_2(tmp_path):
    code, _, err = run(["spe", str(tmp_path / "missing.json")])
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    code, _, err = run(["spe", str(bad)])
    assert code == 2
    truncated = tmp_path / "half.json"
    truncated.write_text(json.dumps({"players": ["A"]}))
    code, _, err = run(["spe", str(truncated)])
    assert code == 2
    code, _, _ = run(["no-such-command"])
    assert code == 2
    code, _, _ = run(["gen", "commerce", "--x", "10", "--xprime", "50", "--eps", "0.1"])
    assert code == 2  # violates x > x_prime


def test_deep_document_exits_2(tmp_path):
    depth = 10000  # about 30 000 JSON levels, beyond cli.READ_DEPTH_CAP
    head = "".join(
        f'{{"branch": {{"id": "b{d}", "owner": {d % 2}, "children": {{'
        f'"stop": {{"leaf": {{"id": "s{d}", "utilities": [1, 0], "emission": [1]}}}}, "go": '
        for d in range(depth)
    )
    end = '{"leaf": {"id": "end", "utilities": [0, 0], "emission": [1]}}'
    doc = ('{"players": ["A", "B"], "alphabet": ["x"], "intended": {}, "tree": '
           + head + end + "}}}" * depth + "}")
    path = tmp_path / "deep.json"
    path.write_text(doc)
    code, out, err = run(["spe", str(path)])
    assert code == 2 and out == ""
    assert err == "error: document nests too deeply\n"


def test_deep_chain_document_matches_backward_induction(tmp_path):
    # the text of helpers.chain_tree(1500), written compactly: about 4500
    # JSON levels, past json.loads at the default recursion limit
    depth = 1500
    head = "".join(
        f'{{"branch": {{"id": "b{d}", "owner": {d % 2}, "children": {{'
        f'"stop": {{"leaf": {{"id": "s{d}", "utilities": [{d % 3}, {d % 5}], '
        f'"emission": [1, 0]}}}}, "go": '
        for d in range(depth)
    )
    end = ('{"chance": {"id": "end", "children": ['
           '{"p": 0.25, "node": {"leaf": {"id": "e0", "utilities": [0, 1], '
           '"emission": [0.5, 0.5]}}}, '
           '{"p": 0.75, "node": {"leaf": {"id": "e1", "utilities": [1, 0], '
           '"emission": [1, 0]}}}]}}')
    text = ('{"players": ["A", "B"], "alphabet": ["x", "y"], "intended": {}, "tree": '
            + head + end + "}}}" * depth + "}")
    tree = chain_tree(depth)
    assert jsonio.parse_game_doc(cli._read_doc("-", io.StringIO(text))).tree == tree
    path = tmp_path / "chain.json"
    path.write_text(text)
    code, out, err = run(["spe", str(path)])
    assert code == 0 and err == ""
    doc = json.loads(out)
    profile = backward_induction(tree)
    assert doc["profile"] == profile
    assert doc["utilities"] == expected_utilities(tree, profile).tolist()


def test_gen_deep_pvc_round_trips():
    code, out, _ = run(["gen", "pvc", "--n", "120", "--eps", "0.5", "--u-plus", "2",
                        "--u-minus", "-1", "--delta", "1"])
    assert code == 0
    params = PvcParams(n=120, eps=0.5, u_plus=2.0, u_minus=-1.0, delta=1.0)
    assert jsonio.parse_game_doc(json.loads(out)).tree == build_pvc(params).tree


def test_non_finite_document_exits_2(tmp_path):
    game = tmp_path / "nan.json"
    game.write_text('{"players": ["A"], "alphabet": ["x", "y"], "intended": {}, '
                    '"tree": {"leaf": {"id": "end", "utilities": [1], "emission": [NaN, NaN]}}}')
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"alphabet": ["x", "y"], "lambda": [[0, 0]]}))
    for argv in (["spe", game], ["simulate", game, scheme, "--trials", "10"],
                 ["verify", game, scheme, "--delta", "0"]):
        code, out, err = run([str(a) for a in argv])
        assert (code, out) == (2, ""), argv
        assert err == "error: leaf 'end' emission pdf sums to nan\n"


def test_out_of_memory_exits_3(tmp_path, monkeypatch):
    def exhausted(*_):
        raise MemoryError

    game = gen_commerce(tmp_path)
    monkeypatch.setattr(cli, "_cmd_spe", exhausted)
    code, out, err = run(["spe", str(game)])
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


def test_subnormal_pvc_eps_exits_3():
    for extra in ([], ["--uncollapsed"]):
        code, out, err = run(["gen", "pvc", "--n", "2", "--eps", "1e-320", "--u-plus", "2",
                              "--u-minus", "-1", "--delta", "1", *extra])
        assert (code, out) == (3, "")
        assert err == "numerical failure: emission matrix is singular at eps=1e-320\n"


def test_numpy_warnings_stay_off_stderr():
    # a warning is printed by the interpreter, not written to dispatch's
    # stderr argument, so only a separate process shows it
    src = os.path.dirname(os.path.dirname(paymech.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "paymech.cli", "gen", "from-lp", "--a", "[[1e-320]]",
         "--b", "[1]", "--c", "[1]"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("error: inequality row 1 has a sum or normalized right-hand side "
                           "beyond the float range\n")


def test_from_lp_overflow_names_the_row():
    want = (2, "", "error: inequality row 1 has a sum or normalized right-hand side "
                   "beyond the float range\n")
    for a, b in (("[[1e308, 1e308]]", "[1]"), ("[[1e-308, 1e-308]]", "[1e308]")):
        assert run(["gen", "from-lp", "--a", a, "--b", b, "--c", "[1, 1]"]) == want, a


def test_help_exits_zero(capsys):
    # help goes to dispatch's stdout, not the process's
    code, out, err = run(["--help"])
    assert (code, err) == (0, "") and out.startswith("usage: paymech ")
    code, out, err = run(["gen", "--help"])
    assert (code, err) == (0, "") and out.startswith("usage: paymech gen ")
    code, out, err = run(["gen", "pvc", "--help"])
    assert (code, err) == (0, "") and out.startswith("usage: paymech gen pvc ")
    assert f"2 to {PvcParams.MAX_N}" in out
    assert capsys.readouterr() == ("", "")


def _commerce_calls(tmp_path):
    """(argv, exit code) for every command on the commerce game."""
    game = gen_commerce(tmp_path)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(run(["synth", str(game), "--delta", "100"])[1])
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"alphabet": ["top", "bot_B", "bot_S"],
                                "lambda": [[0, 0, 0], [0, 0, 0]]}))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"target_e": [[-100, 0, -50, 50], [100, -50, -50, 50]]}))
    game, scheme, zero, target = map(str, (game, scheme, zero, target))
    return [
        (["gen", "commerce", "--x", "100", "--xprime", "50", "--eps", "0.1"], 0),
        (["gen", "pvc", "--n", "3", "--eps", "0.5", "--u-plus", "2", "--u-minus", "-1",
          "--delta", "1"], 0),
        (["synth", game, "--delta", "100"], 0),
        (["verify", game, scheme, "--delta", "100"], 0),
        (["bound", game, "--delta", "1"], 0),
        (["spe", game], 0),
        (["simulate", game, scheme, "--trials", "50"], 0),
        (["implement", game, "--target", target], 0),
        (["verify", game, zero, "--delta", "0"], 1),
        (["spe", str(tmp_path / "missing.json")], 2),
        (["synth", game, "--delta", "x"], 2),
        (["gen", "pvc", "--n", "2", "--eps", "1e-320", "--u-plus", "2", "--u-minus", "-1",
          "--delta", "1"], 3),
    ]


@pytest.fixture
def collector():
    """Restores the collector setting of the test run afterwards."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_dispatch_restores_the_collector_setting(tmp_path, monkeypatch, collector, enabled):
    calls = _commerce_calls(tmp_path)
    assert {code for _, code in calls} == {0, 1, 2, 3}
    for argv, code in calls:
        (gc.enable if enabled else gc.disable)()
        assert run(argv)[0] == code, argv
        assert gc.isenabled() is enabled, argv

    def crash(*_):
        raise RuntimeError("not an outcome dispatch maps")

    monkeypatch.setattr(cli, "_cmd_spe", crash)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError):
        run(["spe", "-"])
    assert gc.isenabled() is enabled


def test_commands_leave_no_cyclic_garbage(tmp_path, collector):
    # what makes pausing the collector safe: with it off, a command's
    # memory is all freed by reference counting, so collecting finds none
    calls = _commerce_calls(tmp_path)
    gc.disable()
    for argv, code in calls:
        run(argv)  # warm-up: caches and first-use set-up
        gc.collect()
        assert run(argv)[0] == code, argv
        assert gc.collect() == 0, argv


def test_output_file_keeps_stdout_clean(tmp_path):
    out_path = tmp_path / "doc.json"
    code, out, _ = run(["gen", "ala", "--damages", "1", "-o", str(out_path)])
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["lambda"] == [[0, 1]]


def test_pipe_game_into_synth(tmp_path):
    game = gen_commerce(tmp_path)
    code, out, _ = run(["synth", "-", "--delta", "100"], stdin_text=game.read_text())
    assert code == 0
    assert json.loads(out)["max_deposits"][0] > 0


def test_stray_intended_id_fails_alike(tmp_path):
    # verify reads the intended profile by the same check as synth, bound
    # and simulate
    doc = json.loads(gen_commerce(tmp_path).read_text())
    doc["intended"]["bogus"] = "x"
    game = tmp_path / "stray.json"
    game.write_text(json.dumps(doc))
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"alphabet": doc["alphabet"], "lambda": [[0, 0, 0], [0, 0, 0]]}))
    want = (2, "", "error: profile names 'bogus', which is not a branch of this tree\n")
    for argv in (["synth", game, "--delta", "1"], ["verify", game, scheme, "--delta", "1"],
                 ["bound", game, "--delta", "1"], ["simulate", game, scheme]):
        assert run([str(a) for a in argv]) == want, argv[0]


def test_coalition_bound_above_the_player_count_exits_2(tmp_path):
    # build_constraints rejects t > n; every command that takes --t says so
    game = gen_commerce(tmp_path)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"alphabet": ["top", "bot_B", "bot_S"],
                                  "lambda": [[0, 0, 0], [0, 0, 0]]}))
    want = (2, "", "error: coalition bound t=3 exceeds 2 players\n")
    for argv in (["synth", game, "--delta", "1", "--t", "3"],
                 ["verify", game, scheme, "--delta", "1", "--t", "3"],
                 ["bound", game, "--delta", "1", "--t", "3"]):
        assert run([str(a) for a in argv]) == want, argv[0]


# The fault table: every subcommand against every kind of malformed
# input.  The valid documents below (moves named "0" and "1", so that a
# profile value 1 read as the string "1" would name a move) are written
# to GAME, SCHEME, TARGET and PROFILE; each case replaces one of them or
# one flag value.
FAULT_FILES = {
    "GAME": {
        "players": ["A", "B"],
        "alphabet": ["x", "y"],
        "intended": {"root": "0"},
        "tree": {"branch": {"id": "root", "owner": 0, "children": {
            "0": {"leaf": {"id": "stay", "utilities": [1, 1], "emission": [1, 0]}},
            "1": {"chance": {"id": "coin", "children": [
                {"p": 0.5, "node": {"leaf": {"id": "win", "utilities": [2, 0],
                                             "emission": [0, 1]}}},
                {"p": 0.5, "node": {"leaf": {"id": "lose", "utilities": [0, 2],
                                             "emission": [0.5, 0.5]}}},
            ]}},
        }}},
    },
    "SCHEME": {"alphabet": ["x", "y"], "lambda": [[0, 2], [0, 0]]},
    "TARGET": {"target_e": [[1, 2, 0], [1, 0, 2]]},
    "PROFILE": {"root": "1"},
}

FAULT_COMMANDS = {
    "synth": ["synth", "GAME", "--delta", "0"],
    "verify": ["verify", "GAME", "SCHEME", "--delta", "0"],
    "implement": ["implement", "GAME", "--target", "TARGET"],
    "bound": ["bound", "GAME", "--delta", "0"],
    "spe": ["spe", "GAME"],
    "simulate": ["simulate", "GAME", "SCHEME", "--trials", "5"],
}
PROFILED = ("synth", "verify", "bound", "simulate")  # the commands that read `intended`
SIMULATE_PROFILE = FAULT_COMMANDS["simulate"] + ["--profile", "PROFILE"]


def _stay(doc):
    return doc["tree"]["branch"]["children"]["0"]["leaf"]


def _with(name, mutate):
    doc = json.loads(json.dumps(FAULT_FILES[name]))
    mutate(doc)
    return doc


NOT_UTF8 = b"\xff{"  # a file that cannot be decoded as text
GAME_FAULTS = {
    "not JSON": "{",
    "not UTF-8": NOT_UTF8,
    "not an object": [],
    "string utility": _with("GAME", lambda d: _stay(d).update(utilities=[1, "1"])),
    "bool utility": _with("GAME", lambda d: _stay(d).update(utilities=[1, True])),
    "utility beyond the float range": _with("GAME", lambda d: _stay(d).update(
        utilities=[1, 10**400])),
    "NaN emission": _with("GAME", lambda d: _stay(d).update(emission=[math.nan, 1])),
    "non-string intended move": _with("GAME", lambda d: d.update(intended={"root": 0})),
    "costs -inf token": _with("GAME", lambda d: d.update(costs=[["-inf", 0], [0, 0]])),
    "costs -Infinity": _with("GAME", lambda d: d.update(costs=[[-math.inf, 0], [0, 0]])),
    "costs NaN": _with("GAME", lambda d: d.update(costs=[[math.nan, 0], [0, 0]])),
    "costs bool": _with("GAME", lambda d: d.update(costs=[[True, 0], [0, 0]])),
    "costs ragged": _with("GAME", lambda d: d.update(costs=[[0, 0], [0]])),
    "costs wrong shape": _with("GAME", lambda d: d.update(costs=[[0, 0, 0], [0, 0, 0]])),
}
SCHEME_FAULTS = {
    "string": [[0, "2"], [0, 0]],
    "bool": [[0, True], [0, 0]],
    "ragged": [[0, 2], [0]],
    "empty": [],
    "empty rows": [[], []],
    "wrong width": [[0, 2, 1], [0, 0, 1]],
    "NaN": [[0, math.nan], [0, 0]],
    "Infinity": [[0, math.inf], [0, 0]],
    "beyond the float range": [[0, 10**400], [0, 0]],
}
TARGET_FAULTS = {
    "string": {"target_e": ["a", 1, 2]},
    "ragged": {"target_e": [[1, 2, 0], [1, 0]]},
    "beyond the float range": {"target_e": [[10**400, 2, 0], [1, 0, 2]]},
    "true": {"target_e": [[True, 2, 0], [1, 0, 2]]},
    "NaN": {"target_e": [[math.nan, 2, 0], [1, 0, 2]]},
    "wrong shape": {"target_e": [[1, 2], [1, 0]]},
    "missing": {"target": [[1, 2, 0], [1, 0, 2]]},
    "not an object": [[1, 2, 0], [1, 0, 2]],
}
PROFILE_FAULTS = {
    "int move": {"root": 1},
    "bool move": {"root": True},
    "null move": {"root": None},
    "not an object": [["root", "1"]],
    "stray id": {"root": "1", "bogus": "x"},
}
LP = {"--a": "[[1, 1]]", "--b": "[1]", "--c": "[1, 2]"}
FROM_LP = ["gen", "from-lp", "--a", LP["--a"], "--b", LP["--b"], "--c", LP["--c"]]
LP_FAULTS = [
    ("--a", '[[1, "a"]]'), ("--a", '"x"'), ("--a", "[[1, 1], [1]]"), ("--a", "[[true, 1]]"),
    ("--a", "[]"), ("--a", "[[]]"), ("--a", "[[1e400, 1]]"), ("--a", "nope"),
    ("--a", "[[-1, 1]]"), ("--b", "[[1]]"), ("--b", "[1, 2]"), ("--c", '{"a": 1}'),
    ("--c", "[[1, 2]]"),
]


def _fault_cases():
    cases = []
    for fault, doc in GAME_FAULTS.items():
        for name, argv in FAULT_COMMANDS.items():
            cases.append(pytest.param(argv, {"GAME": doc}, id=f"{name} game {fault}"))
    stray = _with("GAME", lambda d: d["intended"].update(bogus="x"))
    for name in PROFILED:
        cases.append(pytest.param(FAULT_COMMANDS[name], {"GAME": stray}, id=f"{name} stray id"))
    for fault, lam in SCHEME_FAULTS.items():
        scheme = _with("SCHEME", lambda d: d.update({"lambda": lam}))
        for name in ("verify", "simulate"):
            cases.append(pytest.param(FAULT_COMMANDS[name], {"SCHEME": scheme},
                                      id=f"{name} lambda {fault}"))
    for fault, doc in TARGET_FAULTS.items():
        cases.append(pytest.param(FAULT_COMMANDS["implement"], {"TARGET": doc},
                                  id=f"implement target_e {fault}"))
    for fault, doc in PROFILE_FAULTS.items():
        cases.append(pytest.param(SIMULATE_PROFILE, {"PROFILE": doc}, id=f"--profile {fault}"))
    for name, argv in (("SCHEME", FAULT_COMMANDS["verify"]),
                       ("TARGET", FAULT_COMMANDS["implement"]), ("PROFILE", SIMULATE_PROFILE)):
        cases.append(pytest.param(argv, {name: NOT_UTF8}, id=f"{name} not UTF-8"))
    cases.append(pytest.param(FAULT_COMMANDS["simulate"] + ["--seed", "-1"], {}, id="--seed -1"))
    for flag, value in LP_FAULTS:
        argv = list(FROM_LP)
        argv[argv.index(flag) + 1] = value
        cases.append(pytest.param(argv, {}, id=f"from-lp {flag} {value}"))
    flag_faults = [FAULT_COMMANDS["synth"][:-1] + ["x"], FAULT_COMMANDS["simulate"][:-1] + ["1.5"],
                   ["synth", "--delta", "0"], ["simulate", "GAME", "SCHEME", "--trials"],
                   ["verify", "GAME", "SCHEME", "--delta", "0", "--bogus"]]
    for argv in flag_faults:
        cases.append(pytest.param(argv, {}, id="flag " + " ".join(argv)))
    for argv in (["gen", "ala", "--damages", "1,x"], ["gen", "ala", "--damages", "1,nan"],
                 ["gen", "pvc", "--n", "2", "--eps", "0.5", "--u-plus", "x", "--u-minus", "-1",
                  "--delta", "1"],
                 ["gen", "commerce", "--x", "10", "--xprime", "50", "--eps", "0.1"],
                 ["gen", "ala", "--damages", "1,,2"],
                 ["gen", "pvc", "--u-plus", "2,,3", "--n", "2", "--eps", "0.5", "--u-minus", "-1",
                  "--delta", "1"],
                 ["gen", "pvc", "--u-plus", "inf", "--n", "2", "--eps", "0.5", "--u-minus", "-1",
                  "--delta", "1"],
                 ["gen", "pvc", "--delta", "nan", "--n", "2", "--eps", "0.5", "--u-plus", "2",
                  "--u-minus", "-1"],
                 ["gen", "pvc", "--delta", "inf", "--n", "2", "--eps", "0.5", "--u-plus", "2",
                  "--u-minus", "-1"],
                 ["gen", "pvc", "--u-minus=-inf", "--n", "2", "--eps", "0.5", "--u-plus", "2",
                  "--delta", "1"],
                 ["gen", "commerce", "--y", "inf", "--x", "100", "--xprime", "50", "--eps", "0.1"]):
        cases.append(pytest.param(argv, {}, id=" ".join(argv[:3])))
    above = str(PvcParams.MAX_N + 1)
    cases.append(pytest.param(["gen", "pvc", "--n", above, "--eps", "0.5", "--u-plus", "2",
                               "--u-minus", "-1", "--delta", "1"], {}, id=f"gen pvc --n {above}"))
    return cases


def _fault_argv(tmp_path, argv, files):
    paths = {}
    for name, doc in {**FAULT_FILES, **files}.items():
        path = tmp_path / f"{name}.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        paths[name] = str(path)
    return [paths.get(a, a) for a in argv]


def test_fault_table_documents_are_valid(tmp_path):
    for argv in [*FAULT_COMMANDS.values(), SIMULATE_PROFILE, FROM_LP]:
        code, out, err = run(_fault_argv(tmp_path, argv, {}))
        assert code in (0, 1) and out and "error" not in err, argv


@pytest.mark.parametrize("argv, files", _fault_cases())
def test_fault_table(tmp_path, capsys, argv, files):
    code, out, err = run(_fault_argv(tmp_path, argv, files))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    assert capsys.readouterr() == ("", "")  # nothing bypasses dispatch's streams
