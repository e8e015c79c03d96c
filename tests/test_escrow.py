"""Episode mechanics and Monte Carlo reproducibility."""

import numpy as np
import pytest

from paymech import (
    BadParameters,
    DimensionMismatch,
    Episode,
    GameTree,
    InfoStructure,
    PaymentScheme,
    build_commerce,
    CommerceParams,
    branch,
    chance,
    check_profile,
    honest_outcome,
    implemented_utilities,
    leaf,
    monte_carlo,
    run_episode,
    trial_seed,
)

from .helpers import has_chance, leaf_ids, random_emission, random_instance, random_profile


@pytest.fixture(scope="module")
def commerce_inst():
    return build_commerce(CommerceParams(x=100, x_prime=50, y=150, eps=0.1))


def test_episode_accounting(commerce_inst):
    inst = commerce_inst
    ep = run_episode(inst.tree, inst.info, inst.scheme, inst.profile, seed=0)
    assert isinstance(ep, Episode)
    np.testing.assert_array_equal(ep.deposits, inst.scheme.max_deposits)
    np.testing.assert_allclose(ep.repayments, ep.deposits - ep.net_losses)
    np.testing.assert_array_equal(
        ep.net_losses, inst.scheme.matrix[:, ep.symbol_index]
    )
    leaf_utils = inst.tree.u[:, ep.leaf_index]
    np.testing.assert_allclose(ep.realized_utilities, leaf_utils - ep.net_losses)
    assert ep.surplus == pytest.approx(inst.scheme.matrix[:, ep.symbol_index].sum())
    assert ep.symbol == inst.info.alphabet[ep.symbol_index]


DEVIATION = {"root": "send", "after_send": "reject", "after_not_send": "reject"}


def test_episodes_draw_symbols_from_the_given_info(commerce_inst):
    # an info structure that is not the tree's own: every leaf emits bot_S
    inst = commerce_inst
    phi = np.zeros((3, inst.tree.m))
    phi[2] = 1.0
    info = InfoStructure(inst.info.alphabet, phi)
    w, _ = honest_outcome(inst.tree, inst.tree.ids[0], inst.profile)
    exact = implemented_utilities(inst.tree.u, inst.scheme, info) @ w
    np.testing.assert_allclose(exact, [-175.0, 56.25])
    mc = monte_carlo(inst.tree, info, inst.scheme, inst.profile, 2000, 1)
    np.testing.assert_array_equal(mc.symbol_frequencies, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(mc.mean_utilities, exact)
    ep = run_episode(inst.tree, info, inst.scheme, inst.profile, seed=1)
    assert ep.symbol == "bot_S"
    np.testing.assert_allclose(ep.realized_utilities, exact)


def test_honest_path_deterministic(commerce_inst):
    # honest play reaches the trade leaf, whose emission is one-hot, so
    # every seed produces the identical episode
    inst = commerce_inst
    eps = [run_episode(inst.tree, inst.info, inst.scheme, inst.profile, seed=s)
           for s in range(12)]
    assert {ep.leaf_id for ep in eps} == {"trade"}
    assert {ep.symbol for ep in eps} == {"top"}
    for ep in eps:
        np.testing.assert_array_equal(ep.realized_utilities, [50.0, 50.0])


def test_same_seed_same_episode(commerce_inst):
    inst = commerce_inst
    a = run_episode(inst.tree, inst.info, inst.scheme, inst.profile, seed=99)
    b = run_episode(inst.tree, inst.info, inst.scheme, inst.profile, seed=99)
    assert a.symbol_index == b.symbol_index and a.leaf_index == b.leaf_index
    np.testing.assert_array_equal(a.realized_utilities, b.realized_utilities)


def test_symbol_frequencies_follow_emission(commerce_inst):
    # the seller-keeps-item deviation lands on a noisy leaf
    inst = commerce_inst
    res = monte_carlo(inst.tree, inst.info, inst.scheme, DEVIATION, trials=4000, seed=7)
    assert leaf_ids(inst.tree)[2] == "item_not_paid"
    np.testing.assert_allclose(res.symbol_frequencies, inst.tree.phi[:, 2], atol=0.03)


def test_monte_carlo_matches_implemented_utilities(commerce_inst):
    inst = commerce_inst
    res = monte_carlo(inst.tree, inst.info, inst.scheme, DEVIATION, trials=4000, seed=11)
    gap = np.abs(res.mean_utilities - inst.target_e[:, 2])
    assert np.all(gap <= 4 * res.std_errors + 1e-12)


def test_monte_carlo_reproducible(commerce_inst):
    inst = commerce_inst
    r1 = monte_carlo(inst.tree, inst.info, inst.scheme, DEVIATION, trials=250, seed=5)
    r2 = monte_carlo(inst.tree, inst.info, inst.scheme, DEVIATION, trials=250, seed=5)
    np.testing.assert_array_equal(r1.mean_utilities, r2.mean_utilities)
    np.testing.assert_array_equal(r1.std_errors, r2.std_errors)
    np.testing.assert_array_equal(r1.symbol_frequencies, r2.symbol_frequencies)
    r3 = monte_carlo(inst.tree, inst.info, inst.scheme, DEVIATION, trials=250, seed=6)
    assert not np.array_equal(r1.mean_utilities, r3.mean_utilities)


def test_single_trial_zero_errors(commerce_inst):
    inst = commerce_inst
    res = monte_carlo(inst.tree, inst.info, inst.scheme, inst.profile, trials=1, seed=3)
    np.testing.assert_array_equal(res.std_errors, np.zeros(2))


def test_trial_count_validation(commerce_inst):
    inst = commerce_inst
    for trials in (0, -3, 2.5, 3.0, "3", True, None):
        with pytest.raises(BadParameters, match="trials must be an integer >= 1"):
            monte_carlo(inst.tree, inst.info, inst.scheme, inst.profile, trials=trials, seed=0)
    # beyond numpy's array limit, before any allocation
    limit = np.iinfo(np.intp).max // 8
    for trials in (2**60, 10**20):
        with pytest.raises(BadParameters, match=f"^trials must be at most {limit}, got {trials}$"):
            monte_carlo(inst.tree, inst.info, inst.scheme, inst.profile, trials=trials, seed=0)
    assert monte_carlo(inst.tree, inst.info, inst.scheme, inst.profile,
                       trials=np.int64(3), seed=0).trials == 3


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_seed_validation(commerce_inst, seed):
    inst = commerce_inst
    with pytest.raises(BadParameters):
        run_episode(inst.tree, inst.info, inst.scheme, inst.profile, seed=seed)
    with pytest.raises(BadParameters):
        monte_carlo(inst.tree, inst.info, inst.scheme, inst.profile, trials=5, seed=seed)


def test_shape_checks(commerce_inst):
    inst = commerce_inst
    wrong = PaymentScheme(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        run_episode(inst.tree, inst.info, wrong, inst.profile, seed=0)
    narrow = InfoStructure(("a",), np.ones((1, 2)))
    with pytest.raises(DimensionMismatch):
        run_episode(inst.tree, narrow, inst.scheme, inst.profile, seed=0)


def test_trial_seed_is_stable():
    # regression anchors; changing the splitting rule breaks replay
    assert trial_seed(0, 0) == trial_seed(0, 0)
    assert trial_seed(0, 0) != trial_seed(0, 1)
    assert trial_seed(1, 0) != trial_seed(0, 0)
    expected = int(np.random.SeedSequence([42, 17]).generate_state(1, np.uint64)[0])
    assert trial_seed(42, 17) == expected


def test_random_instances_respect_scheme_column(commerce_inst):
    rng = np.random.default_rng(23)
    for _ in range(10):
        tree, info, profile = random_instance(rng)
        lam = rng.normal(size=(tree.n, info.s)).round(2)
        scheme = PaymentScheme(lam)
        ep = run_episode(tree, info, scheme, profile, seed=int(rng.integers(1 << 30)))
        np.testing.assert_array_equal(ep.net_losses, lam[:, ep.symbol_index])
        np.testing.assert_array_equal(ep.deposits, lam.max(axis=1))


def _chance_instances(count):
    rng = np.random.default_rng(31)
    while count:
        tree, info, profile = random_instance(rng, max_nodes=16)
        if has_chance(tree):
            count -= 1
            yield tree, info, PaymentScheme(rng.normal(size=(tree.n, info.s)).round(2)), profile


def _replay(tree, info, profile, trials, seed):
    """(leaf number, symbol index) of each trial as the Monte Carlo contract
    states it: one generator for all trials and one uniform per trial,
    drawn by inverse CDF on the left-to-right cumulative sums of the joint
    law of (leaf, symbol), leaf-major over the reachable leaves in leaf
    order."""
    rng = np.random.default_rng(seed)
    outcomes, edges, total = [], [], 0.0
    for j, w in tree.reach(0, check_profile(tree, profile)):
        for k in range(info.s):
            total += float(info.phi[k, j]) * w
            outcomes.append((j, k))
            edges.append(total)
    plays = []
    for _ in range(trials):
        r = rng.random() * total
        plays.append(outcomes[next((i for i, edge in enumerate(edges) if edge > r),
                                   len(edges) - 1)])
    return plays


@pytest.mark.parametrize("case", range(4))
def test_monte_carlo_aggregates_run_episode(commerce_inst, case):
    # the batch pricing in monte_carlo gives the bits of the replayed trials
    if case == 0:
        inst = commerce_inst
        tree, info, scheme, profile = inst.tree, inst.info, inst.scheme, DEVIATION
    else:
        tree, info, scheme, profile = list(_chance_instances(3))[case - 1]
    trials, seed = 300, 17 + case
    res = monte_carlo(tree, info, scheme, profile, trials, seed)
    plays = _replay(tree, info, profile, trials, seed)
    utilities = np.array([tree.u[:, j] - scheme.matrix[:, k]
                          for j, k in plays])
    losses = np.array([scheme.matrix[:, k] for _, k in plays])
    counts = np.array([sum(k == s for _, k in plays) for s in range(info.s)])
    np.testing.assert_array_equal(res.mean_utilities, utilities.mean(axis=0))
    np.testing.assert_array_equal(res.std_errors, utilities.std(axis=0, ddof=1) / np.sqrt(trials))
    np.testing.assert_array_equal(res.symbol_frequencies, counts / trials)
    np.testing.assert_array_equal(res.mean_net_losses, losses.mean(axis=0))
    ep = run_episode(tree, info, scheme, profile, seed)
    assert (ep.leaf_index, ep.symbol_index) == plays[0]
    np.testing.assert_array_equal(ep.realized_utilities, utilities[0])
    np.testing.assert_array_equal(ep.net_losses, losses[0])


def test_monte_carlo_makes_one_generator(commerce_inst, monkeypatch):
    inst = commerce_inst
    calls = []
    make = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    monte_carlo(inst.tree, inst.info, inst.scheme, DEVIATION, trials=300, seed=4)
    assert calls == [(4,)]


def test_a_zero_uniform_draws_the_first_entry_of_positive_mass(commerce_inst, monkeypatch):
    # the deviation's leaf never emits "top", its first entry in the law;
    # a uniform of exactly 0 must pass over it to "bot_B"
    inst = commerce_inst
    assert inst.tree.phi[0, 2] == 0.0 < inst.tree.phi[1, 2]

    class Zeros:
        def random(self, size):
            return np.zeros(size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros())
    ep = run_episode(inst.tree, inst.info, inst.scheme, DEVIATION, seed=0)
    assert (ep.leaf_id, ep.symbol) == ("item_not_paid", "bot_B")
    res = monte_carlo(inst.tree, inst.info, inst.scheme, DEVIATION, trials=3, seed=0)
    np.testing.assert_array_equal(res.symbol_frequencies, [0.0, 1.0, 0.0])


def _chance_heavy_tree(rng):
    """A random two-player tree of mostly chance nodes under a chance root.
    Some chance children have probability 0 (the root always has one), and
    leaves emit over 4 symbols, either a one-hot or a Dirichlet pdf."""
    counter = [0]

    def spread(width, zero):
        probs = rng.dirichlet(np.ones(width))
        if zero:
            probs[rng.integers(width)] = 0.0
            probs /= probs.sum()
        return probs

    def make_node(depth):
        counter[0] += 1
        if depth >= 3 or rng.random() < 0.2:
            utilities = rng.integers(-5, 6, size=2).astype(float)
            return leaf(f"L{counter[0]}", utilities, random_emission(rng, 4))
        width = int(rng.integers(2, 4))
        if rng.random() < 0.7:
            probs = spread(width, rng.random() < 0.3)
            return chance(f"C{counter[0]}", [(p, make_node(depth + 1)) for p in probs])
        owner = int(rng.integers(2))
        return branch(f"B{counter[0]}", owner, [(f"m{k}", make_node(depth + 1)) for k in range(width)])

    kids = [(p, make_node(1)) for p in spread(3, True)]
    return GameTree(("P1", "P2"), chance("root", kids))


def _chi_square_limit(df, z=3.719):
    """Wilson-Hilferty approximation of the chi-square quantile with `df`
    degrees of freedom whose upper tail is 1e-4 (z is that normal quantile)."""
    return df * (1.0 - 2.0 / (9.0 * df) + z * np.sqrt(2.0 / (9.0 * df))) ** 3


def test_monte_carlo_draws_the_exact_joint_law():
    # the drawn (leaf, symbol) counts follow (phi * w).T: chi-square over
    # the cells of positive mass (those expecting under 5 draws pooled),
    # no draw in a cell of zero mass, and the means within 4 SE of the
    # exact implemented utilities
    rng = np.random.default_rng(2024)
    trials, checked = 20000, 0
    while checked < 6:
        tree = _chance_heavy_tree(rng)
        info = InfoStructure.from_tree(tree, tuple(f"s{k}" for k in range(tree.num_symbols)))
        scheme = PaymentScheme(rng.normal(size=(tree.n, info.s)).round(2))
        profile = random_profile(rng, tree)
        w, _ = honest_outcome(tree, "root", profile)
        mass = (info.phi * w).T
        # the root's zero-probability child gives leaves of weight 0; keep
        # trees that also reach a zero entry of an emission
        if not ((info.phi == 0.0) & (w > 0.0)).any() or np.count_nonzero(mass) < 5:
            continue
        checked += 1
        seed = int(rng.integers(1 << 30))
        res = monte_carlo(tree, info, scheme, profile, trials, seed)
        plays = _replay(tree, info, profile, trials, seed)
        counts = np.zeros_like(mass)
        np.add.at(counts, tuple(np.array(plays).T), 1.0)
        np.testing.assert_array_equal(res.symbol_frequencies, counts.sum(axis=0) / trials)
        assert not counts[mass == 0.0].any()
        expected = trials * mass[mass > 0.0]
        observed = counts[mass > 0.0]
        small = expected < 5.0
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
        keep = expected > 0.0
        stat = float((((observed - expected) ** 2)[keep] / expected[keep]).sum())
        assert stat < _chi_square_limit(keep.sum() - 1), (checked, stat)
        exact = implemented_utilities(tree.u, scheme, info) @ w
        assert np.all(np.abs(res.mean_utilities - exact) <= 4 * res.std_errors + 1e-9)
