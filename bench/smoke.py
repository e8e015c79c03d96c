"""Quick self-test of the benchmark: one tiny run per workload and mode.

    python3 bench/smoke.py

Runs every workload on small instances with `--trace 0` and `--trace 1`
and checks that the last line is the result object, that every answer
was correct, and that every metric BENCHMARK.json names is present with
its unit.  It also checks the reference LP solver against vertex
enumeration on small random programs.  Exits 1 if anything fails.
"""

import io
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)

import numpy as np  # noqa: E402

import oracle  # noqa: E402


def _vertex_optimum(c, g, h):
    """min c.x s.t. g x >= h over the vertices; None if there is none."""
    best = None
    for rows in itertools.combinations(range(g.shape[0]), g.shape[1]):
        basis = g[list(rows)]
        if abs(np.linalg.det(basis)) < 1e-9:
            continue
        x = np.linalg.solve(basis, h[list(rows)])
        if (g @ x - h).min() >= -1e-8:
            best = c @ x if best is None else min(best, c @ x)
    return best


def check_reference_lp(trials: int = 300) -> list[str]:
    """The reference solver on programs with whole-number data (so with
    ties and degenerate vertices) and with continuous data.  The objective
    is drawn from the cone of the rows, so every feasible program is
    bounded and, its columns being independent, has a vertex optimum."""
    rng = np.random.default_rng(2024)
    problems = []
    for trial in range(trials):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(k, 8))
        if trial % 2:
            g, h = rng.integers(-3, 4, (m, k)).astype(float), rng.integers(-3, 4, m).astype(float)
        else:
            g, h = rng.normal(size=(m, k)), rng.normal(size=m)
        c = g.T @ (rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.6))
        if np.linalg.matrix_rank(g) < k or not c.any():
            continue
        status, value = oracle.solve_program(c, g, h)
        want = _vertex_optimum(c, g, h)
        if (want is None) != (status == "infeasible") or (
                want is not None and abs(value - want) > 1e-7 * (1.0 + abs(want))):
            problems.append(f"reference LP trial {trial}: {status} {value}, vertices give {want}")
    return problems


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_reference_lp()
    print(f"reference LP solver: {len(problems)} disagreements with vertex enumeration")
    for workload in (w["name"] for w in spec["workloads"]):
        for traced, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            argv = ["--workload", workload, "--seed", "7", "--seconds", "0.1",
                    "--trace", str(traced), "--tiny"]
            code = run.main(argv, out=out)
            result = json.loads(out.getvalue().splitlines()[-1])
            if code != 0 or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload} trace={traced}: exit {code}, keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={traced}: {result['failed']} failed calls")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={traced}: {metric['name']} missing or mis-unit")
            print(f"{workload} trace={traced}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} calls checked")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
