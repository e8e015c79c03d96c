"""In-memory spans around the package's module boundaries.

`Tracer.install()` replaces, in the importing module's namespace, each
public function one paymech module takes from another, plus the CLI
entry point, with a wrapper that records a span (name, start, end,
parent) and feeds counters.  The package itself is not edited, and
`uninstall()` puts every original back.

A layer's self time is the total duration of its spans minus the time
their child spans cover.  A wrapped function that no longer exists is
reported under `missing`, and its metrics are left out rather than
read as zero.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name); the same span name may sit at several
# import sites, e.g. `build_constraints` as seen by synthesis, bounds
# and security.verify
SPAN_SITES = [
    ("paymech.cli", "dispatch", "cli"),
    ("paymech.jsonio", "parse_game_doc", "jsonio.parse"),
    ("paymech.jsonio", "parse_scheme_doc", "jsonio.parse"),
    ("paymech.jsonio", "dumps_canonical", "jsonio.dump"),
    ("paymech.cli", "synthesize", "synthesis"),
    ("paymech.synthesis", "synthesize", "synthesis"),
    ("paymech.synthesis", "solve", "simplex.solve"),
    ("paymech.synthesis", "build_constraints", "security.build_constraints"),
    ("paymech.bounds", "build_constraints", "security.build_constraints"),
    ("paymech.security", "build_constraints", "security.build_constraints"),
    ("paymech.cli", "verify", "security.verify"),
    ("paymech.synthesis", "verify", "security.verify"),
    ("paymech.security", "honest_outcome", "game_core.honest_outcome"),
    ("paymech.synthesis", "honest_outcome", "game_core.honest_outcome"),
    ("paymech.security", "implemented_utilities", "info_structure.implemented"),
    ("paymech.cli", "scheme_for_target", "info_structure.target"),
    ("paymech.cli", "backward_induction", "game_core.spe"),
    ("paymech.cli", "expected_utilities", "game_core.spe"),
    ("paymech.synthesis", "check_profile", "game_core.check_profile"),
    ("paymech.escrow", "check_profile", "game_core.check_profile"),
    ("paymech.cli", "deposit_lower_bound", "bounds"),
    ("paymech.bounds", "spectral_norm", "bounds.norm"),
    ("paymech.cli", "monte_carlo", "escrow.monte_carlo"),
    ("paymech.escrow", "run_episode", "escrow.episode"),
    ("paymech.escrow", "trial_seed", "escrow.seed"),
    ("paymech.cli", "build_commerce", "case_studies.build"),
    ("paymech.cli", "build_pvc", "case_studies.build"),
    ("paymech.cli", "lp_to_game", "reductions.build"),
]

# call counters without a span: their time stays in the caller's self time
COUNT_SITES = [
    ("paymech.simplex", "_pivot", "simplex.pivots"),
    ("paymech.security", "inducible_leaves", "security.inducible_leaves_calls"),
]

# metric -> (kind, source, tag); "self" sums the self time of spans with
# that name (only those tagged so, if a tag is given), "calls" counts the
# spans and "count" reads a counter.  Some spans (bounds, security.verify,
# escrow.monte_carlo, info_structure.target) publish no metric: they are
# there so that their time is not counted as their caller's self time
LAYER_METRICS = {
    "simplex.solve_s": ("self", "simplex.solve", None),
    "simplex.solve_s.optimal": ("self", "simplex.solve", "optimal"),
    "simplex.solve_s.infeasible": ("self", "simplex.solve", "infeasible"),
    "simplex.pivots": ("count", "simplex.pivots", None),
    "simplex.lp_rows": ("count", "simplex.lp_rows", None),
    "simplex.lp_cols": ("count", "simplex.lp_cols", None),
    "synthesis.self_s": ("self", "synthesis", None),
    "bounds.norm_s": ("self", "bounds.norm", None),
    "security.build_constraints_s": ("self", "security.build_constraints", None),
    "security.inducible_leaves_calls": ("count", "security.inducible_leaves_calls", None),
    "security.alpha": ("count", "security.alpha", None),
    "security.matrix_mb": ("count", "security.matrix_mb", None),
    "game_core.honest_outcome_s": ("self", "game_core.honest_outcome", None),
    "game_core.honest_outcome_calls": ("calls", "game_core.honest_outcome", None),
    "game_core.spe_s": ("self", "game_core.spe", None),
    "game_core.check_profile_s": ("self", "game_core.check_profile", None),
    "game_core.check_profile_calls": ("calls", "game_core.check_profile", None),
    "escrow.episode_s": ("self", "escrow.episode", None),
    "escrow.seed_s": ("self", "escrow.seed", None),
    "escrow.episodes": ("calls", "escrow.episode", None),
    "jsonio.parse_s": ("self", "jsonio.parse", None),
    "jsonio.dump_s": ("self", "jsonio.dump", None),
    "jsonio.doc_bytes": ("count", "jsonio.doc_bytes", None),
    "info_structure.implemented_s": ("self", "info_structure.implemented", None),
    "cli.self_s": ("self", "cli", None),
    "case_studies.build_s": ("self", "case_studies.build", None),
    "reductions.build_s": ("self", "reductions.build", None),
}

# counters fed by a span's wrapper exist exactly when that wrapper does
FED_BY = {
    "simplex.lp_rows": "simplex.solve",
    "simplex.lp_cols": "simplex.solve",
    "security.alpha": "security.build_constraints",
    "security.matrix_mb": "security.build_constraints",
    "jsonio.doc_bytes": "jsonio.dump",
}

# metrics read from the set-up phase; the rest come from measured passes
SETUP_METRICS = ("case_studies.build_s", "reductions.build_s")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, tag]
        self.stack: list[int] = []
        self.counts = defaultdict(float)  # reset by mark()
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._saved: list = []

    def _before(self, name, args) -> None:
        if name == "simplex.solve":
            self.counts["simplex.lp_rows"] += args[0].g.shape[0] + args[0].a_eq.shape[0]
            self.counts["simplex.lp_cols"] += args[0].num_vars

    def _after(self, name, result, span) -> None:
        if name == "simplex.solve":
            span[5] = result.status
        elif name == "security.build_constraints":
            self.counts["security.alpha"] += result.alpha
            mb = result.a.nbytes / 1e6
            self.counts["security.matrix_mb"] = max(self.counts["security.matrix_mb"], mb)
        elif name == "jsonio.dump":
            self.counts["jsonio.doc_bytes"] += len(result)

    def _wrap_span(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observed = name in ("simplex.solve", "security.build_constraints", "jsonio.dump")

        def wrapper(*args, **kwargs):
            if observed:
                self._before(name, args)
            span = [len(spans), name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if observed:
                self._after(name, result, span)
            return result

        return wrapper

    def _wrap_count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        self.missing = []
        sites = [(s, self._wrap_span) for s in SPAN_SITES] + [(s, self._wrap_count) for s in COUNT_SITES]
        for (module_name, attr, name), wrap in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.installed.add(name)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def mark(self) -> int:
        """Start a phase: reset the counters and return the first span of it."""
        self.counts.clear()
        return len(self.spans)

    def metrics(self, first: int, names) -> dict[str, float]:
        """Layer metrics over the phase that began at span `first`."""
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for span in spans:
            child_time[span[4]] += span[3] - span[2]
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for span in spans:
            own = span[3] - span[2] - child_time[span[0]]
            self_time[(span[1], None)] += own
            if span[5] is not None:
                self_time[(span[1], span[5])] += own
            calls[span[1]] += 1
        out = {}
        for metric in names:
            kind, source, tag = LAYER_METRICS[metric]
            if FED_BY.get(source, source) not in self.installed:
                continue
            if kind == "self":
                out[metric] = self_time[(source, tag)]
            elif kind == "calls":
                out[metric] = float(calls[source])
            else:
                out[metric] = float(self.counts[source])
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\ttag\n")
            for span in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")
