"""Layer spans and counters recorded from outside the library.

`Tracer.installed()` replaces public callables of each `amencert` module
with wrappers for the duration of a `with` block and restores them after.
A span wrapper records (name, start, end, parent, job) in memory; a
counter wrapper only counts. Calls that happen millions of times per job
(group multiplication and element checks, the flow oracle) are counted,
not spanned, so tracing stays affordable.

Module-level functions are replaced under every name that refers to them
in the loaded `amencert` modules, since the CLI and other modules import
them by name.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

from amencert import amenability, cli, complexes, functions, groups, pairing, witnesses

# span names; each gives `<name>_s` (time covered) and `<name>.self_s`
SPANS = (
    "groups.construct", "groups.ball",
    "functions.add", "functions.translate", "functions.pair_eval",
    "complexes.boundary", "complexes.cochain_value", "complexes.inflate", "complexes.deflate",
    "pairing.pair", "pairing.certificate",
    "amenability.folner", "amenability.candidate", "amenability.reiter", "amenability.h0", "amenability.iso",
    "witnesses.verify", "witnesses.certificate",
    "cli",
)

COUNTERS = (
    "groups.ball_elems", "groups.mul_calls", "groups.check_calls",
    "functions.add_calls", "functions.add_coeffs", "functions.translate_calls", "functions.pair_eval_calls",
    "complexes.boundary_calls", "complexes.cochain_value_calls",
    "pairing.pair_calls", "pairing.slice_keys",
    "amenability.candidates", "amenability.candidate_elems", "amenability.accepted",
    "amenability.h0_order", "amenability.subsets",
    "witnesses.pairs_checked", "witnesses.oracle_calls", "witnesses.oracle_distinct",
    "cli.out_bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = None
        self._oracle_job = None
        self._oracle_seen: set = set()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _oracle(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(fs, s, g):
            counts["witnesses.oracle_calls"] += 1
            if self._oracle_job != self.job:
                self._oracle_job = self.job
                self._oracle_seen = set()
            key = hash((s, g))
            if key not in self._oracle_seen:
                self._oracle_seen.add(key)
                counts["witnesses.oracle_distinct"] += 1
            return fn(fs, s, g)

        return wrapper

    # -- installation -------------------------------------------------------

    def _plan(self):
        """(owner, attribute, wrapper factory) for every traced callable."""
        count = self.count
        orig_ball = groups.GroupSpec.ball

        def ball_after(result, group, radius):
            count("groups.ball_elems", len(result))

        def add_after(result, a, b):
            count("functions.add_calls")
            count("functions.add_coeffs", len(a.items()) + len(b.items()))

        def pair_after(result, phi, c):
            count("pairing.pair_calls")
            count("pairing.slice_keys", len(c.slice))

        def folner_after(result, *args, **kwargs):
            count("amenability.accepted", isinstance(result, amenability.FolnerCertificate))

        def candidate_after(result, *args, **kwargs):
            count("amenability.candidates")
            count("amenability.candidate_elems", len(result.members))

        # h0_order (the order the H_0 report states) and subsets (2^|ball| - 1) are
        # sizes of the jobs' inputs: they give h0_s and iso_s their scale and
        # stay fixed under any change to the program
        def h0_after(result, group):
            count("amenability.h0_order", result.order)

        def iso_after(result, group, radius):
            count("amenability.subsets", (1 << len(orig_ball(group, radius))) - 1)

        def verify_after(result, *args, **kwargs):
            count("witnesses.pairs_checked", result.points_checked)

        def spanned(name, after=None, calls=None):
            def make(fn):
                def then(result, *args, **kwargs):
                    if calls:
                        count(calls)
                    if after:
                        after(result, *args, **kwargs)
                return self.span(name, fn, then)
            return make

        plan = []
        for cls in (groups.FreeGroup, groups.FreeAbelianGroup, groups.FiniteGroup):
            plan.append((cls, "__init__", spanned("groups.construct")))
            plan.append((cls, "mul", functools.partial(self.counter, "groups.mul_calls")))
            plan.append((cls, "check", functools.partial(self.counter, "groups.check_calls")))
        plan += [
            (groups.GroupSpec, "ball", spanned("groups.ball", ball_after)),
            (functions.FinSuppFn, "__add__", spanned("functions.add", add_after)),
            (functions.FinSuppFn, "translate", spanned("functions.translate", calls="functions.translate_calls")),
            (functions, "pair_eval", spanned("functions.pair_eval", calls="functions.pair_eval_calls")),
            (complexes.EquivariantChain, "boundary", spanned("complexes.boundary", calls="complexes.boundary_calls")),
            (complexes.UfChain, "boundary", spanned("complexes.boundary", calls="complexes.boundary_calls")),
            (complexes.BoundedCochain, "value_at",
             spanned("complexes.cochain_value", calls="complexes.cochain_value_calls")),
            (complexes, "inflate", spanned("complexes.inflate")),
            (complexes, "deflate", spanned("complexes.deflate")),
            (pairing, "pair", spanned("pairing.pair", pair_after)),
            (pairing, "make_pairing_certificate", spanned("pairing.certificate")),
            (amenability, "folner_search", spanned("amenability.folner", folner_after)),
            (amenability, "folner_certificate_from_set", spanned("amenability.candidate", candidate_after)),
            (amenability, "reiter_ratio", spanned("amenability.reiter")),
            (amenability, "finite_h0", spanned("amenability.h0", h0_after)),
            (amenability, "isoperimetric_argmin", spanned("amenability.iso", iso_after)),
            (witnesses, "verify_flow_cycle", spanned("witnesses.verify", verify_after)),
            (witnesses, "flow_value", self._oracle),
            (witnesses, "flow_pairing_certificate", spanned("witnesses.certificate")),
            (cli, "main", spanned("cli")),
        ]
        return plan

    @contextlib.contextmanager
    def installed(self):
        modules = [m for name, m in sys.modules.items() if name == "amencert" or name.startswith("amencert.")]
        undo = []
        try:
            for owner, attr, make in self._plan():
                original = getattr(owner, attr)
                if isinstance(owner, type):
                    targets = [owner]
                else:
                    targets = [m for m in modules if getattr(m, attr, None) is original]
                wrapper = make(original)
                for target in targets:
                    for name, value in list(vars(target).items()):
                        if value is original:
                            undo.append((target, name, original))
                            setattr(target, name, wrapper)
            yield self
        finally:
            for target, name, original in reversed(undo):
                setattr(target, name, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals: covered time and self time per span name, counters, ratios."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        covered = dict.fromkeys(SPANS, 0.0)
        self_time = dict.fromkeys(SPANS, 0.0)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name not in covered:
                continue
            self_time[name] += end - start - child_time[i]
            # time covered: skip spans nested inside a span of the same name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                covered[name] += end - start
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}_s"] = covered[name]
            out[f"{name}.self_s"] = self_time[name]
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        c = self.counts
        out["amenability.accept_ratio"] = c["amenability.accepted"] / c["amenability.candidates"] if c["amenability.candidates"] else 0.0
        out["witnesses.oracle_useful_ratio"] = (
            c["witnesses.oracle_distinct"] / c["witnesses.oracle_calls"] if c["witnesses.oracle_calls"] else 0.0
        )
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, job."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}))
                fh.write("\n")
