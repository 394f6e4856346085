"""Per-layer tracing of rkhslab from outside the program.

Tracer.install() replaces public names of the library with wrappers in the
modules that look them up (module globals for functions, the class for
methods), so the source stays untouched; uninstall() restores them. Timed
wrappers record spans [name, request id, parent span, start, end]; counted
wrappers only bump a counter, for hot inner calls that cost little more
than a timer would.

A layer's _ms metric is the time inside its spans per request, inclusive of
what they call, unless its name says self: then the time its spans' direct
children cover is taken off.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module that looks the name up, attribute, span name)
TIMED = [
    ("rkhslab.kernels", "PointSet.__init__", "kernels.pointset"),
    ("rkhslab.kernels", "PowerSeriesKernel.__init__", "kernels.spec"),
    ("rkhslab.kernels", "DruryArvesonKernel.__init__", "kernels.spec"),
    ("rkhslab.kernels", "SampledGramKernel.__init__", "kernels.spec"),
    ("rkhslab.kernels", "PowerSeriesKernel.gram", "kernels.gram"),
    ("rkhslab.kernels", "DruryArvesonKernel.gram", "kernels.gram"),
    ("rkhslab.kernels", "SampledGramKernel.gram", "kernels.gram"),
    ("rkhslab.reconstruct", "check_irreducible_sample", "kernels.irreducible"),
    ("rkhslab.cli", "irreducible_partition", "kernels.partition"),
    ("rkhslab.kernels", "psd_check", "linalg.psd_check"),
    ("rkhslab.cnp", "psd_check", "linalg.psd_check"),
    ("rkhslab.pick", "psd_check", "linalg.psd_check"),
    ("rkhslab.linalg", "psd_check", "linalg.psd_check"),
    ("rkhslab.pick", "min_eigenvalue", "linalg.min_eigenvalue"),
    ("rkhslab.fock", "min_eigenvalue", "linalg.min_eigenvalue"),
    ("rkhslab.cnp", "psd_factor", "linalg.psd_factor"),
    ("rkhslab.cli", "cnp_sample_check", "cnp.sample_check"),
    ("rkhslab.reconstruct", "cnp_sample_check", "cnp.sample_check"),
    ("rkhslab.cli", "agler_mccarthy_embed", "cnp.embed"),
    ("rkhslab.reconstruct", "agler_mccarthy_embed", "cnp.embed"),
    ("rkhslab.cnp", "one_minus_inverse", "cnp.one_minus_inverse"),
    ("rkhslab.cnp", "FiniteRadii.__init__", "cnp.family"),
    ("rkhslab.cnp", "GeometricTail.__init__", "cnp.family"),
    ("rkhslab.cnp", "PolynomialTail.__init__", "cnp.family"),
    ("rkhslab.cli", "blaschke_classify", "cnp.family"),
    ("rkhslab.cli", "ratio_report", "cnp.ratio"),
    ("rkhslab.cli", "classify", "reconstruct.classify"),
    ("rkhslab.pick", "PickProblem.__init__", "pick.problem"),
    ("rkhslab.cli", "minimal_interpolation_norm", "pick.solve"),
    ("rkhslab.cli", "pick_feasible", "pick.solve"),
    ("rkhslab.fock", "compression_defect", "fock.defect"),
    ("rkhslab.fock", "mult_adjoint_apply", "fock.adjoint"),
    ("rkhslab.fock", "tail_balance", "fock.balance"),
    ("rkhslab.fock", "span_of_polynomials", "fock.span"),
    ("rkhslab.fock", "vanishing_subspace", "fock.span"),
    ("rkhslab.fock", "TruncatedSpace.kernel_vector", "fock.kernel_vector"),
    ("rkhslab.fock", "in_closure", "fock.closure"),
    ("rkhslab.fock", "arveson_example", "fock.arveson"),
    ("rkhslab.fock", "TruncatedSpace.__init__", "fock.space"),
    ("rkhslab.fock", "FockSubspace.__init__", "fock.space"),
    ("rkhslab.fock", "Polynomial.__pow__", "fock.power"),
]

# Counted after the timed wrappers are in place, so pick.psd_check counts the
# feasibility tests that pick makes through the timed linalg.psd_check.
COUNTED = [
    ("rkhslab.kernels", "PowerSeriesKernel.evaluate", "kernels.evaluate"),
    ("rkhslab.kernels", "DruryArvesonKernel.evaluate", "kernels.evaluate"),
    ("rkhslab.cnp", "normalize", "kernels.normalize"),
    ("rkhslab.reconstruct", "normalize", "kernels.normalize"),
    ("rkhslab.fock", "inner_product", "fock.inner_product"),
    ("rkhslab.fock", "Polynomial.__mul__", "fock.poly_mult"),
    ("rkhslab.fock", "Polynomial.__rmul__", "fock.poly_mult"),
    ("rkhslab.pick", "psd_check", "pick.psd_check"),
]

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.requests = 0
        self._request = -1
        self._stack: list = []
        self._saved: list = []

    def _timed(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self._request, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module: str, attr: str, make, name: str) -> None:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        setattr(owner, leaf, make(name, original))
        self._saved.append((owner, leaf, original))

    def install(self) -> None:
        for module, attr, name in TIMED:
            self._patch(module, attr, self._timed, name)
        for module, attr, name in COUNTED:
            self._patch(module, attr, self._counted, name)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def call(self, request_id: int, main, argv):
        """Run main(argv) as the root span of one request."""
        self._request = request_id
        self.requests += 1
        return self._timed(ROOT_SPAN, main)(argv)

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds (outermost spans of the
        name only) and self seconds."""
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        children: defaultdict = defaultdict(float)
        spans = self.spans
        for name, _req, parent, t0, t1 in spans:
            if parent >= 0:
                children[parent] += t1 - t0
        for i, (name, _req, parent, t0, t1) in enumerate(spans):
            calls[name] += 1
            self_time[name] += t1 - t0 - children[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][2]
            if p < 0:
                inclusive[name] += t1 - t0
        return calls, inclusive, self_time

    def layer_metrics(self) -> dict:
        """The per-layer metrics, averaged per traced request."""
        calls, incl, self_t = self.totals()
        n = max(self.requests, 1)

        def ms(*names, table=incl):
            return 1e3 * sum(table[x] for x in names) / n

        def per_request(*names, table=self.counts):
            return sum(table[x] for x in names) / n

        solves = calls["pick.solve"]
        return {
            "cli.self_ms": ms(ROOT_SPAN, table=self_t),
            "kernels.pointset_ms": ms("kernels.pointset"),
            "kernels.gram_ms": ms("kernels.gram"),
            "kernels.evaluate_calls": per_request("kernels.evaluate"),
            "kernels.irreducible_ms": ms("kernels.irreducible"),
            "kernels.normalize_calls": per_request("kernels.normalize"),
            "kernels.partition_ms": ms("kernels.partition"),
            "linalg.eigensolves": per_request(
                "linalg.psd_check", "linalg.min_eigenvalue", "linalg.psd_factor", table=calls
            ),
            "linalg.psd_ms": ms("linalg.psd_check", "linalg.min_eigenvalue"),
            "linalg.factor_ms": ms("linalg.psd_factor"),
            "cnp.sample_check_ms": ms("cnp.sample_check"),
            "cnp.embed_ms": ms("cnp.embed"),
            "cnp.one_minus_inverse_ms": ms("cnp.one_minus_inverse"),
            "cnp.family_ms": ms("cnp.family"),
            "cnp.ratio_ms": ms("cnp.ratio"),
            "reconstruct.classify_self_ms": ms("reconstruct.classify", table=self_t),
            "pick.solve_ms": ms("pick.solve"),
            "pick.psd_checks": self.counts["pick.psd_check"] / solves if solves else 0.0,
            "fock.defect_ms": ms("fock.defect"),
            "fock.inner_products": per_request("fock.inner_product"),
            "fock.poly_mults": per_request("fock.poly_mult"),
            "fock.adjoint_ms": ms("fock.adjoint"),
            "fock.balance_ms": ms("fock.balance"),
            "fock.span_ms": ms("fock.span"),
            "fock.kernel_vector_ms": ms("fock.kernel_vector"),
            "fock.closure_ms": ms("fock.closure"),
        }

    def write(self, path) -> None:
        """Spans as JSON lines: name, request, parent, start, end (seconds)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
