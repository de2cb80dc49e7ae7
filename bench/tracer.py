"""Traced run: timing and counting wrappers around the public functions of each layer.

The wrappers are installed from here, never by editing coxcent.  Each public
function gets one wrapper, which replaces every module binding of it (for
example ``coxcent.enumerate_group``, ``coxcent.finite.enumerate_group`` and
``coxcent.cli.enumerate_group``); methods are wrapped on their class.

Three kinds of wrapper:

* span: records (name, parent, start, end) in memory for every call.  A
  layer's self time is the duration of its spans minus the part covered by
  their child spans.
* leaf: ``AlgebraicScalar.sign`` and ``FieldContext.refine_theta`` run
  millions of times, so they are timed per call but not stored as spans;
  their time is charged to the scalar layer and subtracted from the enclosing
  span's self time (the span's ``leaf`` column).
* count: scalar ``+`` and ``*`` are counted, never timed.

Every job of the traced loop runs inside a ``bench.job`` root span, so time
spent outside any wrapped function shows as the bench layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import random
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("bench", "cli", "finite", "involution", "group", "catalog", "scalar")

SPAN_FUNCTIONS = {
    "cli": ("main", "build_parser", "cmd_reduce", "cmd_involution_nf",
            "cmd_centralizer", "cmd_verify"),
    "finite": ("enumerate_group", "centralizer", "normalizer",
               "verify_centralizer_is_normalizer", "verify_centralizer_certificate",
               "involution_classes"),
    "involution": ("is_involution", "negated_simples", "is_finite_parabolic",
                   "longest_element", "is_minus_one_type", "involution_certificate"),
    "catalog": ("catalog_matrix", "matrix_for_name", "diagram_components",
                "identify_component", "is_finite_diagram"),
}
SPAN_METHODS = {
    "group": (("CoxeterContext", "__init__"), ("CoxeterContext", "element"),
              ("CoxeterContext", "reflect"), ("GroupElement", "__mul__"),
              ("GroupElement", "inverse"), ("GroupElement", "right_descents"),
              ("GroupElement", "left_descents"), ("GroupElement", "act"),
              ("GroupElement", "inversion_set")),
    "involution": (("InvolutionCertificate", "verify"),),
    "scalar": (("FieldContext", "__init__"),),
}
LEAF_METHODS = {"scalar": (("AlgebraicScalar", "sign"), ("FieldContext", "refine_theta"))}
COUNT_METHODS = {"scalar": (("AlgebraicScalar", "__add__"), ("AlgebraicScalar", "__radd__"),
                            ("AlgebraicScalar", "__mul__"), ("AlgebraicScalar", "__rmul__"))}

# field degrees of the benchmark's systems; each gets its own micro-rates
DEGREES = (1, 4, 12)
SAMPLE_STRIDE = 64  # offer one sign() receiver in this many to the sample
SAMPLE_SIZE = 2000
MICRO_REPEATS = 5


class Tracer:
    """Installs the wrappers on one import of coxcent and collects what they see."""

    def __init__(self, cox, seed: int):
        self.cox = cox
        self.active = False
        self.stack: list[int] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_leaf = array("d")
        self.counts: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)  # outermost calls only
        self._depth: Counter = Counter()
        self._in_leaf = False
        self.leaf_layer_s: defaultdict = defaultdict(float)
        self._rng = random.Random(seed)
        self._offered = 0
        self.samples: dict[int, list] = defaultdict(list)
        self._seen_by_degree: Counter = Counter()
        self._installed: list = []
        self._install()

    # --- installation ---------------------------------------------------------

    def _modules(self):
        cox = self.cox
        return (cox, cox.scalar, cox.group, cox.catalog, cox.involution, cox.finite, cox.cli)

    def _install(self):
        cox = self.cox
        replace = {}
        for layer, names in SPAN_FUNCTIONS.items():
            module = getattr(cox, layer)
            for name in names:
                fn = getattr(module, name)
                replace[fn] = self._span(fn, f"{layer}.{name}", *self._hooks(f"{layer}.{name}"))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replace:
                    self._set(module, attr, replace[value])
        for kinds, make in ((SPAN_METHODS, "span"), (LEAF_METHODS, "leaf"),
                            (COUNT_METHODS, "count")):
            for layer, methods in kinds.items():
                module = getattr(cox, layer)
                for cls_name, meth in methods:
                    cls = getattr(module, cls_name)
                    fn = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if make == "span":
                        wrapper = self._span(fn, name, *self._hooks(name))
                    elif make == "leaf":
                        wrapper = self._leaf(fn, name, layer)
                    else:
                        wrapper = self._count(fn, name)
                    self._set(cls, meth, wrapper)

    def _set(self, owner, attr, value):
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original function back, newest binding first."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # --- counting hooks: (before, after, on_error) per span name ---------------

    def _hooks(self, name):
        counts = self.counts
        cox = self.cox
        if name == "finite.enumerate_group":
            def after(args, result):
                counts["finite.elements_enumerated"] += len(result)

            def on_error(exc):
                if isinstance(exc, cox.finite.EnumerationCapExceeded):
                    counts["finite.cap_exceeded"] += 1
                    counts["finite.elements_enumerated"] += exc.cap
            return None, after, on_error
        if name in ("group.CoxeterContext.element", "group.GroupElement.__mul__",
                    "group.GroupElement.inverse"):
            def after(args, result):
                if result is not NotImplemented:
                    counts["group.nf_letters"] += len(result.word)
            return None, after, None
        if name == "involution.involution_certificate":
            def after(args, result):
                counts["involution.cert_steps"] += len(result.steps)
            return None, after, None
        if name == "involution.longest_element":
            def before(args):
                ctx, subset = args[0], args[1]
                if frozenset(subset) in ctx._longest_memo:  # read-only look at the memo
                    counts["involution.longest_memo_hits"] += 1
            return before, None, None
        return None, None, None

    # --- wrapper factories ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, fn, name, before=None, after=None, on_error=None):
        nid = self._name_id(name)
        tracer = self
        stack, counts, inclusive, depth = self.stack, self.counts, self.inclusive, self._depth
        names, parents = self.span_name, self.span_parent
        starts, ends, leaves = self.span_start, self.span_end, self.span_leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            counts[name] += 1
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            leaves.append(0.0)
            stack.append(idx)
            outer = not depth[name]
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                starts[idx] = start
                ends[idx] = end
                if outer:
                    inclusive[name] += end - start
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _leaf(self, fn, name, layer):
        tracer = self
        stack, counts, inclusive = self.stack, self.counts, self.inclusive
        leaves, leaf_layer_s = self.span_leaf, self.leaf_layer_s
        is_sign = name.endswith(".sign")

        @functools.wraps(fn)
        def wrapper(self_, *args):
            if not tracer.active:
                return fn(self_, *args)
            counts[name] += 1
            if is_sign:
                if self_._sign is not None:  # read-only look at the per-scalar cache
                    counts["scalar.sign_cache_hits"] += 1
                tracer._offer(self_)
            else:
                counts["scalar.refine_halvings"] += args[0]
            if tracer._in_leaf:  # refine_theta inside sign: the outer leaf times it
                start = perf_counter()
                result = fn(self_, *args)
                inclusive[name] += perf_counter() - start
                return result
            tracer._in_leaf = True
            start = perf_counter()
            try:
                return fn(self_, *args)
            finally:
                elapsed = perf_counter() - start
                tracer._in_leaf = False
                inclusive[name] += elapsed
                leaf_layer_s[layer] += elapsed
                if stack:
                    leaves[stack[-1]] += elapsed

        return wrapper

    def _count(self, fn, name):
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            if tracer.active:
                counts[name] += 1
            return fn(a, b)

        return wrapper

    def _offer(self, scalar):
        # seeded reservoir sample, per field degree, of the coordinates sign() sees
        self._offered += 1
        if self._offered % SAMPLE_STRIDE:
            return
        degree = scalar.field.degree
        seen = self._seen_by_degree[degree] = self._seen_by_degree[degree] + 1
        sample = self.samples[degree]
        if len(sample) < SAMPLE_SIZE:
            sample.append(scalar)
        else:
            k = self._rng.randrange(seen)
            if k < SAMPLE_SIZE:
                sample[k] = scalar

    # --- the job root span ------------------------------------------------------

    def traced(self, run):
        """run(state, job) wrapped in a bench.job root span, with tracing on."""
        root = self._span(run, "bench.job")

        def traced_run(state, job):
            self.active = True
            try:
                return root(state, job)
            finally:
                self.active = False

        return traced_run

    # --- results ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer from the stored spans plus the aggregated leaves."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = dict.fromkeys(LAYERS, 0.0)
        names, leaves = self.span_name, self.span_leaf
        for i in range(n):
            out[layer_of[names[i]]] += ends[i] - starts[i] - child[i] - leaves[i]
        for layer, seconds in self.leaf_layer_s.items():
            out[layer] += seconds
        return out

    def write_spans(self, path) -> int:
        """Write every span as one tab-separated line (gzip); returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\tleaf_s\n")
            for i, (nid, parent, start, end, leaf) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start,
                    self.span_end, self.span_leaf)):
                fh.write(f"{i}\t{names[nid]}\t{parent}\t{start!r}\t{end!r}\t{leaf!r}\n")
        return len(self.span_name)

    def micro_rates(self) -> dict[str, float]:
        """ns per scalar +, * and cold sign() on the sampled coordinates, per degree.

        Call after uninstall(), so the original methods are timed.  Each figure
        is the median of MICRO_REPEATS passes over the sample and includes the
        Python loop around the operation.
        """
        cls = self.cox.scalar.AlgebraicScalar
        out = {}
        for degree in DEGREES:
            sample = self.samples.get(degree, [])
            add = mul = sign = 0.0
            if sample:
                by_field = defaultdict(list)  # only scalars of one field combine
                for a in sample:
                    by_field[a.field].append(a)
                pairs = []
                for group in by_field.values():
                    partners = group[:]
                    self._rng.shuffle(partners)
                    pairs.extend(zip(group, partners))
                add = _ns_per_op(lambda: [a + b for a, b in pairs], len(pairs))
                mul = _ns_per_op(lambda: [a * b for a, b in pairs], len(pairs))
                times = []
                for _ in range(MICRO_REPEATS):
                    fresh = [cls(a.field, a.coeffs) for a in sample]  # sign not yet cached
                    start = perf_counter()
                    for a in fresh:
                        a.sign()
                    times.append(perf_counter() - start)
                sign = statistics.median(times) * 1e9 / len(sample)
            out[f"scalar.add_ns.d{degree}"] = add
            out[f"scalar.mul_ns.d{degree}"] = mul
            out[f"scalar.sign_ns.d{degree}"] = sign
        return out

    def layer_metrics(self, own: dict[str, float], overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric; `own` is self_times(), computed once by the caller."""
        c, t = self.counts, self.inclusive

        def ratio(a, b):
            return a / b if b else 0.0

        enum_s = t["finite.enumerate_group"]
        nf_s = (t["group.CoxeterContext.element"] + t["group.GroupElement.__mul__"]
                + t["group.GroupElement.inverse"])
        descents = ("group.GroupElement.right_descents", "group.GroupElement.left_descents")
        catalog = [f"catalog.{n}" for n in SPAN_FUNCTIONS["catalog"]]
        m = {
            "finite.enumerate_calls": c["finite.enumerate_group"],
            "finite.enumerate_s": enum_s,
            "finite.elements_enumerated": c["finite.elements_enumerated"],
            "finite.enumerate_elems_per_s": ratio(c["finite.elements_enumerated"], enum_s),
            "finite.cap_exceeded": c["finite.cap_exceeded"],
            "finite.centralizer_s": t["finite.centralizer"],
            "finite.normalizer_s": t["finite.normalizer"],
            "finite.classes_s": t["finite.involution_classes"],
            "finite.verify_cert_s": t["finite.verify_centralizer_certificate"],
            "finite.verify_prop2_s": t["finite.verify_centralizer_is_normalizer"],
            "finite.self_s": own["finite"],
            "group.context_inits": c["group.CoxeterContext.__init__"],
            "group.context_init_s": t["group.CoxeterContext.__init__"],
            "group.element_calls": c["group.CoxeterContext.element"],
            "group.element_s": t["group.CoxeterContext.element"],
            "group.mul_calls": c["group.GroupElement.__mul__"],
            "group.mul_s": t["group.GroupElement.__mul__"],
            "group.inverse_calls": c["group.GroupElement.inverse"],
            "group.inverse_s": t["group.GroupElement.inverse"],
            "group.descent_calls": sum(c[n] for n in descents),
            "group.descent_s": sum(t[n] for n in descents),
            "group.nf_letters": c["group.nf_letters"],
            "group.ns_per_nf_letter": ratio(nf_s * 1e9, c["group.nf_letters"]),
            "group.self_s": own["group"],
            "involution.cert_calls": c["involution.involution_certificate"],
            "involution.cert_s": t["involution.involution_certificate"],
            "involution.cert_steps": c["involution.cert_steps"],
            "involution.verify_calls": c["involution.InvolutionCertificate.verify"],
            "involution.verify_s": t["involution.InvolutionCertificate.verify"],
            "involution.longest_calls": c["involution.longest_element"],
            "involution.longest_s": t["involution.longest_element"],
            "involution.longest_memo_hit_ratio": ratio(c["involution.longest_memo_hits"],
                                                       c["involution.longest_element"]),
            "involution.minus_one_calls": c["involution.is_minus_one_type"],
            "involution.minus_one_s": t["involution.is_minus_one_type"],
            "involution.self_s": own["involution"],
            "scalar.field_inits": c["scalar.FieldContext.__init__"],
            "scalar.field_init_s": t["scalar.FieldContext.__init__"],
            "scalar.sign_calls": c["scalar.AlgebraicScalar.sign"],
            "scalar.sign_s": t["scalar.AlgebraicScalar.sign"],
            "scalar.sign_cache_hit_ratio": ratio(c["scalar.sign_cache_hits"],
                                                 c["scalar.AlgebraicScalar.sign"]),
            "scalar.refine_calls": c["scalar.FieldContext.refine_theta"],
            "scalar.refine_halvings": c["scalar.refine_halvings"],
            "scalar.add_calls": c["scalar.AlgebraicScalar.__add__"]
            + c["scalar.AlgebraicScalar.__radd__"],
            "scalar.mul_calls": c["scalar.AlgebraicScalar.__mul__"]
            + c["scalar.AlgebraicScalar.__rmul__"],
            "scalar.self_s": own["scalar"],
        }
        m.update(self.micro_rates())
        m["catalog.calls"] = sum(c[n] for n in catalog)
        m["catalog.s"] = own["catalog"]
        m["cli.calls"] = c["cli.main"]
        m["cli.self_s"] = own["cli"]
        m["trace.overhead_ratio"] = overhead_ratio
        return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "_ns" in name:
        return "ns"
    return "count"


def _ns_per_op(loop, ops: int) -> float:
    times = []
    for _ in range(MICRO_REPEATS):
        start = perf_counter()
        loop()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e9 / ops
