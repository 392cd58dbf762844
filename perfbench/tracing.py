"""Per-layer spans for the traced benchmark run, installed from outside.

``Tracer.install`` wraps every public function of the library modules
(their ``__all__``, plus ``cli.main``) and rebinds each name that holds
one, in the defining module, in every module that imported it (for
example ``complexes.random_invertible``, ``product.validate``,
``counting.rank_batch``, ``experiments.random_boundary``,
``cli.product``) and in the package namespace.  No library file changes.

Each call records a span: name, start, end and the index of its parent
span, kept in memory.  A span's self time is its duration minus the
durations of its child spans.  The self times of all spans plus the time
outside every span (the benchmark's own code) add up to the traced wall
time by construction; the check that no call was lost is the count of
top-level spans against the calls the workload makes (``top_calls``).

``metrics`` reports every name the tracer can produce, with 0 for a
function the run did not call, so a metric name that is missing from it
names no span, layer or counter.

Span names are ``<module>.<function>``, except:

- ``gf.text``: matrix_to_text, matrix_from_text, complex_to_text and
  complex_from_text, which together carry the text format;
- ``counting.closed_form``: the closed-form counts (gaussian_binomial,
  count_rank_matrices, count_rank_extensions, count_cycles_by_rank,
  count_reduced_cycles);
- ``css.min_distance.<mode>``;
- ``cli.main.<subcommand>``.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("gf", "complexes", "product", "css", "reduction", "counting", "experiments", "cli")
TEXT_FUNCS = frozenset({"matrix_to_text", "matrix_from_text", "complex_to_text", "complex_from_text"})
CLOSED_FORMS = frozenset({
    "gaussian_binomial", "count_rank_matrices", "count_rank_extensions",
    "count_cycles_by_rank", "count_reduced_cycles",
})
MC_EXPERIMENTS = ("mc_low_weight_kernel", "mc_goodness", "mc_uniform_low_weight")
DISTANCE_MODES = ("exhaustive", "bounded")
COUNTERS = (
    "gf.text.bytes", "gf.rank_batch.matrices", "gf.random_invertible.draws",
    "gf.random_invertible.proxied_calls", "css.kernel_vectors", "cli.bytes_written",
    *(f"experiments.{exp}.{what}" for exp in MC_EXPERIMENTS for what in ("trials", "successes")),
)


class CountingGenerator:
    """Forwards to a numpy Generator and counts its ``integers`` calls.

    The wrapped generator does every draw, so the random stream is the
    one the library would see without the proxy.
    """

    __slots__ = ("_rng", "draws")

    def __init__(self, rng) -> None:
        self._rng = rng
        self.draws = 0

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self, lib, package) -> None:
        self.lib = lib
        self.package = package
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        # Span names the installed wrappers record (cli.main.<subcommand>
        # names are known once recorded).
        self.span_names: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._rank = lib.gf.rank

    # ------------------------------------------------------------ spans

    def _span(self, name: str, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _in_text_span(self) -> bool:
        return bool(self._stack) and self.names[self._stack[-1]] == "gf.text"

    def _wrap(self, layer: str, attr: str, fn):
        span = self._span
        counters = self.counters
        self.span_names.update(self._span_names(layer, attr))
        if attr in TEXT_FUNCS:
            reads = attr.endswith("_from_text")

            def wrapper(*args, **kwargs):
                # complex_to_text calls matrix_to_text: count bytes once.
                outer = not self._in_text_span()
                result = span("gf.text", fn, args, kwargs)
                if outer:
                    counters["gf.text.bytes"] += len(args[0] if reads else result)
                return result
        elif attr in CLOSED_FORMS:
            def wrapper(*args, **kwargs):
                return span("counting.closed_form", fn, args, kwargs)
        elif attr == "rank_batch":
            def wrapper(*args, **kwargs):
                counters["gf.rank_batch.matrices"] += len(args[0])
                return span("gf.rank_batch", fn, args, kwargs)
        elif attr == "random_invertible":
            def wrapper(field, n, rng):
                before = getattr(rng, "draws", None)
                result = span("gf.random_invertible", fn, (field, n, rng), {})
                if before is not None:
                    counters["gf.random_invertible.draws"] += rng.draws - before
                    counters["gf.random_invertible.proxied_calls"] += 1
                return result
        elif attr == "trial_rng":
            def wrapper(*args, **kwargs):
                return CountingGenerator(span("experiments.trial_rng", fn, args, kwargs))
        elif attr == "min_distance":
            def wrapper(code, mode="exhaustive", *args, **kwargs):
                result = span(f"css.min_distance.{mode}", fn, (code, mode, *args), kwargs)
                if mode == "exhaustive":
                    p = code.field.order
                    counters["css.kernel_vectors"] += (
                        p ** (code.n_phys - self._rank(code.x_gens))
                        + p ** (code.n_phys - self._rank(code.z_gens))
                    )
                return result
        elif attr in MC_EXPERIMENTS:
            def wrapper(*args, **kwargs):
                report = span(f"experiments.{attr}", fn, args, kwargs)
                counters[f"experiments.{attr}.trials"] += report.trials
                counters[f"experiments.{attr}.successes"] += report.successes
                return report
        elif layer == "cli":
            def wrapper(argv=None):
                result = span(f"cli.main.{(argv or ['none'])[0]}", fn, (argv,), {})
                for flag, value in zip(argv or [], (argv or [])[1:]):
                    if flag in ("--out", "--csv"):
                        for p in (value, value + ".manifest.json"):
                            if os.path.exists(p):
                                counters["cli.bytes_written"] += os.path.getsize(p)
                return result
        else:
            name = f"{layer}.{attr}"

            def wrapper(*args, **kwargs):
                return span(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    @staticmethod
    def _span_names(layer: str, attr: str) -> tuple[str, ...]:
        if attr in TEXT_FUNCS:
            return ("gf.text",)
        if attr in CLOSED_FORMS:
            return ("counting.closed_form",)
        if attr == "min_distance":
            return tuple(f"css.min_distance.{mode}" for mode in DISTANCE_MODES)
        if layer == "cli":
            return ()
        return (f"{layer}.{attr}",)

    # ---------------------------------------------------- install / undo

    def install(self) -> None:
        wrappers = {}
        modules = [getattr(self.lib, layer) for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr in getattr(mod, "__all__", ["main"]):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(layer, attr, fn)
        for mod in (self.package, *modules):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    # ----------------------------------------------------------- report

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-span-name self time and calls, per-layer totals, the
        counters and ratios, and the wall-time accounting."""
        out: dict[str, float] = defaultdict(float)
        for name in self.span_names | set(self.names):
            out[f"{name}.self_s"] = out[f"{name}.calls"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        n = len(self.names)
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += dur
            else:
                top += dur
        for i in range(n):
            self_s = self.ends[i] - self.starts[i] - child[i]
            name = self.names[i]
            out[f"{name}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            out[f"{name.split('.')[0]}.self_s"] += self_s
        out.update(self.counters)

        def ratio(num: str, den: str) -> float:
            return out[num] / out[den] if out[den] else 0.0

        out["gf.rank_batch.matrices_per_s"] = ratio("gf.rank_batch.matrices", "gf.rank_batch.self_s")
        out["gf.random_invertible.draws_per_accept"] = ratio(
            "gf.random_invertible.draws", "gf.random_invertible.proxied_calls"
        )
        for exp in MC_EXPERIMENTS:
            out[f"experiments.{exp}.hit_ratio"] = ratio(
                f"experiments.{exp}.successes", f"experiments.{exp}.trials"
            )
        out["trace.spans"] = n
        out["trace.wall_s"] = wall_s
        out["trace.untraced_s"] = wall_s - top
        return dict(out)

    def top_calls(self) -> Counter:
        """Calls per span name made from outside every span, that is by
        the benchmark itself."""
        return Counter(name for name, parent in zip(self.names, self.parents) if parent < 0)

    def spans(self, origin: float) -> dict:
        """The raw spans, times relative to ``origin``."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "name": [index[name] for name in self.names],
            "parent": self.parents,
            "start": [t - origin for t in self.starts],
            "end": [t - origin for t in self.ends],
        }
