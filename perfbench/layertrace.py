"""Layer tracing from outside the program: wrap each module boundary.

Every wrapped callable counts its calls and accumulates inclusive time and
self time (inclusive time minus the time of wrapped callees). Coarse
boundaries (the CLI entry points and each property check) also record one
span per call, with its parent, so a traced run keeps one span per
descriptor x check. Spans stay in memory until the run writes them out.

A callable is patched at every binding site inside the ``lcft`` package:
class attributes for methods, and every module global (or module-level
dict entry, such as the CLI's handler table) that refers to a function.
That covers names imported with ``from ... import``, which a patch of
the defining module alone would miss.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, attribute path): the hot boundaries, aggregated only
HOT = (
    ("ffield.FieldTower", "lcft.ffield", "FieldTower.__init__"),
    ("series.mul", "lcft.series", "LaurentSeries.__mul__"),
    ("series.inverse", "lcft.series", "LaurentSeries.inverse"),
    ("series.pow", "lcft.series", "LaurentSeries.__pow__"),
    ("series.nth_root", "lcft.series", "LaurentSeries.nth_root"),
    ("extension.GaloisElement.init", "lcft.extension",
     "GaloisElement.__init__"),
    ("extension.GaloisElement.mul", "lcft.extension", "GaloisElement.__mul__"),
    ("extension.GaloisElement.apply", "lcft.extension", "GaloisElement.apply"),
    ("extension.galois_group", "lcft.extension",
     "TameAbelianExtension.galois_group"),
    ("extension.embed", "lcft.extension", "TameAbelianExtension.embed"),
    ("extension.project", "lcft.extension", "TameAbelianExtension.project"),
    ("reciprocity.norm", "lcft.reciprocity", "norm"),
    ("reciprocity.norm_group", "lcft.reciprocity", "norm_group"),
    ("reciprocity.is_norm", "lcft.reciprocity", "is_norm"),
    ("reciprocity.reciprocity_search", "lcft.reciprocity",
     "reciprocity_search"),
    ("reciprocity.congruence_rhs", "lcft.reciprocity", "congruence_rhs"),
    ("reciprocity.reciprocity_map", "lcft.reciprocity", "reciprocity_map"),
    ("reciprocity.random_unit_series", "lcft.reciprocity",
     "random_unit_series"),
    ("snf.invariant_factors", "lcft.snf", "invariant_factors"),
    ("brauer.character_group", "lcft.brauer", "character_group"),
    ("brauer.hasse_invariant", "lcft.brauer", "hasse_invariant"),
    ("brauer.cyclic_algebra_check", "lcft.brauer", "cyclic_algebra_check"),
    ("brauer.CrossedProduct.multiply", "lcft.brauer",
     "CrossedProduct.multiply"),
    ("brauer.frobenius_exponent", "lcft.brauer", "frobenius_exponent"),
)

# the coarse boundaries, which also record spans
ENTRY = (
    ("cli.build_extension", "lcft.cli", "build_extension"),
    ("cli.cmd_check", "lcft.cli", "cmd_check"),
)
CHECK_PREFIX = "check_"


def check_boundaries() -> tuple:
    """One span boundary per property check defined in ``lcft.checks``."""
    checks = sys.modules["lcft.checks"]
    return tuple((f"checks.{name[len(CHECK_PREFIX):]}", "lcft.checks", name)
                 for name, value in vars(checks).items()
                 if name.startswith(CHECK_PREFIX) and callable(value))


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a module global or class method."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Counts, inclusive and self time per boundary, and spans per call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}          # name -> [calls, inclusive s, self s]
        self.spans = []
        self.trace_id = None     # set by the caller: the descriptor index
        self._children = []      # wrapped-callee time of each open call
        self._open_spans = []
        self._patches = []       # (owner, key, original), owner a dict or class
        self._epoch = clock()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, spans):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = self.clock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        if not spans:
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = {"trace": self.trace_id, "id": len(self.spans),
                    "parent": self._open_spans[-1] if self._open_spans
                    else None, "name": name}
            self.spans.append(span)
            self._open_spans.append(span["id"])
            span["start"] = clock() - self._epoch
            try:
                return counted(*args, **kwargs)
            finally:
                span["end"] = clock() - self._epoch
                self._open_spans.pop()

        return spanned

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every boundary at every binding site in the lcft package."""
        modules = [m for n, m in sys.modules.items()
                   if n == "lcft" or n.startswith("lcft.")]
        boundaries = ([(b, False) for b in HOT]
                      + [(b, True) for b in ENTRY + check_boundaries()])
        for (name, module, path), spans in boundaries:
            owner, attr, original = _resolve(module, path)
            wrapper = self._wrap(name, original, spans)
            sites = 0
            if isinstance(owner, type):
                for key, value in list(vars(owner).items()):
                    if value is original:     # e.g. __rmul__ = __mul__
                        self._patch(owner, key, original, wrapper)
                        sites += 1
            else:
                for mod in modules:
                    for table in [vars(mod)] + [
                            v for v in vars(mod).values()
                            if isinstance(v, dict)]:
                        for key, value in list(table.items()):
                            if value is original:
                                self._patch(table, key, original, wrapper)
                                sites += 1
            if not sites:
                raise LookupError(f"no binding site found for {name}")

    def _patch(self, owner, key, original, wrapper):
        self._patches.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        return {name: stat[0] for name, stat in self.stats.items()}

    def layer_metrics(self, descriptors: int, speed: float) -> dict:
        """Per-layer figures in BENCHMARK.json's naming, without units.

        Times are scaled by ``speed`` into reference seconds (cpuspeed.py).
        """
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            if name.startswith("checks.") or name == "cli.build_extension":
                out[f"{name}.total_s"] = total * speed
            elif name == "cli.cmd_check":
                out[f"{name}.self_s"] = self_s * speed
            else:
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s * speed
        out["reciprocity.norm_group.calls_per_descriptor"] = (
            self.stats["reciprocity.norm_group"][0] / descriptors)
        return out
