"""Traced mode: spans and counters around the calls into each hypifs layer,
recorded from the benchmark's own files.

`Tracer.installed()` replaces every public hypifs function in every
hypifs module namespace that binds it (so `thermo.transfer_spectrum` is
traced whether it is reached as `hypifs.transfer_spectrum`, from
`apps`, `cli` or `mstats`), plus the map and `Poly` methods and
`Potential.table`, and restores the originals on exit.  A span is
(name, start, end, parent, id); self time is a span's duration minus the
part its child spans cover.  Spans stay in memory, up to MAX_SPANS;
per-name calls, total and self time, and the counters are kept for every
call regardless.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
import weakref
from collections import Counter

import hypifs
from hypifs import apps, cli, config, ifs, mstats, thermo, transversality, words

MODULES = (hypifs, words, ifs, thermo, transversality, mstats, apps, config, cli)
MAX_SPANS = 20000  # kept for the JSON file; about 2 MB
MAP_CLASSES = (ifs.AffineMap, ifs.RationalMap, ifs.ShiftedMap, ifs.CustomMap)
METHODS = tuple((cls, meth, "ifs.map_eval") for cls in MAP_CLASSES
                for meth in ("value", "dx", "dlam")) + (
    (ifs.Poly, "__call__", "ifs.poly_eval"),
    (ifs.Poly, "deriv", "ifs.poly_deriv"),
    (thermo.Potential, "table", "thermo.potential_table"),
)


def _sobolev_terms(counters, args, kwargs, res):
    sample = args[0] if args else kwargs["sample"]
    counters["mstats.fourier_terms"] += len(res["frequencies"]) * len(sample.points)


def _probe_counts(counters, args, kwargs, res):
    counters["transversality.pair_evals"] += res.n_samples
    counters["transversality.near_collisions"] += res.n_events


def _chaos_points(counters, args, kwargs, res):
    counters["mstats.chaos_points"] += res.count + res.burn_in


# counters read from a traced call's arguments and result
HOOKS = {
    "thermo.transfer_spectrum": lambda c, a, k, res: c.update(
        {"thermo.transfer_spectrum.iterations": res.iterations}),
    "words.enumerate_words": lambda c, a, k, res: c.update(
        {"words.enumerate_words.mb": res.nbytes / 1e6}),
    "transversality.mc_transversality_probe": _probe_counts,
    "mstats.chaos_game_sample": _chaos_points,
    "mstats.sobolev_estimate": _sobolev_terms,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_s, end_s, parent_id, id)
        self.span_count = 0
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = Counter()
        self._stack = []  # [id, child_s] per open span
        self._audited = weakref.WeakSet()
        self._origin = time.perf_counter()

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.span_count
            self.span_count += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((name, t0 - self._origin, t1 - self._origin,
                                       parent[0] if parent else None, sid))
            if hook is not None:
                hook(self.counters, args, kwargs, res)
            return res

        return traced

    def _audit_wrap(self, fn):
        traced = self.wrap("ifs.regularity_audit", fn)

        @functools.wraps(fn)
        def audit(fam, *args, **kwargs):
            if fam not in self._audited:
                self._audited.add(fam)
                self.counters["ifs.regularity_audit.fresh"] += 1
            return traced(fam, *args, **kwargs)

        return audit

    @contextlib.contextmanager
    def installed(self):
        patches = []
        wrapped = {}
        try:
            for mod in MODULES:
                for attr, obj in list(vars(mod).items()):
                    if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                            or not obj.__module__.startswith("hypifs")):
                        continue
                    if obj not in wrapped:
                        name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                        wrapped[obj] = (self._audit_wrap(obj)
                                        if name == "ifs.regularity_audit"
                                        else self.wrap(name, obj))
                    patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
            for cls, meth, name in METHODS:
                orig = cls.__dict__[meth]
                patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    def calls(self, name) -> int:
        return self.stats.get(name, [0])[0]

    def self_ms(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2] * 1e3

    def to_json(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "id": i}
                      for n, s, e, p, i in self.spans],
            "span_count": self.span_count,
            "spans_kept": len(self.spans),
            "stats": {n: {"calls": c, "total_ms": t * 1e3, "self_ms": s * 1e3}
                      for n, (c, t, s) in sorted(self.stats.items()) if c},
            "counters": dict(sorted(self.counters.items())),
        }
