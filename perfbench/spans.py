"""In-memory span tracing of freealg's public functions, and the per-layer metrics.

The tracer replaces public functions and methods of freealg with wrappers that
record a span (name, start, end, parent) around each call.  Spans stay in
memory until the run ends.  A layer's self time is the duration of its spans
minus the part covered by their child spans.

ModularQuotient.component and ExactQuotient.component get a span only when
the call builds a component; cache hits are not spans.  Generator steps of
iter_relation_specs are spans of their own, so spec enumeration is separated
from the row assembly that consumes it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Per-layer metric -> (what it measures, the end-to-end metric it should move
# and on which workload).  Units and directions are in BENCHMARK.json, whose
# "per_layer" list names exactly these metrics.
LAYERS = {
    "quotient.mod_elim_s": ("self time in DenseModRREF.add_batch",
                            "wall_s on modular_d8 (about 3/5 of it); about 1/4 on exact_d7 and tables"),
    "quotient.mod_rows": ("rows given to DenseModRREF.add_batch",
                          "explains mod_elim_s; wall_s on modular_d8 and tables"),
    "quotient.mod_pivots": ("rows that pivoted in DenseModRREF.add_batch",
                            "explains mod_elim_s; wall_s on modular_d8 and tables"),
    "quotient.mod_pivot_ratio": ("mod_pivots / mod_rows",
                                 "wall_s on modular_d8 and tables"),
    "quotient.specs_s": ("time inside iter_relation_specs steps",
                         "wall_s on tables and modular_d8"),
    "quotient.mod_assembly_s": ("ModularQuotient.component self time: row assembly and struct "
                                "extraction", "wall_s on tables and modular_d8"),
    "quotient.exact_elim_s": ("self time in IntRREF.insert",
                              "wall_s on exact_d7 (about 2/3 of it)"),
    "quotient.exact_inserts": ("calls of IntRREF.insert",
                               "explains exact_elim_s; wall_s on exact_d7"),
    "quotient.exact_accept_ratio": ("IntRREF.insert calls that raised the rank / calls",
                                    "wall_s on exact_d7"),
    "quotient.exact_assembly_s": ("ExactQuotient.component self time, without spec steps, "
                                  "inserts and nested twin builds", "wall_s on exact_d7"),
    "quotient.components": ("components built, read from the quotients' comps",
                            "wall_s on every workload"),
    "quotient.replay_components": ("exact components built by replaying GF(p)-selected rows",
                                   "wall_s on exact_d7"),
    "quotient.full_components": ("components built from every relation row (all GF(p) ones "
                                 "included)", "wall_s on every workload"),
    "quotient.top_paircols": ("pair columns of the widest component built",
                              "peak_rss_mb on modular_d8 (with top_rank)"),
    "quotient.top_rank": ("rank of the widest component built",
                          "peak_rss_mb on modular_d8 (with top_paircols)"),
    "quotient.top_dim": ("dimension of the widest component built",
                         "none: fixed by the algebra, a check on the others"),
    "quotient.image_s": ("poly_image self time, without nested builds",
                         "wall_s on every workload (query path)"),
    "lang.expand_s": ("self time in lang.expand and lang.star_expand",
                      "wall_s on every workload (query path)"),
    "albert27.sample_s": ("self time in albert27.sample_report",
                          "wall_s on tables (about 7 s there)"),
    "albert27.samples": ("witness-model samples evaluated",
                         "base of albert27.sample_s"),
    "tideal.span_s": ("self time in tideal.consequence_span", "wall_s on tables"),
    "linalg.rref_s": ("self time in linalg.rref and linalg.kernel",
                      "wall_s on tables"),
    "proc.cpu_s": ("process CPU time of the traced run's timed part",
                   "diagnostic: CPU versus wall_s"),
    "proc.tracing_overhead": ("traced wall_s / untraced wall_s",
                              "diagnostic: cost of these spans"),
}

_END = object()


class Tracer:
    """Spans of one run, kept in memory; counters; the quotients that built components."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = defaultdict(int)
        self.building = []       # component records of the builds in progress
        self.components = []     # component records of finished builds
        self.quotients = {}      # id -> quotient object that built a component

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self):
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "parent": parent, "start": start, "end": end}) + "\n")
            for rec in self.components:
                fh.write(json.dumps(dict(rec, run=self.run_id, kind="component")) + "\n")

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, wrapper)

    def wrap_generator(self, owner, attr, name):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(it, _END)
                finally:
                    self.close(idx)
                if item is _END:
                    return
                yield item

        setattr(owner, attr, wrapper)

    def wrap_component(self, cls, name, mdeg):
        orig = cls.component

        @functools.wraps(orig)
        def component(q, d):
            key = mdeg(d)
            if key in q.comps:
                return orig(q, d)
            rec = {"variety": q.variety.name, "field": getattr(q, "p", 0), "d": list(key),
                   "rows": 0, "pivots": 0, "inserts": 0, "accepted": 0}
            self.quotients[id(q)] = q
            self.building.append(rec)
            idx = self.open(name)
            try:
                out = orig(q, d)
            finally:
                self.close(idx)
                self.building.pop()
            start, end = self.spans[idx][1:3]
            rec.update(build_s=end - start, paircols=out.paircols, rank=out.rank,
                       dim=out.dim, mode=out.mode)
            self.components.append(rec)
            return out

        cls.component = component

    def _count(self, key, n, rec_key=None):
        self.counters[key] += n
        if rec_key is not None and self.building:
            self.building[-1][rec_key] += n

    def install(self):
        """Wrap the public functions of every layer the workloads reach."""
        from freealg import albert27, lang, linalg, quotient, tideal
        from freealg.term import mdeg

        def after_batch(args, out):
            self._count("mod_rows", args[1].shape[0], "rows")
            self._count("mod_pivots", len(out), "pivots")

        def after_insert(args, out):
            self._count("exact_inserts", 1, "inserts")
            self._count("exact_accepted", 1 if out else 0, "accepted")

        def after_sample(args, out):
            self._count("samples", out["samples"])

        self.wrap(quotient.DenseModRREF, "add_batch", "quotient.mod_elim", after_batch)
        self.wrap(quotient.IntRREF, "insert", "quotient.exact_insert", after_insert)
        self.wrap_generator(quotient, "iter_relation_specs", "quotient.specs")
        self.wrap_component(quotient.ModularQuotient, "quotient.mod_component", mdeg)
        self.wrap_component(quotient.ExactQuotient, "quotient.exact_component", mdeg)
        self.wrap(quotient.ModularQuotient, "poly_image", "quotient.image")
        self.wrap(quotient.ExactQuotient, "poly_image", "quotient.image")
        self.wrap(lang, "expand", "lang.expand")
        self.wrap(lang, "star_expand", "lang.star_expand")
        self.wrap(albert27, "sample_report", "albert27.sample", after_sample)
        self.wrap(tideal, "consequence_span", "tideal.span")
        self.wrap(linalg, "rref", "linalg.rref")
        self.wrap(linalg, "kernel", "linalg.kernel")

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self):
        """Every LAYERS metric except the proc.* ones, which the caller measures."""
        st = self.self_times()
        c = self.counters
        comps = [comp for q in self.quotients.values() for comp in q.comps.values()]
        top = max(comps, key=lambda comp: comp.paircols, default=None)

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "quotient.mod_elim_s": st["quotient.mod_elim"],
            "quotient.mod_rows": c["mod_rows"],
            "quotient.mod_pivots": c["mod_pivots"],
            "quotient.mod_pivot_ratio": ratio(c["mod_pivots"], c["mod_rows"]),
            "quotient.specs_s": st["quotient.specs"],
            "quotient.mod_assembly_s": st["quotient.mod_component"],
            "quotient.exact_elim_s": st["quotient.exact_insert"],
            "quotient.exact_inserts": c["exact_inserts"],
            "quotient.exact_accept_ratio": ratio(c["exact_accepted"], c["exact_inserts"]),
            "quotient.exact_assembly_s": st["quotient.exact_component"],
            "quotient.components": len(comps),
            "quotient.replay_components": sum(comp.mode == "replay" for comp in comps),
            "quotient.full_components": sum(comp.mode == "full" for comp in comps),
            "quotient.top_paircols": top.paircols if top else 0,
            "quotient.top_rank": top.rank if top else 0,
            "quotient.top_dim": top.dim if top else 0,
            "quotient.image_s": st["quotient.image"],
            "lang.expand_s": st["lang.expand"] + st["lang.star_expand"],
            "albert27.sample_s": st["albert27.sample"],
            "albert27.samples": c["samples"],
            "tideal.span_s": st["tideal.span"],
            "linalg.rref_s": st["linalg.rref"] + st["linalg.kernel"],
        }
