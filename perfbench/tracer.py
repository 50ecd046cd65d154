"""Span tracer that instruments surplex from outside the package.

`Tracer.install` wraps every public function of the traced layers (and
`ParametricModel.beliefs`) and rebinds *every* name that refers to one of
them: the defining module's attribute, the copies that `from x import y`
made in other surplex modules, and the package re-exports.  Wrapping only
the defining module would miss, for example, `extraction` calling
`geometry.expose_set` through its own imported name.  `restore` puts the
original objects back.

A span is [name, start, end, parent index, run id, extra]; spans stay in
memory and are written out once at the end.  `layer_metrics` turns the
spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("lp", "geometry", "models", "extraction", "duality", "figures",
          "cli")
# (module, class, method, span name) wrapped besides the public functions
METHODS = (("models", "ParametricModel", "beliefs", "models.beliefs"),)

# An LP solve belongs to the family of its innermost caller in this map.
FAMILY_OF = {
    "geometry.expose_set": "separation",
    "geometry.max_margin_functional": "separation",
    "geometry.exposure_chain": "chain",
    "geometry.is_extreme": "extreme",
    "extraction.full_extraction_lp": "full_block",
    "duality.solve_primal": "vse_primal",
    "duality.solve_dual": "vse_dual",
}
FAMILIES = ("separation", "chain", "extreme", "full_block", "vse_primal",
            "vse_dual")


def _lp_extra(args, kwargs, sol):
    prog = args[0] if args else kwargs["lp"]
    return {"pivots": int(sol.iterations), "status": sol.status,
            "cells": prog.n_constraints * prog.n_vars}


def _beliefs_extra(args, kwargs, result):
    return {"points": int(len(result))}


EXTRAS = {"lp.solve": _lp_extra, "models.beliefs": _beliefs_extra}


def _targets():
    """(span name, owner, attribute, function) for everything wrapped."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"surplex.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    for layer, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(f"surplex.{layer}"), cls_name)
        out.append((name, cls, attr, cls.__dict__[attr]))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for name, owner, attr, fn in _targets():
            wrapper = self._wrap(name, fn)
            wrapped[id(fn)] = wrapper
            self._patch(owner, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "surplex" and not mod_name.startswith("surplex."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run, extra in self.spans:
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent, "run": run}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")


def bindings() -> dict:
    """Every surplex module, class and attribute binding, by identity."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "surplex" or mod_name.startswith("surplex."):
            for attr, obj in vars(mod).items():
                out[(mod_name, attr)] = id(obj)
                if inspect.isclass(obj) and obj.__module__ == mod_name:
                    for cattr, cobj in vars(obj).items():
                        out[(mod_name, f"{attr}.{cattr}")] = id(cobj)
    return out


def layer_metrics(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of spans[first:], one traced pass.

    `.s` is total time (nested calls of the same function counted once),
    `.self_s` excludes time in wrapped children.
    """
    n = len(spans)
    child_time = [0.0] * n
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i in range(first, n):
        parent = spans[i][3]
        if parent >= first:
            child_time[parent] += spans[i][2] - spans[i][1]

    def ancestors(i):
        j = spans[i][3]
        while j >= first:
            yield j
            j = spans[j][3]

    fam = {f: {"solves": 0, "s": 0.0, "pivots": 0, "max_cells": 0}
           for f in FAMILIES}
    caller_solves: dict[str, int] = {}
    infeasible = pivots = points = 0
    for i in range(first, n):
        name, start, end, _, _, extra = spans[i]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        if all(spans[j][0] != name for j in ancestors(i)):
            total[name] = total.get(name, 0.0) + dur
        if name == "models.beliefs":
            points += extra["points"]
        if name != "lp.solve":
            continue
        pivots += extra["pivots"]
        infeasible += extra["status"] == "infeasible"
        caller = next((spans[j][0] for j in ancestors(i)
                       if spans[j][0] in FAMILY_OF), None)
        if caller is None:
            continue
        caller_solves[caller] = caller_solves.get(caller, 0) + 1
        f = fam[FAMILY_OF[caller]]
        f["solves"] += 1
        f["s"] += dur
        f["pivots"] += extra["pivots"]
        f["max_cells"] = max(f["max_cells"], extra["cells"])

    def s(name):
        return total.get(name, 0.0)

    def rounds(name):
        return caller_solves.get(name, 0) / max(calls.get(name, 0), 1)

    m = {}
    for task in ("classify", "virtual", "compress", "duality", "full"):
        m[f"cli.task_{task}.s"] = s(f"cli.task_{task}")
    m["cli.emit_figures.s"] = s("cli.emit_figures")
    m["extraction.classify_type.calls"] = calls.get(
        "extraction.classify_type", 0)
    m["extraction.classify_type.self_s"] = self_s.get(
        "extraction.classify_type", 0.0)
    m["extraction.virtual_extraction_menu.self_s"] = self_s.get(
        "extraction.virtual_extraction_menu", 0.0)
    for fn in ("full_extraction_menu", "full_extraction_lp", "verify_menu",
               "compress_menu"):
        m[f"extraction.{fn}.s"] = s(f"extraction.{fn}")
    m["geometry.expose_set.calls"] = calls.get("geometry.expose_set", 0)
    m["geometry.expose_set.s"] = s("geometry.expose_set")
    m["geometry.max_margin_functional.calls"] = calls.get(
        "geometry.max_margin_functional", 0)
    m["geometry.max_margin_functional.rounds"] = rounds(
        "geometry.max_margin_functional")
    m["geometry.exposure_chain.s"] = s("geometry.exposure_chain")
    m["geometry.is_extreme.s"] = s("geometry.is_extreme")
    m["models.beliefs.points"] = points
    m["models.beliefs.s"] = s("models.beliefs")
    m["models.sample.s"] = s("models.sample")
    m["duality.solve_primal.s"] = s("duality.solve_primal")
    m["duality.solve_primal.rounds"] = rounds("duality.solve_primal")
    m["duality.solve_dual.s"] = s("duality.solve_dual")
    m["duality.disintegrate.s"] = s("duality.disintegrate")
    m["lp.solve.calls"] = calls.get("lp.solve", 0)
    m["lp.solve.s"] = s("lp.solve")
    m["lp.pivots"] = pivots
    m["lp.infeasible"] = infeasible
    for f in FAMILIES:
        for key, value in fam[f].items():
            m[f"lp.{f}.{key}"] = value
    m["figures.write_s"] = sum(v for k, v in total.items()
                               if k.startswith("figures.write_"))
    return m


def layer_units(metrics: dict) -> dict[str, str]:
    def unit(key):
        if key.endswith("_s") or key.endswith(".s"):
            return "s"
        if key.endswith(".max_cells"):
            return "cells"
        if key.endswith(".rounds"):
            return "solves/call"
        return "count"
    return {key: unit(key) for key in metrics}
