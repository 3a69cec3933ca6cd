"""Layer tracing for the benchmark: spans and counters at natmod's module boundaries.

A layer is a natmod module, and its boundary is its public interface on every
implementation: ``fincat.compose`` is every ``compose`` defined on a
``BoundedCategory`` subclass (``FinSliceOpposite``, ``modelio.TableCategory``,
``freemodel``'s wrapped and tree categories, ...), and ``natmodel.typeof`` is
every ``typeof`` defined on a ``NaturalModel`` subclass.  Module functions are
patched wherever a natmod module binds them, so ``from .x import f`` call
sites are traced too.  Nothing inside natmod is edited.

Rules:

* A call counts toward a layer (``.calls``, ``.distinct``) only when its
  caller is outside that layer, that is, when the innermost open span
  belongs to another layer or there is none.  Calls a layer makes into
  itself pass through untraced.
* "Distinct" means distinct (receiver, arguments); objects are compared by
  identity, so a rebuilt model is a new receiver.
* Timed functions (the ``.s`` metrics) open a span on every call; a
  ``.s`` metric sums the outermost calls of its group.
* A layer's self time sums, over its spans, the span's duration minus the
  time covered by its child spans.

Every span (name, start, end, parent) is kept in memory and written out by
:meth:`Tracer.write_spans` when the traced pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("fincat", "presheaf", "natmodel", "morphism", "freemodel", "polyset", "modelio")

# Interface methods: (module, base class, layer, [(method, distinct?), ...]).
INTERFACES = [
    ("fincat", "BoundedCategory", "fincat",
     [("compose", True), ("hom", True), ("identity", False), ("is_iso", True)]),
    ("natmodel", "NaturalModel", "natmodel",
     [(m, True) for m in ("types", "terms", "typeof", "subst_ty", "subst_tm", "ext", "indsub")]),
]


def _elements(extension: dict) -> int:
    return sum(len(component) for component in extension.values())


def _nbytes(text: str) -> int:
    return len(text.encode())


# Module functions: (module, function, layer, counted, distinct, timed group, measure).
# ``counted`` gives ``<layer>.<fn>.calls`` (a string names a shared counter); a
# timed group gives ``<group>.s``; a measure is (metric, function of the result).
FUNCTIONS = [
    ("fincat", "check_category", "fincat", False, False, "fincat.check_category", None),
    ("presheaf", "yoneda", "presheaf", True, True, "presheaf.yoneda", None),
    ("presheaf", "check_pullback_square", "presheaf", True, False, None, None),
    ("natmodel", "induced_sub", "natmodel", True, True, None, None),
    ("natmodel", "canonical_pullback", "natmodel", True, True, None, None),
    ("natmodel", "sigma_split", "natmodel", True, False, None, None),
    ("natmodel", "check_eat", "natmodel", False, False, "natmodel.check_eat", None),
    ("natmodel", "extension_square_oracle", "natmodel", False, False,
     "natmodel.extension_square_oracle", None),
    ("natmodel", "model_presheaves", "natmodel", False, False, "natmodel.model_presheaves", None),
    ("natmodel", "check_unit", "natmodel", False, False, "natmodel.check_unit", None),
    ("natmodel", "check_sigma", "natmodel", False, False, "natmodel.check_sigma", None),
    ("morphism", "check_morphism", "morphism", True, False, "morphism.check_morphism", None),
    ("morphism", "count_morphisms", "morphism", True, False, "morphism.count_morphisms", None),
    ("polyset", "extend", "polyset", True, False, None, ("polyset.extend.elements", _elements)),
    ("polyset", "compose", "polyset", False, False, "polyset.compose", None),
    ("polyset", "compose_extension_iso", "polyset", False, False,
     "polyset.compose_extension_iso", None),
    ("polyset", "beck_chevalley_witness", "polyset", False, False, "polyset.witness", None),
    ("polyset", "distributivity_witness", "polyset", False, False, "polyset.witness", None),
    ("polyset", "all_adjustments", "polyset", False, False, "polyset.all_adjustments", None),
    ("polyset", "check_pseudomonad_data", "polyset", False, False,
     "polyset.check_pseudomonad_data", None),
    ("modelio", "parse_model", "modelio", False, False, "modelio.parse_model", None),
    ("modelio", "serialize_model", "modelio", False, False, "modelio.serialize_model",
     ("modelio.serialize_model.bytes", _nbytes)),
]
for _fn in ("term_model", "extend_by_term", "extend_by_type", "extend_by_unit",
            "extend_by_sigma", "poly_composite_models"):
    FUNCTIONS.append(("freemodel", _fn, "freemodel", False, False, "freemodel.construct", None))
for _fn in ("initial_morphism", "extend_term_universal", "type_universal", "unit_universal",
            "sigma_universal"):
    FUNCTIONS.append(("freemodel", _fn, "freemodel", False, False, "freemodel.universal", None))
for _fn in ("initiality_pins", "term_universal_pins", "interleaved_universal_pins",
            "sigma_universal_pins"):
    FUNCTIONS.append(("freemodel", _fn, "freemodel", False, False, "freemodel.pins", None))
for _fn in ("tree_ext", "tree_subst", "tmtree_subst", "tmtree_type", "tmtree_section",
            "sigma_of_tree", "pair_of_tree"):
    # the tree operations are one counter, freemodel.tree.calls
    FUNCTIONS.append(("freemodel", _fn, "freemodel", "freemodel.tree", False, None, None))

# Redundancy = calls / distinct calls, reported beside its base.
REDUNDANCY = ("fincat.compose", "fincat.hom", "fincat.is_iso", "natmodel.typeof",
              "natmodel.subst_ty", "natmodel.subst_tm", "presheaf.yoneda")

NODES_METRIC = "morphism.count_morphisms.nodes"


def _metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for _mod, _cls, layer, methods in INTERFACES:
        for meth, distinct in methods:
            units[f"{layer}.{meth}.calls"] = "count"
            if distinct:
                units[f"{layer}.{meth}.distinct"] = "count"
    for _mod, fn, layer, counted, distinct, group, measure in FUNCTIONS:
        if counted:
            stem = counted if isinstance(counted, str) else f"{layer}.{fn}"
            units[f"{stem}.calls"] = "count"
            if distinct:
                units[f"{stem}.distinct"] = "count"
        if group:
            units[f"{group}.s"] = "s"
        if measure:
            units[measure[0]] = "bytes" if measure[0].endswith(".bytes") else "count"
    units[NODES_METRIC] = "count"
    for stem in REDUNDANCY:
        units[f"{stem}.redundancy"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    order = {layer: k for k, layer in enumerate(LAYERS)}
    units = dict(sorted(units.items(), key=lambda kv: order[kv[0].split(".")[0]]))
    units["trace.overhead_s"] = "s"
    return units


METRIC_UNITS = _metric_units()


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return [c for c in out if c.__module__.startswith("natmod")]


class Tracer:
    """Patches natmod's boundaries, records spans and counts, restores on uninstall."""

    def __init__(self) -> None:
        self.layer: str | None = None   # layer of the innermost open span
        self.span = -1                  # index of the innermost open span
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.s_name = array("I")
        self.s_parent = array("q")
        self.s_start = array("d")
        self.s_end = array("d")
        self._acc: list[float] = []     # child time of each open span
        self.calls: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.group_s: dict[str, float] = defaultdict(float)
        self._group_depth: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self.nodes_absent: str | None = None
        self._serials: dict[int, int] = {}
        self._keep: list[object] = []   # receivers stay alive so ids are not reused
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def _serial(self, obj) -> int:
        sid = self._serials.get(id(obj))
        if sid is None:
            sid = self._serials[id(obj)] = len(self._keep)
            self._keep.append(obj)
        return sid

    def _key(self, args: tuple, kwargs: dict) -> tuple:
        parts = [self._serial(args[0])] if args else []
        for a in args[1:]:
            parts.append(a if isinstance(a, (str, int, type(None))) else ("obj", self._serial(a)))
        for k in sorted(kwargs):
            v = kwargs[k]
            parts.append((k, v if isinstance(v, (str, int, type(None))) else ("obj", self._serial(v))))
        return tuple(parts)

    def _wrap(self, fn, stem: str, layer: str, counted: bool, distinct: bool,
              group: str | None, measure: tuple | None):
        tr = self
        name_id = self._name_ids.get(stem)
        if name_id is None:
            name_id = self._name_ids[stem] = len(self.names)
            self.names.append(stem)
        perf = time.perf_counter
        calls, dsets, acc = self.calls, self.distinct, self._acc
        s_name, s_parent, s_start, s_end = self.s_name, self.s_parent, self.s_start, self.s_end
        self_s, group_s, gdepth, extra = self.self_s, self.group_s, self._group_depth, self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tr.layer != layer
            if outer:
                if counted:
                    calls[stem] += 1
                    if distinct:
                        dsets[stem].add(tr._key(args, kwargs))
            elif group is None:
                return fn(*args, **kwargs)
            parent, prev_layer = tr.span, tr.layer
            idx = len(s_start)
            s_name.append(name_id)
            s_parent.append(parent)
            s_start.append(0.0)
            s_end.append(0.0)
            tr.span, tr.layer = idx, layer
            acc.append(0.0)
            top = False
            if group is not None:
                top = gdepth[group] == 0
                gdepth[group] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                self_s[layer] += dur - acc.pop()
                if acc:
                    acc[-1] += dur
                s_start[idx] = t0
                s_end[idx] = t1
                tr.span, tr.layer = parent, prev_layer
                if group is not None:
                    gdepth[group] -= 1
                    if top:
                        group_s[group] += dur
            if measure is not None and (outer if counted else top):
                extra[measure[0]] += measure[1](result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, nm) -> None:
        """Wrap every boundary of the natmod modules held by namespace ``nm``."""
        modules = [m for name, m in sys.modules.items()
                   if name == "natmod" or name.startswith("natmod.")]
        for mod_name, cls_name, layer, methods in INTERFACES:
            base = getattr(getattr(nm, mod_name), cls_name)
            for cls in _subclasses(base):
                for meth, distinct in methods:
                    fn = cls.__dict__.get(meth)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    self._patch(cls, meth, self._wrap(
                        fn, f"{layer}.{meth}", layer, True, distinct, None, None))
        for mod_name, fn_name, layer, counted, distinct, group, measure in FUNCTIONS:
            orig = getattr(getattr(nm, mod_name), fn_name)
            stem = counted if isinstance(counted, str) else f"{layer}.{fn_name}"
            wrapped = self._wrap(orig, stem, layer, bool(counted), distinct, group, measure)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, wrapped)
        # rival-search nodes: calls of the search's private step method
        search = getattr(nm.morphism, "_Search", None)
        step = getattr(search, "_step", None) if search is not None else None
        if step is None:
            self.nodes_absent = "morphism._Search._step, the rival search's step method, is not available"
        else:
            extra = self.extra

            @functools.wraps(step)
            def counted_step(*args, **kwargs):
                extra[NODES_METRIC] += 1
                return step(*args, **kwargs)

            self._patch(search, "_step", counted_step)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self._keep.clear()
        self._serials.clear()

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric as ``{name: {"value": v, "unit": u}}``."""
        values: dict[str, float] = {}
        for name, unit in METRIC_UNITS.items():
            if name.endswith(".calls"):
                values[name] = self.calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".distinct"):
                values[name] = len(self.distinct.get(name[: -len(".distinct")], ()))
            elif name.endswith(".self_s"):
                values[name] = self.self_s.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".s"):
                values[name] = self.group_s.get(name[: -len(".s")], 0.0)
        for stem in REDUNDANCY:
            calls = self.calls.get(stem, 0)
            distinct = len(self.distinct.get(stem, ()))
            # 0 when the base is 0: the function was not called from outside its layer
            values[f"{stem}.redundancy"] = calls / distinct if distinct else 0.0
        for name in [f[6][0] for f in FUNCTIONS if f[6]] + [NODES_METRIC]:
            values[name] = self.extra.get(name, 0)
        out = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in METRIC_UNITS.items()}
        if self.nodes_absent is not None:
            out[NODES_METRIC] = {"value": None, "unit": "count", "absent": self.nodes_absent}
        return out

    def write_spans(self, path_stem: str) -> tuple[str, str]:
        """Write the spans as a JSON header plus four raw arrays; return both paths."""
        header = {
            "names": self.names,
            "count": len(self.s_start),
            "arrays": [["name", self.s_name.typecode], ["parent", self.s_parent.typecode],
                       ["start", self.s_start.typecode], ["end", self.s_end.typecode]],
            "clock": "time.perf_counter, seconds; parent -1 is the top level",
        }
        with open(path_stem + ".json", "w") as fh:
            json.dump(header, fh)
        with open(path_stem + ".bin", "wb") as fh:
            for arr in (self.s_name, self.s_parent, self.s_start, self.s_end):
                arr.tofile(fh)
        return path_stem + ".json", path_stem + ".bin"
