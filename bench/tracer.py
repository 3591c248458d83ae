"""Per-layer spans recorded from outside the library by wrapping its functions.

Each wrapped function records one span per call: name, start, end and the
span that was open when it was called.  A span's layer is the part of its
name before the first dot, which is the skconverse module it measures (the
input loader counts for ``cli``, which is the layer that calls it).  Self
time is a span's duration minus the durations of its direct children, so
the self times of all layers add up to the duration of the top-level
``cli.main`` spans.

Wrapping patches every skconverse module attribute that is bound to the
original function, so names re-bound by ``from .x import y`` (for example
``bounds.beta_epsilon`` or ``cli.load_dist``) are traced as well.  Spans are
kept in memory and reduced to per-pass metrics by ``pass_metrics``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import time
from collections import defaultdict

CELL_CAP = 10_000_000
CLASS_CAP = 5_000_000
STATE_CAP = 10_000_000


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, outermost of its name]
        self.stack = []
        self.active = defaultdict(int)
        self.sizes = defaultdict(list)  # size name -> one value per call
        self.laws = {}  # distinct protocol_law inputs -> protocol (kept alive)
        self.patches = []

    def reset(self):
        self.spans.clear()
        self.sizes.clear()
        self.laws.clear()

    def wrap(self, fn, name, on_return=None):
        stack, spans, active = self.stack, self.spans, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def install(self, sk):
        """Wrap the layer functions of the imported ``skconverse`` package."""
        mods = {
            n: m
            for n, m in sys.modules.items()
            if n == "skconverse" or n.startswith("skconverse.")
        }
        pc, ps = sk.probcore, sk.protosim
        functions = [
            (sk.cli.main, "cli.main", None),
            (pc.load_dist, "cli.load", _size("load_cells", lambda a, r: r.n_cells)),
            (pc.conditional_product, "probcore.cond_product", None),
            (pc.marginal, "probcore.marginal", None),
            (sk._typeclasses.typeclass_table, "typeclasses.table",
             _size("classes", lambda a, r: r[0].shape[0])),
            (sk.hyptest.beta_epsilon, "hyptest.beta",
             _size("beta_cells", lambda a, r: a[0].n_cells)),
            (sk.hyptest.beta_epsilon_iid, "hyptest.beta_iid", None),
            (sk.hyptest.stein_scan, "hyptest.stein_scan", None),
            (sk.smoothinfo.d_max_smooth, "smoothinfo.dmax", None),
            (sk.smoothinfo.dmax_convergence_scan, "smoothinfo.dmax_scan", None),
            (sk.smoothinfo.h_min_smooth, "smoothinfo.hmin", None),
            (sk.structure.enum_partitions, "structure.enum",
             _size("partitions", lambda a, r: len(r))),
            (sk.structure.mcf, "structure.mcf", None),
            (sk.structure.mss, "structure.mss", None),
            (sk.bounds.cit_bound, "bounds.cit", None),
            (sk.bounds.cit_bound_best, "bounds.cit_best", None),
            (sk.bounds.sk_capacity_formula, "bounds.capacity", None),
            (sk.bounds.sc_necessary_check, "bounds.sc_check", None),
            (ps.protocol_law, "protosim.law", _record_law),
            (ps.eval_sk_security, "protosim.security", None),
            (ps.measure_ot, "protosim.measure", None),
            (ps.measure_bc, "protosim.measure", None),
            (ps.reduce_ot_to_sk, "protosim.reduce", None),
            (ps.reduce_bc_to_sk, "protosim.reduce", None),
            (ps.acceptance_region_test, "protosim.region", None),
            (ps.check_converse, "protosim.converse", None),
            (ps.fuzz_converse, "protosim.fuzz", None),
            (ps.random_sk_instance, "protosim.instance", None),
            (ps.ideal_ot_protocol, "protosim.ideal", None),
            (ps.ideal_bc_protocol, "protosim.ideal", None),
        ]
        for fn, name, on_return in functions:
            traced = self.wrap(fn, name, on_return)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, traced)
        # JointDist construction: the dataclass __init__ calls __post_init__
        jd = pc.JointDist
        self._patch(jd, "__post_init__", self.wrap(
            jd.__post_init__, "probcore.dist",
            _size("cells", lambda a, r: a[0].pmf.size)))

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _size(key, measure):
    def on_return(tracer, args, kwargs, result):
        tracer.sizes[key].append(int(measure(args, result)))

    return on_return


def _record_law(tracer, args, kwargs, result):
    """States enumerated by one protocol_law call and whether its input is new."""
    J, p = args[0], args[1]
    rand_points = math.prod(
        sum(1 for w in r.probs if w > 0) for r in p.randomness if r is not None
    )
    tracer.sizes["law_states"].append(
        int((J.pmf > 0).sum()) * rand_points
    )
    key = (
        J.vars,
        J.eve,
        hashlib.sha1(J.pmf.tobytes()).hexdigest(),
        id(p),
        bool(args[2] if len(args) > 2 else kwargs.get("with_outcomes", False)),
    )
    tracer.laws.setdefault(key, p)


def pass_metrics(tracer: Tracer) -> dict:
    """Reduce the spans of one pass to per-layer metrics."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    incl = defaultdict(float)
    selft = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for i, (name, start, end, parent, outermost) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        if outermost:
            incl[name] += dur
        selft[name] += dur - child[i]
        layer_self[name.split(".", 1)[0]] += dur - child[i]
    sizes = tracer.sizes

    def total(key):
        return sum(sizes.get(key, ()))

    def headroom(key, cap):
        return 1.0 - max(sizes.get(key, ()), default=0) / cap

    law_calls = calls["protosim.law"]
    distinct = len(tracer.laws)
    m = {
        "cli.self_s": layer_self["cli"],
        "cli.calls": calls["cli.main"],
        "cli.load_s": incl["cli.load"],
        "cli.load_calls": calls["cli.load"],
        "cli.load_cells": total("load_cells"),
        "cli.cell_cap_headroom": headroom("load_cells", CELL_CAP),
        "probcore.self_s": layer_self["probcore"],
        "probcore.dist_s": incl["probcore.dist"],
        "probcore.dist_calls": calls["probcore.dist"],
        "probcore.cells": total("cells"),
        "probcore.cond_product_s": incl["probcore.cond_product"],
        "probcore.cond_product_calls": calls["probcore.cond_product"],
        "probcore.marginal_s": incl["probcore.marginal"],
        "typeclasses.self_s": layer_self["typeclasses"],
        "typeclasses.table_s": incl["typeclasses.table"],
        "typeclasses.tables": calls["typeclasses.table"],
        "typeclasses.classes": total("classes"),
        "typeclasses.class_cap_headroom": headroom("classes", CLASS_CAP),
        "hyptest.self_s": layer_self["hyptest"],
        "hyptest.beta_s": incl["hyptest.beta"],
        "hyptest.beta_calls": calls["hyptest.beta"],
        "hyptest.beta_cells": total("beta_cells"),
        "hyptest.beta_iid_self_s": selft["hyptest.beta_iid"],
        "hyptest.beta_iid_calls": calls["hyptest.beta_iid"],
        "smoothinfo.self_s": layer_self["smoothinfo"],
        "smoothinfo.dmax_s": selft["smoothinfo.dmax"] + selft["smoothinfo.dmax_scan"],
        "smoothinfo.hmin_s": selft["smoothinfo.hmin"],
        "smoothinfo.calls": calls["smoothinfo.dmax"] + calls["smoothinfo.dmax_scan"]
        + calls["smoothinfo.hmin"],
        "structure.self_s": layer_self["structure"],
        "structure.enum_s": incl["structure.enum"],
        "structure.partitions": total("partitions"),
        "bounds.self_s": layer_self["bounds"],
        "bounds.cit_calls": calls["bounds.cit"],
        "bounds.capacity_s": incl["bounds.capacity"],
        "bounds.sc_check_s": incl["bounds.sc_check"],
        "protosim.self_s": layer_self["protosim"],
        "protosim.law_s": incl["protosim.law"],
        "protosim.law_calls": law_calls,
        "protosim.law_distinct": distinct,
        "protosim.law_hit_ratio": distinct / law_calls if law_calls else 0.0,
        "protosim.law_states": total("law_states"),
        "protosim.state_cap_headroom": headroom("law_states", STATE_CAP),
        "protosim.security_self_s": selft["protosim.security"],
        "protosim.measure_s": incl["protosim.measure"],
        "protosim.reduce_self_s": selft["protosim.reduce"],
        "protosim.region_s": incl["protosim.region"],
        "trace.spans": len(spans),
        "trace.layer_self_s": sum(layer_self.values()),
    }
    return m
