"""Span recorder for chirpspace, applied from outside the package.

``Tracer`` replaces every binding of a traced function inside the loaded
``chirpspace`` modules with a wrapper that records a span, and puts every
original back on exit.  A binding is a module attribute (``xform.czt``,
``quantum.forward_fast``, the re-exports in ``chirpspace/__init__``), a
value of a module-level dict (``xform._FORWARD``, ``suites.SUITE_BUILDERS``)
or a class attribute (``SampledField.__post_init__``).  A target that the
package no longer defines is listed in ``Tracer.absent`` instead of raising,
and every metric that depends on it is reported as absent.

Spans are kept in memory: layer, parent span, start, end and a few
attributes taken from the call (output points, grid pair, bytes, rows).
``layer_metrics`` turns them into the per-layer numbers.  Counts and times
are taken at the outermost span of a layer, so the ``forward_fast`` inside
``inverse_fast`` is one fast-path call, not two.
"""
from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

SUITES = ("roundtrip", "parseval", "gaussian", "chirplet-kernel", "hermite-oracle",
          "weyl", "symbol-identity", "kirkwood", "charfun")

# layer -> "module:attribute" targets; the attribute may be "Class.method"
TARGETS = {
    "cli.main": ["cli:main"],
    "suites.run": ["suites:run_suite"],
    "xform.fast": ["xform:forward_fast", "xform:inverse_fast"],
    "xform.direct": ["xform:forward_direct", "xform:inverse_direct"],
    "xform.czt": ["xform:czt"],
    "grid.field_new": ["grid:SampledField.__post_init__", "grid:Signal.__post_init__"],
    "grid.sample_field": ["grid:sample_field"],
    "grid.norm": ["grid:weighted_norm_sq"],
    "fields_io.read": ["fields_io:read_field_csv", "fields_io:read_operator_csv"],
    "fields_io.write": ["fields_io:write_field_csv", "fields_io:write_operator_csv"],
    "quantum.charfun": ["quantum:char_function_qp", "quantum:char_function_pq"],
    "quantum.expm": ["quantum:expm"],
    "quantum.wigner": ["quantum:wigner_of_signal", "quantum:wigner_of_density"],
    "quantum.weyl_quantize": ["quantum:weyl_quantize"],
    "quantum.weyl_symbol": ["quantum:weyl_symbol"],
    "quantum.kirkwood_closed": ["quantum:kirkwood_qp_closed", "quantum:kirkwood_pq_closed"],
    "quantum.symbol_identity": ["quantum:symbol_identity_residual"],
    "quantum.basis": ["quantum:make_hermite_basis"],
    "hermite.table": ["hermite:hermite_functions"],
    "closedform.hermite_oracle": ["closedform:frft_kernel_hermite"],
    "closedform.chirplet_residual": ["closedform:chirplet_identity_residual"],
}
# one layer per verification suite, bound through suites.SUITE_BUILDERS
for _name in SUITES:
    TARGETS["suites." + _name.replace("-", "_")] = ["suites:SUITE_BUILDERS[%s]" % _name]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _axis_key(ax):
    return (float(ax.min), float(ax.max), int(ax.n))


def _probe_fast(args, kwargs, result):
    h, out = _arg(args, kwargs, 0, "h"), _arg(args, kwargs, 1, "out")
    pair = [_axis_key(h.grid.p_axis), _axis_key(h.grid.q_axis),
            _axis_key(out.p_axis), _axis_key(out.q_axis)]
    return {"pts": int(out.p_axis.n * out.q_axis.n), "pair": repr(pair)}


def _probe_read(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path")),
            "rows": int(result.values.size)}


def _probe_write(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path")),
            "rows": int(_arg(args, kwargs, 0, "field").values.size)}


def _probe_table(args, kwargs, result):
    return {"vals": int(np.size(result))}


def _probe_run(args, kwargs, result):
    return {"cases": len(result.cases), "failed": sum(not c.passed for c in result.cases)}


PROBES = {
    "xform.fast": _probe_fast,
    "fields_io.read": _probe_read,
    "fields_io.write": _probe_write,
    "hermite.table": _probe_table,
    "suites.run": _probe_run,
}


def _chirpspace_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "chirpspace" or name.startswith("chirpspace."))]


class Tracer:
    """Context manager that records spans at chirpspace's public functions.

    The package must be imported first.  On exit every replaced binding is
    restored, also when the traced code raised.
    """

    def __init__(self):
        self.spans = []          # [layer, parent index, t0, t1, outermost, attrs]
        self.absent = []         # targets the package does not define
        self.present = set()     # layers with at least one wrapped target
        self._stack = []
        self._active = {}        # layer -> depth of open spans
        self._restore = []       # (setter, original)

    # -- installation ------------------------------------------------------

    def __enter__(self):
        modules = _chirpspace_modules()
        by_name = {m.__name__: m for m in modules}
        for layer, targets in TARGETS.items():
            for target in targets:
                if self._install(layer, target, by_name, modules):
                    self.present.add(layer)
                else:
                    self.absent.append(target)
        return self

    def __exit__(self, *exc):
        while self._restore:
            setter, original = self._restore.pop()
            setter(original)
        return False

    def _install(self, layer, target, by_name, modules):
        mod_name, attr = target.split(":")
        mod = by_name.get("chirpspace." + mod_name)
        if mod is None:
            return False
        if attr.endswith("]"):                       # a value of a module-level dict
            dict_name, key = attr[:-1].split("[")
            table = getattr(mod, dict_name, None)
            if not isinstance(table, dict) or key not in table:
                return False
            original = table[key]
        elif "." in attr:                            # a method bound on a class
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                return False
            original = vars(cls)[meth]
            self._replace(lambda v, c=cls, m=meth: setattr(c, m, v), original,
                          self._wrap(layer, original))
            return True
        else:
            original = getattr(mod, attr, None)
            if original is None:
                return False
        wrapper = self._wrap(layer, original)
        for table, key in _bindings(original, modules):
            self._replace(functools.partial(table.__setitem__, key), original, wrapper)
        return True

    def _replace(self, setter, original, wrapper):
        setter(wrapper)
        self._restore.append((setter, original))

    def _wrap(self, layer, fn):
        spans, stack, active = self.spans, self._stack, self._active
        probe = PROBES.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = active.get(layer, 0)
            span = [layer, stack[-1] if stack else -1, 0.0, 0.0, depth == 0, None]
            stack.append(len(spans))
            spans.append(span)
            active[layer] = depth + 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                active[layer] = depth
            if probe is not None and depth == 0:
                span[5] = probe(args, kwargs, result)
            return result

        return traced


def _bindings(obj, modules):
    """Every (dict, key) in the chirpspace modules whose value is ``obj``."""
    found = []
    for mod in modules:
        namespace = vars(mod)
        for key, val in list(namespace.items()):
            if val is obj:
                found.append((namespace, key))
            elif type(val) is dict:
                found.extend((val, k) for k, v in val.items() if v is obj)
    return found


# -- aggregation ---------------------------------------------------------------

def _outer(spans, layer):
    return [s for s in spans if s[0] == layer and s[4]]


def _total(spans, layer):
    return sum(s[3] - s[2] for s in _outer(spans, layer))


def _attr_sum(spans, layer, key):
    return sum(s[5][key] for s in _outer(spans, layer) if s[5])


# name -> (unit, layers it needs, function of the span list)
def _metric_table():
    t = {}

    def add(name, unit, layers, fn):
        t[name] = (unit, layers, fn)

    def calls(layer):
        return lambda sp: len(_outer(sp, layer))

    def secs(layer):
        return lambda sp: _total(sp, layer)

    def reuse(sp):
        seen, again = set(), 0
        outer = _outer(sp, "xform.fast")
        for s in outer:
            again += s[5]["pair"] in seen
            seen.add(s[5]["pair"])
        return again / len(outer) if outer else 0.0

    def rate(layer):
        def fn(sp):
            s = _total(sp, layer)
            return _attr_sum(sp, layer, "bytes") / 1e6 / s if s > 0 else 0.0
        return fn

    def cli_self(sp):
        total = 0.0
        for i, s in enumerate(sp):
            if s[0] == "cli.main" and s[4]:
                children = sum(c[3] - c[2] for c in sp if c[1] == i)
                total += (s[3] - s[2]) - children
        return total

    add("xform.fast_calls", "count", ["xform.fast"], calls("xform.fast"))
    add("xform.fast_s", "s", ["xform.fast"], secs("xform.fast"))
    add("xform.fast_mpts", "Mpts", ["xform.fast"],
        lambda sp: _attr_sum(sp, "xform.fast", "pts") / 1e6)
    add("xform.czt_calls", "count", ["xform.czt"], calls("xform.czt"))
    add("xform.czt_s", "s", ["xform.czt"], secs("xform.czt"))
    add("xform.grid_pair_reuse_frac", "ratio", ["xform.fast"], reuse)
    add("xform.direct_calls", "count", ["xform.direct"], calls("xform.direct"))
    add("xform.direct_s", "s", ["xform.direct"], secs("xform.direct"))
    add("grid.field_new_calls", "count", ["grid.field_new"], calls("grid.field_new"))
    add("grid.field_new_s", "s", ["grid.field_new"], secs("grid.field_new"))
    add("grid.sample_field_s", "s", ["grid.sample_field"], secs("grid.sample_field"))
    add("grid.norm_s", "s", ["grid.norm"], secs("grid.norm"))
    add("fields_io.read_s", "s", ["fields_io.read"], secs("fields_io.read"))
    add("fields_io.write_s", "s", ["fields_io.write"], secs("fields_io.write"))
    add("fields_io.read_mb", "MB", ["fields_io.read"],
        lambda sp: _attr_sum(sp, "fields_io.read", "bytes") / 1e6)
    add("fields_io.write_mb", "MB", ["fields_io.write"],
        lambda sp: _attr_sum(sp, "fields_io.write", "bytes") / 1e6)
    add("fields_io.rows", "count", ["fields_io.read", "fields_io.write"],
        lambda sp: _attr_sum(sp, "fields_io.read", "rows")
        + _attr_sum(sp, "fields_io.write", "rows"))
    add("fields_io.read_mb_per_s", "MB/s", ["fields_io.read"], rate("fields_io.read"))
    add("fields_io.write_mb_per_s", "MB/s", ["fields_io.write"], rate("fields_io.write"))
    add("quantum.charfun_calls", "count", ["quantum.charfun"], calls("quantum.charfun"))
    add("quantum.charfun_s", "s", ["quantum.charfun"], secs("quantum.charfun"))
    add("quantum.expm_calls", "count", ["quantum.expm"], calls("quantum.expm"))
    add("quantum.expm_s", "s", ["quantum.expm"], secs("quantum.expm"))
    for layer in ("wigner", "weyl_quantize", "weyl_symbol"):
        add(f"quantum.{layer}_s", "s", [f"quantum.{layer}"], secs(f"quantum.{layer}"))
    add("quantum.kirkwood_closed_calls", "count", ["quantum.kirkwood_closed"],
        calls("quantum.kirkwood_closed"))
    add("quantum.kirkwood_closed_s", "s", ["quantum.kirkwood_closed"],
        secs("quantum.kirkwood_closed"))
    for layer in ("symbol_identity", "basis"):
        add(f"quantum.{layer}_s", "s", [f"quantum.{layer}"], secs(f"quantum.{layer}"))
    add("hermite.table_calls", "count", ["hermite.table"], calls("hermite.table"))
    add("hermite.table_s", "s", ["hermite.table"], secs("hermite.table"))
    add("hermite.table_mvals", "Mvals", ["hermite.table"],
        lambda sp: _attr_sum(sp, "hermite.table", "vals") / 1e6)
    add("closedform.hermite_oracle_s", "s", ["closedform.hermite_oracle"],
        secs("closedform.hermite_oracle"))
    add("closedform.chirplet_residual_s", "s", ["closedform.chirplet_residual"],
        secs("closedform.chirplet_residual"))
    for name in SUITES:
        layer = "suites." + name.replace("-", "_")
        add(layer + "_s", "s", [layer], secs(layer))
    add("suites.cases_attempted", "count", ["suites.run"],
        lambda sp: _attr_sum(sp, "suites.run", "cases"))
    add("suites.cases_failed", "count", ["suites.run"],
        lambda sp: _attr_sum(sp, "suites.run", "failed"))
    add("cli.self_s", "s", ["cli.main"], cli_self)
    return t


METRICS = _metric_table()


def layer_metrics(tracer):
    """{name: (value, unit)} for every per-layer metric; value None if absent."""
    out = {}
    for name, (unit, layers, fn) in METRICS.items():
        if all(layer in tracer.present for layer in layers):
            out[name] = (float(fn(tracer.spans)), unit)
        else:
            out[name] = (None, unit)
    return out
