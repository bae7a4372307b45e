"""Outside-in tracing of ckgeom's layers.

`Tracer` wraps the public functions named in LAYERS, in every `ckgeom`
module namespace that bound them (`from .projective import join_points`
copies the name into other modules), and the center methods of
`PolarTriangleConfig` and its `__init__` on the class, so that every config
built, by `build_config` or by `trig` directly, counts as a build.  Each
call becomes a span (name, start, end, parent) appended to flat arrays;
nothing is aggregated while the workload runs.  A span's self time is its
duration minus the durations of its direct children, which nest strictly
in a single thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "projective": ("hpoint", "join_points", "meet_lines", "cross_ratio",
                   "line_through", "separates"),
    "conics": ("pole", "polar", "line_conic_meet", "conic_fit"),
    "metric": ("midpoints", "squared_trig", "distance"),
    "centers": ("build_config",),
    # table_5_1 returns with its certificates (workloads.KNOWN_FAILING)
    "trig": ("coherent_orientation", "right_angled_kind",
             "classify_generalized"),
    "rays": ("ray_towards", "angle_between_rays"),
    "lab": ("trial_rng", "random_triangle_config", "verify",
            "perturbation_guard"),
    "cli": ("main",),
}
CONFIG_METHODS = ("__init__", "classical", "pseudo", "euler", "nine_point")
# spans of this function are tagged with their first argument (theorem id)
TAGGED = "lab.verify"


class Tracer:
    """Install with `with Tracer() as tr:`; the patches are undone on exit."""

    def __init__(self):
        self.names = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("q")
        self.tags = {}
        self._stack = [-1]
        self._undo = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        ix = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = (self.name_of, self.parent, self.start,
                                       self.end)
        raised, stack, tags = self.raised, self._stack, self.tags
        tagged = name == TAGGED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_of.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            if tagged:
                tags[span] = args[0]
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(span)
                raise
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        mods = [m for n, m in sys.modules.items()
                if n == "ckgeom" or n.startswith("ckgeom.")]
        for layer, funcs in LAYERS.items():
            module = sys.modules["ckgeom." + layer]
            for fname in funcs:
                orig = getattr(module, fname)
                traced = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)
                            self._undo.append((mod, attr, orig))
        cls = sys.modules["ckgeom.centers"].PolarTriangleConfig
        for meth in CONFIG_METHODS:
            orig = cls.__dict__[meth]
            setattr(cls, meth,
                    self._wrap(f"centers.PolarTriangleConfig.{meth}", orig))
            self._undo.append((cls, meth, orig))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    # -- results ----------------------------------------------------------

    def summary(self):
        """name -> {calls, incl_s, self_s, raised}, and tag -> inclusive s."""
        n = len(self.start)
        k = len(self.names)
        names = np.asarray(self.name_of, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.intp)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_t = dur - covered
        raised = np.asarray(self.raised, dtype=np.intp)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=self_t, minlength=k)
        raises = np.bincount(names[raised], minlength=k)
        by_name = {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                   "self_s": float(selfs[i]), "raised": int(raises[i])}
            for i, name in enumerate(self.names)
        }
        by_tag = {}
        for span, tag in self.tags.items():
            by_tag[tag] = by_tag.get(tag, 0.0) + float(dur[span])
        return by_name, by_tag

    def write(self, path):
        """Save every span (name index, parent, start, end) to an .npz file."""
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.asarray(self.name_of), parent=np.asarray(self.parent),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 raised=np.asarray(self.raised))
