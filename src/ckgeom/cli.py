"""Command-line front end: theorem certification, metric computations on
scene files, and SVG figures.

Exit codes: 0 success, 1 certification failure, 2 usage/input error.
The GEOM_TOL environment variable overrides the default tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import centers as ce
from . import lab
from . import metric as mt
from . import trig as tg
from .errors import GeometryError, UnknownTheorem
from .figures import draw_figure
from .projective import join_points
from .sceneio import SceneError, builtin_scene, load_scene
from .tolerance import checked_tol, get_tol


def _checked(rule):
    """An argparse type applying `rule`; its ValueError is a usage error."""
    def parse(text: str):
        try:
            return rule(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None
    return parse


def _geometries(arg: str):
    if arg == "both":
        return (lab.HYPERBOLIC, lab.ELLIPTIC)
    return (arg,)


def cmd_verify(args) -> int:
    ids = lab.theorem_ids() if args.theorem == "all" else (args.theorem,)
    for tid in ids:
        if tid not in lab.THEOREMS:
            print(f"unknown theorem id {tid!r}; known ids:", file=sys.stderr)
            print("  " + " ".join(lab.theorem_ids()), file=sys.stderr)
            return 2
    tol = args.tol if args.tol is not None else get_tol()
    certs = []
    failed = False
    for tid in ids:
        _, geoms, report_only = lab.THEOREMS[tid]
        models = [g for g in _geometries(args.geometry) if g in geoms]
        if not models and args.theorem != "all":
            models = [args.geometry]  # lab.verify names the id's models
        for geometry in models:
            cert = lab.verify(tid, seed=args.seed, trials=args.trials,
                              geometry=geometry, tol=tol)
            certs.append(cert)
            status = "PASS" if cert.passed else "FAIL"
            if report_only:
                status = "REPORT"
            print(f"{status:6s} {tid:32s} {geometry:10s} "
                  f"max_residual={cert.max_residual:.3e} "
                  f"trials={cert.trials} time={cert.wall_time:.2f}s")
            if not cert.passed:
                failed = True
    report = {
        "tolerance": tol,
        "seed": args.seed,
        "certificates": [c.to_dict() for c in certs],
        "passed": not failed,
    }
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 1 if failed else 0


def _scene_from_args(args):
    """The scene named by --scene, or None after a one-line scene error."""
    try:
        if args.scene and args.scene.startswith("builtin:"):
            return builtin_scene(args.scene.split(":", 1)[1])
        if args.scene:
            return load_scene(args.scene, strict=not args.lax)
        return builtin_scene()
    except (OSError, ValueError, SceneError) as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return None


def cmd_compute(args) -> int:
    scene = _scene_from_args(args)
    if scene is None:
        return 2
    model = scene.model
    names = args.operands
    out = {"op": args.op, "geometry": model.kind}
    try:
        if args.op == "distance":
            a, b = (scene.point(n) for n in names)
            out["value"] = mt.distance(model, a, b)
        elif args.op == "angle":
            p1, p2, p3, p4 = (scene.point(n) for n in names)
            out["value"] = mt.angle_lines(model, join_points(p1, p2),
                                          join_points(p3, p4))
        elif args.op == "trig":
            a, b = (scene.point(n) for n in names)
            tv = mt.translate_trig(model, a, b)
            out.update({
                "C": [tv.c.real, tv.c.imag],
                "S": [tv.s.real, tv.s.imag],
                "T": ([tv.t.real, tv.t.imag]
                      if abs(tv.t) != math.inf else "inf"),
                "tag": tv.tag,
                "magnitude": tv.magnitude,
                "residual": tv.residual(),
            })
        elif args.op == "table51":
            a, b, c = (scene.point(n) for n in names)
            cfg = ce.build_config(model, a, b, c)
            kind, families, mags = tg.right_angled_magnitudes(cfg)
            rows = tg.table_rows(families, mags)
            out["kind"] = kind
            out["magnitudes"] = dict(zip(("a", "b", "c", "beta", "gamma"), mags))
            out["rows"] = [
                {"row": r[0], "lhs": r[1], "rhs": r[2], "residual": r[3]}
                for r in rows
            ]
        elif args.op == "laws":
            a, b, c = (scene.point(n) for n in names)
            cfg = ce.build_config(model, a, b, c)
            _, sines_sq = tg.squared_law_of_sines(cfg)
            cos_sq, branches = tg.squared_law_of_cosines(cfg)
            out["squared_law_of_sines_spread"] = sines_sq
            out["squared_law_of_cosines_residual"] = cos_sq
            out["closing_branches"] = branches
            o = tg.coherent_orientation(cfg)
            _, spread = tg.projective_law_of_sines(o)
            out["projective_law_of_sines_spread"] = spread
            out["projective_law_of_cosines_residual"] = max(
                tg.projective_laws_of_cosines(o).values())
        else:
            print(f"unknown op {args.op!r}", file=sys.stderr)
            return 2
    except (GeometryError, SceneError, ValueError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 2
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def cmd_figure(args) -> int:
    scene = _scene_from_args(args)
    if scene is None:
        return 2
    try:
        fig = draw_figure(args.figure, scene)
    except (OSError, ValueError, GeometryError) as exc:
        print(f"figure error: {exc}", file=sys.stderr)
        return 2
    fig.save(args.output)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ckgeom",
        description="projective Cayley-Klein geometry kernel: theorem "
                    "certification, metric computation and figures")
    sub = ap.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify", help="run randomized theorem certificates")
    vp.add_argument("--theorem", default="all",
                    help="theorem id or 'all' (default all)")
    vp.add_argument("--trials", default=1000,
                    type=_checked(lambda text: lab.checked_trials(int(text))))
    vp.add_argument("--seed", default=0,
                    type=_checked(lambda text: lab.checked_seed(int(text))))
    vp.add_argument("--geometry", default="both",
                    choices=["hyperbolic", "elliptic", "both"])
    vp.add_argument("--tol", type=_checked(checked_tol), default=None)
    vp.add_argument("--report", default=None, help="write a JSON report here")
    vp.set_defaults(func=cmd_verify)

    cp = sub.add_parser("compute", help="evaluate metric quantities on a scene")
    cp.add_argument("--scene", default=None,
                    help="scene JSON path or builtin:<name>")
    cp.add_argument("--op", required=True,
                    choices=["distance", "angle", "trig", "table51", "laws"])
    cp.add_argument("--lax", action="store_true",
                    help="accept unknown scene fields")
    cp.add_argument("operands", nargs="*", help="named points")
    cp.set_defaults(func=cmd_compute)

    fp = sub.add_parser("figure", help="emit an SVG construction figure")
    fp.add_argument("--figure", required=True)
    fp.add_argument("--scene", default=None,
                    help="scene JSON path or builtin:<name>")
    fp.add_argument("--lax", action="store_true")
    fp.add_argument("-o", "--output", default="figure.svg")
    fp.set_defaults(func=cmd_figure)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        get_tol()
    except ValueError as exc:  # a bad GEOM_TOL
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UnknownTheorem as exc:
        print(f"unknown theorem: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
