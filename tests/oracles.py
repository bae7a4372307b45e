"""Independent oracles for the tests: evaluations that ckgeom itself does
not use, written apart from the kernel they check."""

from ckgeom.errors import ChartDegenerate
from ckgeom.tolerance import get_tol


def oracle_cross_ratio(a, b, c, d, tol=None):
    """Affine-chart evaluation of the cross ratio, an oracle against the
    bracket form of `ckgeom.projective.cross_ratio`.

    The chart is the coordinate with the largest least modulus across the
    four points; a point at chart infinity falls back to the harmonic-ratio
    form (ABCD) = [AC]/[BC].
    """
    t = get_tol() if tol is None else tol
    pts = (a, b, c, d)
    # prefer a chart where no point is at infinity; allow exactly one (it
    # must be D, where the harmonic-ratio form applies)
    best = None
    for k in range(3):
        mods = [abs(p[k]) for p in pts]
        n_inf = sum(1 for m in mods if m <= t)
        finite_min = min((m for m in mods if m > t), default=0.0)
        # a single infinite point is only usable in the D slot
        bad_slot = 1 if (n_inf == 1 and mods[3] > t) else 0
        key = (n_inf, bad_slot, -finite_min)
        if best is None or key < best[0]:
            best = (key, k)
    (n_inf, _, _), k = best
    if n_inf > 1:
        raise ChartDegenerate("no affine chart avoids infinity")
    # a usable second coordinate: pick the one with the larger spread
    others = [i for i in range(3) if i != k]
    i = max(others, key=lambda ax: max(abs(p[ax]) for p in pts))
    coords = []
    infinite = None
    for idx, p in enumerate(pts):
        if abs(p[k]) <= t:
            infinite = idx
            coords.append(None)
        else:
            coords.append(p[i] / p[k])
    if infinite is None:
        ca, cb, cc, cd = coords
        return ((cc - ca) * (cd - cb)) / ((cc - cb) * (cd - ca))
    if infinite == 3:
        ca, cb, cc = coords[0], coords[1], coords[2]
        return (cc - ca) / (cc - cb)
    raise ChartDegenerate("chart infinity in an unsupported slot")
