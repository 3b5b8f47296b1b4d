"""Every query of the sparse, curve and epigraph sets on seeded inputs, byte for byte.

`set_queries_text` runs projections, tangent projections, strata, the
regular-distance and the proximal and general membership tests, membership of
arbitrary points, random points and sampled normals (each followed by the next
draw of its generator) and the infeasibility messages on the four classes whose
code shares a base class. The inputs include ties, zeros, negative entries and
points within and just outside the tolerance of the kink. The golden file pins
the answers: any change of a bit, a branch or a draw order shows as a diff.
"""

from pathlib import Path

import numpy as np

from ncpgd import CurveSet, EpigraphSet, NonnegSparseSet, Point, SparseSet

GOLDEN = Path(__file__).parent / "golden" / "set_queries.txt"

SPARSE_SETS = [SparseSet(6, 2), SparseSet(5, 1), SparseSet(4, 3),
               NonnegSparseSet(6, 2), NonnegSparseSet(5, 1), NonnegSparseSet(4, 3)]
CURVE_SETS = [CurveSet(), EpigraphSet()]
TOLS = (None, 1e-6)


def _fmt(value) -> str:
    if isinstance(value, Point):
        return "[" + ",".join(repr(float(c)) for c in value.data.ravel()) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _ask(fn, *args, **kwargs) -> str:
    try:
        return _fmt(fn(*args, **kwargs))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _sparse_vectors(n, rng, count):
    """Gaussian vectors, and vectors drawn from {-2, ..., 2} and {0, 1, 2} (ties and zeros)."""
    for k in range(count):
        if k % 3 == 0:
            yield Point(rng.standard_normal(n), (n,))
        else:
            yield Point(rng.integers(-2 if k % 3 == 1 else 0, 3, size=n).astype(float), (n,))


def _sparse_points(set_, rng):
    """Feasible points of every stratum, exact and with sub-tolerance noise."""
    for stratum in set_.stratum_ids:
        x = set_.random_point(rng, stratum=stratum)
        yield x
        noise = 1e-11 * np.abs(rng.standard_normal(set_.n))
        yield Point(x.data + noise, x.shape)


def _curve_vectors(rng, count):
    """Ambient points at scales 1e-12 ... 1e3, on and near the kink and the graph."""
    for k in range(count):
        kind = k % 4
        if kind == 0:
            yield Point(10.0 ** rng.uniform(-12.0, 3.0) * rng.standard_normal(2), (2,))
        elif kind == 1:
            yield Point(rng.choice([-1e-9, -1e-10, 0.0, 1e-10, 1e-9, 2e-9], size=2), (2,))
        else:
            t = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, 1.0))
            h = t ** 0.6 if t > 0.0 else 0.0
            yield Point([t, h + float(rng.choice([0.0, 5e-10, -5e-10, 1e-3, -1e-3]))], (2,))


def _curve_directions(rng):
    yield Point(rng.standard_normal(2), (2,))
    for v in ([1.0, 0.0], [1.0, -1e-10], [0.0, -1.0], [-1.0, 0.0], [0.7, -0.2]):
        yield Point(v, (2,))


def _sparse_directions(set_, x, rng):
    yield Point(rng.standard_normal(set_.n), (set_.n,))
    yield Point(rng.integers(-2, 3, size=set_.n).astype(float), (set_.n,))
    yield _sample(set_, x, rng)


def _sample(set_, x, rng):
    try:
        return set_.sample_regular_normal(x, rng)
    except ValueError:
        return Point.zeros(x.shape)


def _point_lines(set_, x, directions, tols=TOLS):
    lines = []
    for tol in tols:
        lines.append(f"  at {_fmt(x)} tol={tol}: stratum={_ask(set_.stratum_id, x, tol)}")
        for v in directions:
            lines.append(
                f"    v={_fmt(v)} dist={_ask(set_.dist_regular_normal, x, v, tol)} "
                f"prox={_ask(set_.in_proximal_normal, x, v, tol)} "
                f"general={_ask(set_.in_general_normal, x, v, tol)} "
                f"tangent={_ask(set_.project_tangent, x, v, tol)}")
    return lines


def _draw_lines(set_, rng, x):
    lines = []
    for stratum in (None,) + set_.stratum_ids:
        p = set_.random_point(rng, stratum=stratum)
        lines.append(f"  random stratum={stratum}: {_fmt(p)} next={rng.random()!r}")
    lines.append(f"  sample at {_fmt(x)}: {_ask(set_.sample_regular_normal, x, rng)} "
                 f"next={rng.random()!r}")
    return lines


def set_queries_text() -> str:
    lines = []
    for k, set_ in enumerate(SPARSE_SETS):
        rng = np.random.default_rng(7100 + k)
        lines.append(f"{set_!r}")
        for z in _sparse_vectors(set_.n, rng, 15):
            p = set_.project(z)
            lines.append(f" z={_fmt(z)} project={_fmt(p)} contains={_ask(set_.contains, z)} "
                         f"stratum={_ask(set_.stratum_id, z)}")
            lines += _point_lines(set_, p, list(_sparse_directions(set_, p, rng)))
            lines += _point_lines(set_, z, [Point(rng.standard_normal(set_.n), z.shape)], (None,))
        for x in _sparse_points(set_, rng):
            lines += _point_lines(set_, x, list(_sparse_directions(set_, x, rng)))
            lines += _draw_lines(set_, rng, x)
    for k, set_ in enumerate(CURVE_SETS):
        rng = np.random.default_rng(7200 + k)
        lines.append(f"{set_!r}")
        for z in _curve_vectors(rng, 96):
            p = set_.project(z)
            lines.append(f" z={_fmt(z)} project={_fmt(p)} contains={_ask(set_.contains, z)} "
                         f"stratum={_ask(set_.stratum_id, z)}")
            directions = list(_curve_directions(rng))
            directions.append(_sample(set_, p, rng))
            lines += _point_lines(set_, p, directions)
            lines += _point_lines(set_, z, [Point(rng.standard_normal(2), (2,))], (None,))
            lines += _draw_lines(set_, rng, p)
    return "\n".join(lines) + "\n"


def test_set_queries_match_golden_bytes():
    assert set_queries_text().encode("utf-8") == GOLDEN.read_bytes()
