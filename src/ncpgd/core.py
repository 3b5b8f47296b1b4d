"""Points, objectives, and gradient checking for the ambient Euclidean space.

Per-point and per-query numpy calls here, in ``solver`` and in ``sets`` use
the cheapest entry point that gives the same bits and the same warnings:
``a.dot(b)``, ``abs(a)``, ``a.min()``/``a.max()`` and
``a.setflags(write=False)`` rather than ``np.dot``, ``np.abs``,
``np.min``/``np.max`` and assigning ``a.flags.writeable``, and
``np.count_nonzero`` to count the true entries of a boolean array.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ShapeError",
    "Point",
    "Objective",
    "inner",
    "norm",
    "check_gradient",
    "least_squares",
    "constant",
    "quartic",
]


class ShapeError(ValueError):
    """Two points with incompatible shapes were combined."""


def _finite(flat: np.ndarray) -> bool:
    """Whether every entry of a float array is finite.

    An elementwise test, so it raises no numpy warning: a test on the sum
    would overflow on finite input such as [1e308, 1e308]. Counting the
    finite entries takes about half the time of a logical reduction of them
    at 200 entries, and within a few percent of it at 10,000 to 40,000.
    """
    return bool(np.count_nonzero(np.isfinite(flat)) == flat.size)


class Point:
    """Immutable point of a Euclidean space.

    Coordinates are stored flat (row-major for matrices) together with the
    declared shape, so vectors in R^n and matrices in R^{m x n} share one type
    and matrices automatically carry the Frobenius inner product.

    The private slot ``_memo`` holds one decomposition for the matrix sets,
    tagged with the family (``LowRankSet`` or ``PsdLowRankSet``) of the set
    that wrote it. It is written at most once, and only with factors of the
    read-only ``data``, so the point stays immutable in every observable
    way. A low-rank or PSD projection writes it on the point it returns,
    before handing it out: the kept factors, which later queries at that
    point trust. On any other point the first low-rank or PSD query that
    decomposes it writes it: every singular value or eigenvalue and the
    r + 1 leading factors. Later queries read the memo instead of
    decomposing again, and it lives as long as the point. Arithmetic results
    and user-built points start without one.

    Every point has finite coordinates. ``Point(...)`` tests its input, and
    so does ``Point._of`` for the points the package computes (arithmetic,
    trial points, the matrix and curve projections), since a sum, difference
    or product of finite values can overflow. The callers that pass
    ``finite=True`` and skip the test build a point only from entries of
    points that are already finite:

    - ``-p`` (``__neg__``): negation is exact;
    - ``SparseSet.project`` and ``NonnegSparseSet.project``: entries of x,
      clamped at 0 on the nonnegative set, and zeros;
    - their ``project_tangent``: entries of v, clamped or zeroed likewise.

    ``__init__`` and ``_of`` write ``data`` and ``shape`` through their slot
    descriptors, ``_set_data`` and ``_set_shape``, because ``__setattr__``
    refuses every write.
    """

    __slots__ = ("data", "shape", "_memo")

    def __init__(self, data, shape: tuple[int, ...] | None = None):
        # np.array always copies, so the point never aliases the caller's data.
        flat = np.array(data, dtype=float, order="C")
        if shape is None:
            shape = flat.shape
        else:
            shape = tuple(map(int, shape))
        if len(shape) not in (1, 2) or min(shape) <= 0:
            raise ShapeError(f"shape must be (n,) or (m, n) with positive sizes, got {shape}")
        flat = flat.reshape(-1)
        if flat.size != math.prod(shape):
            raise ShapeError(f"{flat.size} coordinates do not fill shape {shape}")
        if not _finite(flat):
            raise ValueError("point has non-finite coordinates")
        flat.setflags(write=False)
        _set_data(self, flat)
        _set_shape(self, shape)

    @classmethod
    def _of(cls, flat: np.ndarray, shape: tuple[int, ...], finite: bool = False) -> "Point":
        """Point over a freshly computed flat float64 array of known shape.

        The unchecked path for results computed inside the package: the
        caller guarantees that ``flat`` is a new contiguous 1-D float64
        array that nothing else references and that ``shape`` is a valid
        shape of its size. Only finiteness is checked, so overflow still
        raises ``ValueError`` as in the constructor. ``finite=True`` skips
        that test too, for the callers listed in the class docstring.
        """
        if not (finite or _finite(flat)):
            raise ValueError("point has non-finite coordinates")
        flat.setflags(write=False)
        p = object.__new__(cls)
        _set_data(p, flat)
        _set_shape(p, shape)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    @classmethod
    def vector(cls, coords) -> "Point":
        arr = np.asarray(coords, dtype=float).reshape(-1)
        return cls(arr, (arr.size,))

    @classmethod
    def matrix(cls, rows) -> "Point":
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2:
            raise ShapeError(f"matrix constructor needs a 2-D array, got ndim={arr.ndim}")
        return cls(arr, arr.shape)

    @classmethod
    def zeros(cls, shape) -> "Point":
        shape = tuple(map(int, shape))
        return cls(np.zeros(math.prod(shape)), shape)

    def as_array(self) -> np.ndarray:
        """Read-only view of the coordinates in the declared shape."""
        return self.data.reshape(self.shape)

    def _check_same_shape(self, other: "Point"):
        if not isinstance(other, Point):
            raise TypeError(f"expected Point, got {type(other).__name__}")
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "Point") -> "Point":
        self._check_same_shape(other)
        return Point._of(self.data + other.data, self.shape)

    def __sub__(self, other: "Point") -> "Point":
        self._check_same_shape(other)
        return Point._of(self.data - other.data, self.shape)

    def __neg__(self) -> "Point":
        return Point._of(-self.data, self.shape, finite=True)

    def __mul__(self, scalar) -> "Point":
        return Point._of(self.data * float(scalar), self.shape)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Point({self.as_array().tolist()!r})"


# Bound once: object.__setattr__ would look the slot up by name on every call.
_set_data = Point.data.__set__
_set_shape = Point.shape.__set__

# Larger points are summarized in error messages: the full repr of a 200x200
# matrix runs to about 800,000 characters.
_FULL_REPR_SIZE = 64


def _describe(x: Point) -> str:
    """repr(x) up to _FULL_REPR_SIZE coordinates; else its shape, norm and first 8 coordinates."""
    if x.data.size <= _FULL_REPR_SIZE:
        return repr(x)
    return (f"Point(shape={x.shape}, norm={norm(x)!r}, "
            f"first 8 of {x.data.size} coordinates={x.data[:8].tolist()!r})")


def inner(a: Point, b: Point) -> float:
    """Euclidean (Frobenius) inner product of two same-shape points."""
    a._check_same_shape(b)
    return float(a.data.dot(b.data))


def norm(a: Point) -> float:
    """Euclidean (Frobenius) norm."""
    # What np.linalg.norm computes for real 1-D data, bit for bit.
    return math.sqrt(a.data.dot(a.data))


def _sq_dist(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||^2, bit for bit as ``norm`` squares it, with no Point of a - b."""
    d = a - b
    sq = float(d.dot(d))
    # Point's error for an overflowed difference, which only a sum that is not finite can hide.
    if not math.isfinite(sq) and not _finite(d):
        raise ValueError("point has non-finite coordinates")
    return sq


class Objective:
    """Objective with exact value and gradient callables.

    Both callables must be deterministic; the gradient must return a point of
    the same shape as its argument.
    """

    __slots__ = ("_eval", "_grad", "name")

    def __init__(self, eval_fn, grad_fn, name: str = "objective"):
        object.__setattr__(self, "_eval", eval_fn)
        object.__setattr__(self, "_grad", grad_fn)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Objective is immutable")

    def eval(self, x: Point) -> float:
        return float(self._eval(x))

    def grad(self, x: Point) -> Point:
        g = self._grad(x)
        if not isinstance(g, Point):
            g = Point(g, x.shape)
        if g.shape != x.shape:
            raise ShapeError(f"gradient shape {g.shape} differs from point shape {x.shape}")
        return g

    def __repr__(self):
        return f"Objective({self.name!r})"


def least_squares(target: Point) -> Objective:
    """f(x) = 0.5 * ||x - target||^2 with gradient x - target."""

    def ev(x: Point) -> float:
        x._check_same_shape(target)
        return 0.5 * _sq_dist(x.data, target.data)

    def gr(x: Point) -> Point:
        return x - target

    return Objective(ev, gr, name="least-squares")


def constant(value: float = 0.0) -> Objective:
    """Constant objective; its gradient vanishes everywhere."""
    value = float(value)
    return Objective(lambda x: value, lambda x: Point(np.zeros(x.data.size), x.shape), name="constant")


def quartic() -> Objective:
    """f(x) = 0.25 * ||x||^4 with gradient ||x||^2 * x."""

    def ev(x: Point) -> float:
        s = float(x.data.dot(x.data))
        return 0.25 * s * s

    def gr(x: Point) -> Point:
        s = float(x.data.dot(x.data))
        return Point(s * x.data, x.shape)

    return Objective(ev, gr, name="quartic")


def check_gradient(obj: Objective, x: Point, h: float = 1e-6) -> float:
    """Max relative error between obj.grad and central differences at x.

    Per coordinate the error is |cd_i - g_i| / (1 + |g_i|); the maximum over
    coordinates is returned. Raises if h <= 0 or f evaluates non-finite.
    """
    h = float(h)
    if h <= 0.0:
        raise ValueError(f"step h must be positive, got {h}")
    g = obj.grad(x)
    base = x.data
    worst = 0.0
    for i in range(base.size):
        e = np.zeros(base.size)
        e[i] = h
        fp = obj.eval(Point(base + e, x.shape))
        fm = obj.eval(Point(base - e, x.shape))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"objective {obj.name!r} evaluated non-finite near coordinate {i}")
        cd = (fp - fm) / (2.0 * h)
        err = abs(cd - g.data[i]) / (1.0 + abs(g.data[i]))
        if err > worst:
            worst = err
    return worst
