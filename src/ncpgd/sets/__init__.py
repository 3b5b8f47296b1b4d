"""Closed feasible sets with exact projections and closed-form cone queries."""

from __future__ import annotations

import importlib

from .base import (
    DEFAULT_TOL,
    WITNESS_ALPHA_GRID,
    FeasibleSet,
    InfeasiblePointError,
    in_proximal_normal_witness,
    projected_translation_check,
    proximal_normal_witness,
)

__all__ = [
    "DEFAULT_TOL",
    "WITNESS_ALPHA_GRID",
    "FeasibleSet",
    "InfeasiblePointError",
    "SparseSet",
    "NonnegSparseSet",
    "LowRankSet",
    "PsdLowRankSet",
    "CurveSet",
    "EpigraphSet",
    "from_spec",
    "proximal_normal_witness",
    "in_proximal_normal_witness",
    "projected_translation_check",
]

# Spec kind -> (module, class, integer fields of the spec in the order the
# class takes them). A set module is imported on the first use of one of its
# classes or spec kinds, so a command compiles only the set code it runs. A
# kind without fields takes no parameters.
_KINDS = {
    "sparse": ("sparse", "SparseSet", ("n", "s")),
    "nonneg-sparse": ("sparse", "NonnegSparseSet", ("n", "s")),
    "lowrank": ("lowrank", "LowRankSet", ("m", "n", "r")),
    "psd": ("lowrank", "PsdLowRankSet", ("n", "r")),
    "curve": ("curves", "CurveSet", ()),
    "epigraph": ("curves", "EpigraphSet", ()),
}
_CLASS_MODULES = {cls: module for module, cls, _ in _KINDS.values()}


def _load(module: str, name: str) -> type:
    cls = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = cls
    return cls


def __getattr__(name: str):
    module = _CLASS_MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _load(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_CLASS_MODULES))


def _parse_params(kind: str, text: str, required: tuple[str, ...]) -> dict[str, int]:
    params: dict[str, int] = {}
    if text:
        for item in text.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(f"set spec {kind!r}: expected key=value, got {item!r}")
            if key in params:
                raise ValueError(f"set spec {kind!r}: duplicate field {key!r}")
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(f"set spec {kind!r}: field {key!r} must be an integer, got {value!r}") from None
    missing = [k for k in required if k not in params]
    if missing:
        raise ValueError(f"set spec {kind!r}: missing field(s) {', '.join(missing)}")
    extra = [k for k in params if k not in required]
    if extra:
        raise ValueError(f"set spec {kind!r}: unknown field(s) {', '.join(extra)}")
    return params


def from_spec(spec: str) -> FeasibleSet:
    """Build a feasible set from a string spec.

    Recognized forms: ``sparse:n=10,s=3``, ``nonneg-sparse:n=10,s=3``,
    ``lowrank:m=8,n=8,r=2``, ``psd:n=6,r=2``, ``curve``, ``epigraph``.
    """
    kind, _, rest = spec.strip().partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ValueError(f"unknown set kind {kind!r}; expected one of {', '.join(_KINDS)}")
    module, name, fields = _KINDS[kind]
    if rest and not fields:
        raise ValueError(f"set spec {kind!r} takes no parameters, got {rest!r}")
    p = _parse_params(kind, rest, fields)
    return _load(module, name)(*(p[k] for k in fields))
