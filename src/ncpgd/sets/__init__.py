"""Closed feasible sets with exact projections and closed-form cone queries."""

from __future__ import annotations

import importlib
import re

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
_SPEC_FIELDS = {kind: fields for kind, (_, _, fields) in _KINDS.items()}


class SpecError(ValueError):
    """A spec field failed to parse: a set spec, or a field of an ncpgd command."""


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


# A value runs up to the next ",<key>=", so the coordinates of target=1,0 keep their comma.
# A pattern, not a compiled one: re compiles it on the first spec, not at import.
_FIELD_START = r",(?=\s*[^\W\d]\w*\s*=)"


def parse_spec(family: str, spec: str, kinds: dict[str, tuple[str, ...]],
               optional: tuple[str, ...] = ()) -> tuple[str, dict[str, str]]:
    """The kind and the text of each field of ``kind[:key=value,...]``, checked against
    kinds (kind -> its fields, each required unless optional); an error names the family."""
    kind, _, body = spec.strip().partition(":")
    kind = kind.strip()
    if kind not in kinds:
        raise SpecError(f"unknown {family} kind {kind!r}; expected one of {', '.join(kinds)}")
    fields = kinds[kind]
    if body and not fields:
        raise SpecError(f"{family} spec {kind!r} takes no parameters, got {body!r}")
    params: dict[str, str] = {}
    for item in re.split(_FIELD_START, body) if body else ():
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise SpecError(f"{family} spec {kind!r}: expected key=value, got {item!r}")
        if key in params:
            raise SpecError(f"{family} spec {kind!r}: duplicate field {key!r}")
        params[key] = value
    missing = [k for k in fields if k not in params and k not in optional]
    if missing:
        raise SpecError(f"{family} spec {kind!r}: missing field(s) {', '.join(missing)}")
    extra = [k for k in params if k not in fields]
    if extra:
        raise SpecError(f"{family} spec {kind!r}: unknown field(s) {', '.join(extra)}")
    return kind, params


def from_spec(spec: str) -> FeasibleSet:
    """Build a feasible set from a string spec in the spec grammar of the README's CLI
    section, which ``parse_spec`` reads.

    Recognized forms: ``sparse:n=10,s=3``, ``nonneg-sparse:n=10,s=3``,
    ``lowrank:m=8,n=8,r=2``, ``psd:n=6,r=2``, ``curve``, ``epigraph``.
    """
    kind, params = parse_spec("set", spec, _SPEC_FIELDS)
    module, name, fields = _KINDS[kind]
    args = []
    for key in fields:
        try:
            args.append(int(params[key]))
        except ValueError:
            raise SpecError(f"set spec {kind!r}: field {key!r} must be an integer, got {params[key]!r}") from None
    try:
        return _load(module, name)(*args)
    except ValueError as err:
        raise SpecError(f"set spec {kind!r}: {err}") from None
