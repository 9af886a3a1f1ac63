"""Variable stores and the lens algebra over them.

A store is a total, immutable assignment of values to the names declared in a
dataspace.  Program variables are addressed through lenses: a lens picks out a
part of the store (a whole variable, or one coordinate of a vector variable)
and supports reading and copy-on-write updating.  Frames are canonical sets of
lenses; they say which part of the store a program or a derivative is allowed
to touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union


class StoreError(Exception):
    pass


class UndeclaredVariable(StoreError):
    pass


class CoordOutOfRange(StoreError):
    pass


class KindMismatch(StoreError):
    pass


class NotPartOf(StoreError):
    pass


class NotIndependent(StoreError):
    pass


# Real values are exact rationals (int, Fraction) in symbolic work and floats
# in numeric paths; both count as kind `real`.
Real = Union[int, float, Fraction]
Value = Union[Real, bool, tuple]


@dataclass(frozen=True)
class Kind:
    """Value kind: real, bool, or a fixed-dimension real vector."""

    base: str
    dim: Optional[int] = None

    def __repr__(self) -> str:
        if self.base == "vec":
            return f"vec[{self.dim}]"
        return self.base


REAL = Kind("real")
BOOL = Kind("bool")


def vec(dim: int) -> Kind:
    if dim < 1:
        raise KindMismatch(f"vector dimension must be positive, got {dim}")
    return Kind("vec", dim)


def is_real(v) -> bool:
    return isinstance(v, (int, float, Fraction)) and not isinstance(v, bool)


def check_value(kind: Kind, v: Value, name: str = "?") -> Value:
    """Validate v against kind; lists are normalized to tuples."""
    if kind.base == "real":
        if not is_real(v):
            raise KindMismatch(f"{name}: expected real, got {v!r}")
        return v
    if kind.base == "bool":
        if not isinstance(v, bool):
            raise KindMismatch(f"{name}: expected bool, got {v!r}")
        return v
    if isinstance(v, list):
        v = tuple(v)
    if not isinstance(v, tuple) or len(v) != kind.dim:
        raise KindMismatch(f"{name}: expected vec[{kind.dim}], got {v!r}")
    for c in v:
        if not is_real(c):
            raise KindMismatch(f"{name}: vector component {c!r} is not real")
    return v


def zero_value(kind: Kind) -> Value:
    if kind.base == "real":
        return Fraction(0)
    if kind.base == "bool":
        return False
    return tuple(Fraction(0) for _ in range(kind.dim))


CONSTANT = "constant"
VARIABLE = "variable"
GHOST = "ghost"


class Dataspace:
    """Declaration-ordered table of names, kinds, and roles.

    Roles: `constant` bindings are read-only (assignment and ODE frames reject
    them), `variable` and `ghost` are writable.  Declaration order is
    significant: it fixes trace field order and frame canonicalization.
    """

    def __init__(self, name: str = "dataspace"):
        self.name = name
        self._decls: dict[str, tuple[Kind, str]] = {}

    def declare(self, name: str, kind: Kind, role: str = VARIABLE) -> None:
        if name in self._decls:
            raise KindMismatch(f"{name} declared twice")
        if role not in (CONSTANT, VARIABLE, GHOST):
            raise ValueError(f"unknown role {role!r}")
        self._decls[name] = (kind, role)

    def __contains__(self, name: str) -> bool:
        return name in self._decls

    def kind_of(self, name: str) -> Kind:
        try:
            return self._decls[name][0]
        except KeyError:
            raise UndeclaredVariable(name) from None

    def role_of(self, name: str) -> str:
        try:
            return self._decls[name][1]
        except KeyError:
            raise UndeclaredVariable(name) from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._decls)

    def coords(self, name: str) -> tuple:
        """The coordinate lenses of the vector name, in index order."""
        return tuple(Coord(name, i) for i in range(1, self.kind_of(name).dim + 1))

    def writable_names(self) -> tuple[str, ...]:
        return tuple(n for n, (_, r) in self._decls.items() if r != CONSTANT)

    def make_store(self, values: Optional[dict] = None, default_missing: bool = False) -> "Store":
        """Build a total store.  With default_missing, unlisted names get zeros."""
        values = dict(values or {})
        data = {}
        for name, (kind, _) in self._decls.items():
            if name in values:
                data[name] = check_value(kind, values.pop(name), name)
            elif default_missing:
                data[name] = zero_value(kind)
            else:
                raise UndeclaredVariable(f"no value for declared name {name}")
        if values:
            raise UndeclaredVariable(f"values for undeclared names: {sorted(values)}")
        return Store(self, data)


class Store:
    """Total immutable assignment over a dataspace; updates copy."""

    __slots__ = ("dataspace", "_data")

    def __init__(self, dataspace: Dataspace, data: dict):
        self.dataspace = dataspace
        self._data = data

    def get(self, name: str) -> Value:
        try:
            return self._data[name]
        except KeyError:
            raise UndeclaredVariable(name) from None

    def put(self, name: str, v: Value) -> "Store":
        kind = self.dataspace.kind_of(name)
        v = check_value(kind, v, name)
        data = dict(self._data)
        data[name] = v
        return Store(self.dataspace, data)

    def items(self) -> Iterator[tuple[str, Value]]:
        for name in self.dataspace.names():
            yield name, self._data[name]

    def __eq__(self, other) -> bool:
        return isinstance(other, Store) and self._data == other._data

    def __hash__(self):
        return hash(tuple(sorted((k, v if not isinstance(v, tuple) else ("#v", v)) for k, v in self._data.items())))

    def __repr__(self) -> str:
        inside = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"Store({inside})"


# ---------------------------------------------------------------------------
# Lens references


@dataclass(frozen=True)
class LensRef:
    pass


@dataclass(frozen=True)
class Var(LensRef):
    """The whole of one declared variable."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Coord(LensRef):
    """One coordinate (1-based) of a vector variable."""

    name: str
    index: int

    def __repr__(self) -> str:
        return f"{self.name}[{self.index}]"


@dataclass(frozen=True)
class SumLens(LensRef):
    """Pairwise-independent lenses read and written together."""

    parts: tuple

    def __init__(self, parts: Iterable[LensRef]):
        parts = tuple(parts)
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                if not lens_indep(a, b):
                    raise NotIndependent(f"sum components overlap: {a!r}, {b!r}")
        object.__setattr__(self, "parts", parts)

    def __repr__(self) -> str:
        return "(" + " (+) ".join(repr(p) for p in self.parts) + ")"


def _primitives(l: LensRef) -> tuple:
    if isinstance(l, SumLens):
        out = []
        for p in l.parts:
            out.extend(_primitives(p))
        return tuple(out)
    return (l,)


def _check_coord(l: Coord, s: Store) -> int:
    kind = s.dataspace.kind_of(l.name)
    if kind.base != "vec":
        raise KindMismatch(f"{l.name} is {kind!r}, not a vector")
    if not 1 <= l.index <= kind.dim:
        raise CoordOutOfRange(f"{l.name}[{l.index}] with dim {kind.dim}")
    return l.index


def lens_get(l: LensRef, s: Store) -> Value:
    if isinstance(l, Var):
        return s.get(l.name)
    if isinstance(l, Coord):
        i = _check_coord(l, s)
        return s.get(l.name)[i - 1]
    if isinstance(l, SumLens):
        return tuple(lens_get(p, s) for p in l.parts)
    raise NotPartOf(f"{l!r} does not address a store")


def lens_put(l: LensRef, v: Value, s: Store) -> Store:
    if isinstance(l, Var):
        return s.put(l.name, v)
    if isinstance(l, Coord):
        i = _check_coord(l, s)
        if not is_real(v):
            raise KindMismatch(f"{l!r}: expected real, got {v!r}")
        old = s.get(l.name)
        return s.put(l.name, tuple(v if j == i - 1 else c for j, c in enumerate(old)))
    if isinstance(l, SumLens):
        if not isinstance(v, tuple) or len(v) != len(l.parts):
            raise KindMismatch(f"{l!r}: expected {len(l.parts)}-tuple, got {v!r}")
        for p, c in zip(l.parts, v):
            s = lens_put(p, c, s)
        return s
    raise NotPartOf(f"{l!r} does not address a store")


def _prim_indep(a: LensRef, b: LensRef) -> bool:
    if a.name != b.name:
        return True
    if isinstance(a, Coord) and isinstance(b, Coord):
        return a.index != b.index
    return False


def lens_indep(a: LensRef, b: LensRef) -> bool:
    """Updates through a and b commute and do not see each other."""
    return all(_prim_indep(p, q) for p in _primitives(a) for q in _primitives(b))


def _prim_covered(p: LensRef, q: LensRef) -> bool:
    if p == q:
        return True
    if isinstance(p, Coord) and isinstance(q, Var):
        return p.name == q.name
    return False


def lens_le(a: LensRef, b: LensRef) -> bool:
    """a is part of b.  Computed syntactically: a vector variable is below its
    Var lens, never below an enumeration of its coordinates."""
    qs = _primitives(b)
    return all(any(_prim_covered(p, q) for q in qs) for p in _primitives(a))


class Frame:
    """Canonical set of primitive lenses.

    A Var absorbs Coords of the same variable.  Members are kept sorted by
    (name, coordinate) so iteration order is deterministic everywhere.
    """

    __slots__ = ("members",)

    def __init__(self, lenses: Iterable[LensRef] = ()):
        prims = []
        for l in lenses:
            prims.extend(_primitives(l))
        vars_present = {p.name for p in prims if isinstance(p, Var)}
        seen = set()
        out = []
        for p in prims:
            if not isinstance(p, (Var, Coord)):
                raise NotPartOf(f"{p!r} cannot be a frame member")
            if isinstance(p, Coord) and p.name in vars_present:
                continue
            if p not in seen:
                seen.add(p)
                out.append(p)
        out.sort(key=lambda p: (p.name, 0 if isinstance(p, Var) else p.index))
        object.__setattr__(self, "members", tuple(out))

    def __iter__(self) -> Iterator[LensRef]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return isinstance(other, Frame) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(m) for m in self.members) + "}"

    def covers(self, l: LensRef) -> bool:
        """l is part of this frame (lens_le against the member sum)."""
        return all(any(_prim_covered(p, q) for q in self.members) for p in _primitives(l))

    def overlaps(self, l: LensRef) -> bool:
        return any(not _prim_indep(p, q) for p in _primitives(l) for q in self.members)

    def disjoint(self, other: "Frame") -> bool:
        return not any(self.overlaps(m) for m in other.members)

    def union(self, other: "Frame") -> "Frame":
        return Frame(self.members + other.members)

    def names(self) -> tuple[str, ...]:
        seen = []
        for m in self.members:
            if m.name not in seen:
                seen.append(m.name)
        return tuple(seen)

    def complement(self, dataspace: Dataspace) -> "Frame":
        """All writable parts of the dataspace this frame leaves alone."""
        out = []
        for name in dataspace.writable_names():
            v = Var(name)
            if not self.overlaps(v):
                out.append(v)
            elif dataspace.kind_of(name).base == "vec" and not self.covers(v):
                out.extend(c for c in dataspace.coords(name) if not self.overlaps(c))
        return Frame(out)

    def get(self, s: Store) -> tuple:
        return tuple(lens_get(m, s) for m in self.members)

    def put(self, values: tuple, s: Store) -> Store:
        if len(values) != len(self.members):
            raise KindMismatch(
                f"frame has {len(self.members)} members, got {len(values)} values")
        for m, v in zip(self.members, values):
            s = lens_put(m, v, s)
        return s

