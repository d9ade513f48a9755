"""Formal unitary characters of E^x for a quadratic extension E/F.

A character is a monomial in a finite set of named generators together
with a rational power of the norm character |.|_E (the "slope").  Each
generator carries a declared restriction grade recording whether its
restriction to F^x is trivial (grade 0) or the quadratic class-field
character omega_{E/F} (grade 1).  Grades are additive mod 2 under
multiplication, which is all the structure the component-group and
epsilon-factor bookkeeping ever needs.

Characters are kept in a normal form (sorted nonzero generator exponents,
and the slope as an integer count of halves), so equality of normal forms
is equality of characters.  ``slope`` is the derived ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import FlagContradiction, NonUnitarySlope

GRADE_TRIVIAL = 0
GRADE_OMEGA = 1

# generator key: (name, grade); exponent entries: ((name, grade), exp)
GenKey = Tuple[str, int]


@dataclass(frozen=True, slots=True, weakref_slot=True, init=False)
class CharE:
    """A formal unitary character of E^x in normal form.

    ``CharE(exps, slope)`` validates and normalizes; the group operations
    build their results, already normal, through ``_normal``."""

    exps: Tuple[Tuple[GenKey, int], ...]
    halves: int  # the slope as an integer count of halves

    def __init__(self, exps=(), slope=0):
        s = Fraction(slope)
        if s.denominator not in (1, 2):
            raise ValueError(f"slope must be a half-integer, got {s}")
        exps = tuple(sorted((k, e) for k, e in exps if e != 0))
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "halves", int(2 * s))

    @classmethod
    def _normal(cls, exps: Tuple[Tuple[GenKey, int], ...],
                halves: int) -> "CharE":
        """A character from sorted nonzero exponents and a slope in halves,
        trusted as given."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "exps", exps)
        object.__setattr__(mu, "halves", halves)
        return mu

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls) -> "CharE":
        return cls._normal((), 0)

    @classmethod
    def generator(cls, name: str, grade: int, exp: int = 1) -> "CharE":
        if grade not in (GRADE_TRIVIAL, GRADE_OMEGA):
            raise ValueError(f"grade must be 0 or 1, got {grade}")
        return cls._normal((((name, grade), exp),) if exp else (), 0)

    @classmethod
    def norm_power(cls, slope) -> "CharE":
        """The character |.|_E^slope."""
        return cls((), slope)

    # -- group structure ------------------------------------------------

    def __mul__(self, other: "CharE") -> "CharE":
        exps, more = self.exps, other.exps
        if not exps:
            exps = more
        elif more:
            merged = dict(exps)
            for key, e in more:
                merged[key] = merged.get(key, 0) + e
            items = merged.items()
            # no new generator leaves the insertion order sorted
            if len(merged) != len(exps):
                items = sorted(items)
            exps = tuple(item for item in items if item[1])
        return CharE._normal(exps, self.halves + other.halves)

    def inverse(self) -> "CharE":
        return CharE._normal(tuple((k, -e) for k, e in self.exps),
                             -self.halves)

    def __pow__(self, k: int) -> "CharE":
        if k == 0:
            return CharE._normal((), 0)
        return CharE._normal(tuple((key, e * k) for key, e in self.exps),
                             self.halves * k)

    def conj_dual(self) -> "CharE":
        """The conjugate dual: the exponents stay and the slope changes sign."""
        return CharE._normal(self.exps, -self.halves)

    # -- derived data ----------------------------------------------------

    @property
    def slope(self) -> Fraction:
        return Fraction(self.halves, 2)

    @property
    def grade(self) -> int:
        """Restriction grade to F^x: 0 for trivial, 1 for omega_{E/F}."""
        return sum(e * key[1] for key, e in self.exps) % 2

    @property
    def is_trivial(self) -> bool:
        return not self.exps and not self.halves

    def sort_key(self):
        return (self.halves, tuple((key[0], key[1], e) for key, e in self.exps))

    def __str__(self) -> str:
        parts = []
        for (name, _grade), e in self.exps:
            parts.append(name if e == 1 else f"{name}^{e}")
        h = self.halves
        if h:
            parts.append(f"norm^{h}/2" if h % 2 else f"norm^{h // 2}")
        return "*".join(parts) if parts else "1"


def conj_dual_sign(mu: CharE) -> int:
    """Conjugate-duality sign of a unitary character: +1 for trivial
    restriction grade, -1 for grade omega.  Characters with a nonzero
    slope are not conjugate self-dual and are rejected."""
    if mu.halves:
        raise NonUnitarySlope(f"character {mu} has slope {mu.slope}")
    return -1 if mu.grade else +1


@dataclass(frozen=True)
class BaseFieldData:
    """The one base-field constant the calculus needs: omega_{E/F}(-1)."""

    omega_at_minus_one: int

    def __post_init__(self):
        if self.omega_at_minus_one not in (+1, -1):
            raise FlagContradiction(
                f"omega_{{E/F}}(-1) must be +1 or -1, got {self.omega_at_minus_one}"
            )


class CharSystem:
    """Registry of declared generators and their grades.

    ``standard(n)`` declares the three generators used by the transfer
    tower over a rank-n skew-Hermitian space: chi of grade omega, and
    chi_V / chi_W whose grades follow the dimensions n+2 and n.  With
    ``identify_chi=True`` the pair is instead identified with powers of
    chi (chi_V = chi^(n+2), chi_W = chi^n), so every character is a pure
    chi-monomial.
    """

    def __init__(self):
        self._grades: dict[str, int] = {}
        self._aliases: dict[str, CharE] = {}

    def declare(self, name: str, grade: int) -> None:
        if name in self._grades and self._grades[name] != grade:
            raise FlagContradiction(
                f"generator {name} redeclared with a different grade"
            )
        self._grades[name] = grade

    def declare_alias(self, name: str, value: CharE) -> None:
        self._aliases[name] = value

    def known(self, name: str) -> bool:
        return name in self._grades or name in self._aliases

    def gen(self, name: str) -> CharE:
        if name in self._aliases:
            return self._aliases[name]
        if name not in self._grades:
            raise KeyError(f"undeclared character generator: {name}")
        return CharE.generator(name, self._grades[name])

    @classmethod
    def standard(cls, n: int, identify_chi: bool = False) -> "CharSystem":
        sys = cls()
        sys.declare("chi", GRADE_OMEGA)
        if identify_chi:
            chi = sys.gen("chi")
            sys.declare_alias("chi_V", chi ** (n + 2))
            sys.declare_alias("chi_W", chi ** n)
        else:
            sys.declare("chi_V", n % 2)
            sys.declare("chi_W", n % 2)
        return sys
