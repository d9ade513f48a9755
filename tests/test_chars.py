"""Character algebra: normal form, grades, duality signs."""

import random
from fractions import Fraction

import pytest

from lpacket.chars import (
    GRADE_OMEGA,
    GRADE_TRIVIAL,
    BaseFieldData,
    CharE,
    CharSystem,
    conj_dual_sign,
)
from lpacket.errors import FlagContradiction, NonUnitarySlope


def test_normal_form_equality():
    chi = CharE.generator("chi", GRADE_OMEGA)
    a = chi * chi.inverse()
    assert a == CharE.one()
    assert (chi * chi) == chi ** 2
    assert chi * CharE.norm_power(Fraction(1, 2)) != chi


def test_product_commutative_associative_involution():
    chi = CharE.generator("chi", GRADE_OMEGA)
    mu = CharE.generator("mu", GRADE_TRIVIAL)
    nu = CharE.norm_power(Fraction(1, 2))
    assert chi * mu == mu * chi
    assert (chi * mu) * nu == chi * (mu * nu)
    assert (chi * mu * nu).inverse().inverse() == chi * mu * nu
    assert (chi * mu).inverse() == chi.inverse() * mu.inverse()


def test_grade_additive_mod_2():
    chi = CharE.generator("chi", GRADE_OMEGA)
    mu = CharE.generator("mu", GRADE_TRIVIAL)
    assert chi.grade == 1
    assert (chi * chi).grade == 0
    assert (chi * mu).grade == 1
    assert (chi ** -3).grade == 1


def test_slope_must_be_half_integral():
    CharE.norm_power(Fraction(-3, 2))
    with pytest.raises(ValueError):
        CharE.norm_power(Fraction(1, 3))


def test_conj_dual_sign_by_grade():
    chi = CharE.generator("chi", GRADE_OMEGA)
    assert conj_dual_sign(chi) == -1
    assert conj_dual_sign(chi ** 2) == +1
    assert conj_dual_sign(CharE.one()) == +1


def test_conj_dual_sign_rejects_slopes():
    with pytest.raises(NonUnitarySlope):
        conj_dual_sign(CharE.norm_power(Fraction(1, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_standard_system_grades(n):
    sys = CharSystem.standard(n)
    assert sys.gen("chi").grade == 1
    assert sys.gen("chi_V").grade == n % 2
    assert sys.gen("chi_W").grade == n % 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identify_chi_aliases(n):
    sys = CharSystem.standard(n, identify_chi=True)
    chi = sys.gen("chi")
    assert sys.gen("chi_V") == chi ** (n + 2)
    assert sys.gen("chi_W") == chi ** n
    assert sys.gen("chi_V").grade == n % 2


def test_system_rejects_grade_redeclaration():
    sys = CharSystem.standard(3)
    sys.declare("eta", GRADE_TRIVIAL)
    sys.declare("eta", GRADE_TRIVIAL)
    with pytest.raises(FlagContradiction):
        sys.declare("eta", GRADE_OMEGA)


def test_base_field_data_validation():
    assert BaseFieldData(+1).omega_at_minus_one == 1
    with pytest.raises(FlagContradiction):
        BaseFieldData(0)


# -- reference: the Fraction-slope representation -------------------------------


class RefChar:
    """A character as a dict of nonzero exponents and a Fraction slope."""

    def __init__(self, exps, slope):
        self.exps = {k: e for k, e in exps.items() if e}
        self.slope = Fraction(slope)

    def __mul__(self, other):
        exps = dict(self.exps)
        for k, e in other.exps.items():
            exps[k] = exps.get(k, 0) + e
        return RefChar(exps, self.slope + other.slope)

    def inverse(self):
        return RefChar({k: -e for k, e in self.exps.items()}, -self.slope)

    def __pow__(self, k):
        return RefChar({g: e * k for g, e in self.exps.items()}, self.slope * k)

    def conj_dual(self):
        return RefChar(self.exps, -self.slope)

    def normal(self):
        return (tuple(sorted(self.exps.items())), self.slope)

    def grade(self):
        return sum(e * g for (_, g), e in self.exps.items()) % 2

    def sort_key(self):
        items = sorted(self.exps.items())
        return (self.slope, tuple((k[0], k[1], e) for k, e in items))

    def __str__(self):
        parts = [n if e == 1 else f"{n}^{e}"
                 for (n, _), e in sorted(self.exps.items())]
        if self.slope:
            parts.append(f"norm^{self.slope}")
        return "*".join(parts) if parts else "1"


REF_GENS = [("chi", GRADE_OMEGA), ("chi_V", GRADE_TRIVIAL),
            ("chi_W", GRADE_OMEGA), ("eta", GRADE_TRIVIAL)]


def _random_pair(rng):
    gens = rng.sample(REF_GENS, rng.randint(0, 3))
    exps = {g: rng.randint(-2, 2) for g in gens}
    slope = Fraction(rng.randint(-5, 5), 2)
    items = list(exps.items())
    rng.shuffle(items)
    return CharE(tuple(items), slope), RefChar(exps, slope)


def test_chare_equals_fraction_reference_on_random_operations():
    rng = random.Random(13)
    pool = [_random_pair(rng) for _ in range(30)]
    pool.append((CharE.one(), RefChar({}, 0)))
    ops = ("mul", "inverse", "pow", "conj_dual")
    for _ in range(600):
        op = rng.choice(ops)
        mu, ref = rng.choice(pool)
        if op == "mul":
            nu, nref = rng.choice(pool)
            pool.append((mu * nu, ref * nref))
        elif op == "pow":
            k = rng.randint(-3, 3)
            pool.append((mu ** k, ref ** k))
        else:
            pool.append((getattr(mu, op)(), getattr(ref, op)()))
    for mu, ref in pool:
        assert (mu.exps, mu.slope) == ref.normal()
        assert mu.halves == 2 * ref.slope
        assert str(mu) == str(ref)
        assert mu.grade == ref.grade()
        assert mu == CharE(mu.exps, mu.slope)
    # the draw covers half-integer slopes of both signs, and zero
    assert {mu.halves % 2 for mu, _ in pool} == {0, 1}
    assert {(mu.halves > 0) - (mu.halves < 0) for mu, _ in pool} == {-1, 0, 1}
    chars = [mu for mu, _ in pool]
    refs = [ref for _, ref in pool]
    outcomes = set()
    for i in range(len(pool) - 1):
        for j in (i + 1, rng.randrange(len(pool))):
            same = chars[i] == chars[j]
            assert same == (refs[i].normal() == refs[j].normal())
            assert not same or hash(chars[i]) == hash(chars[j])
            outcomes.add(same)
    assert outcomes == {True, False}
    order = sorted(range(len(pool)), key=lambda i: chars[i].sort_key())
    ref_order = sorted(range(len(pool)), key=lambda i: refs[i].sort_key())
    assert order == ref_order
