import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cluster_friezes import laurent
from cluster_friezes.errors import (
    DimensionMismatch,
    ExponentOverflow,
    NotDivisible,
    SubtractionFreeViolation,
    ZeroDenominator,
)
from cluster_friezes.laurent import (
    IntLaurentPoly as P,
    RationalFunction as RF,
    _by_parts,
    _gcd_cofactors,
    _heuristic_gcd,
    _heuristic_gcd_by_variable,
    _poly_gcd_prs,
    _product,
    poly_gcd,
)
from cluster_friezes.mutation import mutate_seed, root_seed, seed_pattern

try:
    import sympy
except ImportError:  # sympy is only a test oracle
    sympy = None


def x(i, n=2):
    return P.variable(i, n)


def rx(i, n=2):
    return RF.variable(i, n)


def rand_poly(rng, nvars=2, terms=3, span=2):
    out = P.zero(nvars)
    for _ in range(terms):
        exp = tuple(rng.randint(-span, span) for _ in range(nvars))
        out = out + P.monomial(exp, rng.randint(-4, 4))
    return out


class TestPolyArithmetic:
    def test_add_cancellation(self):
        assert x(1) + (-x(1)) == P.zero(2)

    def test_add_disjoint_supports(self):
        assert P.one(2) + x(2) + x(1) == P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        assert P.one(2) + x(1) + x(1) * x(2) == P(
            2, {(0, 0): 1, (1, 0): 1, (1, 1): 1}
        )

    def test_mul_identity(self):
        p = P.one(2) + x(2)
        assert p * P.one(2) == p

    def test_mul_square(self):
        p = P.one(2) + x(1)
        assert p * p == P(2, {(0, 0): 1, (1, 0): 2, (2, 0): 1})

    def test_mul_monomial_scaling(self):
        inv = P.monomial((-1, 0))
        assert inv * (P.one(2) + x(2)) == P(2, {(-1, 0): 1, (-1, 1): 1})

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a


class TestIntegerInputs:
    """Coefficients, exponents and tropical coordinates are exact integers: a
    float, a str or a bool raises TypeError rather than being computed with;
    an int subclass becomes an int."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: P(1, {(1,): 1.5}),
            lambda: P(1, {(1,): 0.0}),
            lambda: P(1, {(1.5,): 1}),
            lambda: P(2, {(1, True): 1}),
            lambda: P.monomial((1,), 0.5),
            lambda: P.constant(0.5, 2),
            lambda: P.constant(True, 2),
            lambda: RF.constant(2.0, 2),
            lambda: (rx(1) + rx(2)).trop_eval((0.5, 1)),
            lambda: (rx(1) + rx(2)).trop_eval((0, "1")),
            lambda: rx(1).trop_eval((True, 0)),
            lambda: x(1) * True,
            lambda: True * x(1),
            lambda: x(1) * 1.5,
            lambda: x(1) * "2",
            lambda: x(1) ** True,
            lambda: x(1) ** 2.0,
            lambda: rx(1) * True,
            lambda: rx(1) * 1.5,
            lambda: rx(1) + "1",
            lambda: rx(1) - 0.5,
            lambda: 1.5 - rx(1),
            lambda: rx(1) / True,
            lambda: "2" / rx(1),
            lambda: rx(1) ** True,
            lambda: rx(1) ** -1.0,
            lambda: P.variable(1, 2).shift((True, 0)),
            lambda: P.variable(1, 2).shift((0.5, 0)),
        ],
        ids=[
            "coeff-float", "coeff-zero-float", "exp-float", "exp-bool",
            "monomial-coeff", "constant-float", "constant-bool", "rf-constant",
            "trop-float", "trop-str", "trop-bool",
            "poly-times-bool", "bool-times-poly", "poly-times-float", "poly-times-str",
            "poly-pow-bool", "poly-pow-float", "rf-times-bool", "rf-times-float",
            "rf-plus-str", "rf-minus-float", "float-minus-rf", "rf-over-bool",
            "str-over-rf", "rf-pow-bool", "rf-pow-float", "shift-bool", "shift-float",
        ],
    )
    def test_refused(self, make):
        with pytest.raises(TypeError, match="is not an int"):
            make()

    def test_int_subclass_becomes_int(self):
        class Int(int):
            pass

        p = P(1, {(Int(1),): Int(3)})
        assert p == P(1, {(1,): 3})
        assert all(type(c) is int for c in p.terms.values())
        assert P.constant(Int(2), 1) == P(1, {(0,): 2})
        assert (rx(1) + rx(2)).trop_eval((Int(2), 1)) == 2


class TestOperands:
    """Every public operation on polynomials and fractions reads its operands
    by one rule: another class raises TypeError, another number of variables
    DimensionMismatch.  Ints are the only scalars, on either side."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: (x(1) + x(2)).trop_max((5,)),
            lambda: (x(1) + x(2)).trop_max((5, 1, 9)),
            lambda: poly_gcd(P.variable(1, 1), P.variable(1, 2)),
            lambda: rx(1).substitute([RF.variable(1, 1), RF.variable(1, 2)]),
            lambda: x(1) + P.variable(1, 3),
            lambda: x(1) * P.variable(1, 3),
            lambda: x(1).exact_div(P.variable(1, 3)),
            lambda: RF(x(1), P.one(3)),
            lambda: rx(1) + RF.variable(1, 3),
            lambda: rx(1) * RF.variable(1, 3),
            lambda: rx(1) / RF.variable(1, 3),
            lambda: (rx(1) + rx(2)).trop_eval((0,)),
        ],
        ids=[
            "trop-max-short", "trop-max-long", "gcd", "substitute-targets",
            "poly-add", "poly-mul", "poly-exact-div", "rf-constructor",
            "rf-add", "rf-mul", "rf-div", "trop-eval-short",
        ],
    )
    def test_other_nvars(self, call):
        with pytest.raises(DimensionMismatch):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: P.variable(1, 1) * True,
            lambda: RF.variable(1, 1) ** True,
            lambda: P.variable(1, 1).trop_max((0.5,)),
            lambda: P.variable(1, 1) * 1.5,
            lambda: RF.variable(1, 1) * 1.5,
            lambda: P.variable(1, 1) + 1,
            lambda: P.variable(1, 1) - 1,
            lambda: P.variable(1, 1).exact_div(2),
            lambda: poly_gcd(x(1) + x(2), 2),
            lambda: poly_gcd(2, x(1) + x(2)),
            lambda: rx(1).substitute([1, 2]),
            lambda: RF(x(1) + x(2), 2),
            lambda: rx(1) * x(1),
            lambda: x(1) * rx(1),
            lambda: rx(1) + x(1),
            lambda: RF(2),
            lambda: RF.from_poly(2),
            lambda: RF.from_poly(RF.variable(1, 1)),
        ],
        ids=[
            "poly-times-bool", "rf-pow-bool", "trop-max-float", "poly-times-float",
            "rf-times-float", "poly-plus-int", "poly-minus-int", "exact-div-int",
            "gcd-int-right", "gcd-int-left", "substitute-ints", "rf-int-den",
            "rf-times-poly", "poly-times-rf", "rf-plus-poly", "rf-int-num",
            "rf-from-int", "rf-from-rf",
        ],
    )
    def test_other_class(self, call):
        with pytest.raises(TypeError):
            call()

    def test_ints_on_both_sides(self):
        f, p = rx(1) / (rx(2) + 1), x(1) + x(2)
        c = RF.constant
        assert 1 - f == c(1, 2) - f
        assert f - 1 == f - c(1, 2)
        assert 2 + f == f + 2 == c(2, 2) + f
        assert 2 / f == c(2, 2) / f
        assert f / 2 == f / c(2, 2)
        assert 3 * f == f * 3 == c(3, 2) * f
        assert 3 * p == p * 3 == P.constant(3, 2) * p
        assert f**2 == f * f
        assert f**-1 == c(1, 2) / f == f.inverse()
        assert p**2 == p * p


class TestExactDiv:
    def test_square_root_of_square(self):
        sq = P(2, {(0, 0): 1, (1, 0): 2, (2, 0): 1})
        assert sq.exact_div(P.one(2) + x(1)) == P.one(2) + x(1)

    def test_monomial_division(self):
        p = x(2) + x(2) * x(2)
        assert p.exact_div(x(2)) == P.one(2) + x(2)

    def test_not_divisible(self):
        # independent certificate: evaluating at (y1, y2) = (2, 3) gives
        # 1 + 3 + 6 = 10, which 1 + 2 = 3 does not divide
        p = P.one(2) + x(2) + x(1) * x(2)
        q = P.one(2) + x(1)
        assert 10 % 3 != 0
        with pytest.raises(NotDivisible):
            p.exact_div(q)

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(80):
            p = rand_poly(rng)
            q = rand_poly(rng)
            if q.is_zero():
                continue
            assert (p * q).exact_div(q) == p


class TestReduce:
    def test_common_factor(self):
        one_plus = P.one(2) + x(1)
        f = RF(x(2) * one_plus, one_plus)
        assert f == rx(2)

    def test_monomial_content_stays_in_numerator(self):
        num = P.one(2) + x(2) + x(1) * x(2)
        f = RF(num, x(1))
        assert f.den.is_one()
        assert f.num == P(2, {(-1, 0): 1, (-1, 1): 1, (0, 1): 1})

    def test_sign_normalization(self):
        f = RF(x(1) * (-2), -x(2))
        assert f.num == P(2, {(1, -1): 2})
        assert f.den.is_one()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RF(x(1), P.zero(2))

    def test_one_term_side_cancels_contents_without_gcd(self, monkeypatch):
        def no_gcd(p, q):
            raise AssertionError("gcd called")

        monkeypatch.setattr(laurent, "_gcd_cofactors", no_gcd)
        one = P.one(2)
        f = RF(P.monomial((1, -1), 6), 4 * one + 2 * x(2))
        assert (f.num, f.den) == (P.monomial((1, -1), 3), 2 * one + x(2))
        g = RF(6 * x(1) + 4 * one, -4 * one)
        assert (g.num, g.den) == (-3 * x(1) - 2 * one, 2 * one)
        a = RF(x(1), 2 * one + 4 * x(2))
        assert ((a * 2).num, (a * 2).den) == (x(1), one + 2 * x(2))
        assert ((a * 6).num, (a * 6).den) == (3 * x(1), one + 2 * x(2))
        assert ((a * 3).num, (a * 3).den) == (3 * x(1), 2 * one + 4 * x(2))
        assert (a * 0).is_zero() and (a * 0).den.is_one()

    def test_representation_independence(self):
        rng = random.Random(11)
        for _ in range(40):
            a = rand_poly(rng)
            b = rand_poly(rng)
            c = rand_poly(rng)
            if b.is_zero() or c.is_zero():
                continue
            assert RF(a * c, b * c) == RF(a, b)

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(40):
            a, b = rand_poly(rng), rand_poly(rng)
            if b.is_zero():
                continue
            f = RF(a, b)
            assert RF(f.num, f.den) == f


class TestGcd:
    def test_gcd_random_products(self):
        rng = random.Random(5)
        for _ in range(40):
            g = rand_poly(rng, terms=2)
            if g.is_zero():
                continue
            gmin = g.min_exponents()
            g = g.shift(tuple(-v for v in gmin))
            a = rand_poly(rng, terms=2, span=1)
            b = rand_poly(rng, terms=2, span=1)
            if a.is_zero() or b.is_zero():
                continue
            a = a.shift(tuple(-v for v in a.min_exponents()))
            b = b.shift(tuple(-v for v in b.min_exponents()))
            d = poly_gcd(a * g, b * g)
            # both products divide exactly by d, and g divides d
            (a * g).exact_div(d)
            (b * g).exact_div(d)
            d.exact_div(g)


def polys(nvars, lo=0, hi=3, max_terms=4):
    """Polynomials in nvars variables with exponents in lo..hi."""
    exps = st.tuples(*[st.integers(lo, hi)] * nvars)
    coeffs = st.integers(-5, 5).filter(bool)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda terms: P(nvars, terms)
    )


def poly_tuples(count, **kwargs):
    """`count` polynomials over one shared number of variables (1..3)."""
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(*[polys(n, **kwargs)] * count)
    )


# exponents of a monomial factor for each of two operands over up to 3 variables
monomial_exponents = st.lists(st.integers(0, 3), min_size=6, max_size=6)


def planted(polys3, exps):
    """(p, q, x^min) for p = a*g*x^ea and q = b*g*x^eb, from (g, a, b) and
    the exponents ea = exps[:n], eb = exps[3:3+n]."""
    g, a, b = polys3
    n = g.nvars
    ea, eb = tuple(exps[:n]), tuple(exps[3:3 + n])
    common = P.monomial(tuple(map(min, ea, eb)))
    return a * g * P.monomial(ea), b * g * P.monomial(eb), common


def _prs_by_parts(p, q):
    """The PRS gcd, with each operand's monomial factor split off first:
    gcd(x^e p0, x^f q0) = x^min(e, f) gcd(p0, q0).  On whole operands with
    large monomial factors the PRS can run for minutes (CHANGES.md)."""
    if p.is_zero() or q.is_zero():
        return _poly_gcd_prs(p, q)
    ep, eq = p.min_exponents(), q.min_exponents()
    p0, q0 = (f.shift(tuple(-v for v in e)) for f, e in ((p, ep), (q, eq)))
    return _poly_gcd_prs(p0, q0).shift(tuple(map(min, ep, eq)))


def _sympy_gcd(p, q):
    gens = sympy.symbols(f"x0:{p.nvars}")
    g = sympy.gcd(
        sympy.Poly.from_dict(dict(p.terms) or {(0,) * p.nvars: 0}, *gens),
        sympy.Poly.from_dict(dict(q.terms) or {(0,) * q.nvars: 0}, *gens),
    )
    return P(p.nvars, {e: int(c) for e, c in g.as_dict().items()})


class TestGcdProperties:
    """The heuristic gcd against the primitive PRS and sympy."""

    @settings(max_examples=80, deadline=None)
    @given(poly_tuples(3), monomial_exponents)
    def test_planted_factor_matches_prs(self, polys3, exps):
        # a monomial factor on each operand too (x^0 included)
        p, q, common = planted(polys3, exps)
        d = poly_gcd(p, q)
        assert d == _prs_by_parts(p, q)
        # the heuristic one variable at a time, on its own; where it gives
        # up (within `_HEU_TRIES` tries) the library falls back to the PRS
        found = _by_parts(p, q, _heuristic_gcd_by_variable)
        if found is not None:
            h, cff, cfg = found
            assert h == d and h * cff == p and h * cfg == q
        g = polys3[0]
        if not g.is_zero():
            # and g x^min(ea, eb) divides it when both operands are nonzero
            d.exact_div(g if p.is_zero() or q.is_zero() else g * common)

    @settings(max_examples=80, deadline=None)
    @given(poly_tuples(2))
    def test_coprime_pair_matches_prs(self, polys2):
        # any common divisor of a and a*b + 1 divides 1
        a, b = polys2
        q = a * b + P.one(a.nvars)
        assert poly_gcd(a, q) == _poly_gcd_prs(a, q) == P.one(a.nvars)

    @pytest.mark.skipif(sympy is None, reason="sympy is not installed")
    @settings(max_examples=60, deadline=None)
    @given(poly_tuples(3), monomial_exponents)
    def test_matches_sympy_up_to_sign(self, polys3, exps):
        p, q, _ = planted(polys3, exps)
        d = poly_gcd(p, q)
        assert _sympy_gcd(p, q) in (d, -d)

    @settings(max_examples=50, deadline=None)
    @given(poly_tuples(3))
    def test_cofactors(self, polys3):
        g, a, b = polys3
        p, q = a * g, b * g
        assume(not (p.is_zero() and q.is_zero()))
        d, cff, cfg = _gcd_cofactors(p, q)
        assert d == poly_gcd(p, q)
        assert d * cff == p and d * cfg == q
        assert _poly_gcd_prs(cff, cfg).is_one()

    @settings(max_examples=80, deadline=None)
    @given(poly_tuples(2, lo=-2, hi=2))
    def test_exact_div_round_trip(self, polys2):
        p, q = polys2
        assume(not q.is_zero())
        assert (p * q).exact_div(q) == p

    @settings(max_examples=60, deadline=None)
    @given(poly_tuples(3, lo=-2, hi=2, max_terms=3))
    def test_common_factor_cancels(self, polys3):
        n, d, h = polys3
        assume(not d.is_zero() and not h.is_zero())
        assert RF(n * h, d * h) == RF(n, d)

    @settings(max_examples=60, deadline=None)
    @given(poly_tuples(3, lo=-2, hi=2, max_terms=3))
    def test_add_laurent_skips_gcd(self, polys3):
        # f + L for a reduced f = n/d and a Laurent polynomial L is
        # (n + L*d)/d already in canonical form
        n, d, poly = polys3
        assume(not d.is_zero())
        f = RF(n, d)
        expected = RF(f.num + poly * f.den, f.den)
        assert f + RF.from_poly(poly) == expected
        assert RF.from_poly(poly) + f == expected
        assert f + 3 == RF(f.num + f.den * 3, f.den)
        laurent_f = RF.from_poly(poly)
        assert laurent_f + (-laurent_f) == RF.zero(poly.nvars)


class TestGcdFallback:
    """The primitive PRS answers whenever both heuristics give up."""

    # coprime cofactors whose Kronecker images share the factor t + 1, so
    # every evaluation point over-estimates the gcd (found on A4 Y-seeds)
    P_SHARED = P(4, {
        (0, 2, 2, 1): 1, (0, 1, 2, 1): 2, (0, 1, 1, 1): 2, (0, 0, 2, 1): 1,
        (0, 1, 1, 0): 1, (0, 0, 1, 1): 2, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1,
        (0, 0, 0, 0): 1,
    })
    Q_SHARED = P(4, {
        (0, 1, 1, 1): 1, (0, 1, 1, 0): 1, (0, 0, 1, 1): 1, (0, 0, 1, 0): 1,
        (0, 0, 0, 1): 1, (0, 0, 0, 0): 1,
    })

    def _cases(self):
        rng = random.Random(23)
        cases = [(self.P_SHARED, self.Q_SHARED)]
        while len(cases) < 30:
            g, a, b = (rand_poly(rng, nvars=3, terms=3) for _ in range(3))
            if g.is_zero() or a.is_zero() or b.is_zero():
                continue
            a, b, g = (f.shift(tuple(-v for v in f.min_exponents())) for f in (a, b, g))
            cases.append((a * g, b * g))
        return cases

    def test_heuristic_gives_up_on_shared_kronecker_factor(self):
        p, q = self.P_SHARED, self.Q_SHARED
        assert _heuristic_gcd(p, q) is None
        g, cff, cfg = _gcd_cofactors(p, q)
        assert g == _poly_gcd_prs(p, q) == P(4, {(0, 1, 1, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 0): 1})
        assert g * cff == p and g * cfg == q

    @pytest.mark.parametrize("limit", ["_HEU_TRIES", "_HEU_MAX_BITS"])
    def test_forced_fallback(self, monkeypatch, limit):
        expected = [_gcd_cofactors(p, q) for p, q in self._cases()]
        fallbacks = []
        prs = laurent._poly_gcd_prs

        def counting_prs(p, q):
            fallbacks.append((p, q))
            return prs(p, q)

        monkeypatch.setattr(laurent, limit, 0)
        monkeypatch.setattr(laurent, "_poly_gcd_prs", counting_prs)
        for (p, q), want in zip(self._cases(), expected):
            del fallbacks[:]
            assert _gcd_cofactors(p, q) == want
            if len(p.terms) > 1 and len(q.terms) > 1:
                assert fallbacks


def _no_prs(p, q):
    raise AssertionError("the PRS fallback ran")


class TestGcdByVariable:
    """Where a spurious factor shared by the Kronecker images defeats every
    try, the heuristic one variable at a time answers without the PRS."""

    def test_field_law_pair(self, monkeypatch):
        # a numerator and a denominator met in a field law draw, gcd
        # (x3 + 1)(x1 x3 + 1)^2; the PRS ran for minutes on them
        x1, x2, x3 = (P.variable(i, 3) for i in (1, 2, 3))
        one = P.one(3)
        f = P(3, {
            (5, 0, 2): 4, (4, 0, 3): 4, (4, 0, 2): 4, (3, 2, 4): -5,
            (2, 2, 5): -5, (2, 2, 4): -9, (2, 2, 3): -4, (1, 1, 0): 1,
            (0, 2, 3): -3, (0, 2, 2): 1, (0, 2, 1): 4, (0, 1, 1): 1,
            (0, 1, 0): 1,
        })
        g = (x3 + one) * (x1 * x3 + one) ** 2
        p = g * (4 * x1**4 * x3**2 - 5 * x1**2 * x2**2 * x3**4 + x2) * f
        q = g * (x3 + one) ** 2 * (x1 * x3 + one) ** 2 * (x1 + x3 + one)
        assert _heuristic_gcd(p, q) is None
        monkeypatch.setattr(laurent, "_poly_gcd_prs", _no_prs)
        d, cff, cfg = _gcd_cofactors(p, q)
        assert d == g and d * cff == p and d * cfg == q

    def test_substitution_of_three_variable_fractions(self, monkeypatch):
        # a case TestSubstitutionRoute drew: the one gcd of the substitution,
        # of operands of degree up to 19 with 1,472 and 1,046 terms, takes
        # evaluated integers of about 82,000 bits one variable at a time;
        # capped at 1 << 15 bits the heuristic gave up, and the PRS ran for
        # minutes
        x1, x2, x3 = (RF.variable(i, 3) for i in (1, 2, 3))
        f = (-4 * x1**2 / x2 - 3 * x3**2 / (x1**2 * x2) - x1 / (x2**2 * x3)) / (
            x1 * x3 + 1
        )
        targets = (
            (-2 * x1**2 * x2 / x3 + x2**2 / (x1 * x3) - x3 / x1)
            / (x1**2 + x1 * x3 + 2 * x1 + x3 + 1),
            -5 * x1 * x2 * x3**2 / (x1 * x3 + 1),
            (-(x1**2) * x2**2 * x3 - x1 * x3**2 / x2**2 - 5 / (x2 * x3**2))
            / (x1 * x3 + x3**2 + x1 + 2 * x3 + 1),
        )
        monkeypatch.setattr(laurent, "_poly_gcd_prs", _no_prs)
        got = f.substitute(targets)
        rng = random.Random(3)
        checked = 0
        while checked < 5:
            point = tuple(rng.choice((-1, 1)) * rng.randint(1, 30) for _ in range(3))
            if all(evaluate(t.den, point) for t in targets):
                values = tuple(rf_value(t, point) for t in targets)
                if all(values) and evaluate(f.den, values) and evaluate(got.den, point):
                    assert rf_value(got, point) == rf_value(f, values)
                    checked += 1

    def test_shared_kronecker_factor(self, monkeypatch):
        p, q = TestGcdFallback.P_SHARED, TestGcdFallback.Q_SHARED
        monkeypatch.setattr(laurent, "_poly_gcd_prs", _no_prs)
        d, cff, cfg = _gcd_cofactors(p, q)
        assert d == P(4, {(0, 1, 1, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 0): 1})
        assert d * cff == p and d * cfg == q

    @pytest.mark.parametrize("seed, terms", [(1, 5), (2, 3)])
    def test_dense_sums(self, monkeypatch, seed, terms):
        # sums of three dense 3-variable fractions; the Kronecker heuristic
        # gives up on some of their gcds, and the PRS fallback ran past a
        # 5 s alarm on about one such sum in twenty
        rng = random.Random(seed)
        coeffs = (-5, -4, -2, -1, 1, 2, 4, 5)

        def dense(lo, hi):
            out = P.zero(3)
            while out.is_zero():
                for _ in range(terms):
                    exp = tuple(rng.randint(lo, hi) for _ in range(3))
                    out = out + P.monomial(exp, rng.choice(coeffs))
            return out

        monkeypatch.setattr(laurent, "_poly_gcd_prs", _no_prs)
        for _ in range(20):
            parts = [RF(dense(-2, 4), dense(0, 3)) for _ in range(3)]
            total = parts[0] + parts[1] + parts[2]
            point = tuple(rng.choice((-1, 1)) * rng.randint(1, 30) for _ in range(3))
            if all(evaluate(f.den, point) for f in (*parts, total)):
                assert rf_value(total, point) == sum(rf_value(f, point) for f in parts)


class TestGcdWithoutConstantTerm:
    """A gcd without a constant term, of operands without one, is left by
    the Kronecker heuristic (it reads its candidate from index 0) to the
    heuristic by variable."""

    def test_cofactors_with_constant_term(self, monkeypatch):
        x1, x2, x3 = (P.variable(i, 3) for i in (1, 2, 3))
        one = P.one(3)
        p, q = (x1 + x2) * (one + x3), (x1 + x2) * (2 * one + x3)
        monkeypatch.setattr(laurent, "_poly_gcd_prs", _no_prs)
        assert _heuristic_gcd(p, q) is None
        assert _gcd_cofactors(p, q) == (x1 + x2, one + x3, 2 * one + x3)
        assert RF(p, q) == RF(one + x3, 2 * one + x3)


class TestMonomialContent:
    """Each operand's monomial factor is split off before the heuristic, so
    Kronecker images that share a power of t do not send it to the PRS."""

    def test_sum_without_prs(self, monkeypatch):
        # coprime numerator and denominator whose primitive parts both have
        # Kronecker images divisible by t^6; the PRS once ran for minutes here
        x1, x2, x3 = (RF.variable(i, 3) for i in (1, 2, 3))
        a = (-5 * x1 * x2**4 * x3**3 + x1**3 * x2 * x3**2 - x1**-1 * x2 * x3) / (
            4 * x1 * x2**4 * x3**3 - 2 * x1 * x3**3 + 4
        )
        c = (-x2**4 * x3 - x1**-2 * x2**2 * x3**-1) / (2 * x2**3 - 5 * x3)

        monkeypatch.setattr(laurent, "_poly_gcd_prs", _no_prs)
        total = a + c
        rng = random.Random(11)
        checked = 0
        while checked < 5:
            point = tuple(rng.choice((-1, 1)) * rng.randint(1, 30) for _ in range(3))
            if all(evaluate(f.den, point) for f in (a, c, total)):
                assert rf_value(total, point) == rf_value(a, point) + rf_value(c, point)
                checked += 1
        if sympy is not None:
            num, den = (
                f.shift(tuple(-v for v in f.min_exponents()))
                for f in (total.num, total.den)
            )
            assert _sympy_gcd(num, den) in (P.one(3), -P.one(3))


class TestSubstitution:
    def test_identity(self):
        f = (rx(1) + 1) / rx(2)
        assert f.substitute((rx(1), rx(2))) == f

    def test_single_column(self):
        # variable 1 of a univariate input goes to x2
        f1 = RF.variable(1, 1)
        assert f1.substitute((rx(2),)) == rx(2)

    def test_exponent_arithmetic(self):
        # y1 -> x2^-1 and y2 -> x1 send y1*y2 to x1/x2; y1 -> x2 and
        # y2 -> x1^-1 send it to x2/x1
        f = rx(1) * rx(2)
        assert f.substitute((rx(2) ** -1, rx(1))) == rx(1) / rx(2)
        assert f.substitute((rx(2), rx(1) ** -1)) == rx(2) / rx(1)

    def test_fraction_targets_with_negative_exponent(self):
        f = (1 + rx(1) ** -2 * rx(2) + 3 * rx(1) * rx(2)) / (2 + rx(2))
        targets = ((1 + rx(2)) / rx(1), rx(1) / (1 + rx(1) + rx(2)))
        got = f.substitute(targets)
        rng = random.Random(5)
        checked = 0
        while checked < 5:
            point = tuple(rng.choice((-1, 1)) * rng.randint(1, 30) for _ in range(2))
            if not all(evaluate(t.den, point) for t in targets + (got,)):
                continue
            inner = tuple(rf_value(t, point) for t in targets)
            if not all(inner) or not evaluate(f.den, inner):
                continue
            assert rf_value(got, point) == rf_value(f, inner)
            checked += 1

    def test_reexpress_targets_ask_no_one_term_gcd(self, monkeypatch):
        """Each term of a substitution starts from its first factor, and a
        product with a one-term side cancels integer contents only, so the
        Y targets of `tropical.reexpress` ask `_gcd_cofactors` about no
        one-term operand."""
        y1, y2, y3 = (RF.variable(i, 3) for i in (1, 2, 3))
        f = (1 + y2 + y1 * y2 + y1 * y2 * y3) / (y1 * (1 + y3))
        b = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
        pattern = seed_pattern("Y", b)
        calls = []
        real = laurent._gcd_cofactors

        def recording(p, q):
            calls.append((len(p.terms), len(q.terms)))
            return real(p, q)

        charts = [
            mutate_seed(root_seed("Y", pattern.seed_at(addr + (k,)).matrix), k).cluster
            for addr in ((), (1,), (2, 1), (3, 2, 1))
            for k in (1, 2, 3)
        ]
        monkeypatch.setattr(laurent, "_gcd_cofactors", recording)
        for targets in charts:
            before = len(calls)
            f.substitute(targets)
            # one cancellation per substitution, not one per term or sum
            assert len(calls) - before <= 1
        assert calls and all(min(n) > 1 for n in calls)


class TestTropEval:
    def test_frieze_entry(self):
        f = (RF.one(2) + rx(2)) / rx(1)
        assert f.trop_eval((1, 0)) == -1

    def test_monomial(self):
        assert rx(1).trop_eval((5, -2)) == 5

    def test_coords_read_once(self):
        # numerator and denominator are evaluated at the same coordinates
        f = (RF.one(2) + rx(2)) / rx(1)
        assert f.trop_eval(iter((1, 0))) == f.trop_eval([1, 0]) == -1

    def test_subtraction_free_violation(self):
        f = rx(1) - rx(2)
        with pytest.raises(SubtractionFreeViolation):
            f.trop_eval((0, 0))

    def test_homomorphism(self):
        rng = random.Random(17)
        for _ in range(60):
            f = _positive_rf(rng)
            g = _positive_rf(rng)
            coords = tuple(rng.randint(-4, 4) for _ in range(2))
            fc, gc = f.trop_eval(coords), g.trop_eval(coords)
            assert (f * g).trop_eval(coords) == fc + gc
            assert (f + g).trop_eval(coords) == max(fc, gc)

    def test_representation_independence(self):
        y1, y2 = rx(1), rx(2)
        a = y2 * (1 + y1)
        b = y2 + y1 * y2
        assert a == b
        for coords in [(0, 0), (2, -1), (-3, 5)]:
            assert a.trop_eval(coords) == b.trop_eval(coords)


def _positive_rf(rng):
    num = P.zero(2)
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(-2, 2) for _ in range(2))
        num = num + P.monomial(exp, rng.randint(1, 3))
    den = P.zero(2)
    for _ in range(rng.randint(1, 2)):
        exp = tuple(rng.randint(0, 2) for _ in range(2))
        den = den + P.monomial(exp, rng.randint(1, 3))
    return RF(num, den)


# -- ring and field laws, by exact evaluation at random points ----------------
#
# Each law is checked twice: as an identity of canonical forms, and by
# evaluating both sides with Fractions at random points of nonzero integers.
# A wrong result agrees with the right value at a random point only with small
# probability (Schwartz-Zippel), so evaluation pins every operation to plain
# rational arithmetic.


def evaluate(p, point):
    """Exact value of a Laurent polynomial at a point of nonzero integers."""
    total = Fraction(0)
    for exp, c in p.terms.items():
        term = Fraction(c)
        for v, e in zip(point, exp):
            term *= Fraction(v) ** e
        total += term
    return total


def rf_value(f, point):
    return evaluate(f.num, point) / evaluate(f.den, point)


def law_cases(element):
    """(a, b, c, points): three elements over 1..3 shared variables, built
    by element(polys) from Laurent polynomials, and three random points."""

    def over(n):
        laurent = polys(n, lo=-2, hi=2, max_terms=3)
        point = st.tuples(*[st.integers(-30, 30).filter(bool)] * n)
        return st.tuples(
            *[element(laurent)] * 3, st.lists(point, min_size=3, max_size=3)
        )

    return st.integers(1, 3).flatmap(over)


class TestRingLaws:
    """`IntLaurentPoly` is a commutative ring."""

    @settings(max_examples=60, deadline=None)
    @given(law_cases(lambda laurent: laurent))
    def test_ring_laws(self, case):
        a, b, c, points = case
        zero, one = P.zero(a.nvars), P.one(a.nvars)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a * zero == zero
        assert a - a == zero and -(-a) == a
        for point in points:
            va, vb = evaluate(a, point), evaluate(b, point)
            assert evaluate(a + b, point) == va + vb
            assert evaluate(a - b, point) == va - vb
            assert evaluate(a * b, point) == va * vb
            assert evaluate(a**3, point) == va**3


def small_factors(n):
    """Low-degree polynomials over n variables, some sharing a factor."""
    one, first, last = P.one(n), P.variable(1, n), P.variable(n, n)
    return [one + first, one + last, one + first + last, one * 2 - first,
            one + first * last]


def fractions(laurent):
    """p/d with d a product of at most two small factors.  Dense random
    denominators are left out: a draw on which both heuristics give up
    would leave the gcd to the PRS fallback, which can run for minutes
    (see CHANGES.md); `TestGcdByVariable.test_dense_sums` sums dense
    fractions at fixed seeds."""

    def over(p):
        factors = st.lists(st.sampled_from(small_factors(p.nvars)), max_size=2)
        return factors.map(lambda fs: RF(p, math.prod(fs, start=P.one(p.nvars))))

    return laurent.flatmap(over)


class TestFieldLaws:
    """`RationalFunction` is a field, with canonical reduced forms."""

    @settings(max_examples=40, deadline=None)
    @given(law_cases(fractions))
    def test_field_laws(self, case):
        a, b, c, points = case
        zero, one = RF.zero(a.nvars), RF.one(a.nvars)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a - a == zero
        assert a * zero == zero and zero * a == zero
        if not b.is_zero():
            assert b * b.inverse() == one
            assert (a / b) * b == a
            assert a / b == a * b**-1
        for point in points:
            if not (evaluate(a.den, point) and evaluate(b.den, point)):
                continue
            va, vb = rf_value(a, point), rf_value(b, point)
            assert rf_value(a + b, point) == va + vb
            assert rf_value(a - b, point) == va - vb
            assert rf_value(a * b, point) == va * vb
            if vb:
                assert rf_value(a / b, point) == va / vb
                assert rf_value(b**-2, point) == vb**-2

    @settings(max_examples=40, deadline=None)
    @given(law_cases(lambda laurent: laurent.filter(lambda p: not p.is_zero())))
    def test_reduced_form_evaluates_like_the_quotient(self, case):
        """RF(n, d) is n/d at every point where d does not vanish, and its
        denominator vanishes nowhere that d does not."""
        n, d, _, points = case
        f = RF(n, d)
        for point in points:
            vd = evaluate(d, point)
            if vd:
                assert evaluate(f.den, point) != 0
                assert rf_value(f, point) == evaluate(n, point) / vd

    @settings(max_examples=40, deadline=None)
    @given(law_cases(fractions), st.integers(-5, 5))
    def test_int_on_the_left(self, case, m):
        """m - a and m / a, as m + a and m * a already were."""
        a, _, _, points = case
        assert m - a == RF.constant(m, a.nvars) - a
        if not a.is_zero():
            assert m / a == RF.constant(m, a.nvars) / a
        for point in points:
            if not evaluate(a.den, point):
                continue
            va = rf_value(a, point)
            assert rf_value(m - a, point) == m - va
            if va:
                assert rf_value(m / a, point) == m / va

    @settings(max_examples=40, deadline=None)
    @given(law_cases(fractions))
    def test_y_step_parts_need_no_gcd(self, case):
        """With y = n/d and s = n + d: 1/y, 1 + y = s/d and
        y/(1 + y) = 1 - 1/(1 + y) = n/s come out canonical with no gcd."""
        y, _, _, _ = case
        assume(not y.is_zero() and not (y + 1).is_zero())
        real = laurent._gcd_cofactors

        def no_gcd(p, q):
            raise AssertionError("gcd called")

        laurent._gcd_cofactors = no_gcd
        try:
            parts = (y.inverse(), y + 1, 1 - (y + 1).inverse())
        finally:
            laurent._gcd_cofactors = real
        assert parts == (RF.one(y.nvars) / y, RF(y.num + y.den, y.den), y / (y + 1))


def per_term_substitute(f, targets):
    """The per-term route: each term a product of fractions, the terms summed
    as fractions, and numerator over denominator."""
    nv = targets[0].nvars
    one, zero = RF.one(nv), RF.zero(nv)
    num, den = (
        sum((_product(zip(targets, e), one) * c for e, c in p.terms.items()), zero)
        for p in (f.num, f.den)
    )
    return num / den


def y_chart(b, k):
    """The cluster of the Y-seed of B mutated at k from the root:
    y_k -> 1/y_k and y_i -> y_i y_k^[b_ki]_+ (1 + y_k)^-b_ki."""
    return mutate_seed(root_seed("Y", b), k).cluster


def y_charts(n):
    """`y_chart` of a random skew-symmetric B over n variables, so the b_ki
    in one row take either sign."""

    def build(upper, k):
        b = [[0] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), v in zip(pairs, upper):
            b[i][j], b[j][i] = v, -v
        return y_chart(b, k)

    size = n * (n - 1) // 2
    upper = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
    return st.builds(build, upper, st.integers(1, n))


def substitution_cases():
    """(f, targets): a small fraction over n variables (1..3), and n small
    fractions or a Y-mutation chart."""

    def over(n):
        element = fractions(polys(n, lo=-2, hi=2, max_terms=3))
        targets = st.tuples(*[element] * n) | y_charts(n)
        return st.tuples(element, targets)

    return st.integers(1, 3).flatmap(over)


def _outcome(route, f, targets):
    try:
        return route(f, targets)
    except ZeroDenominator:
        return ZeroDenominator


# y2 + 1/y3 over the chart mutated at 1 with b_12 = 1 and b_13 = -1: y2 goes
# to y1 y2/(1 + y1) and y3 to y3 (1 + y1), so the common denominator
# y3 (1 + y1)^2 overshoots the true one, y3 (1 + y1), by a factor 1 + y1
_Y3 = [RF.variable(i, 3) for i in (1, 2, 3)]
OVERSHOOT = (_Y3[1] + _Y3[2] ** -1, y_chart(((0, 1, -1), (-1, 0, 0), (1, 0, 0)), 1))


class TestSubstitutionRoute:
    """`substitute` maps into the polynomials over one common denominator and
    cancels once; it agrees with the per-term route over fractions."""

    @settings(max_examples=60, deadline=None)
    @given(substitution_cases())
    @example(OVERSHOOT)
    def test_agrees_with_per_term_route(self, case):
        f, targets = case
        real = laurent._gcd_cofactors
        calls = []

        def counting(p, q):
            calls.append(1)
            return real(p, q)

        laurent._gcd_cofactors = counting
        try:
            got = _outcome(RF.substitute, f, targets)
        finally:
            laurent._gcd_cofactors = real
        assert len(calls) <= 1
        assert got == _outcome(per_term_substitute, f, targets)

    def test_overshoot_is_cancelled(self, monkeypatch):
        f, targets = OVERSHOOT
        found = []
        real = laurent._gcd_cofactors

        def recording(p, q):
            out = real(p, q)
            found.append(out[0])
            return out

        monkeypatch.setattr(laurent, "_gcd_cofactors", recording)
        got = f.substitute(targets)
        y1, y2, y3 = _Y3
        assert found == [x(1, 3) + P.one(3)]
        assert got == (1 + y1 * y2 * y3) / (y3 * (1 + y1))


class TestProduct:
    """`_product` is the one product of powers."""

    def test_empty_product_is_one(self):
        for one in (P.one(2), RF.one(2)):
            assert _product([], one) is one
            assert _product([(x(1), 0), (rx(2), 0)], one) is one

    def test_lone_first_power_is_the_factor(self):
        for p, one in ((x(1) - x(2), P.one(2)), ((rx(1) + 1) / rx(2), RF.one(2))):
            assert _product([(p, 1)], one) is p
            assert _product([(p, 0), (p, 1), (p, 0)], one) is p

    def test_zero_exponents_skipped(self):
        class NoPower:
            def __pow__(self, e):
                raise AssertionError("power taken with exponent 0")

        p = x(1) - x(2)
        assert _product([(NoPower(), 0), (p, 2), (NoPower(), 0)], P.one(2)) == p * p
        assert _product([(NoPower(), 0)], P.one(2)).is_one()

    @settings(max_examples=40, deadline=None)
    @given(law_cases(fractions), st.tuples(*[st.integers(-3, 3)] * 3))
    def test_mixed_sign_fraction_powers_evaluate(self, case, exps):
        *factors, points = case
        pairs = [(f, e) for f, e in zip(factors, exps) if not f.is_zero()]
        got = _product(pairs, RF.one(factors[0].nvars))
        for point in points:
            if all(evaluate(f.num, point) * evaluate(f.den, point) for f, _ in pairs):
                want = math.prod(rf_value(f, point) ** e for f, e in pairs)
                assert rf_value(got, point) == want


# -- packed monomials against tuple-keyed references ---------------------------
#
# A polynomial stores one packed int per monomial.  These tests pin the
# packing to plain arithmetic on exponent tuples, written here independently
# of `laurent`, over 0..12 variables with negative exponents, and pin the
# range check: an exponent or total degree outside
# [-EXPONENT_LIMIT, EXPONENT_LIMIT) raises and never wraps into another
# monomial.

LIMIT = laurent.EXPONENT_LIMIT


def grlex(exp):
    return (sum(exp), exp)


def ref_mul(s, t):
    out = {}
    for e1, c1 in s.items():
        for e2, c2 in t.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_shift(s, exp):
    return {tuple(a + b for a, b in zip(e, exp)): c for e, c in s.items()}


def ref_min(s):
    return tuple(map(min, zip(*s)))


def ref_exact_div(s, t):
    """s/t by graded-lex leading-term elimination on exponent tuples, for
    nonzero t that divides s."""
    smin, tmin = ref_min(s), ref_min(t)
    rem = ref_shift(s, tuple(-x for x in smin))
    q = ref_shift(t, tuple(-x for x in tmin))
    qe = max(q, key=grlex)
    out = {}
    while rem:
        re = max(rem, key=grlex)
        de = tuple(a - b for a, b in zip(re, qe))
        assert all(x >= 0 for x in de) and rem[re] % q[qe] == 0
        dc = out[de] = rem[re] // q[qe]
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(de, e2))
            rem[e] = rem.get(e, 0) - dc * c2
            if not rem[e]:
                del rem[e]
    return ref_shift(out, tuple(a - b for a, b in zip(smin, tmin)))


def term_dicts(n, span=3, max_terms=4):
    """Tuple-keyed terms in n variables, zero coefficients included."""
    exps = st.tuples(*[st.integers(-span, span)] * n)
    return st.dictionaries(exps, st.integers(-5, 5), max_size=max_terms)


packed_cases = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        term_dicts(n),
        term_dicts(n),
        st.tuples(*[st.integers(-3, 3)] * n),
    )
)


def in_range(exp):
    return all(-LIMIT <= x < LIMIT for x in exp) and -LIMIT <= sum(exp) < LIMIT


class TestPacking:
    @settings(max_examples=150, deadline=None)
    @given(packed_cases)
    def test_round_trip_and_leading(self, case):
        n, s, _, _ = case
        nonzero = {e: c for e, c in s.items() if c}
        p = P(n, s)
        assert p.terms == nonzero
        assert p == P(n, nonzero) and hash(p) == hash(P(n, nonzero))
        if nonzero:
            top = max(nonzero, key=grlex)
            assert p.leading() == (top, nonzero[top])
            assert p.min_exponents() == ref_min(nonzero)

    @settings(max_examples=150, deadline=None)
    @given(packed_cases)
    # minima (-2, 1, -1) and (1, -1, 3): each variable moves differently
    @example((3, {(-2, 1, 0): 1, (0, 3, -1): 2}, {(1, -1, 4): 1, (2, 0, 3): -1}, (1, -2, 3)))
    def test_products_shifts_quotients(self, case):
        n, s, t, exp = case
        p, q = P(n, s), P(n, t)
        product = p * q
        shifted = p.shift(exp)
        assert product.terms == ref_mul(p.terms, q.terms)
        assert shifted.terms == ref_shift(p.terms, exp)
        assert (p**2).terms == ref_mul(p.terms, p.terms)
        if not q.is_zero():
            quotient = product.exact_div(q)
            assert quotient == p
            if not p.is_zero():
                assert quotient.terms == ref_exact_div(product.terms, q.terms)
                # true polynomials with monomial content, divided directly
                a, b = (f.shift(tuple(1 - m for m in f.min_exponents())) for f in (p, q))
                h = laurent._poly_exact_div(a * b, b)
                assert h == a and h.min_exponents() == ref_min(h.terms)
                # operands whose minima differ per variable: exact_div and
                # inverse split off and restore a different power of each
                u = product.shift(exp)
                assert u.exact_div(q).terms == ref_exact_div(u.terms, q.terms)
                f, g = RF(u, q), RF(u, q).inverse()
                assert g == RF(q, u) and (f * g).is_one() and g.den.leading()[1] > 0
                assert g.den.min_exponents() == (0,) * n
        # the monomial content read off the keys is the one the terms give
        others = [P.constant(3, n)] + [P.variable(i, n) for i in range(1, n + 1)]
        quotient = product.exact_div(q) if q else p
        for r in (product, shifted, p + q, -p, p * 3, p**2, quotient, *others):
            if not r.is_zero():
                assert r.min_exponents() == ref_min(r.terms)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(-(LIMIT // n), LIMIT // n - 1)] * n),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
    )
    def test_leading_is_grlex_max(self, pair):
        # packed int order is graded-lex order, also far from 0
        n = len(pair[0])
        assert P(n, dict.fromkeys(pair, 1)).leading()[0] == max(pair, key=grlex)


near_limit = st.one_of(
    st.integers(-3, 3),
    st.integers(-LIMIT - 2, -LIMIT + 2),
    st.integers(LIMIT - 3, LIMIT + 1),
    st.integers(-(2**40), 2**40),
)


def near_limit_exps(n):
    return st.tuples(*[near_limit] * n)


class TestPackedRange:
    """Past the packed range every operation raises; inside it, nothing
    wraps into a neighbouring digit."""

    def test_construction_edges(self):
        for n in (1, 2, 12):
            zeros = (0,) * (n - 1)
            for e in ((LIMIT - 1,), (-LIMIT,)):
                assert P(n, {e + zeros: 1}).terms == {e + zeros: 1}
            for e in ((LIMIT,), (-LIMIT - 1,), (2**40,), (-(2**40),)):
                with pytest.raises(ExponentOverflow):
                    P(n, {e + zeros: 1})
                with pytest.raises(ExponentOverflow):
                    P.monomial(e + zeros)
        # the degree digit has the same range
        for e in ((LIMIT - 1, 1), (-LIMIT, -1)):
            with pytest.raises(ExponentOverflow):
                P(2, {e: 1})
        # packed unchecked, these entries carry and borrow into digits that
        # absorb them, which reads as x2^7 x4^5: they are refused first
        with pytest.raises(ExponentOverflow):
            P(4, {(1, -(2**32) + 7, -1, 2**32 + 5): 1})

    def test_operation_edges(self):
        top = P.monomial((LIMIT - 1, 0))
        bottom = P.monomial((-LIMIT, 0))
        x1, x2 = P.variable(1, 2), P.variable(2, 2)
        for op in (
            lambda: top * x1,
            lambda: top * x2,
            lambda: bottom * P.monomial((-1, 0)),
            lambda: top.shift((0, 1)),
            lambda: bottom.shift((-1, 0)),
            lambda: x1 ** LIMIT,
            lambda: P.monomial((2**20, -(2**20))) ** (2**11),
            lambda: top * (P.one(2) + x1),
        ):
            with pytest.raises(ExponentOverflow):
                op()
        assert (x1 ** (LIMIT - 1)).terms == {(LIMIT - 1, 0): 1}
        # dividing out the least exponent -LIMIT shifts by +LIMIT
        low = bottom * (P.one(2) + x2)
        assert low.exact_div(P.one(2) + x2) == bottom
        assert bottom.exact_div(P.monomial((-1, 0))).terms == {(1 - LIMIT, 0): 1}
        with pytest.raises(ExponentOverflow):
            RF(P.one(2), bottom)
        assert (top * P.monomial((-1, 1))).terms == {(LIMIT - 2, 1): 1}

    def test_division_by_one_term_shifts(self):
        # exponents of x1 spanning 2^30: shifting the dividend to exponents
        # >= 0 would overflow, the quotient by c*x^e does not
        wide = P(1, {(LIMIT - 1,): 1, (-1,): 1})
        x1 = P.variable(1, 1)
        assert wide.exact_div(P.one(1)) == wide
        assert wide.exact_div(x1).terms == {(LIMIT - 2,): 1, (-2,): 1}
        assert (wide * 6).exact_div(P.monomial((1,), -3)).terms == {
            (LIMIT - 2,): -2, (-2,): -2
        }
        with pytest.raises(NotDivisible):
            (wide * 3).exact_div(x1 * 2)
        # a fraction over it still shifts both parts inside _cancel
        with pytest.raises(ExponentOverflow):
            RF(wide, P.one(1) + x1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(near_limit_exps(n), near_limit_exps(n), st.integers(2, 5))
        )
    )
    def test_never_wraps(self, case):
        a, b, k = case
        n = len(a)
        if not in_range(a):
            with pytest.raises(ExponentOverflow):
                P.monomial(a)
            return
        pa = P.monomial(a)
        assert pa.terms == {a: 1}
        if not in_range(b):
            return
        pb = P.monomial(b)
        ab = tuple(x + y for x, y in zip(a, b))
        for op in (lambda: pa * pb, lambda: pa.shift(b)):
            if in_range(ab):
                assert op().terms == {ab: 1}
            else:
                with pytest.raises(ExponentOverflow):
                    op()
        ak = tuple(k * x for x in a)
        if in_range(ak):
            assert (pa**k).terms == {ak: 1}
        else:
            with pytest.raises(ExponentOverflow):
                pa**k
        # two terms: only the surviving monomials decide
        two = pa + P.one(n)
        two_terms = {a: 1}
        two_terms[(0,) * n] = two_terms.get((0,) * n, 0) + 1
        expected = ref_mul(two_terms, {b: 2})
        if all(map(in_range, expected)):
            assert (two * (pb * 2)).terms == expected
        else:
            with pytest.raises(ExponentOverflow):
                two * (pb * 2)
