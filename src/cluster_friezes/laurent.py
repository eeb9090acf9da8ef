"""Exact sparse Laurent-polynomial and rational-function arithmetic over Z.

A polynomial maps each monomial to a nonzero Python int.  The monomial x^e
over n variables is stored as one packed int: its base-2^32 digits are, from
the top, the total degree and then e_1, ..., e_n, each plus the bias 2^30
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", 2007).  So a product of monomials is one int
addition, and graded-lex order is plain int order.  Every exponent and total
degree must lie in [-2^30, 2^30) (`EXPONENT_LIMIT`); the top bit of each
digit stays clear and catches a digit that leaves the range, which raises
`ExponentOverflow` and never wraps into the next digit.  Exact division
by more than one term and the gcd first shift their operands to exponents
>= 0, so there the spread of each exponent must stay in range too.
`.terms` and the constructor speak exponent tuples.  Fractions are kept in
a canonical reduced form so that equality is plain dict comparison:

  * the denominator is a true polynomial without a monomial factor (all
    monomial content lives in the numerator); it may lack a constant term,
    as 1/(x1 + x2) does,
  * numerator and denominator share no polynomial factor and no integer
    content,
  * the graded-lex leading coefficient of the denominator is positive.

Products cancel with the gcd and its cofactors from one routine: the
heuristic gcd of Char, Geddes and Gonnet (integer gcd of Kronecker images,
certified by exact division; then the same one variable at a time), with
the primitive PRS as the last fallback.
Adding a Laurent polynomial to a reduced fraction needs no gcd at all, and
neither do `inverse()`, powers, negation, nor y/(1 + y) = 1 - 1/(1 + y):
with y = n/d, 1 + y = s/d for s = n + d, and s is coprime to n and to d.
Nor does a product in which one side to be cancelled is a single term: a
denominator has no monomial factor, so only integer contents can cancel.

Tropical (max-plus) evaluation is provided for fractions whose stored
coefficients are all positive.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import repeat
from math import gcd as int_gcd
from operator import mul, or_, sub
from struct import Struct

from .errors import (
    DimensionMismatch,
    ExponentOverflow,
    NotDivisible,
    SubtractionFreeViolation,
    TropOverflow,
    ZeroDenominator,
)

# Tropical coordinates are checked 64-bit quantities; growth past this bound
# is an error, never wraparound.
TROP_LIMIT = 2**63

# Every exponent and total degree of a packed monomial lies in
# [-EXPONENT_LIMIT, EXPONENT_LIMIT).
_DIGIT_BITS = 32
EXPONENT_LIMIT = 1 << (_DIGIT_BITS - 2)


def check_trop(value: int) -> int:
    if not -TROP_LIMIT < value < TROP_LIMIT:
        raise TropOverflow(f"tropical value {value} out of checked range")
    return value


def _index(i, r=None):
    """i, a 1-based index or direction, as an int in 1..r (at least 1 when r
    is None), else DimensionMismatch, bools included; an int subclass becomes an int."""
    if type(i) is not int and isinstance(i, int) and not isinstance(i, bool):
        i = int(i)
    if type(i) is not int or i < 1 or (r is not None and i > r):
        raise DimensionMismatch(f"index {i!r} out of range 1..{'' if r is None else r}")
    return i


def _int(x):
    """x as an int.  A float, a str or a bool is refused with TypeError
    rather than truncated; an int subclass becomes an int."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"entry {x!r} is not an int")
    return int(x)


def _ints(values):
    """values as a tuple of ints, each as `_int` reads it."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            return tuple(map(_int, values))
    return values


def _same_ring(cls, a, b):
    """Refuse operands a and b unless both are of class cls (else TypeError)
    over one number of variables (else DimensionMismatch)."""
    if type(a) is not cls or type(b) is not cls:
        names = type(a).__name__, type(b).__name__
        raise TypeError(f"operands of {' and '.join(names)}, not {cls.__name__}")
    if a.nvars != b.nvars:
        raise DimensionMismatch(f"operands over {a.nvars} and {b.nvars} variables")


class _Layout:
    """Packing constants for monomials over n variables.

    `zero` is the packed exponent 0: the bias in every digit, that is bit 30
    of each digit, which is set exactly when the digit's exponent is >= 0.
    A key is in range exactly when it has no bit of `overflow`: the top bit
    of a digit, a bit above the top digit, or the sign.
    """

    __slots__ = ("n", "zero", "guard", "overflow", "weights", "shifts", "nbytes", "_struct")

    def __init__(self, n):
        ndigits = n + 1
        self.n = n
        self.zero = sum(EXPONENT_LIMIT << (_DIGIT_BITS * i) for i in range(ndigits))
        self.guard = self.zero << 1
        self.overflow = self.guard | -(1 << (_DIGIT_BITS * ndigits))
        # x_i sits in digit n - i; it adds to the degree digit n as well
        self.shifts = tuple(_DIGIT_BITS * (n - 1 - i) for i in range(n))
        self.weights = tuple((1 << s) + (1 << (_DIGIT_BITS * n)) for s in self.shifts)
        self.nbytes = 4 * ndigits
        # (key + zero) ^ guard holds each exponent as a 32-bit two's
        # complement digit; the format skips the degree digit
        self._struct = Struct(f">4x{n}i")

    def pack(self, exps):
        """The packed keys of exponent tuples; ExponentOverflow past the range."""
        keys = [self.zero + self.shift_key(e) for e in exps]
        self.check(keys)
        return keys

    def shift_key(self, exp):
        """The packed key of x^exp minus that of x^0: adding it to a key
        multiplies its monomial by x^exp.  Its entries may reach
        EXPONENT_LIMIT, the negated least exponent; its total degree is not
        checked.  `check` sees either in the sum."""
        if len(exp) != self.n:
            raise DimensionMismatch(f"exponent vector not of length {self.n}")
        # an entry further out could carry into its neighbour's digit, which
        # `check` would not see
        if exp and (min(exp) < -EXPONENT_LIMIT or max(exp) > EXPONENT_LIMIT):
            raise ExponentOverflow(
                f"exponent outside [-{EXPONENT_LIMIT}, {EXPONENT_LIMIT})"
            )
        return sum(map(mul, exp, self.weights))

    def check(self, keys):
        """Raise ExponentOverflow unless every key is in range.

        Exact for keys whose digits are each in range or the sum of an
        in-range digit and one in [-EXPONENT_LIMIT, EXPONENT_LIMIT]: the
        lowest digit out of range sets its top bit.
        """
        if reduce(or_, keys, 0) & self.overflow:
            raise ExponentOverflow(
                f"exponent or degree outside [-{EXPONENT_LIMIT}, {EXPONENT_LIMIT})"
            )

    def exps(self, keys):
        """The exponent tuples of packed keys, in order."""
        words = map(self.guard.__xor__, map(self.zero.__add__, keys))
        return self._struct.iter_unpack(
            b"".join(map(int.to_bytes, words, repeat(self.nbytes), repeat("big")))
        )

    def digit(self, key, i):
        """Exponent of variable i (0-based) in key."""
        return (key >> self.shifts[i] & (2 * EXPONENT_LIMIT - 1)) - EXPONENT_LIMIT


_LAYOUTS = {}


def _layout(n):
    lay = _LAYOUTS.get(n)
    if lay is None:
        lay = _LAYOUTS.setdefault(n, _Layout(n))
    return lay


_new = object.__new__


def _make(lay, packed):
    """IntLaurentPoly over lay.n variables from nonzero packed terms."""
    p = _new(IntLaurentPoly)
    p.nvars = lay.n
    p._lay = lay
    p._packed = packed
    p._hash = None
    return p


class IntLaurentPoly:
    """Sparse Laurent polynomial with arbitrary-precision integer coefficients.

    Terms are stored packed (see the module docstring); the monomial content
    x^min_exponents() is read off the keys when asked for.
    """

    __slots__ = ("nvars", "_lay", "_packed", "_hash")

    def __init__(self, nvars: int, terms=None):
        lay = _layout(nvars)
        self.nvars = nvars
        self._lay = lay
        self._hash = None
        items = [(_ints(e), _int(c)) for e, c in terms.items()] if terms else []
        keys = lay.pack([e for e, c in items if c])
        self._packed = dict(zip(keys, (c for _, c in items if c)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return _make(_layout(nvars), {})

    @classmethod
    def constant(cls, c, nvars):
        lay = _layout(nvars)
        c = _int(c)
        return _make(lay, {lay.zero: c} if c else {})

    @classmethod
    def one(cls, nvars):
        return cls.constant(1, nvars)

    @classmethod
    def variable(cls, i, nvars):
        """The variable x_i, 1-based."""
        lay = _layout(nvars)
        return _make(lay, {lay.zero + lay.weights[_index(i, nvars) - 1]: 1})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls(len(exp), {tuple(exp): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self):
        """The terms as a fresh dict from exponent tuples to coefficients."""
        return dict(zip(self._lay.exps(self._packed), self._packed.values()))

    def __bool__(self):
        return bool(self._packed)

    def is_zero(self):
        return not self._packed

    def is_one(self):
        return len(self._packed) == 1 and self._packed.get(self._lay.zero) == 1

    def is_monomial(self):
        return len(self._packed) == 1

    def is_constant(self):
        return not self._packed or (
            len(self._packed) == 1 and self._lay.zero in self._packed
        )

    def constant_coeff(self):
        return self._packed.get(self._lay.zero, 0)

    def coefficients_nonnegative(self):
        return all(c > 0 for c in self._packed.values())

    def leading(self):
        """Graded-lex leading (exponent, coefficient); poly must be nonzero."""
        k = max(self._packed)
        return next(self._lay.exps((k,))), self._packed[k]

    def _leading_coeff(self):
        return self._packed[max(self._packed)]

    def min_exponents(self):
        """Componentwise minimum of exponents over all terms."""
        if not self._packed:
            raise ValueError("zero polynomial has no exponents")
        return tuple(map(min, zip(*self._lay.exps(self._packed))))

    def _degree_in(self, i):
        """Max exponent of variable i (0-based), -1 for the zero polynomial."""
        if not self._packed:
            return -1
        digit = self._lay.digit
        return max(digit(k, i) for k in self._packed)

    def sort_key(self):
        """A total order on polynomials over the same variables (not
        graded-lex on polynomials; any fixed order serves deduplication)."""
        return tuple(sorted(self._packed.items()))

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IntLaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._packed == other._packed

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self._packed.items())))
        return self._hash

    def __add__(self, other):
        _same_ring(IntLaurentPoly, self, other)
        out = dict(self._packed)
        for k, c in other._packed.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _make(self._lay, out)

    def __neg__(self):
        return _make(self._lay, {k: -c for k, c in self._packed.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not IntLaurentPoly:
            other = _int(other)  # a scalar
            if other == 0:
                return _make(self._lay, {})
            return _make(self._lay, {k: c * other for k, c in self._packed.items()})
        _same_ring(IntLaurentPoly, self, other)
        small, large = self._packed, other._packed
        if len(small) > len(large):
            # iterate over the smaller operand in the outer loop
            small, large = large, small
        lay = self._lay
        zero = lay.zero
        out = {}
        get = out.get
        for k1, c1 in small.items():
            k1 -= zero
            for k2, c2 in large.items():
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        lay.check(out)
        return _make(lay, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = _int(n)
        if n < 0:
            raise ValueError("negative power of a polynomial; use RationalFunction")
        if n == 0:
            return IntLaurentPoly.one(self.nvars)
        # square and multiply, started from the first factor, so p**1 is p
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def shift(self, exp):
        """Multiply by the monomial x^exp; exp is read as _ints reads it."""
        return _shift(self, _ints(exp))

    def int_content(self):
        if not self._packed:
            return 0
        g = 0
        for c in self._packed.values():
            g = int_gcd(g, abs(c))
            if g == 1:
                break
        return g

    # -- exact division ----------------------------------------------------

    def exact_div(self, other):
        """Exact quotient self/other in the Laurent ring; NotDivisible otherwise."""
        _same_ring(IntLaurentPoly, self, other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return _make(self._lay, {})
        if other.is_monomial():
            # c*x^e: a shift by -e and an integer division per coefficient,
            # with no shift of self to exponents >= 0 that could overflow
            c = other._leading_coeff()
            if any(v % c for v in self._packed.values()):
                raise NotDivisible("coefficient does not divide")
            return _div_monomial(self, c, other.min_exponents())
        # clear monomial content so both operands are true polynomials
        smin = self.min_exponents()
        omin = other.min_exponents()
        p, q = _div_monomial(self, 1, smin), _div_monomial(other, 1, omin)
        return _times_monomial(_poly_exact_div(p, q), 1, tuple(map(sub, smin, omin)))

    # -- evaluation helpers --------------------------------------------------

    def trop_max(self, coords):
        """max over terms of <coords, exponent>; the poly must be nonzero."""
        coords = _ints(coords)
        if len(coords) != self.nvars:
            raise DimensionMismatch("coordinate vector has wrong length")
        if not self._packed:
            raise SubtractionFreeViolation("tropical evaluation of zero")
        return check_trop(
            max(sum(map(mul, coords, e)) for e in self._lay.exps(self._packed))
        )

    # -- display -----------------------------------------------------------

    def to_str(self, names=None):
        if not self._packed:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        keys = sorted(self._packed, reverse=True)
        for e, k in zip(self._lay.exps(keys), keys):
            c = self._packed[k]
            factors = [
                f"{names[i]}" if p == 1 else f"{names[i]}^{p}"
                for i, p in enumerate(e)
                if p != 0
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"IntLaurentPoly({self.to_str()})"


def _product(pairs, one):
    """Product of p**e over the (p, e) pairs, e == 0 skipped, started from
    the first factor (so a lone (p, 1) gives p itself); one when no factor
    is left."""
    out = None
    for p, e in pairs:
        if e:
            p = p**e
            out = p if out is None else out * p
    return one if out is None else out


def _poly_exact_div(p, q):
    """Exact division of true polynomials by leading-term elimination.

    If q*h = p for some polynomial h the quotient is returned; any failure of
    leading-term divisibility proves inexactness and raises NotDivisible.
    """
    lay = p._lay
    zero = lay.zero
    qk = max(q._packed)
    qc = q._packed[qk]
    qk -= zero
    rem = dict(p._packed)
    out = {}
    # every exponent met below lies in [0, deg p], so each digit of
    # rk - qk + zero is exact, and its bit 30 is set exactly when that
    # exponent of the quotient term is >= 0
    while rem:
        rk = max(rem)
        rc = rem[rk]
        if rc % qc != 0:
            raise NotDivisible("leading coefficient does not divide")
        dk = rk - qk
        if dk & zero != zero:
            raise NotDivisible("leading monomial does not divide")
        dc = rc // qc
        out[dk] = dc
        dk -= zero
        for k2, c2 in q._packed.items():
            k = dk + k2
            s = rem.get(k, 0) - dc * c2
            if s:
                rem[k] = s
            else:
                del rem[k]
    return _make(lay, out)


# -- multivariate gcd ---------------------------------------------------------
#
# `_gcd_cofactors` is the one place a gcd is computed.  It splits off each
# operand's integer and monomial content, then tries the heuristic gcd of
# Char, Geddes and Gonnet ("GCDHEU: Heuristic polynomial GCD algorithm based
# on integer GCD computation", 1989): evaluate both remaining parts at one
# integer xi by Kronecker substitution, take the integer gcd, read a
# candidate back from its symmetric xi-adic digits and certify it by exact
# division, whose quotients are the cofactors.  If no try certifies a
# candidate, the same heuristic runs one variable at a time, which a common
# factor of the Kronecker images cannot defeat on every try.  If that fails
# too, the primitive PRS below (content / primitive-part recursion) computes
# the gcd instead; it is also the tests' independent oracle.
#
# The Kronecker heuristic comes first because it is the cheaper one: it
# certifies one candidate where the heuristic by variable certifies one per
# variable, and run alone the latter made the y-walk benchmark 1.7x slower.
#
# Both draw their points from `_evaluation_points`: xi starts at
# 2 min(|p|, |q|) + 29 and grows by the factor 73794/27011 of the paper, for
# at most `_HEU_TRIES` points and while an image of degree `top` evaluated
# at xi stays within about `max_bits`: `_HEU_MAX_BITS` for the Kronecker
# heuristic, 8 times that one variable at a time, where each variable's
# images multiply the bits of the next.  A 3-variable gcd of degree 19 needs
# about 82,000 bits there (at 2^15 its PRS ran for minutes); more bits only
# slow the Kronecker heuristic, which gives up on such operands anyway.
_HEU_TRIES = 6
_HEU_MAX_BITS = 1 << 15


def poly_gcd(p, q):
    """gcd of true polynomials over Z, positive graded-lex leading coefficient."""
    _same_ring(IntLaurentPoly, p, q)
    return _gcd_cofactors(p, q)[0]


def _gcd_cofactors(p, q):
    """(g, p/g, q/g) for true polynomials p, q, with g as in `poly_gcd`.

    gcd(0, 0) is 0, with both cofactors 0.
    """
    return _by_parts(p, q, _gcd_of_parts)


def _gcd_of_parts(p, q):
    """`_gcd_cofactors` of the parts that `_by_parts` hands over."""
    found = _heuristic_gcd(p, q) or _heuristic_gcd_by_variable(p, q)
    if found is None:
        h = _poly_gcd_prs(p, q)
        found = h, _poly_exact_div(p, h), _poly_exact_div(q, h)
    return found


def _by_parts(p, q, gcd):
    """(g, p/g, q/g), g as in `poly_gcd`, from `gcd` of the parts of p and q
    without integer or monomial content, or None if `gcd` returns None.

    `gcd` sees only parts of two or more terms, and answers as
    `_heuristic_gcd` does.
    """
    if p.is_zero() or q.is_zero():
        # gcd(0, f) is f up to sign
        zero = IntLaurentPoly.zero(p.nvars)
        f = q if p.is_zero() else p
        if f.is_zero():
            return zero, zero, zero
        sign = 1 if f._leading_coeff() > 0 else -1
        unit = IntLaurentPoly.constant(sign, p.nvars)
        return (f * sign, zero, unit) if p.is_zero() else (f * sign, unit, zero)
    cp, cq = p.int_content(), q.int_content()
    c = int_gcd(cp, cq)
    # gcd(x^e p0, x^f q0) = x^min(e, f) gcd(p0, q0) when neither p0 nor q0
    # has a monomial factor; a monomial p0 or q0 is a constant
    ep, eq = p.min_exponents(), q.min_exponents()
    exp = tuple(map(min, ep, eq))
    p0, q0 = _div_monomial(p, cp, ep), _div_monomial(q, cq, eq)
    if len(p0._packed) == 1 or len(q0._packed) == 1:
        found = IntLaurentPoly.one(p.nvars), p0, q0
    else:
        found = gcd(p0, q0)
        if found is None:
            return None
    h, a, b = found
    return (
        _times_monomial(h, c, exp),
        _times_monomial(a, cp // c, tuple(map(int.__sub__, ep, exp))),
        _times_monomial(b, cq // c, tuple(map(int.__sub__, eq, exp))),
    )


def _heuristic_gcd(p, q):
    """(g, p/g, q/g) for primitive p, q of two or more terms and without a
    monomial factor, g with a positive leading coefficient, or None.

    None means that no point of `_evaluation_points` gave a certified
    candidate.
    """
    n = p.nvars
    pt, qt = p.terms, q.terms
    # one more than the larger degree in each variable, so that distinct
    # monomials of p, of q and of each of their divisors get distinct indices
    radix = [
        max(a, b) + 1 for a, b in zip(map(max, zip(*pt)), map(max, zip(*qt)))
    ]
    weights, w = [], 1
    for r in radix:
        weights.append(w)
        w *= r
    # The gcd G has no monomial factor, so its image is t^g G' with G'(0) != 0,
    # and G' divides both images divided by their lowest powers of t.  G' is
    # constant only when G = 1: the coprimality bound below still holds.  A
    # candidate read from index 0 is G only if g = 0; the heuristic by
    # variable finds the other G.
    pk, qk = _kronecker(pt, weights), _kronecker(qt, weights)
    for xi in _evaluation_points(p, q, max(pk[0][0], qk[0][0]), _HEU_MAX_BITS):
        gamma = int_gcd(_eval_descending(pk, xi), _eval_descending(qk, xi))
        if gamma <= xi // 2:
            # every nonconstant common divisor G' has |G'(xi)| > xi/2, and
            # G'(xi) divides gamma: the operands are coprime
            return IntLaurentPoly.one(n), p, q
        h = _from_digits(gamma, xi, radix)
        if h is not None:
            found = _certify(p, q, h)
            if found is not None:
                return found
    return None


def _heuristic_gcd_by_variable(p, q):
    """`_heuristic_gcd` as Char, Geddes and Gonnet give it: one variable at a
    time.  None means that some variable found no certified candidate at any
    point of `_evaluation_points`.

    The Kronecker images of coprime cofactors can share a factor for every
    evaluation point (x1 + 1 and x2 + 1 map to t + 1 and t^r + 1, and t + 1
    divides the latter for odd r), so one substitution of all variables can
    fail on every try.  Evaluating one variable at an integer keeps the other
    variables apart; a spurious common factor of the images then depends on
    the point, and a later point avoids it.
    """
    v = max(i for i in range(p.nvars) if p._degree_in(i) or q._degree_in(i))
    top = max(p._degree_in(v), q._degree_in(v))
    for xi in _evaluation_points(p, q, top, 8 * _HEU_MAX_BITS):
        pv, qv = _evaluate_at(p, v, xi), _evaluate_at(q, v, xi)
        if pv._packed and qv._packed:
            images = _by_parts(pv, qv, _heuristic_gcd_by_variable)
            if images is None:
                return None
            h, a, b = (_interpolate(f, v, xi) for f in images)
            # g from its image, or from the image of either cofactor
            for g in (h, _quotient(p, a), _quotient(q, b)):
                if g is not None:
                    found = _certify(p, q, _primitive(g))
                    if found is not None:
                        return found
    return None


def _evaluation_points(p, q, top, max_bits):
    """The points xi of both heuristics, for images of degree at most `top`."""
    # with xi > 2 min(|p|, |q|) + 2 a certified candidate is the gcd, given
    # that the images' gcd is (the theorem of Char, Geddes and Gonnet)
    xi = 2 * min(max(map(abs, f._packed.values())) for f in (p, q)) + 29
    for _ in range(_HEU_TRIES):
        if (top + 1) * xi.bit_length() > max_bits:
            return
        yield xi
        xi = xi * 73794 // 27011


def _certify(p, q, g):
    """(g, p/g, q/g) if g divides p and q, else None."""
    cff = _quotient(p, g)
    cfg = None if cff is None else _quotient(q, g)
    return None if cfg is None else (g, cff, cfg)


def _quotient(p, q):
    """p/q if q divides p, else None."""
    try:
        return _poly_exact_div(p, q)
    except NotDivisible:
        return None


def _evaluate_at(p, v, xi):
    """p with variable v set to the integer xi."""
    lay = p._lay
    w = lay.weights[v]
    terms = {}
    for k, c in p._packed.items():
        e = lay.digit(k, v)
        if e:
            c *= xi**e
            k -= e * w
        terms[k] = terms.get(k, 0) + c
    return _make(lay, {k: c for k, c in terms.items() if c})


def _interpolate(p, v, xi):
    """The polynomial in variable v whose coefficients have, as digits in
    powers of v, the symmetric xi-adic digits of p's coefficients."""
    lay = p._lay
    w = lay.weights[v]
    terms = {}
    for k, c in p._packed.items():
        base = k - lay.digit(k, v) * w
        for j, d in _symmetric_digits(c, xi):
            terms[base + j * w] = d
    lay.check(terms)
    return _make(lay, terms)


def _kronecker(terms, weights):
    """(index, coefficient) pairs, descending, of the polynomial with `terms`
    under x_i -> t^weights[i] divided by its lowest power of t."""
    pairs = sorted(
        ((sum(map(int.__mul__, e, weights)), c) for e, c in terms.items()),
        reverse=True,
    )
    low = pairs[-1][0]
    return [(k - low, c) for k, c in pairs] if low else pairs


def _eval_descending(pairs, xi):
    """Value at xi of the sum of c*xi^k over descending (k, c) pairs."""
    value = 0
    prev = pairs[0][0]
    powers = {}
    for k, c in pairs:
        gap = prev - k
        if gap:
            step = powers.get(gap)
            if step is None:
                step = powers[gap] = xi**gap
            value *= step
        value += c
        prev = k
    return value * xi**prev


def _from_digits(gamma, xi, radix):
    """The primitive polynomial, positive leading coefficient, whose Kronecker
    image has the symmetric xi-adic digits of gamma; None if an index is too
    large."""
    terms = {}
    for index, d in _symmetric_digits(gamma, xi):
        exp = []
        for r in radix:
            index, e = divmod(index, r)
            exp.append(e)
        if index:
            return None
        terms[tuple(exp)] = d
    return _primitive(IntLaurentPoly(len(radix), terms))


def _primitive(h):
    """h divided by its integer content, with a positive leading coefficient."""
    content = h.int_content()
    return _div_monomial(h, content if h._leading_coeff() > 0 else -content)


def _symmetric_digits(c, xi):
    """(k, d) for the nonzero digits d of the integer c = sum d*xi^k, each
    in -xi/2 < d <= xi/2."""
    half = xi // 2
    k = 0
    while c:
        c, d = divmod(c, xi)
        if d > half:
            d -= xi
            c += 1
        if d:
            yield k, d
        k += 1


def _div_monomial(p, c, exp=()):
    """p divided by the monomial c*x^exp, which the caller knows divides it."""
    if not any(exp):
        if c == 1:
            return p
        return _make(p._lay, {k: v // c for k, v in p._packed.items()})
    lay = p._lay
    d = lay.shift_key(exp)
    out = {k - d: v // c for k, v in p._packed.items()}
    lay.check(out)
    return _make(lay, out)


def _shift(p, exp):
    """p times x^exp, exp unchecked: the body of IntLaurentPoly.shift."""
    lay = p._lay
    d = lay.shift_key(exp)
    out = {k + d: c for k, c in p._packed.items()}
    lay.check(out)
    return _make(lay, out)


def _times_monomial(p, c, exp):
    """p times the monomial c*x^exp."""
    if any(exp):
        p = _shift(p, exp)
    return p if c == 1 else p * c


# -- primitive PRS: the fallback and the tests' oracle --------------------------


def _to_univariate(p, var):
    """View p as a univariate poly in variable `var` with IntLaurentPoly coeffs."""
    coeffs = {}
    for e, c in p.terms.items():
        d = e[var]
        rest = e[:var] + (0,) + e[var + 1 :]
        coeffs.setdefault(d, {})[rest] = c
    return {d: IntLaurentPoly(p.nvars, t) for d, t in coeffs.items()}


def _from_univariate(coeffs, var):
    terms = {}
    nvars = None
    for d, poly in coeffs.items():
        nvars = poly.nvars
        for e, c in poly.terms.items():
            terms[e[:var] + (d,) + e[var + 1 :]] = c
    return IntLaurentPoly(nvars, terms)


def _uni_content(coeffs):
    g = None
    for poly in coeffs.values():
        g = poly if g is None else _poly_gcd_prs(g, poly)
        if g.is_one():
            break
    return g


def _uni_scale(coeffs, poly):
    return {d: p * poly for d, p in coeffs.items()}


def _uni_divexact(coeffs, poly):
    return {d: p.exact_div(poly) for d, p in coeffs.items()}


def _uni_sub(a, b):
    out = dict(a)
    for d, p in b.items():
        s = out.get(d)
        s = -p if s is None else s - p
        if s.is_zero():
            out.pop(d, None)
        else:
            out[d] = s
    return out


def _pseudo_rem(f, g):
    """Pseudo-remainder of univariate polys with IntLaurentPoly coefficients."""
    dg = max(g)
    lg = g[dg]
    rem = dict(f)
    while rem and max(rem) >= dg:
        dr = max(rem)
        lr = rem[dr]
        rem = _uni_scale(rem, lg)
        shift_g = {d + dr - dg: p * lr for d, p in g.items()}
        rem = _uni_sub(rem, shift_g)
        if any(d > dr for d in rem):
            raise AssertionError("pseudo-division failed to reduce degree")
    return rem


def _poly_gcd_prs(p, q):
    """gcd of true polynomials over Z by primitive PRS, normalized as `poly_gcd`."""
    if p.is_zero():
        g = q
    elif q.is_zero():
        g = p
    else:
        g = _poly_gcd_nonzero(p, q)
    if g.is_zero():
        return g
    if g._leading_coeff() < 0:
        g = -g
    return g


def _poly_gcd_nonzero(p, q):
    n = p.nvars
    # trivial and monomial fast paths
    if p.is_constant() or q.is_constant():
        c = int_gcd(p.int_content(), q.int_content())
        return IntLaurentPoly.constant(c, n)
    if p.is_monomial() or q.is_monomial():
        c = int_gcd(p.int_content(), q.int_content())
        pmin, qmin = p.min_exponents(), q.min_exponents()
        exp = tuple(min(a, b) for a, b in zip(pmin, qmin))
        return IntLaurentPoly.monomial(exp, c)

    var = max(i for i in range(n) if p._degree_in(i) > 0 or q._degree_in(i) > 0)
    if p._degree_in(var) == 0 or q._degree_in(var) == 0:
        # one operand is free of the chosen variable: gcd divides its content
        if p._degree_in(var) > 0:
            p, q = q, p
        qc = _uni_content(_to_univariate(q, var))
        return _poly_gcd_prs(p, qc)

    fu = _to_univariate(p, var)
    gu = _to_univariate(q, var)
    fc = _uni_content(fu)
    gc = _uni_content(gu)
    f = _uni_divexact(fu, fc)
    g = _uni_divexact(gu, gc)
    if max(f) < max(g):
        f, g = g, f
    while True:
        r = _pseudo_rem(f, g)
        if not r:
            break
        if max(r) == 0:
            g = {0: IntLaurentPoly.one(n)}
            break
        rc = _uni_content(r)
        f, g = g, _uni_divexact(r, rc)
    cont = _poly_gcd_prs(fc, gc)
    prim = _from_univariate(g, var)
    prim = prim.exact_div(_uni_content(_to_univariate(prim, var)))
    return prim * cont


# -- rational functions ------------------------------------------------------


class RationalFunction:
    """Reduced fraction of Laurent polynomials, canonical per module docstring."""

    # _sort_key is left unset here; sort_key() fills it on first use, so
    # construction pays nothing for it
    __slots__ = ("num", "den", "_hash", "_sort_key")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            _same_ring(IntLaurentPoly, num, num)
            den = IntLaurentPoly.one(num.nvars)
        self.num, self.den = (num, den) if _reduced else _reduce(num, den)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, p):
        _same_ring(IntLaurentPoly, p, p)
        return cls(p, IntLaurentPoly.one(p.nvars), _reduced=True)

    @classmethod
    def constant(cls, c, nvars):
        return cls.from_poly(IntLaurentPoly.constant(c, nvars))

    @classmethod
    def one(cls, nvars):
        return cls.constant(1, nvars)

    @classmethod
    def zero(cls, nvars):
        return cls.from_poly(IntLaurentPoly.zero(nvars))

    @classmethod
    def variable(cls, i, nvars):
        return cls.from_poly(IntLaurentPoly.variable(i, nvars))

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls.from_poly(IntLaurentPoly.monomial(exp, coeff))

    # -- queries -----------------------------------------------------------

    @property
    def nvars(self):
        return self.num.nvars

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_laurent(self):
        """True when the reduced denominator is the constant 1."""
        return self.den.is_one()

    def laurent(self):
        if not self.den.is_one():
            raise ValueError("element is not a Laurent polynomial")
        return self.num

    def denominator_vector(self):
        """d-vector of a Laurent element: negated minimal exponents of num."""
        num = self.laurent()
        if num.is_zero():
            raise ValueError("zero element has no denominator vector")
        return tuple(-m for m in num.min_exponents())

    def sort_key(self):
        """A total order on fractions over the same variables, computed on
        first use and kept: cluster variables are shared by many seeds."""
        try:
            return self._sort_key
        except AttributeError:
            key = self._sort_key = (self.num.sort_key(), self.den.sort_key())
            return key

    def subtraction_free(self):
        return (
            not self.num.is_zero()
            and self.num.coefficients_nonnegative()
            and self.den.coefficients_nonnegative()
        )

    # -- field operations ----------------------------------------------------

    def _operand(self, other):
        """other as a fraction over self's variables: an int becomes a
        constant, and `_int` refuses any other non-fraction."""
        if type(other) is not RationalFunction:
            other = RationalFunction.constant(other, self.nvars)
        _same_ring(RationalFunction, self, other)
        return other

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __add__(self, other):
        other = self._operand(other)
        if self.den.is_one() or other.den.is_one():
            # gcd(n + L*d, d) = gcd(n, d): adding a Laurent polynomial L to a
            # reduced n/d leaves it reduced (and the sum is 0 only if d = 1)
            frac, poly = (other, self.num) if self.den.is_one() else (self, other.num)
            num = frac.num + (poly if frac.den.is_one() else poly * frac.den)
            return RationalFunction(num, frac.den, _reduced=True)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._operand(other)
        if self.num.is_zero() or other.num.is_zero():
            # zero is canonical only over the denominator 1
            return RationalFunction.zero(self.nvars)
        # cross-cancel first; the four remaining pairs are then coprime, so
        # the product is already in canonical form
        a_num, b_den = _cancel(self.num, other.den)
        b_num, a_den = _cancel(other.num, self.den)
        return RationalFunction(a_num * b_num, a_den * b_den, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._operand(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDenominator("inverse of zero")
        # numerator and denominator are coprime already; only the monomial
        # content and the leading sign need renormalizing
        shift = self.num.min_exponents()
        den = _div_monomial(self.num, 1, shift)
        num = _div_monomial(self.den, 1, shift)
        if den._leading_coeff() < 0:
            num, den = -num, -den
        return RationalFunction(num, den, _reduced=True)

    def __pow__(self, n):
        n = _int(n)
        if n == 0:
            return RationalFunction.one(self.nvars)
        if n == 1:
            return self
        base = self if n > 0 else self.inverse()
        n = abs(n)
        # coprimality and the canonical form survive taking powers
        return RationalFunction(base.num**n, base.den**n, _reduced=True)

    # -- substitution and tropical evaluation --------------------------------

    def substitute(self, targets):
        """Replace x_i by targets[i-1] = n_i/d_i as a ring map: times
        prod n_i^-lo_i d_i^hi_i (hi_i >= 0 >= lo_i bound the exponents of x_i),
        c x^e is c prod n_i^(e_i - lo_i) d_i^(hi_i - e_i); then cancel once."""
        if len(targets) != self.nvars:
            raise DimensionMismatch("wrong number of substitution targets")
        for t in targets:  # against each other: the map may change the ring
            _same_ring(RationalFunction, targets[0], t)
        terms = self.num.terms, self.den.terms
        hi, lo = ([f(0, *c) for c in zip(*terms[0], *terms[1])] for f in (max, min))
        bases = [t.num for t in targets] + [t.den for t in targets]
        nv = targets[0].nvars if targets else 0
        one, zero = IntLaurentPoly.one(nv), IntLaurentPoly.zero(nv)
        power = cache(lambda j, x: bases[j] ** x)  # each raised once per call

        def image(e):
            xs = (*map(sub, e, lo), *map(sub, hi, e))
            return reduce(mul, [power(j, x) for j, x in enumerate(xs) if x] or [one])

        num, den = (sum((image(e) * c for e, c in t.items()), zero) for t in terms)
        return RationalFunction(num, den)

    def trop_eval(self, coords):
        """Max-plus evaluation of a subtraction-free fraction at integer coords."""
        coords = tuple(coords)  # an iterator is read by both trop_max calls
        if not self.subtraction_free():
            raise SubtractionFreeViolation(
                "element is not presented subtraction-free"
            )
        return check_trop(self.num.trop_max(coords) - self.den.trop_max(coords))

    def to_str(self, names=None):
        num = self.num.to_str(names)
        if self.den.is_one():
            return num
        den = self.den.to_str(names)
        if len(self.num._packed) > 1:
            num = f"({num})"
        if len(self.den._packed) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RationalFunction({self.to_str()})"


def _cancel(num, den):
    """Cancel the polynomial/integer gcd of num (Laurent) and den (poly)."""
    if den.is_one() or num.is_zero():
        return num, den
    if num.is_monomial() or den.is_monomial():
        # den has no monomial factor, so with a one-term side only integer
        # content can cancel
        g = int_gcd(num.int_content(), den.int_content())
        return _div_monomial(num, g), _div_monomial(den, g)
    nmin = num.min_exponents()
    g, npoly, den_cofactor = _gcd_cofactors(_div_monomial(num, 1, nmin), den)
    if g.is_one():
        return num, den
    return _times_monomial(npoly, 1, nmin), den_cofactor


def _reduce(num, den):
    """Canonical reduced form; see module docstring."""
    _same_ring(IntLaurentPoly, num, den)
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    if num.is_zero():
        return num, IntLaurentPoly.one(num.nvars)
    # move the denominator's monomial content into the numerator
    dmin = den.min_exponents()
    num, den = _cancel(_div_monomial(num, 1, dmin), _div_monomial(den, 1, dmin))
    if den._leading_coeff() < 0:
        num, den = -num, -den
    return num, den
