"""Integer function families on [1,r] x Z and the generic frieze patterns.

Three recursions are supported, all driven by a symmetrizable generalized
Cartan matrix A = (a_ij):

  additive           v(i,m) + v(i,m+1) = S(i,m)
  cluster-additive   v(i,m) + v(i,m+1) = S_+(i,m)
  tropical-frieze    v(i,m) + v(i,m+1) = [S(i,m)]_+

where S(i,m) = sum_{j>i} (-a_ji) v(j,m) + sum_{j<i} (-a_ji) v(j,m+1) and
S_+ applies [.]_+ to each v before summing.  Values extend forward and
backward from a seed slice; each relation is linear in its extreme unknown.
"""

from __future__ import annotations

from functools import partial

from .errors import DimensionMismatch, NotAdmissible, TropOverflow
from .laurent import RationalFunction, _index, _int, _ints, check_trop
from .mutation import (
    _belt_vertex,
    _diagonal_symmetrizer,
    _Line,
    _neg_unit,
    _Registry,
    as_matrix,
    seed_pattern,
    transpose,
)
from .tropical import TropPoint, _trop_point, check_admissible_A, check_admissible_Y

KINDS = ("additive", "cluster-additive", "tropical-frieze")


def _check_window(m_lo, m_hi):
    """Refuse an empty window m_lo > m_hi with ValueError: a check over no
    column would pass having checked nothing."""
    if m_lo > m_hi:
        raise ValueError(f"empty window {m_lo}..{m_hi}: m_lo must not exceed m_hi")


def find_symmetrizer(a):
    """Positive integer diagonal d with diag(d)*A symmetric, or None."""
    return _diagonal_symmetrizer(a, 1)


class CartanMatrix:
    """Symmetrizable generalized Cartan matrix."""

    __slots__ = ("entries", "symmetrizer", "_transpose", "_knitting")

    def __init__(self, rows):
        self.entries = as_matrix(rows)
        r = len(self.entries)
        if any(len(row) != r for row in self.entries):
            raise DimensionMismatch("Cartan matrix must be square")
        for i in range(r):
            if self.entries[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            for j in range(r):
                if i != j and self.entries[i][j] > 0:
                    raise ValueError("off-diagonal entries must be nonpositive")
        d = find_symmetrizer(self.entries)
        if d is None:
            raise ValueError("matrix is not symmetrizable")
        self.symmetrizer = d
        self._transpose = None
        self._knitting = _knitting_terms(self.entries)

    @property
    def rank(self):
        return len(self.entries)

    def transpose(self):
        """The transposed matrix, built once; its own transpose is self."""
        t = self._transpose
        if t is None:
            entries = transpose(self.entries)
            t = self if entries == self.entries else CartanMatrix(entries)
            t._transpose = self
            self._transpose = t
        return t

    def b_matrix(self):
        """The acyclic exchange matrix attached to A: strictly upper part is
        a_ij, strictly lower part is -a_ij."""
        a = self.entries
        r = self.rank
        return tuple(
            tuple(0 if i == j else (a[i][j] if i < j else -a[i][j]) for j in range(r))
            for i in range(r)
        )

    def __eq__(self, other):
        return isinstance(other, CartanMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"CartanMatrix({list(map(list, self.entries))})"


# -- the knitting relation ---------------------------------------------------


def _knitting_terms(a):
    """The nonzero terms of S(i, m), kept on the Cartan matrix and shared by
    every function and PL map over it (shift-laws alone builds thousands of
    functions).  Entry i (0-based) is a pair (later, earlier) of tuples of
    (j, -a_ji) with a_ji != 0: later holds the j > i, read in column m, and
    earlier the j < i, read in column m + 1.  A column of a finite-type
    Cartan matrix has at most three nonzero off-diagonal entries, so a
    relation reads a few cells, not r."""
    r = len(a)
    return tuple(
        (
            tuple((j, -a[j][i]) for j in range(i + 1, r) if a[j][i]),
            tuple((j, -a[j][i]) for j in range(i) if a[j][i]),
        )
        for i in range(r)
    )


class FriezeFunction:
    """Z-valued function on [1,r] x Z of one of the three kinds, given by its
    column reader: column_fn(m) is the r-tuple (v(1,m), ..., v(r,m)).

    Every constructor supplies columns (the slice recursion, a tropical
    readback, admissible elements, shifts and sums), so a cell is read from
    its column.  Nothing is cached per cell: the slice recursion caches its
    columns in one line through the slice, and a tropical readback reads the
    point's belt line.
    """

    def __init__(self, kind, cartan, column_fn):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self.cartan = cartan
        self._column_fn = column_fn
        self._line = None  # the columns of a slice-backed function
        self._rank = cartan.rank
        self._terms = cartan._knitting

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_slice(cls, kind, cartan, values, m0=0):
        values, m0 = _ints(values), _int(m0)
        if len(values) != cartan.rank:
            raise DimensionMismatch("slice length must equal the rank")
        # column m is entry m - m0 of one line through the slice
        line = _Line(values, partial(_knit, cartan._knitting, kind))
        self = cls(kind, cartan, lambda m: line.get(m - m0))
        self._line = line
        return self

    # -- interface -----------------------------------------------------------

    def value(self, i, m):
        return self.slice_at(m)[_index(i, self._rank) - 1]

    def slice_at(self, m):
        return self._column_fn(_int(m))

    def table(self, m_lo, m_hi):
        out = {}
        for m in range(m_lo, m_hi + 1):
            for i, v in enumerate(self.slice_at(m), 1):
                out[(i, m)] = v
        return out

    def satisfies_recursion(self, m_lo, m_hi):
        """Exact check of the defining relation on all (i,m) with both columns
        inside [m_lo, m_hi+1].  Each relation is linear in its unknown, so
        column m + 1 satisfies the r relations at m exactly when it is the
        column knitted from column m; a knitted value out of range
        (TropOverflow) differs from every in-range value."""
        _check_window(m_lo, m_hi)
        terms, kind = self._terms, self.kind
        col_m = self.slice_at(m_lo)
        for m in range(m_lo, m_hi + 1):
            col_m1 = self.slice_at(m + 1)
            try:
                if _knit(terms, kind, col_m, 1) != col_m1:
                    return False
            except TropOverflow:
                return False
            col_m = col_m1
        return True

    def agrees_with(self, other, m_lo, m_hi):
        _check_window(m_lo, m_hi)
        return self.table(m_lo, m_hi) == other.table(m_lo, m_hi)


def _knit(terms, kind, col, s):
    """The column after col (s > 0) or before it (s < 0), for a function of
    the given kind with the knitting terms of its Cartan matrix: the
    relations v(i,m) + v(i,m+1) = S(i,m) solved one unknown at a time, in
    the order in which the other cells of S(i,m) are known."""
    forward = s > 0
    r = len(col)
    cur = [0] * r
    col_m, col_m1 = (col, cur) if forward else (cur, col)
    clip = kind == "cluster-additive"
    floor = kind == "tropical-frieze"
    for i in range(r) if forward else range(r - 1, -1, -1):
        later, earlier = terms[i]
        s = 0
        if clip:
            for j, c in later:
                v = col_m[j]
                if v > 0:
                    s += c * v
            for j, c in earlier:
                v = col_m1[j]
                if v > 0:
                    s += c * v
        else:
            for j, c in later:
                s += c * col_m[j]
            for j, c in earlier:
                s += c * col_m1[j]
            if floor and s < 0:
                s = 0
        cur[i] = check_trop(s - col[i])
    return tuple(cur)


# -- generic frieze patterns ---------------------------------------------------


class Belts:
    """The generic frieze patterns of one Fock-Goncharov dual pair attached to
    a Cartan matrix, the A-space of B^T and the Y-space of B, read off the
    seeds along the acyclic belt of each pattern.  The other pair, the
    A-space of -B and the Y-space of -B^T, is the first pair of A^T, since
    B(A^T) = -B^T: belts(cartan.transpose())."""

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.b = cartan.b_matrix()
        self.bt = transpose(self.b)
        self._x_sv = seed_pattern("A", self.bt)._walk.get
        self._y = seed_pattern("Y", self.b)._walk.get

    def _belt_variable(self, seed_at, i, m):
        return seed_at(_belt_vertex(i, m, self.cartan.rank)).cluster[i - 1]

    def x_sv(self, i, m):
        """Cluster variable x~(i,m) of the A-space of B^T."""
        return self._belt_variable(self._x_sv, i, m)

    def y(self, i, m):
        """Y-variable y(i,m) of the Y-space of B."""
        return self._belt_variable(self._y, i, m)

    def rho_im(self, i, m) -> TropPoint:
        """g-vector of x_sv(i,m): the point of the Y-space of B with
        coordinates -e^i at the belt vertex t(i,m)."""
        r = self.cartan.rank
        return _trop_point("Y", self.b, _neg_unit(i, r), _belt_vertex(i, m, r))

    def delta_sv_im(self, i, m) -> TropPoint:
        """g-vector of y(i,m): the point of the A-space of B^T with
        coordinates -e^i at t(i,m)."""
        r = self.cartan.rank
        return _trop_point("A", self.bt, _neg_unit(i, r), _belt_vertex(i, m, r))


_belts = _Registry()


def belts(cartan: CartanMatrix) -> Belts:
    return _belts.get(cartan.entries, Belts, cartan)


def generic_A_frieze(cartan, i, m) -> RationalFunction:
    return belts(cartan).x_sv(i, m)


def generic_Y_frieze(cartan, i, m) -> RationalFunction:
    return belts(cartan).y(i, m)


# -- realizations via tropical points ----------------------------------------


def f_from_trop_point(delta_sv: TropPoint, cartan: CartanMatrix) -> FriezeFunction:
    """Tropical frieze for A^T read off the coordinates of an A-space point of
    B^T along the belt."""
    if delta_sv.space != "A" or delta_sv.b0 != belts(cartan).bt:
        raise ValueError("expected a point of the A-space of B^T")
    return FriezeFunction("tropical-frieze", cartan.transpose(), delta_sv.belt_column)


def k_from_trop_point(rho: TropPoint, cartan: CartanMatrix) -> FriezeFunction:
    """Cluster-additive function for A read off a Y-space point of B."""
    if rho.space != "Y" or rho.b0 != belts(cartan).b:
        raise ValueError("expected a point of the Y-space of B")
    return FriezeFunction("cluster-additive", cartan, rho.belt_column)


# -- piecewise-linear slice maps -----------------------------------------------


class PLMap:
    """The bijection E_A^{+/-} of Z^r: d |-> d^T + [d]_+^T U (resp. L)."""

    def __init__(self, cartan: CartanMatrix, sign):
        if sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        self.cartan = cartan
        self.sign = sign
        # column i of U holds the a_ji with j < i, of L those with j > i:
        # the earlier, resp. later, knitting terms of i
        part = 1 if sign == "+" else 0
        self._terms = tuple(t[part] for t in cartan._knitting)

    def _check(self, v):
        """v as a tuple of ints of the rank's length."""
        v = _ints(v)
        if len(v) != len(self._terms):
            raise DimensionMismatch("vector length must equal the rank")
        return v

    def apply(self, d):
        """Column vector in, row vector out."""
        d = self._check(d)
        out = []
        for i, terms in enumerate(self._terms):
            s = d[i]
            for j, c in terms:
                if d[j] > 0:
                    s -= c * d[j]
            out.append(s)
        return tuple(out)

    def invert(self, v):
        """Row vector in, column vector out, by forward substitution; the
        strict triangularity of the matrix makes each step explicit."""
        terms = self._terms
        d = list(self._check(v))
        order = range(len(d)) if self.sign == "+" else range(len(d) - 1, -1, -1)
        for i in order:
            for j, c in terms[i]:
                if d[j] > 0:
                    d[i] += c * d[j]
        return tuple(d)


def slice_step(cartan, values):
    """Next slice of a cluster-additive function: (E^+)^{-1}(-E^-(current))."""
    eplus = PLMap(cartan, "+")
    eminus = PLMap(cartan, "-")
    return eplus.invert(tuple(-x for x in eminus.apply(values)))


# -- hammocks, admissible elements, shifts -------------------------------------


def hammock(cartan, i, m) -> FriezeFunction:
    """The cluster-additive function whose m-th slice is -e_i."""
    unit = _neg_unit(i, cartan.rank)
    return FriezeFunction.from_slice("cluster-additive", cartan, unit, m0=m)


def f_from_admissible_y(y, cartan, depth=16) -> FriezeFunction:
    """Tropical frieze (for A^T) of an admissible element of the Y-space of B,
    by tropical evaluation at the g-vectors of the belt variables."""
    b = belts(cartan)
    verdict = check_admissible_Y(y, TropPoint("A", b.bt, y.denominator_vector()), depth)
    if verdict is not True:
        raise NotAdmissible(f"element failed the Y-side check: {verdict}")

    ranks = range(1, cartan.rank + 1)

    def column(m):
        return tuple(y.trop_eval(b.rho_im(i, m).at_root()) for i in ranks)

    return FriezeFunction("tropical-frieze", cartan.transpose(), column)


def k_from_admissible_x(x, cartan, depth=16) -> FriezeFunction:
    """Cluster-additive function (for A) of an admissible element of the
    A-space of B^T, by tropical evaluation at the g-vectors of the belt
    Y-variables."""
    b = belts(cartan)
    rho0 = PLMap(cartan, "+").apply(x.denominator_vector())
    verdict = check_admissible_A(x, TropPoint("Y", b.b, rho0), depth)
    if verdict is not True:
        raise NotAdmissible(f"element failed the A-side check: {verdict}")

    ranks = range(1, cartan.rank + 1)

    def column(m):
        return tuple(x.trop_eval(b.delta_sv_im(i, m).at_root()) for i in ranks)

    return FriezeFunction("cluster-additive", cartan, column)


def shift(f: FriezeFunction) -> FriezeFunction:
    """Shift by one column: (i, m) -> f(i, m-1)."""
    return FriezeFunction(f.kind, f.cartan, lambda m: f.slice_at(m - 1))


def shift_trop(rho: TropPoint, cartan: CartanMatrix) -> TropPoint:
    """Shift map on Y-space points: root coordinates E^+((E^-)^{-1}(-rho_0))."""
    b = belts(cartan)
    if rho.space != "Y" or rho.b0 != b.b:
        raise ValueError("expected a point of the Y-space of B")
    root = rho.at_root()
    eplus = PLMap(cartan, "+")
    eminus = PLMap(cartan, "-")
    coords = eplus.apply(eminus.invert(tuple(-x for x in root)))
    return TropPoint("Y", b.b, coords)


def ensemble_map_friezes(f: FriezeFunction) -> FriezeFunction:
    """Image of a tropical frieze for A under the ensemble map, as a
    cluster-additive function for A."""
    if f.kind != "tropical-frieze":
        raise ValueError("expected a tropical frieze")
    terms = f.cartan._knitting

    def column(m):
        col_m, col_m1 = f.slice_at(m), f.slice_at(m + 1)
        return tuple(
            sum(c * col_m[j] for j, c in later) + sum(c * col_m1[j] for j, c in earlier)
            for later, earlier in terms
        )

    return FriezeFunction("cluster-additive", f.cartan, column)
