"""Finite-type Cartan data, the gliding symmetry, and the duality pairing.

Root-system computations run in the weight basis: a weight is the integer
vector of its fundamental-weight coefficients, the simple root alpha_i is the
i-th column of the Cartan matrix, and the reflection s_i subtracts the i-th
coefficient times that column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, InternalDisagreement, NotFiniteType, NotFound
from .friezes import (
    Belts,
    CartanMatrix,
    FriezeFunction,
    _check_window,
    belts,
    hammock,
    k_from_trop_point,
)
from .laurent import IntLaurentPoly, RationalFunction, _index, _int, _product
from .mutation import (
    _belt_vertex,
    _gauss_jordan,
    _identity,
    _Registry,
    enumerate_exchange_graph,
    gcf_pattern,
    matrix_times_col,
    pp,
)
from .tropical import TropPoint

# -- registry of named finite types -------------------------------------------

# The supported Dynkin diagrams, Bourbaki numbering.  Per family: the ranks,
# the first and last node of a path of simple edges, and further edges
# (i, j, a_ij, a_ji), which add to the path or replace its edge.  A node
# k <= 0 stands for node r + k of the rank-r diagram.
_DYNKIN = {
    "A": (range(1, 9), 1, 0, ()),
    "B": (range(2, 6), 1, 0, ((-1, 0, -1, -2),)),
    "C": (range(2, 6), 1, 0, ((-1, 0, -2, -1),)),
    "D": (range(4, 7), 1, -1, ((-2, 0, -1, -1),)),
    "E": (range(6, 9), 3, 0, ((1, 3, -1, -1), (2, 4, -1, -1))),
    "F": (range(4, 5), 1, 0, ((2, 3, -1, -2),)),
    "G": (range(2, 3), 1, 0, ((1, 2, -1, -3),)),
}


def named_cartan(name: str) -> CartanMatrix:
    """Cartan matrix for names like A3, B2, D4, E6, F4, G2."""
    name = name.strip().upper()
    family, rank = name[:1], name[1:]
    if not rank.isdigit():
        raise ValueError(f"bad type name {name!r}")
    if family not in _DYNKIN:
        raise ValueError(f"unknown type name {name!r}")
    r = int(rank)
    ranks, first, last, edges = _DYNKIN[family]
    if r not in ranks:
        raise ValueError(f"rank {r} out of supported range for {family}")
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    path = tuple((i, i + 1, -1, -1) for i in range(first, r + last))
    for i, j, aij, aji in path + edges:
        # (k - 1) % r is the 0-based index of node k, k <= 0 included
        i, j = (i - 1) % r, (j - 1) % r
        a[i][j], a[j][i] = aij, aji
    return CartanMatrix(a)


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    finite: bool
    blocks: tuple  # index blocks (1-based) of the indecomposable components


def classify(cartan: CartanMatrix) -> Classification:
    """Finite type iff the symmetrized matrix is positive definite."""
    a = cartan.entries
    d = cartan.symmetrizer
    r = cartan.rank
    da = [[d[i] * a[i][j] for j in range(r)] for i in range(r)]
    finite = all(
        _gauss_jordan([row[: k + 1] for row in da[: k + 1]])[0] > 0 for k in range(r)
    )
    seen = [False] * r
    blocks = []
    for start in range(r):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i + 1)
            for j in range(r):
                if not seen[j] and a[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        blocks.append(tuple(sorted(comp)))
    return Classification(finite, tuple(blocks))


# -- root systems and Coxeter orbits -------------------------------------------


@dataclass(frozen=True)
class RootSystemData:
    cartan: CartanMatrix
    positive_roots: tuple  # vectors in the simple-root basis
    involution: tuple  # i -> i*, 1-based
    orbit_lengths: tuple  # h(i; c) per index, 1-based

    @property
    def rank(self):
        return self.cartan.rank

    def fundamental_domain(self):
        """D_A: all (i, m) with 0 <= m <= h(i; c)."""
        return [
            (i, m)
            for i in range(1, self.rank + 1)
            for m in range(self.orbit_lengths[i - 1] + 1)
        ]

    def glide(self, i, m):
        """The gliding symmetry (i, m) -> (i*, m + 1 + h(i*; c))."""
        istar = self.involution[_index(i, self.rank) - 1]
        return (istar, _int(m) + 1 + self.orbit_lengths[istar - 1])

    def reduce(self, i, m):
        """Representative of the orbit of (i, m) inside the fundamental domain."""
        h = self.orbit_lengths
        i, m = _index(i, self.rank), _int(m)
        while m < 0:
            i, m = self.glide(i, m)
        while m > h[i - 1]:
            # the inverse of glide
            i, m = self.involution[i - 1], m - 1 - h[i - 1]
        if m < 0:
            raise InternalDisagreement("orbit reduction left the grid")
        return (i, m)


def positive_roots(cartan: CartanMatrix):
    """Closure of the simple roots under reflections, in the root basis."""
    a = cartan.entries
    r = cartan.rank
    simples = _identity(r)
    seen = set(simples)
    frontier = list(simples)
    limit = 10_000
    while frontier:
        nxt = []
        for v in frontier:
            pairing = matrix_times_col(a, v)
            for i in range(r):
                w = list(v)
                w[i] -= pairing[i]
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        if len(seen) > limit:
            raise NotFiniteType("root enumeration did not close")
    return tuple(sorted(v for v in seen if all(x >= 0 for x in v)))


def _reflect_weight(a, mu, i):
    """s_i in the weight basis: subtract mu_i times column i of A."""
    return tuple(x - mu[i] * a[j][i] for j, x in enumerate(mu))


def _coxeter_apply(a, mu):
    """c = s_1 s_2 ... s_r applied to a weight (rightmost factor first)."""
    for i in range(len(mu) - 1, -1, -1):
        mu = _reflect_weight(a, mu, i)
    return mu


def _dominance_drop(cartan, lam, mu):
    """lam - mu as a nonnegative integer combination of simple roots, or None."""
    diff = [lam[i] - mu[i] for i in range(len(lam))]
    det, sol = _gauss_jordan(cartan.entries, diff)
    if not det:
        return None
    if any(x.denominator != 1 or x < 0 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def coxeter_data(cartan: CartanMatrix) -> RootSystemData:
    """Orbit data of the Coxeter element c = s_1 ... s_r on the fundamental
    weights; h(i;c) counts the strictly dominance-decreasing steps from
    omega_i down to -omega_{i*}.  A walk is cut after |Phi+| steps: a longer
    one could not pass the final check sum(h(i;c) + 1) = r + |Phi+|."""
    cls = classify(cartan)
    if not cls.finite:
        raise NotFiniteType("Coxeter orbits are finite only in finite type")
    a = cartan.entries
    r = cartan.rank
    roots = positive_roots(cartan)
    involution = [0] * r
    lengths = [0] * r
    for i, mu in enumerate(_identity(r)):
        for steps in range(1, len(roots) + 1):
            nxt = _coxeter_apply(a, mu)
            if _dominance_drop(cartan, mu, nxt) is None:
                raise InternalDisagreement("orbit chain is not dominance-decreasing")
            mu = nxt
            neg = [-x for x in mu]
            if neg.count(1) == 1 and neg.count(0) == r - 1:
                involution[i] = neg.index(1) + 1
                lengths[i] = steps
                break
        else:
            raise NotFiniteType("Coxeter orbit failed to terminate (bug)")
    for i in range(r):
        if involution[involution[i] - 1] != i + 1:
            raise InternalDisagreement("weight involution is not an involution")
    if sum(h + 1 for h in lengths) != r + len(roots):
        raise InternalDisagreement("fundamental-domain count mismatch")
    return RootSystemData(cartan, roots, tuple(involution), tuple(lengths))


# -- finite-type context -------------------------------------------------------


class FiniteContext:
    """Bundles the belt data, root data, exchange graphs and coefficient
    polynomials of one finite-type Cartan matrix; computed lazily and
    shared."""

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.belts: Belts = belts(cartan)
        self.roots = coxeter_data(cartan)
        self._lazy = _Registry()

    def a_graph(self):
        """Exchange graph of the A-space of B^T."""
        return enumerate_exchange_graph("A", self.belts.bt)

    def fim_table(self):
        """fim_recursion on its default window, built once; read only."""
        return self._lazy.get("fim", fim_recursion, self.cartan)


_contexts = _Registry()


def finite_context(cartan: CartanMatrix) -> FiniteContext:
    return _contexts.get(cartan.entries, FiniteContext, cartan)


# -- periodicity ---------------------------------------------------------------


def verify_periodicity(cartan, m_lo, m_hi, friezes=()):
    """Check the gliding-symmetry invariance of the generic frieze patterns
    and of any supplied Z-valued functions on [m_lo, m_hi]; returns the list
    of violations (expected empty)."""
    _check_window(m_lo, m_hi)
    ctx = finite_context(cartan)
    b = ctx.belts
    # each cell with its image under the gliding symmetry, read once for all
    # the functions
    cells = [
        (i, m) + ctx.roots.glide(i, m)
        for i in range(1, cartan.rank + 1)
        for m in range(m_lo, m_hi + 1)
    ]
    violations = []
    for i, m, j, n in cells:
        if b.x_sv(i, m) != b.x_sv(j, n):
            violations.append(("x", i, m))
        if b.y(i, m) != b.y(j, n):
            violations.append(("y", i, m))
    columns = sorted({m for _, m, _, _ in cells} | {n for _, _, _, n in cells})
    for tag, f in enumerate(friezes):
        # each column read once, then every cell and its image looked up
        read = {m: f.slice_at(m) for m in columns}
        for i, m, j, n in cells:
            if read[m][i - 1] != read[n][j - 1]:
                violations.append((f"frieze{tag}", i, m))
    return violations


# -- global monomials from tropical points --------------------------------------

# Largest total |exponent| of a monomial in cluster variables that
# `_chamber_monomial` and `x_from_rho` expand; a tropical coordinate can be
# near 2^62, and that power of a cluster variable would never finish.
MONOMIAL_EXPONENT_BUDGET = 64


def _check_exponent_budget(exponents):
    total = sum(abs(e) for e in exponents)
    if total > MONOMIAL_EXPONENT_BUDGET:
        raise BudgetExceeded(
            f"monomial of total degree {total} exceeds the budget "
            f"{MONOMIAL_EXPONENT_BUDGET}"
        )


def _chamber_monomial(cartan, point: TropPoint, space):
    """Seed, exponents and value of the monomial prod_i v_i^(-point_i) in the
    cluster v of the first seed, in graph order, whose chamber holds point,
    a point of the given space.  For rho on the Y-space of B: the seed of
    the A-graph of B^T where rho_t <= 0, and the cluster monomial whose
    g-vector is rho.  For delta on the A-space of B^T: the seed of the
    Y-graph of B where B_t delta_t <= 0, and the global monomial whose
    g-vector is delta.  The exponent budget is checked before the product
    is expanded."""
    ctx = finite_context(cartan)
    b = ctx.belts
    if space == "Y":
        if point.space != "Y" or point.b0 != b.b:
            raise ValueError("expected a point of the Y-space of B")
        seeds = ctx.a_graph().seeds.values()
    else:
        if point.space != "A" or point.b0 != b.bt:
            raise ValueError("expected a point of the A-space of B^T")
        seeds = enumerate_exchange_graph("Y", b.b).seeds.values()
    for seed in seeds:
        coords = point._walk.get(seed.vertex)
        image = coords if space == "Y" else matrix_times_col(seed.matrix, coords)
        if all(c <= 0 for c in image):
            _check_exponent_budget(coords)
            exps = tuple(-c for c in coords)
            expr = _product(zip(seed.cluster, exps), RationalFunction.one(seed.rank))
            return seed, exps, expr
    raise NotFound("g-vector fan completeness violated (bug)")


def mono_from_gvector_A(cartan, rho: TropPoint):
    """Address, exponents and value of the cluster monomial on the A-space of
    B^T whose g-vector is rho, found by the chamber search; ValueError
    unless rho is a point of the Y-space of B."""
    seed, exps, expr = _chamber_monomial(cartan, rho, "Y")
    return seed.address, exps, expr


def mono_from_gvector_Y(cartan, delta_sv: TropPoint):
    """Address, exponents and value of the global monomial on the Y-space of
    B whose g-vector is delta_sv, found by the chamber search; ValueError
    unless delta_sv is a point of the A-space of B^T."""
    seed, exps, expr = _chamber_monomial(cartan, delta_sv, "A")
    return seed.address, exps, expr


# -- pairing and explicit bijections --------------------------------------------


def _domain_columns(domain, k: FriezeFunction, offset=0):
    """Column m + offset of k for each column m of the domain, each read
    once."""
    return {m: k.slice_at(m + offset) for m in sorted({m for _, m in domain})}


def _hammock_parts(cartan, k: FriezeFunction):
    """The positive parts of -k over the fundamental domain, keyed by (i, m),
    zeros left out: the hammock multiplicities of k."""
    domain = finite_context(cartan).roots.fundamental_domain()
    columns = _domain_columns(domain, k)
    parts = {}
    for i, m in domain:
        e = pp(-columns[m][i - 1])
        if e:
            parts[(i, m)] = e
    return parts


def x_from_rho(cartan, rho: TropPoint):
    """Exponents over the fundamental domain of the cluster monomial with
    g-vector rho, the positive parts of -k_rho, and the monomial they give;
    checked against the chamber search, which runs first."""
    return _x_from_rho(cartan, rho)[2:]


def _x_from_rho(cartan, rho):
    """The chamber search's seed and exponents, then x_from_rho's result."""
    seed, search_exps, xmono = _chamber_monomial(cartan, rho, "Y")
    b = belts(cartan)
    exps = _hammock_parts(cartan, k_from_trop_point(rho, cartan))
    _check_exponent_budget(exps.values())
    powers = ((b.x_sv(i, m), e) for (i, m), e in exps.items())
    expr = _product(powers, RationalFunction.one(cartan.rank))
    if expr != xmono:
        raise InternalDisagreement("x_from_rho disagrees with the graph search")
    return seed, search_exps, exps, expr


def pairing(cartan, delta_sv: TropPoint, rho: TropPoint) -> int:
    """Duality pairing of tropical points, built on the two monomial
    bijections (`x_from_rho`, `y_from_delta`, each checked against the
    chamber search) and computed three ways: tropical value of the monomial
    attached to rho at delta_sv, tropical value of the monomial attached to
    delta_sv at rho, and the fundamental-domain sum of delta_sv's belt
    values over the multiplicities of rho."""
    parts, xmono = x_from_rho(cartan, rho)
    ymono = y_from_delta(cartan, delta_sv)
    via_x = xmono.trop_eval(delta_sv.at_root())
    via_y = ymono.trop_eval(rho.at_root())
    total = sum(delta_sv.belt_value(i, m) * e for (i, m), e in parts.items())
    if not via_x == via_y == total:
        raise InternalDisagreement(
            f"pairing routes disagree: {via_x}, {via_y}, {total}"
        )
    return total


def fim_recursion(cartan, m_hi=None, m_lo=0):
    """Coefficient polynomials F(i,m) on the belt window, determined by
    F(i,0) = 1 and the two-term recursion driven by the columns c(i,m) of the
    principal-coefficient C-matrices."""
    b0 = belts(cartan).b
    r = cartan.rank
    if m_hi is None:
        roots = finite_context(cartan).roots
        m_hi = max(roots.orbit_lengths) + 1
    gcf_at = gcf_pattern(b0)._walk.get

    def c_col(i, m):
        _, _, c, _ = gcf_at(_belt_vertex(i, m, r))
        return tuple(c[j][i - 1] for j in range(r))

    terms = cartan._knitting
    one = IntLaurentPoly.one(r)
    table = {(i, 0): one for i in range(1, r + 1)}

    def rhs(i, m):
        col = c_col(i, m)
        later, earlier = terms[i - 1]
        term1 = IntLaurentPoly.monomial(tuple(pp(-x) for x in col))
        term2 = _product(
            [(table[(j + 1, m)], c) for j, c in later]
            + [(table[(j + 1, m + 1)], c) for j, c in earlier],
            one,
        )
        return term1 + term2.shift(tuple(pp(x) for x in col))

    for m in range(0, m_hi):
        for i in range(1, r + 1):
            table[(i, m + 1)] = rhs(i, m).exact_div(table[(i, m)])
    for m in range(0, m_lo, -1):
        for i in range(r, 0, -1):
            table[(i, m - 1)] = rhs(i, m - 1).exact_div(table[(i, m)])
    return table


def y_from_delta(cartan, delta_sv: TropPoint) -> RationalFunction:
    """The global Y-monomial with g-vector delta_sv, assembled from the root
    coordinates, the belt coefficient polynomials, and the cluster-additive
    function of the negated ensemble image; checked against the chamber
    search.  The search runs first: it refuses a point of another space and
    checks the exponent budget before any F-polynomial is expanded."""
    return _y_from_delta(cartan, delta_sv)[2]


def _y_from_delta(cartan, delta_sv):
    """The chamber search's seed and exponents, then y_from_delta's
    result."""
    seed, search_exps, ymono = _chamber_monomial(cartan, delta_sv, "A")
    ctx = finite_context(cartan)
    r = cartan.rank
    d0 = delta_sv.at_root()
    neg_image = tuple(-x for x in matrix_times_col(ctx.belts.b, d0))
    at = cartan.transpose()
    minus_p = TropPoint("Y", belts(at).b, neg_image)
    k = k_from_trop_point(minus_p, at)
    ftable = ctx.fim_table()
    domain = ctx.roots.fundamental_domain()
    columns = _domain_columns(domain, k, -1)
    powers = ((ftable[(i, m)], pp(-columns[m][i - 1])) for i, m in domain)
    fpart = _product(powers, IntLaurentPoly.one(r))
    expr = RationalFunction.from_poly(fpart.shift(tuple(-x for x in d0)))
    if expr != ymono:
        raise InternalDisagreement("y_from_delta routes disagree")
    return seed, search_exps, expr


# -- decomposition and duality ---------------------------------------------------


def decompose_hammocks(cartan, k: FriezeFunction):
    """Multiplicities of the hammock summands of a cluster-additive function:
    the positive parts of -k over the fundamental domain.  The reconstruction
    is verified on the domain (hence everywhere, by periodicity)."""
    if k.kind != "cluster-additive":
        raise ValueError("expected a cluster-additive function")
    if k.cartan != cartan:
        raise ValueError("expected a function over the given Cartan matrix")
    parts = _hammock_parts(cartan, k)
    rebuilt = reconstruct_from_hammocks(cartan, parts)
    # compared by columns: a cell of the hammock sum costs a whole column
    dom = finite_context(cartan).roots.fundamental_domain()
    if _domain_columns(dom, rebuilt) != _domain_columns(dom, k):
        raise InternalDisagreement("hammock reconstruction mismatch")
    return parts


def reconstruct_from_hammocks(cartan, parts):
    """Sum of hammocks with the given multiplicities, as a FriezeFunction."""

    pieces = [(hammock(cartan, i, m), mult) for (i, m), mult in parts.items()]
    ranks = range(cartan.rank)

    def column(m):
        cols = [(h.slice_at(m), mult) for h, mult in pieces]
        return tuple(sum(mult * col[j] for col, mult in cols) for j in ranks)

    return FriezeFunction("cluster-additive", cartan, column)


def d_duality_check(cartan):
    """Exhaustively compare (x(i,m) || x(j,n))_d on the A-space of -B with
    (x~(j,n) || x~(i,m))_d on the A-space of B^T over the fundamental domain;
    returns the list of disagreeing pairs (expected empty).  The A-space of
    -B is the A-space of B(A^T)^T, read from the belts of A^T."""
    ctx = finite_context(cartan)
    b = ctx.belts
    neg = belts(cartan.transpose())
    dom = ctx.roots.fundamental_domain()
    # each d-point and belt variable of the inner loop, built once
    xs = [neg.x_sv(j, n) for j, n in dom]
    deltas = [b.delta_sv_im(j, n).at_root() for j, n in dom]
    bad = []
    for i, m in dom:
        d_root = neg.delta_sv_im(i, m).at_root()
        x_sv = b.x_sv(i, m)
        for (j, n), x, delta in zip(dom, xs, deltas):
            lhs = x.trop_eval(d_root)
            rhs = x_sv.trop_eval(delta)
            if lhs != rhs:
                bad.append(((i, m), (j, n), lhs, rhs))
    return bad
