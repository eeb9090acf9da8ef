"""Tropical points of A- and Y-spaces and their piecewise-linear mutation.

A tropical point is stored as one coordinate row vector anchored at a tree
vertex; coordinates elsewhere are propagated on demand through the matrix
pattern and cached, per tree vertex and, for belt reads, per belt column
along one line of columns.  A belt cell whose column overflows is read off
the tree walker instead, which raises only where that walk does.  The three
supported spaces differ only in the mutation rule and the width of the
pattern matrix:

  * "A"      square pattern, rule with a max over the two column halves,
  * "Y"      square pattern, rule linear in the sign of the moved coordinate,
  * "Yprin"  wide r x 2r pattern, same rule as "Y".

Each rule has one implementation, its emitter (`_emit_rule`), which writes
a sequence of plans as one straight-line kernel: a plan is the nonzero
entries of b the rule reads, split by sign (`_moves`), and the kernel holds
the coordinates in locals and inlines every entry as an int literal.  Plans
depend on the pattern only (they read b off its walker), so each pattern
keeps, per rule kind (`_plans`), the kernels of its belt columns, r plans
from b at the interned belt vertices that return the column's values and
its outer coordinates, and of its tree edges, one plan per (vertex,
direction).  Kernels are compiled once per process for each distinct
sequence of plans (`_kernels`) and shared by every pattern whose steps read
it.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import combinations

from .errors import DimensionMismatch, NegativeExponent, TropOverflow
from .laurent import _compiled, _index, _int, _ints, _trop_guard, check_trop
from .mutation import (
    _PARENT,
    _belt_letter,
    _belt_line,
    _belt_vertex,
    _gauss_jordan,
    _identity,
    _LETTER,
    _Line,
    _neg_unit,
    _PrefixWalker,
    _Registry,
    _vertex,
    as_matrix,
    gcf_pattern,
    matrix_pattern,
    matrix_times_col,
    mutate_seed,
    principal_extension,
    root_seed,
    row_times_matrix,
    transpose,
    walk_exchange_graph,
)


def _moves(kind, b, k):
    """The plan of the tropical rule of kind across edge k (1-based) of b:
    (k - 1, plus, minus), the nonzero entries the rule reads as (index,
    |entry|) pairs, split by sign.  "A" reads column k of b, "Y" and "Yprin"
    row k without b_kk."""
    kk = k - 1
    if kind == "A":
        entries = [(j, row[kk]) for j, row in enumerate(b)]
    else:
        entries = [(i, x) for i, x in enumerate(b[kk]) if i != kk]
    plus = tuple((j, x) for j, x in entries if x > 0)
    minus = tuple((j, -x) for j, x in entries if x < 0)
    return kk, plus, minus


def _terms(pairs, c):
    """The sum of x * c_j over the (j, x) pairs, as source."""
    return " + ".join(c[j] if x == 1 else f"{x} * {c[j]}" for j, x in pairs)


def _tuple(names):
    """The tuple of the names, as source."""
    return f"({''.join(f'{x}, ' for x in names)})"


def _emit_rule(rule, width, plans, cells, r):
    """kernel(c): the tropical rule ("A", or "Y" for both Y-spaces) stepped
    through plans as straight-line code, on the coordinates c, of the given
    width, held in the locals c0, c1, ...  Each plan moves them in place,
    and each coordinate it moves is range-checked as soon as it is known
    (the others stay in range: a point's coordinates are checked).  With
    r = 0 the kernel returns the coordinates; else (values, coordinates),
    values holding c0, ..., c(r-1) as c has them, but cell cells[n] as
    plans[n] leaves it."""
    c = [f"c{i}" for i in range(width)]
    lines = ["def kernel(c):", f"    [{', '.join(c)}] = c"]
    lines += [f"    v{i} = c{i}" for i in range(r) if i not in cells]
    for n, (kk, plus, minus) in enumerate(plans):
        k = c[kk]
        if rule == "A":
            # x_k becomes max(sum of [b_jk]_+ x_j, sum of [-b_jk]_+ x_j) - x_k
            p, q = _terms(plus, c), _terms(minus, c)
            if p and q:
                lines += [f"    p = {p}", f"    q = {q}"]
                lines.append(f"    {k} = (p if p > q else q) - {k}")
            elif p or q:
                lines.append(f"    p = {p or q}")
                lines.append(f"    {k} = (p if p > 0 else 0) - {k}")
            else:
                lines.append(f"    {k} = -{k}")
            lines.append(f"    {_trop_guard(k)}")
        else:
            # y_i becomes y_i + [b_ki]_+ y_k - b_ki [y_k]_+ (Fomin and
            # Zelevinsky, "Cluster algebras IV"): for y_k > 0 only the y_i
            # with b_ki < 0 move, by -y_k b_ki, for y_k < 0 only those with
            # b_ki > 0, by y_k b_ki; y_k becomes -y_k, whatever b_kk is
            keyword = "if"
            for test, moved in ((">", minus), ("<", plus)):
                if moved:
                    lines.append(f"    {keyword} {k} {test} 0:")
                    keyword = "elif"
                for i, x in moved:
                    lines.append(f"        {c[i]} += {_terms([(kk, x)], c)}")
                    lines.append(f"        {_trop_guard(c[i])}")
            lines.append(f"    {k} = -{k}")
        if r:
            lines.append(f"    v{cells[n]} = c{cells[n]}")
    coords = _tuple(c)
    if r:
        coords = f"{_tuple(f'v{i}' for i in range(r))}, {coords}"
    lines.append(f"    return {coords}")
    return _compiled("kernel", lines)


# (rule, width, plans, cells, r) -> its kernel, shared by every pattern and
# point whose steps read the same plans
_kernels = _Registry()


def _rule_kernel(rule, width, plans, cells=(), r=0):
    """The kernel of _emit_rule, compiled once per process."""
    key = (rule, width, plans, cells, r)
    return _kernels.get(key, _emit_rule, rule, width, plans, cells, r)


def _mutate(rule, coords, b, k):
    """coords across edge k of b by the rule, through its kernel."""
    coords = tuple(coords)
    kk, plus, minus = plan = _moves(rule, b, k)
    if max([kk, *(j for j, _ in plus + minus)]) >= len(coords):
        raise DimensionMismatch("coordinate vector has wrong length")
    return _rule_kernel(rule, len(coords), (plan,))(coords)


def trop_mutate_A(coords, b, k):
    """Tropicalized cluster-variable mutation in direction k (1-based):
    x_k becomes max(sum of [b_jk]_+ x_j, sum of [-b_jk]_+ x_j) - x_k.
    DimensionMismatch unless k indexes a column of b."""
    b = as_matrix(b)
    return _mutate("A", coords, b, _index(k, len(b[0])))


def trop_mutate_Y(coords, b, k):
    """Tropicalized Y-variable mutation; b may be square or wide (see
    _emit_rule).  DimensionMismatch unless k indexes a row of b."""
    b = as_matrix(b)
    return _mutate("Y", coords, b, _index(k, len(b)))


# The public rule of each space, and so the spaces a point may have; points
# step through the kernels their _Plans hold.
_RULES = {"A": trop_mutate_A, "Y": trop_mutate_Y, "Yprin": trop_mutate_Y}


def _column_kernel(rule, pattern, near, m):
    """The kernel of belt column m (near, the kernel of its neighbour nearer
    0, is not read): the belt steps into the places of column
    m but the root, in the order they are taken outward from the root:
    places m*r, ..., m*r + r - 1 for m >= 0 (1, ..., r - 1 for m = 0),
    places m*r + r - 1, ..., m*r for m < 0.  Place s is cell s - m*r of the
    column, and its step reads B_t off the pattern's walker at the belt
    vertex of the place it steps from.  Columns whose belt matrices repeat
    (the square ones of a Cartan matrix's B do) share one kernel."""
    r = pattern.rank
    vertex, matrix = _belt_line(r).get, pattern._walk.get
    if m >= 0:
        places = range(max(m * r, 1), m * r + r)
    else:
        places = range(m * r + r - 1, m * r - 1, -1)
    plans = tuple(
        _moves(rule, matrix(vertex(s - 1 if s > 0 else s + 1)), _belt_letter(s, r))
        for s in places
    )
    cells = tuple(s - m * r for s in places)
    return _rule_kernel(rule, len(pattern.root[0]), plans, cells, r)


class _Plans:
    """The kernels of one rule over one pattern.  belt is the line whose
    entry m is the kernel of belt column m (see _column_kernel); edges
    holds the kernel of the tree-walk step across edge k from vertex v
    under (v, k)."""

    __slots__ = ("rule", "matrix_at", "belt", "edges")

    def __init__(self, kind, pattern):
        self.rule = "A" if kind == "A" else "Y"
        self.matrix_at = pattern._walk.get
        column = partial(_column_kernel, self.rule, pattern)
        self.belt = _Line(column(None, 0), column)
        self.edges = _Registry()

    def edge_kernel(self, v, k):
        b = self.matrix_at(v)
        return _rule_kernel(self.rule, len(b[0]), (_moves(self.rule, b, k),))


_plans = _Registry()  # (space, pattern root) -> its _Plans


def _belt_column_step(kernels, near, j):
    """The entry (values, coordinates at its outer place) of the column at
    index j of a point's column line, stepped in one kernel call from the
    outer coordinates of near, the entry of its neighbour nearer the root
    entry at index 0: column m >= 0 is at index m + 1, column m < 0 at
    index m."""
    return kernels.get(j - 1 if j > 0 else j)(near[1])


class TropPoint:
    """Tropical point anchored at one vertex; coordinates cached per vertex,
    and along the belt in one line of columns through the root."""

    __slots__ = ("space", "b0", "coords", "vertex", "_walk", "_belt")

    def __init__(self, space, b0, coords, anchor=()):
        pattern = matrix_pattern(b0)
        v = _vertex(anchor, len(pattern.root))
        _trop_point(space, pattern, _ints(coords), v, self)

    @property
    def rank(self):
        return len(self.b0)

    def coords_at(self, addr):
        """Coordinate vector at a tree vertex, propagated from the nearest
        cached ancestor (every vertex passed gets cached)."""
        return self._walk.get(_vertex(addr, self.rank))

    def belt_value(self, i, m):
        """The i-th coordinate at the belt vertex t(i, m), read off column m
        of the belt line.  When column m overflows, it is read off the tree
        walker at t(i, m), so it raises TropOverflow exactly when
        coords_at(canonical_address(i, m, r)) does."""
        m = _int(m)
        i = _index(i, len(self.b0))
        try:
            return self._belt.get(m + 1 if m >= 0 else m)[0][i - 1]
        except TropOverflow:
            return self._walk.get(_belt_vertex(i, m, len(self.b0)))[i - 1]

    def belt_column(self, m):
        """(belt_value(1, m), ..., belt_value(r, m)), one entry of the belt
        line."""
        m = _int(m)
        return self._belt.get(m + 1 if m >= 0 else m)[0]

    def at_root(self):
        return self._walk.memo[0]

    def __eq__(self, other):
        if not isinstance(other, TropPoint):
            return NotImplemented
        return (
            self.space == other.space
            and self.b0 == other.b0
            and other._walk.get(self.vertex) == self.coords
        )

    def __hash__(self):
        return hash((self.space, self.b0, self.at_root()))

    def __repr__(self):
        return f"TropPoint({self.space}, coords_at_root={self.at_root()})"


def _trop_point(space, pattern, coords, v, point=None):
    """The TropPoint of space over the root of pattern with the coordinates
    coords at vertex v."""
    if space not in _RULES:
        raise ValueError(f"unknown space {space!r}")
    root = pattern.root
    width = len(root[0])
    if space == "Yprin":
        if width != 2 * len(root):
            raise DimensionMismatch("Yprin pattern matrix must be r x 2r")
    elif width != len(root):
        raise DimensionMismatch("pattern matrix must be square")
    if len(coords) != width:
        raise DimensionMismatch("coordinate vector has wrong length")
    # the mutation rules rely on in-range coordinates
    for c in coords:
        check_trop(c)
    if point is None:  # else TropPoint.__init__ passed itself
        point = object.__new__(TropPoint)
    point.space, point.b0, point.coords, point.vertex = space, root, coords, v
    plans = _plans.get((space, root), _Plans, space, pattern)
    edge, edge_kernel = plans.edges.get, plans.edge_kernel

    def step(coords, v, k):
        """Coordinates across edge k from vertex v."""
        return edge((v, k), edge_kernel, v, k)(coords)

    # walk the anchor up to the root once, so the memo starts closed under
    # parents and every later miss walks down from an ancestor
    memo = {v: coords}
    while v:
        coords = step(coords, v, _LETTER[v])
        v = _PARENT[v]
        memo[v] = coords
    point._walk = _PrefixWalker(memo, step)
    # the belt steps by the tropical rule on B_t at the belt vertices,
    # never by the knitting recursion it is checked against; entry 0 is the
    # root, a sentinel that building the point steps nothing for
    point._belt = _Line(
        ((), coords),
        partial(_belt_column_step, plans.belt),
    )
    return point


def p_map(delta: TropPoint) -> TropPoint:
    """Ensemble map: chart-linear, coords delta_t B_t in the Y-space of the
    same pattern."""
    if delta.space != "A":
        raise ValueError("p_map expects an A-space point")
    pattern = matrix_pattern(delta.b0)
    coords = row_times_matrix(delta.coords, pattern._walk.get(delta.vertex))
    return _trop_point("Y", pattern, coords, delta.vertex)


def principal_wide_root(b0):
    """Wide matrix (B^T I) of the principal Y-pattern attached to B."""
    return transpose(principal_extension(b0))


def beta_map(delta_sv: TropPoint, b0) -> TropPoint:
    """Injective map from A-space points of B^T into the principal Y-space:
    coordinates (delta_t B_t^T, delta_t C_t^T)."""
    b0 = as_matrix(b0)
    if delta_sv.space != "A" or delta_sv.b0 != transpose(b0):
        raise ValueError("beta_map expects an A-space point of the transpose")
    b, _, c, _ = gcf_pattern(b0)._walk.get(delta_sv.vertex)
    d = delta_sv.coords
    coords = matrix_times_col(b, d) + matrix_times_col(c, d)
    pattern = matrix_pattern(principal_wide_root(b0))
    return _trop_point("Yprin", pattern, coords, delta_sv.vertex)


def g_vector_of_cluster_monomial(b0, addr, exponents) -> TropPoint:
    """g-vector of the cluster monomial with the given exponents at addr, as a
    tropical point of the Y-space of b0."""
    if any(e < 0 for e in exponents):
        raise NegativeExponent("cluster monomials have nonnegative exponents")
    coords = tuple(-e for e in exponents)
    return TropPoint("Y", b0, coords, addr)


def d_trop_point(space, b0, addr, i) -> TropPoint:
    """The d-tropical point of the i-th variable (1-based) at addr."""
    b0 = as_matrix(b0)
    return TropPoint(space, b0, _neg_unit(i, len(b0)), addr)


def d_compat_degree(d_point: TropPoint, f) -> int:
    """Tropical value of f (subtraction-free, in root-chart coordinates) at a
    d-tropical point."""
    return f.trop_eval(d_point.at_root())


# -- admissibility -----------------------------------------------------------

UNKNOWN = None
_circuits = _Registry()  # chart matrix -> its _positive_circuits


def _positive_circuits(m):
    """The positive circuits of the columns of m: pairs (support, w) of a
    minimal set of dependent columns and the primitive integer w > 0 with
    sum of w_j * column j = 0 over it.  When the columns of a support but
    its last are independent, the one kernel vector with last entry 1 is
    solved for, and the support is a circuit when no entry is zero."""
    found = []
    for size in range(1, len(m[0]) + 1):
        for support in combinations(range(len(m[0])), size):
            *rest, last = support
            det, u = _gauss_jordan(_columns(m, rest), [-row[last] for row in m])
            if det and u is not None and all(x > 0 for x in u):
                # scaled by the lcm of the denominators, w is primitive
                scale = math.lcm(*(x.denominator for x in u))
                found.append((support, (*(int(x * scale) for x in u), scale)))
    return found


def _columns(m, cols):
    return tuple(tuple(row[j] for j in cols) for row in m)


def _in_cone(m, offset, circuits, cols=None):
    """Is offset = m u for some integer u >= 0 on the columns cols (all by
    default)?  Decided exactly by a search that drops one column per level;
    circuits are _positive_circuits(m)."""
    if cols is None:
        cols = tuple(range(len(m[0])))
    det, u = _gauss_jordan(_columns(m, cols), offset)
    if u is None:
        return False
    if all(x.denominator == 1 and x >= 0 for x in u):
        return True
    if det:
        return False
    circuit = next((c for c in circuits if set(c[0]).issubset(cols)), None)
    if circuit is not None:
        # a solution u of least sum has u_j < w_j for some j in the circuit,
        # or u - w would be a smaller one
        branches = [(j, v) for j, wj in zip(*circuit) for v in range(wj)]
    else:
        # no nonzero u >= 0 has m u = 0, so the solutions u >= 0 form a
        # polytope, and u_j peaks at a vertex: a solution on independent
        # columns
        j = cols[0]
        branches = [(j, v) for v in range(_vertex_max(m, cols, offset) + 1)]
    return any(
        _in_cone(
            m,
            [x - v * row[j] for x, row in zip(offset, m)],
            circuits,
            tuple(c for c in cols if c != j),
        )
        for j, v in branches
    )


def _vertex_max(m, cols, b):
    """The floor of the largest u_j, j = cols[0], over the vertices of the
    polytope of solutions u >= 0 of m u = b on the columns cols."""
    top = 0
    for size in range(len(cols)):
        for rest in combinations(cols[1:], size):
            det, u = _gauss_jordan(_columns(m, (cols[0],) + rest), b)
            if det and u is not None and all(x >= 0 for x in u):
                top = max(top, math.floor(u[0]))
    return top


def _pointed_form_ok(expansion, pointed, cone_matrix, circuits):
    """Check the pointed-expansion shape: coefficient 1 at `pointed`, all
    coefficients nonnegative, every offset in the cone spanned by the
    columns of cone_matrix, with circuits its positive circuits.  When
    cone_matrix has a positive circuit, offsets can cancel back onto
    `pointed`, so any coefficient >= 1 is accepted there."""
    if not expansion.is_laurent():
        return False
    terms = expansion.laurent().terms
    lead = terms.get(pointed, 0)
    if lead != 1 and (lead < 1 or not circuits):
        return False
    for e, c in terms.items():
        if c < 0:
            return False
        if e == pointed:
            continue
        offset = tuple(a - b for a, b in zip(e, pointed))
        if not _in_cone(cone_matrix, offset, circuits):
            return False
    return True


def reexpress(f, pattern, addr, k):
    """Rewrite f from the chart at addr into the chart across edge k.

    The coordinate variables at addr are the mutation, in direction k, of the
    coordinate variables of the chart across the edge."""
    return _reexpress(f, pattern.seed_at(addr + (k,)), k)


def _reexpress(f, seed, k):
    """f rewritten into the chart of seed from the chart across edge k."""
    return f.substitute(mutate_seed(root_seed(seed.kind, seed.matrix), k).cluster)


def _charts(element, kind, b0, depth=None):
    """Yields (level, vertex, seed, f) for each chart walk_exchange_graph
    reaches, with f the element, given in the root chart, rewritten into
    that chart: it is carried from the chart's parent by _reexpress."""
    exprs = {}
    for level, v, _, seed in walk_exchange_graph(kind, b0, depth):
        if v:
            element = _reexpress(exprs[_PARENT[v]], seed, _LETTER[v])
        exprs[v] = element
        yield level, v, seed, element


def _check_admissible(element, point, depth):
    """Admissibility in every chart within depth of the root; three-valued.
    A Y-space point walks the A-charts over B^T (offsets in B_t^T Z_{>=0}^r),
    an A-space point the Y-charts (offsets in Z_{>=0}^r, the identity's cone).
    A chart at level >= depth (the root when depth < 0) leaves it UNKNOWN."""
    unknown = False
    kind = "A" if point.space == "Y" else "Y"
    for level, v, seed, expr in _charts(element, kind, transpose(point.b0), depth):
        pointed = tuple(-c for c in point._walk.get(v))
        cone = seed.principal_part() if kind == "A" else _identity(seed.rank)
        circuits = _circuits.get(cone, _positive_circuits, cone)
        if not _pointed_form_ok(expr, pointed, cone, circuits):
            return False
        if level >= depth:
            unknown = True
    return UNKNOWN if unknown else True


def check_admissible_A(x, rho: TropPoint, depth=16):
    """Pointed-Laurent admissibility of x on the A-space dual to rho's
    Y-space; offsets must lie in the cone B_t^T Z_{>=0}^r at every vertex
    within the given mutation distance (all vertices when the exchange graph
    closes earlier).  Returns True, False, or UNKNOWN when a vertex at that
    distance was reached; the cone test itself is exact."""
    if rho.space != "Y":
        raise ValueError("expected a Y-space tropical point")
    return _check_admissible(x, rho, depth)


def check_admissible_Y(y, delta_sv: TropPoint, depth=16):
    """Pointed-Laurent admissibility of y on the Y-space dual to delta_sv's
    A-space; offsets need only be componentwise nonnegative."""
    if delta_sv.space != "A":
        raise ValueError("expected an A-space tropical point")
    return _check_admissible(y, delta_sv, depth)
