"""Seeds, matrix / cluster / coefficient mutation, and exchange graphs.

Matrices are immutable tuples of row tuples.  Mutation directions and matrix
indices in the public API are 1-based, matching the usual conventions for
exchange matrices; the public API addresses tree vertices by reduced edge
words from the root, interned as vertices where a caller hands them in.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from operator import itemgetter

from .errors import BudgetExceeded, DimensionMismatch, InternalDisagreement
from .laurent import IntLaurentPoly, RationalFunction, _index, _int, _ints, _product

Matrix = tuple  # tuple of row tuples

# Most seeds of an exchange graph, by default, before BudgetExceeded.
SEED_BUDGET = 10_000


def pp(x):
    """Positive part [x]_+ = max(x, 0)."""
    return x if x > 0 else 0


def as_matrix(rows) -> Matrix:
    return tuple(map(_ints, rows))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def _identity(r) -> Matrix:
    """The r x r identity matrix; its rows are the unit vectors e_1..e_r."""
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def _neg_unit(i, r):
    """The vector -e_i of length r."""
    _index(i, r)
    return tuple(-1 if j == i - 1 else 0 for j in range(r))


def row_times_matrix(row, m: Matrix):
    return tuple(sum(r * m[j][i] for j, r in enumerate(row)) for i in range(len(m[0])))


def matrix_times_col(m: Matrix, col):
    return tuple(sum(x * c for x, c in zip(row, col)) for row in m)


def _gauss_jordan(m, rhs=None):
    """Exact Gauss-Jordan elimination of the integer system m*u = rhs over Q,
    m with n rows and s columns (rhs defaults to zero).

    Returns (det, u): a solution u as Fractions with every free unknown set
    to 0, or None when the system is inconsistent, and det(m) when m is
    square.  For any m, det is nonzero (a maximal minor, up to sign) exactly
    when the columns of m are independent, so that u is unique.  The
    elimination is fraction-free (Bareiss 1968): every entry stays a minor,
    so each division by the previous pivot is exact.
    """
    n = len(m)
    s = len(m[0]) if m else 0
    if rhs is None:
        rhs = (0,) * n
    a = [[*row, b] for row, b in zip(m, rhs)]
    sign = prev = 1
    pivots = []
    for col in range(s):
        row = len(pivots)
        piv = next((i for i in range(row, n) if a[i][col]), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            sign = -sign
        top = a[row]
        p = top[col]
        for i in range(n):
            if i != row:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(col)
    det = sign * prev if len(pivots) == s else 0
    if any(a[i][s] for i in range(len(pivots), n)):
        return det, None
    u = [Fraction(0)] * s
    for i, col in enumerate(pivots):
        u[col] = Fraction(a[i][s], a[i][col])
    return det, u


def _diagonal_symmetrizer(m, sign):
    """Smallest positive integer d with d_i m_ij = sign * d_j m_ji for all
    i, j, or None."""
    r = len(m)
    for i in range(r):
        for j in range(r):
            if (m[i][j] == 0) != (m[j][i] == 0):
                return None
    d = [None] * r
    for start in range(r):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(r):
                if i != j and m[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(m[i][j], sign * m[j][i])
                    stack.append(j)
    scale = math.lcm(*(x.denominator for x in d))
    dints = [int(x * scale) for x in d]
    g = math.gcd(*dints)
    dints = tuple(x // g for x in dints)
    if any(x <= 0 for x in dints):
        return None
    for i in range(r):
        for j in range(r):
            if dints[i] * m[i][j] != sign * dints[j] * m[j][i]:
                return None
    return dints


def find_skew_symmetrizer(b: Matrix):
    """Positive integer diagonal d with diag(d)*B skew-symmetric, or None."""
    for i in range(len(b)):
        if b[i][i] != 0 or any(b[i][j] * b[j][i] > 0 for j in range(len(b))):
            return None
    return _diagonal_symmetrizer(b, -1)


class _Registry:
    """Get-or-create memo.  A stored value is never None and never changes,
    so a hit reads the dict without a lock; a miss re-checks, then creates
    the value under the registry's lock, which is re-entrant so that make
    may read the registry too."""

    __slots__ = ("items", "lock")

    def __init__(self):
        self.items = {}
        self.lock = threading.RLock()

    def get(self, key, make, *args):
        """The value stored under key, created as make(*args) on first use."""
        item = self.items.get(key)
        if item is None:
            with self.lock:
                item = self.items.get(key)
                if item is None:
                    item = self.items[key] = make(*args)
        return item


class _PrefixWalker:
    """Memo of values at interned tree vertices, under the contract of
    _Registry.  A miss walks up parent links to the nearest cached vertex,
    then back down, calling step(value, vertex, k) on each edge and caching
    every vertex it passes; the cached vertices stay closed under taking
    parents."""

    __slots__ = ("memo", "lock", "step")

    def __init__(self, memo, step):
        self.memo = memo
        self.lock = threading.RLock()
        self.step = step

    def get(self, v):
        """Value at vertex v."""
        value = self.memo.get(v)
        if value is not None:
            return value
        with self.lock:
            memo = self.memo
            path = []
            while v not in memo:
                path.append(v)
                v = _PARENT[v]
            value = memo[v]
            for child in reversed(path):
                value = self.step(value, v, _LETTER[child])
                memo[child] = value
                v = child
            return value

    def put(self, v, value):
        """Value at vertex v, stored as value if v has none; v's parent must
        be cached, and value must be what step gives at v."""
        with self.lock:
            return self.memo.setdefault(v, value)


class _Line:
    """Memo of values along a path through the integers, under the contract
    of _Registry: entry 0 is first and entry s != 0 is step(entry of the
    neighbour of s nearer 0, s).  Each side is a list grown outward from 0,
    ahead[p] being entry p and behind[p] entry -p, so a hit reads a list
    without a lock; a miss re-checks, then extends the side up to s under
    the line's lock.  A step that raises stores nothing, so each side stays
    a prefix of its path."""

    __slots__ = ("ahead", "behind", "lock", "step")

    def __init__(self, first, step):
        self.ahead = [first]
        self.behind = [first]
        self.lock = threading.RLock()
        self.step = step

    def get(self, s):
        """Entry s."""
        if s >= 0:
            side, p = self.ahead, s
        else:
            side, p = self.behind, -s
        if p < len(side):
            return side[p]
        with self.lock:
            step = self.step
            for q in range(len(side), p + 1):
                side.append(step(side[-1], q if s > 0 else -q))
            return side[p]


def mutate_matrix_raw(m: Matrix, k: int) -> Matrix:
    """Matrix mutation in direction k (1-based); works for square, tall and
    wide shapes as long as k indexes both a row and a column."""
    nrows, ncols = len(m), len(m[0])
    kk = k - 1
    if not (0 <= kk < nrows and kk < ncols):
        raise DimensionMismatch(f"direction {k} out of range")
    # row i gains b_ik [b_kj]+ when b_ik > 0 and b_ik [-b_kj]+ when b_ik < 0;
    # column k and row k change sign, so a row with b_ik = 0 is unchanged
    row_k = m[kk]
    pos = [pp(x) for x in row_k]
    neg = [pp(-x) for x in row_k]
    out = []
    for i, row in enumerate(m):
        c = row[kk]
        if i == kk:
            row = tuple(-x for x in row)
        elif c:
            row = [a + c * b for a, b in zip(row, pos if c > 0 else neg)]
            row[kk] = -c
            row = tuple(row)
        else:
            row = tuple(row)
        out.append(row)
    return tuple(out)


# -- tree addresses ----------------------------------------------------------


# Interned tree vertices, one process-wide append-only table.  Vertex 0 is
# the root; vertex v > 0 hangs below _PARENT[v] on the edge _LETTER[v], and
# _CHILD maps (v, k) to the child of v across edge k.  New vertices are made
# under _VERTEX_LOCK, and a child is published in _CHILD only after its
# parent and letter are stored, so readers need no lock.
_PARENT = [0]
_LETTER = [0]
_CHILD = {}
_VERTEX_LOCK = threading.Lock()


def _child(v, k):
    """The vertex across edge k from vertex v: its parent when k is the
    letter of v's own edge, else its (possibly new) child."""
    if k == _LETTER[v]:
        return _PARENT[v]
    child = _CHILD.get((v, k))
    if child is None:
        with _VERTEX_LOCK:
            child = _CHILD.get((v, k))
            if child is None:
                child = len(_PARENT)
                _PARENT.append(v)
                _LETTER.append(k)
                _CHILD[v, k] = child
    return child


def _vertex(word, r=None):
    """The interned vertex reached from the root along word.  Every letter
    is checked (see _index) before any vertex is made."""
    letters = [_index(k, r) for k in word]
    v = 0
    for k in letters:
        v = _child(v, k)
    return v


def _address(v):
    """The reduced edge word of vertex v."""
    word = []
    while v:
        word.append(_LETTER[v])
        v = _PARENT[v]
    return tuple(reversed(word))


def reduce_word(word):
    """Cancel adjacent equal letters; mutation in the same direction twice
    returns to the original seed.  Letters must be ints >= 1."""
    out = []
    for k in map(_index, word):
        if out and out[-1] == k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def _belt_place(i, m, r):
    """The place s of the belt vertex t(i, m) of rank r on the belt, the
    path through the integers whose edge (s, s + 1) carries the letter
    s % r + 1: the Coxeter mutation sequence 1, ..., r, 1, ... from the root
    at s = 0, and r, ..., 1, r, ... back from it."""
    return _int(m) * r + _index(i, r) - 1


def _belt_letter(s, r):
    """The letter of the belt edge between place s != 0 and its neighbour
    nearer 0."""
    return (s - 1 if s > 0 else s) % r + 1


def _belt_step(r, move, value, s):
    """move(value, k) across the belt edge into place s."""
    return move(value, _belt_letter(s, r))


# One line of interned vertices per rank, stepped by _child, which reduces
# the belt word as it goes.
_belt_lines = _Registry()


def _belt_vertex(i, m, r):
    """The interned vertex of the belt vertex t(i, m) of rank r."""
    line = _belt_lines.get(r, _Line, 0, partial(_belt_step, r, _child))
    return line.get(_belt_place(i, m, r))


def canonical_address(i: int, m: int, r: int):
    """Reduced edge word of the belt vertex t(i, m) from the root."""
    return _address(_belt_vertex(i, m, r))


class MatrixPattern:
    """Memoized assignment of matrices to tree vertices; square, or tall or
    wide with directions indexing the smaller side, and with a
    skew-symmetrizable principal part.

    belt is the line of matrices along the belt, which every tropical point
    over the root reads."""

    def __init__(self, root: Matrix):
        self.root = as_matrix(root)
        self.rank = r = min(len(self.root), len(self.root[0])) if self.root else 0
        if find_skew_symmetrizer(tuple(row[:r] for row in self.root[:r])) is None:
            raise ValueError("principal part is not skew-symmetrizable")
        self._walk = _PrefixWalker({0: self.root}, _matrix_step)
        self.belt = _Line(self.root, partial(_belt_step, r, mutate_matrix_raw))

    def at(self, addr):
        return self._walk.get(_vertex(addr, self.rank))


def _matrix_step(m, v, k):
    return mutate_matrix_raw(m, k)


_matrix_patterns = _Registry()


def matrix_pattern(root) -> MatrixPattern:
    """The pattern of root.  A hashable root is looked up as it is first: a
    stored key it equals is what as_matrix would make of it."""
    try:
        pattern = _matrix_patterns.items.get(root)
    except TypeError:  # rows given as lists
        pattern = None
    if pattern is None:
        root = as_matrix(root)
        pattern = _matrix_patterns.get(root, MatrixPattern, root)
    return pattern


# -- seeds -------------------------------------------------------------------


@dataclass(frozen=True)
class Seed:
    """A labelled seed: exchange matrix (tall when frozen rows are present),
    mutable cluster, frozen variables, and the interned tree vertex it sits
    at."""

    kind: str  # "A" or "Y"
    matrix: Matrix
    cluster: tuple
    frozen: tuple
    vertex: int

    @property
    def address(self):
        """The reduced edge word of the seed's vertex."""
        return _address(self.vertex)

    @property
    def rank(self):
        return len(self.cluster)

    def variables(self):
        return self.cluster + self.frozen

    def principal_part(self) -> Matrix:
        r = self.rank
        return tuple(row[:r] for row in self.matrix[:r])

    def unordered_key(self):
        """Canonical form under simultaneous permutation of cluster entries
        and matrix rows/columns; frozen rows keep their place."""
        return _sorted_by([x.sort_key() for x in self.cluster], self.cluster, self.matrix)


def _sorted_by(keys, cluster, matrix):
    """cluster and matrix under the permutation that sorts keys (one per
    cluster entry), applied to the entries and to the matrix's rows and
    columns at once; frozen rows keep their place."""
    if len(cluster) < 2:
        # no permutation to undo (itemgetter of one index is no tuple)
        return (cluster, matrix)
    order = sorted(range(len(cluster)), key=keys.__getitem__)
    permute = itemgetter(*order)
    rows = [permute(matrix[i]) for i in order]
    rows += [permute(row) for row in matrix[len(cluster) :]]
    return (permute(cluster), tuple(rows))


def root_seed(kind, b0) -> Seed:
    """Initial seed whose cluster is the coordinate variables.

    For A-seeds, b0 may be tall: its rows below the square part are frozen,
    and the frozen variables are the trailing coordinates.
    """
    b0 = as_matrix(b0)
    total, r = len(b0), len(b0[0])
    if total < r:
        raise DimensionMismatch("a wide root matrix has no seed")
    if kind not in ("A", "Y"):
        raise ValueError(f"unknown seed kind {kind!r}")
    if kind == "Y" and total > r:
        raise DimensionMismatch("Y-seeds carry no frozen variables here")
    cluster = tuple(RationalFunction.variable(i + 1, total) for i in range(r))
    frozen = tuple(RationalFunction.variable(i + 1, total) for i in range(r, total))
    return Seed(kind, b0, cluster, frozen, 0)


def exchange_binomial(matrix: Matrix, variables, k):
    """The two-term exchange numerator at direction k (1-based)."""
    column = [(v, row[k - 1]) for v, row in zip(variables, matrix)]
    one = IntLaurentPoly.one(variables[0].nvars)
    plus = _product(((v.laurent(), b) for v, b in column if b > 0), one)
    minus = _product(((v.laurent(), -b) for v, b in column if b < 0), one)
    return plus + minus


def _learn(memo, key, new, reverse, old):
    """Store the exchange key -> new computed on a miss and, mutation in one
    direction being an involution, its reverse -> old.  A reverse entry
    already there is kept, and must equal old."""
    known = memo.get(reverse)
    if known is None:
        memo[reverse] = old
    elif known != old:
        raise InternalDisagreement(
            f"memo holds {known!r} for a reverse exchange that gives {old!r}"
        )
    memo[key] = new


class _Exchanges:
    """Interned seed entries and the exchange memo keyed by them.  values[i]
    is the entry with id i and ids maps it back; ids are handed out in
    first-seen order, so two seeds hold equal entries exactly when they hold
    equal ids.  memo maps exchange keys made of ids to the id of the new
    entry (see _exchange_A and _exchange_Y)."""

    __slots__ = ("values", "ids", "memo")

    def __init__(self):
        self.values = []
        self.ids = {}
        self.memo = {}

    def intern(self, x):
        """The id of entry x, a new one if x is new."""
        i = self.ids.get(x)
        if i is None:
            i = self.ids[x] = len(self.values)
            self.values.append(x)
        return i


def _exchange_A(table, matrix, ids, k):
    """The entry ids of the A-seed across edge k (1-based) from the seed with
    entry ids (frozen ones last) and matrix.  The memo key is the outgoing
    id and the sorted (id, b_jk) pairs with b_jk != 0, frozen rows included;
    a miss divides the exchange binomial by the outgoing entry and also
    learns the way back: the new id out, every b_jk negated, gives the old
    id."""
    kk = k - 1
    old = ids[kk]
    pairs = tuple(sorted((i, row[kk]) for i, row in zip(ids, matrix) if row[kk]))
    memo = table.memo
    new = memo.get((old, pairs))
    if new is None:
        values = table.values
        num = exchange_binomial(matrix, [values[i] for i in ids], k)
        # the exchange relation divides exactly by the Laurent phenomenon
        x = RationalFunction.from_poly(num.exact_div(values[old].laurent()))
        new = table.intern(x)
        back = tuple((i, -b) for i, b in pairs)
        _learn(memo, (old, pairs), new, (new, back), old)
    return ids[:kk] + (new,) + ids[k:]


def _exchange_Y(table, matrix, ids, k):
    """The entry ids of the Y-seed across edge k (1-based) from the seed
    with entry ids and matrix (Fomin and Zelevinsky, "Cluster algebras
    IV"): y_i' = y_i y_k^[b_ki]+ (1 + y_k)^(-b_ki).

    With y_k = n/d and s = n + d, s is coprime to n and to d, so 1/y_k,
    1 + y_k = s/d and y_k/(1 + y_k) = 1 - 1/(1 + y_k) = n/s come out reduced
    with no gcd; each new y_i is then one cancelling product, y_i (n/s)^b for
    b > 0 and y_i (s/d)^(-b) for b < 0.  The memo maps the id of y_k to
    those three parts (1/y_k as its id), and (id of y_i, id of y_k, b_ki) to
    the id of the new y_i.  A miss also learns the way back: (new id, id of
    1/y_k, -b_ki) gives the id of y_i."""
    memo, values = table.memo, table.values
    kk = k - 1
    yk = ids[kk]
    parts = memo.get(yk)
    if parts is None:
        one_plus = values[yk] + 1
        inverse = table.intern(values[yk].inverse())
        parts = memo[yk] = (inverse, one_plus, 1 - one_plus.inverse())
    inverse, one_plus, ratio = parts
    out = list(ids)
    for i, b in enumerate(matrix[kk]):
        if i == kk:
            out[i] = inverse
        elif b:
            yi = ids[i]
            key = (yi, yk, b)
            new = memo.get(key)
            if new is None:
                new = table.intern(values[yi] * (ratio**b if b > 0 else one_plus ** (-b)))
                _learn(memo, key, new, (new, inverse, -b), yi)
            out[i] = new
    return tuple(out)


_EXCHANGES = {"A": _exchange_A, "Y": _exchange_Y}


def _seed_from(table, like, matrix, ids, vertex):
    """The seed of like's kind and frozen variables with the given matrix,
    the entries of table with the given ids, and vertex."""
    values = table.values
    cluster = tuple(values[i] for i in ids[: like.rank])
    return Seed(like.kind, matrix, cluster, like.frozen, vertex)


def _mutate(seed, k, table):
    """seed mutated in direction k by the exchange of its kind, on table."""
    ids = tuple(map(table.intern, seed.variables()))
    new = _EXCHANGES[seed.kind](table, seed.matrix, ids, k)
    matrix = mutate_matrix_raw(seed.matrix, k)
    return _seed_from(table, seed, matrix, new, _child(seed.vertex, k))


def mutate_A_seed(seed: Seed, k: int) -> Seed:
    """A-seed mutation in direction k: the one exchange that seed patterns
    and their exchange-graph walks step by (see _exchange_A), computed
    afresh on a throwaway table."""
    if seed.kind != "A":
        raise ValueError("A-mutation applied to a non-A seed")
    return _mutate(seed, _index(k, seed.rank), _Exchanges())


def mutate_Y_seed(seed: Seed, k: int) -> Seed:
    """Y-seed mutation in direction k, y_i' = y_i y_k^[b_ki]+ (1 + y_k)^(-b_ki):
    the one exchange that seed patterns and their exchange-graph walks step
    by (see _exchange_Y), computed afresh on a throwaway table."""
    if seed.kind != "Y":
        raise ValueError("Y-mutation applied to a non-Y seed")
    return _mutate(seed, _index(k, seed.rank), _Exchanges())


def mutate_seed(seed: Seed, k: int) -> Seed:
    return (mutate_A_seed if seed.kind == "A" else mutate_Y_seed)(seed, k)


class SeedPattern:
    """Memoized seeds of one root seed and the one walk of its exchange
    graph; safe for concurrent use.

    A seed's matrix is read from the root's matrix pattern (which checks
    the root), so it is the object that pattern holds at the seed's vertex.
    The pattern numbers its seed entries (frozen ones included) in
    first-seen order and memoizes exchanges by those ids in one table (see
    _Exchanges), which every step reads: the walker's steps to tree
    vertices (seed_at) and the exchange-graph walk's steps to children.  It
    keeps seeds and their entry ids by vertex, as a _PrefixWalker.  The walk
    (see walk_exchange_graph) is taken once and replayed: its yielded
    entries are kept level by level, with its frontier, seen and done
    state, and a caller asking for a level not reached yet extends them to
    that level.  The table, the ids, the walker's memo and the walk are
    written only under the walker's lock."""

    def __init__(self, kind, b0):
        root = root_seed(kind, b0)
        self._matrices = matrix_pattern(b0)
        self.root = root = replace(root, matrix=self._matrices.root)
        self._exchanges = _Exchanges()
        self._exchange = _EXCHANGES[kind]
        self._ids = {0: tuple(map(self._exchanges.intern, root.variables()))}
        self._walk = _PrefixWalker({0: root}, self._step)
        self._restart()

    def seed_at(self, addr) -> Seed:
        return self._walk.get(_vertex(addr, self.root.rank))

    def _step(self, seed, v, k):
        """The walker's step across edge k from the seed at vertex v."""
        child = _child(v, k)
        table = self._exchanges
        ids = self._ids[child] = self._exchange(table, seed.matrix, self._ids[v], k)
        return _seed_from(table, seed, self._matrices._walk.get(child), ids, child)

    def _replay(self, depth=None):
        """The entries of walk_exchange_graph down to level depth (every
        level when depth is None), replayed from the kept walk."""
        level = 0
        while True:
            entries = self._level(level)
            if entries is None:
                return
            yield from entries
            if depth is not None and level >= depth:
                return
            level += 1

    def _level(self, level):
        """The walk's entries at level, or None when the graph closed
        before it."""
        levels = self._levels
        if level < len(levels):
            return levels[level]
        with self._walk.lock:
            while len(self._levels) <= level:
                if not self._frontier:
                    return None
                try:
                    self._grow()
                except BaseException:
                    # a level cut short would leave its children seen but
                    # never yielded
                    self._restart()
                    raise
            return self._levels[level]

    def _restart(self):
        """The walk's state at its start: the root yielded."""
        root, ids = self.root, self._ids[0]
        self._levels = [((0, 0, root.unordered_key(), root),)]
        self._frontier = [(0, ids, root.matrix)]
        self._seen = {_twin_key(ids, root.matrix, root.rank): 0}
        self._done = set()

    def _grow(self):
        """Walk one level further from the frontier.

        A child is its parent's ids with one replaced, and the mutated
        matrix; one whose twin key (see _twin_key) is new becomes a Seed at
        its tree vertex, with the matrix pattern's matrix there, is stored
        in the walker (its parent is there, so the memo stays closed under
        parents) and is yielded under its unordered key.  The child's matrix
        is mutated here, for the twin key, and handed to the matrix pattern,
        which keeps it unless it holds one at that vertex already.  A twin
        child is dropped: it gets no Seed and no vertex.  Mutation is an involution and commutes with a simultaneous
        permutation of the indices, so when the child of v across k is a
        twin of the yielded w, w mutated at the index j of the child's new
        entry is a twin of v: the edge (w, j), like the edge (child, k)
        back from a new child, leads to a seed already yielded, and is
        marked done."""
        table, exchange, r = self._exchanges, self._exchange, self.root.rank
        seeds, ids_at, matrices = self._walk.memo, self._ids, self._matrices._walk
        seen, done = self._seen, self._done
        level = len(self._levels)
        entries, frontier = [], []
        for v, ids, matrix in self._frontier:
            for k in range(1, r + 1):
                if (v, k) in done:
                    continue
                child_ids = exchange(table, matrix, ids, k)
                child_matrix = mutate_matrix_raw(matrix, k)
                key = _twin_key(child_ids, child_matrix, r)
                twin = seen.get(key)
                if twin is not None:
                    places = ids_at[twin][:r]
                    n = places.count(child_ids[k - 1])
                    if n != 1:
                        raise InternalDisagreement(
                            f"twin at vertex {twin} holds the new entry {n} times"
                        )
                    done.add((twin, places.index(child_ids[k - 1]) + 1))
                    continue
                child = _child(v, k)
                seen[key] = child
                done.add((child, k))
                seed = seeds.get(child)
                if seed is None:
                    ids_at[child] = child_ids
                    matrix_at = matrices.put(child, child_matrix)
                    seeds[child] = seed = _seed_from(
                        table, self.root, matrix_at, child_ids, child
                    )
                frontier.append((child, child_ids, seed.matrix))
                entries.append((level, child, seed.unordered_key(), seed))
        self._levels.append(tuple(entries))
        self._frontier = frontier
        if not frontier:
            # the graph closed: nothing reads seen and done again
            self._seen = self._done = None


def _twin_key(ids, matrix, r):
    """The key of the seed with entry ids and matrix up to a simultaneous
    permutation of its cluster entries and matrix indices (see
    _sorted_by); its frozen entries are those of every seed of the
    pattern."""
    return _sorted_by(ids, ids[:r], matrix)


_seed_patterns = _Registry()


def seed_pattern(kind, b0) -> SeedPattern:
    b0 = as_matrix(b0)
    return _seed_patterns.get((kind, b0), SeedPattern, kind, b0)


def seed_at(kind, b0, addr) -> Seed:
    """Seed reached from the root seed of b0 by walking addr."""
    return seed_pattern(kind, b0).seed_at(addr)


def principal_extension(b0: Matrix) -> Matrix:
    """Tall matrix (B \\ I) for principal coefficients at the root."""
    b0 = as_matrix(b0)
    return b0 + _identity(len(b0))


# -- g-vectors, c-vectors and F-polynomials ----------------------------------


@dataclass(frozen=True)
class GCFData:
    """G-matrix, C-matrix and F-polynomials of one principal-coefficients seed.

    Columns of gmatrix are the exponent vectors of the leading monomials of
    the mutable variables; fpolys live in the coefficient variables, have
    constant term 1 and nonnegative coefficients.
    """

    gmatrix: Matrix
    cmatrix: Matrix
    fpolys: tuple


class GCFPattern:
    """Walks the G/C/F mutation recurrences from a square root, memoized by
    address; as in SeedPattern, B_t is the matrix pattern's, and the
    F-polynomials' ids and id-keyed exchanges are the pattern's own."""

    def __init__(self, b0):
        b0 = as_matrix(b0)
        r = len(b0)
        if any(len(row) != r for row in b0):
            raise DimensionMismatch("G/C/F data needs a square root matrix")
        self._matrices = matrix_pattern(b0)
        ident = _identity(r)
        one = IntLaurentPoly.one(r)
        self.rank = r
        self._exchanges = _Exchanges()
        self._ids = {0: (self._exchanges.intern(one),) * r}
        root = (self._matrices.root, ident, ident, (one,) * r)
        self._walk = _PrefixWalker({0: root}, self._step)

    def at(self, addr):
        return self._walk.get(_vertex(addr, self.rank))

    def _step(self, state, v, k):
        """The walker's step across edge k from the state at vertex v."""
        child = _child(v, k)
        table = self._exchanges
        g, c, ids = _gcf_step(table, state, self._ids[v], k)
        self._ids[child] = ids
        fpolys = tuple(map(table.values.__getitem__, ids))
        return (self._matrices._walk.get(child), g, c, fpolys)


def _gcf_step(table, state, ids, k):
    """G, C and the F ids in table across edge k from the (B, G, C, F) state
    whose F's have the given ids.  The memo key is the id of F_k, the
    sorted (id of F_j, b_jk) pairs with b_jk != 0 (ids repeat as F's do)
    and the k-th c-column; a miss also learns the way back, all negated.  G
    moves in column k only and C only in the rows with c_ik != 0."""
    b, g, c, f = state
    r = len(b)
    kk = k - 1
    ccol = tuple(row[kk] for row in c)
    bcol = tuple(row[kk] for row in b)
    old = ids[kk]
    pairs = tuple(sorted((i, x) for i, x in zip(ids, bcol) if x))
    memo = table.memo
    new = memo.get((old, pairs, ccol))
    if new is None:
        one = IntLaurentPoly.one(r)
        pos = _product(((p, x) for p, x in zip(f, bcol) if x > 0), one)
        neg = _product(((p, -x) for p, x in zip(f, bcol) if x < 0), one)
        up = tuple(pp(x) for x in ccol)
        down = tuple(pp(-x) for x in ccol)
        if any(up):
            pos = pos.shift(up)
        if any(down):
            neg = neg.shift(down)
        fk = (pos + neg).exact_div(f[kk])
        if fk.constant_coeff() != 1 or not fk.coefficients_nonnegative():
            raise AssertionError("F-polynomial failed sign-coherence shape")
        new = table.intern(fk)
        back = (new, tuple(sorted((i, -x) for i, x in pairs)), tuple(-x for x in ccol))
        _learn(memo, (old, pairs, ccol), new, back, old)
    # sign-coherence of the k-th c-vector selects the tropical sign
    eps = 1 if any(x > 0 for x in ccol) else -1
    gsum = [(l, -eps * x) for l, x in enumerate(bcol) if eps * x < 0]
    gnew = tuple(
        row[:kk] + (sum(row[l] * w for l, w in gsum) - row[kk],) + row[kk + 1 :]
        for row in g
    )
    csum = [(j, eps * x) for j, x in enumerate(b[kk]) if eps * x > 0]
    cnew = []
    for row in c:
        cik = row[kk]
        if cik:
            row = list(row)
            for j, w in csum:
                row[j] += cik * w
            row[kk] = -cik
            row = tuple(row)
        cnew.append(row)
    return gnew, tuple(cnew), ids[:kk] + (new,) + ids[k:]


_gcf_patterns = _Registry()


def gcf_pattern(b0) -> GCFPattern:
    b0 = as_matrix(b0)
    return _gcf_patterns.get(b0, GCFPattern, b0)


def extract_gcf(b0, addr) -> GCFData:
    """G-matrix, C-matrix and F-polynomial data at addr for principal
    coefficients at the root."""
    return GCFData(*gcf_pattern(b0).at(addr)[1:])


def gcf_from_principal(b0, addr) -> GCFData:
    """G/C/F read off the symbolic principal-coefficients seed (slow oracle)."""
    b0 = as_matrix(b0)
    r = len(b0)
    if any(len(row) != r for row in b0):
        raise DimensionMismatch("G/C/F data needs a square root matrix")
    # r mutable variables plus r frozen coefficient variables
    seed = seed_at("A", principal_extension(b0), addr)
    gcols = []
    fpolys = []
    for i in range(r):
        u = seed.cluster[i].laurent()
        exp = next(iter(u.terms))
        deg = [exp[j] for j in range(r)]
        for j in range(r):
            coeff_exp = exp[r + j]
            for l in range(r):
                deg[l] -= b0[l][j] * coeff_exp
        gcols.append(tuple(deg))
        f_terms = {}
        for e, coeff in u.terms.items():
            key = e[r:]
            f_terms[key] = f_terms.get(key, 0) + coeff
        fpolys.append(IntLaurentPoly(r, f_terms))
    g = tuple(tuple(gcols[j][i] for j in range(r)) for i in range(r))
    c = tuple(row[:r] for row in seed.matrix[r:])
    return GCFData(g, c, tuple(fpolys))


# -- global-monomial tests ---------------------------------------------------


def is_global_Y_monomial(b0, addr, exponents) -> bool:
    """y_t^m is universally Laurent iff B_t m >= 0 componentwise."""
    pattern = matrix_pattern(b0)
    return _is_global_Y_at(pattern, _vertex(addr, pattern.rank), exponents)


def _is_global_Y_at(pattern, v, exponents) -> bool:
    """is_global_Y_monomial at the vertex v of pattern."""
    bt = pattern._walk.get(v)
    exponents = _ints(exponents)
    if len(exponents) != len(bt[0]):
        raise DimensionMismatch("exponent vector has wrong length")
    return all(v >= 0 for v in matrix_times_col(bt, exponents))


def separation_check(b0, addr) -> bool:
    """Check y_t = y^{C_t} * F_t(y)^{B_t} exactly: with y_t = n/d, the j-th
    entry holds iff n * prod_{b_ij < 0} F_i^(-b_ij) equals
    d * y^(c_j) * prod_{b_ij > 0} F_i^(b_ij), which needs no gcd."""
    return _separation_at(as_matrix(b0), seed_at("Y", b0, addr))


def _separation_at(b0, yseed):
    """separation_check at the vertex of yseed, a Y-seed over b0."""
    b, _, c, f = gcf_pattern(b0)._walk.get(yseed.vertex)
    one = IntLaurentPoly.one(len(b0))
    for j in range(len(b0)):
        col = [row[j] for row in b]
        pos = _product(((p, x) for p, x in zip(f, col) if x > 0), one)
        neg = _product(((p, -x) for p, x in zip(f, col) if x < 0), one)
        y = yseed.cluster[j]
        if y.num * neg != y.den * pos.shift(tuple(row[j] for row in c)):
            return False
    return True


# -- exchange-graph enumeration ----------------------------------------------


@dataclass
class ExchangeGraph:
    kind: str
    b0: Matrix
    seeds: dict  # canonical key -> Seed (first reached)

    def cluster_variables(self):
        """Distinct cluster entries over all enumerated seeds."""
        out = {}
        for seed in self.seeds.values():
            for i, x in enumerate(seed.cluster):
                if x not in out:
                    out[x] = (seed.address, i + 1)
        return out


def walk_exchange_graph(kind, b0, depth=None):
    """Breadth-first walk over mutations from the root seed of b0, pruning
    seeds that agree up to a simultaneous permutation of cluster and matrix
    indices.  Yields (level, vertex, key, seed): the root first, then each
    seed whose unordered key is new, down to level depth when depth is
    given.  Each yielded vertex but the root is a child of one yielded
    before it.  The rows of a tall b0 below its square part are frozen.

    The walk runs on the interned entry ids of the pattern of b0 and is
    taken once per pattern, then replayed (see SeedPattern): each edge of
    the graph is mutated across once overall, and a child that is a twin
    of a seed already yielded is never built as a seed."""
    yield from seed_pattern(kind, b0)._replay(depth)


def enumerate_exchange_graph(kind, b0, max_seeds=SEED_BUDGET) -> ExchangeGraph:
    """The whole exchange graph, as walk_exchange_graph reaches it: the
    pattern's kept walk, replayed and extended only as far as max_seeds
    needs.  Raises BudgetExceeded when the graph fails to close within
    max_seeds (likely infinite type)."""
    seeds = {}
    for _, _, key, seed in walk_exchange_graph(kind, b0):
        if len(seeds) >= max_seeds:
            raise BudgetExceeded(f"exchange graph exceeded {max_seeds} seeds")
        seeds[key] = seed
    return ExchangeGraph(kind, as_matrix(b0), seeds)
