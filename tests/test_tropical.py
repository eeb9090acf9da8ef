import itertools
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cluster_friezes import mutation, tropical
from cluster_friezes.errors import DimensionMismatch, NegativeExponent, TropOverflow
from cluster_friezes.friezes import CartanMatrix, FriezeFunction, PLMap, belts
from cluster_friezes.finite import finite_context, named_cartan
from cluster_friezes.laurent import RationalFunction as RF, check_trop
from cluster_friezes.mutation import (
    canonical_address,
    enumerate_exchange_graph,
    gcf_pattern,
    matrix_pattern,
    mutate_matrix_raw,
    row_times_matrix,
    seed_pattern,
    transpose,
)
from cluster_friezes.tropical import (
    UNKNOWN,
    TropPoint,
    _in_cone,
    _pointed_form_ok,
    _positive_circuits,
    beta_map,
    check_admissible_A,
    check_admissible_Y,
    d_compat_degree,
    d_trop_point,
    g_vector_of_cluster_monomial,
    p_map,
    principal_wide_root,
    reexpress,
    trop_mutate_A,
    trop_mutate_Y,
)

B_A2 = ((0, -1), (1, 0))
BT_A2 = ((0, 1), (-1, 0))


class TestMutationRules:
    def test_zero_fixed_point(self):
        assert trop_mutate_A((0, 0), BT_A2, 1) == (0, 0)
        assert trop_mutate_Y((0, 0), B_A2, 1) == (0, 0)

    def test_a_rule_example(self):
        assert trop_mutate_A((-1, 2), BT_A2, 1) == (3, 2)

    def test_y_rule_example(self):
        assert trop_mutate_Y((1, -2), B_A2, 1) == (-1, -1)

    def test_direction_checked(self):
        # k must be an int naming a column of b for "A" and a row of b for
        # "Y": 0 must not be read as the last index, nor True as 1
        for k in (0, True, 3):
            with pytest.raises(DimensionMismatch):
                trop_mutate_A((1, -2), BT_A2, k)
            with pytest.raises(DimensionMismatch):
                trop_mutate_Y((1, -2), B_A2, k)
        # a wide r x 2r b has r rows
        wide = ((0, -1, 1, 0), (1, 0, 0, 1))
        assert trop_mutate_Y((1, -2, 0, 0), wide, 2) == (-1, 2, 0, -2)
        with pytest.raises(DimensionMismatch):
            trop_mutate_Y((1, -2, 0, 0), wide, 3)

    def test_involutions_random(self):
        rng = random.Random(6)
        for _ in range(100):
            b = B_A2 if rng.random() < 0.5 else BT_A2
            k = rng.randint(1, 2)
            coords = tuple(rng.randint(-5, 5) for _ in range(2))
            b2 = mutate_matrix_raw(b, k)
            assert trop_mutate_A(trop_mutate_A(coords, b, k), b2, k) == coords
            assert trop_mutate_Y(trop_mutate_Y(coords, b, k), b2, k) == coords


def _trop_mutate_A_by_formula(coords, b, k):
    """x_k -> -x_k + max(sum [b_jk]_+ x_j, sum [-b_jk]_+ x_j), one sum per
    sign, over every j."""
    kk = k - 1
    plus = sum(mutation.pp(b[j][kk]) * coords[j] for j in range(len(coords)))
    minus = sum(mutation.pp(-b[j][kk]) * coords[j] for j in range(len(coords)))
    new = -coords[kk] + max(plus, minus)
    check_trop(new)
    return coords[:kk] + (new,) + coords[kk + 1 :]


def _trop_mutate_Y_by_formula(coords, b, k):
    """y_i -> y_i + [b_ki]_+ y_k - b_ki [y_k]_+ for i != k, each checked;
    y_k -> -y_k."""
    kk = k - 1
    ck = coords[kk]
    pp = mutation.pp
    return tuple(
        -ck if i == kk else check_trop(coords[i] + pp(b[kk][i]) * ck - b[kk][i] * pp(ck))
        for i in range(len(coords))
    )


def _outcome(rule, *args):
    try:
        return rule(*args)
    except TropOverflow:
        return TropOverflow


# in-range coordinates, small or within 8 of the limit 2^63 - 1 on either side
_NEAR_LIMIT = 2**63 - 1
_COORD = st.one_of(
    st.integers(-5, 5),
    st.integers(_NEAR_LIMIT - 8, _NEAR_LIMIT),
    st.integers(-_NEAR_LIMIT, -_NEAR_LIMIT + 8),
    st.integers(-(2**62), 2**62),
)


@st.composite
def _rule_cases(draw):
    """(coords, b, k): b an r x r or r x 2r integer matrix and coords as
    wide as b; the rules are formulas in the entries, so b need not be an
    exchange matrix (b_kk != 0 included)."""
    r = draw(st.integers(1, 5))
    width = r * draw(st.sampled_from([1, 2]))
    entry = st.integers(-4, 4)
    b = tuple(tuple(draw(entry) for _ in range(width)) for _ in range(r))
    coords = tuple(draw(_COORD) for _ in range(width))
    return coords, b, draw(st.integers(1, r))


class TestSignSplitRules:
    """The rules against the formulas they replace, overflow included."""

    @settings(max_examples=300, deadline=None)
    @given(_rule_cases())
    def test_y_rule(self, case):
        assert _outcome(trop_mutate_Y, *case) == _outcome(
            _trop_mutate_Y_by_formula, *case
        )

    @settings(max_examples=300, deadline=None)
    @given(_rule_cases())
    def test_a_rule(self, case):
        coords, b, k = case
        square = tuple(row[: len(b)] for row in b)
        coords = coords[: len(b)]
        assert _outcome(trop_mutate_A, coords, square, k) == _outcome(
            _trop_mutate_A_by_formula, coords, square, k
        )

    def test_near_limit_cases(self):
        # y_k > 0 moves y_i with b_ki < 0 up, y_k < 0 moves y_i with b_ki > 0
        # down; a result of +-2^63 overflows, +-(2^63 - 1) does not
        top = _NEAR_LIMIT
        down, up = ((0, -1), (1, 0)), ((0, 1), (-1, 0))
        assert trop_mutate_Y((1, top - 1), down, 1) == (-1, top)
        assert trop_mutate_Y((-1, 1 - top), up, 1) == (1, -top)
        for coords, b in (((1, top), down), ((2, top - 1), down), ((-1, -top), up)):
            for rule in (trop_mutate_Y, _trop_mutate_Y_by_formula):
                with pytest.raises(TropOverflow):
                    rule(coords, b, 1)
        assert trop_mutate_A((top, 0), up, 1) == (-top, 0)
        with pytest.raises(TropOverflow):
            trop_mutate_A((0, top), ((0, -1), (2, 0)), 1)


class TestCoordsAt:
    def test_anchor(self):
        p = TropPoint("Y", B_A2, (3, -1), (1, 2))
        assert p.coords_at((1, 2)) == (3, -1)

    def test_known_propagation(self):
        p = TropPoint("A", BT_A2, (1, 0))
        assert p.coords_at(canonical_address(1, 1, 2)) == (-1, 0)

    def test_cache_coherence(self):
        rng = random.Random(10)
        for _ in range(20):
            coords = tuple(rng.randint(-3, 3) for _ in range(2))
            p = TropPoint("Y", B_A2, coords)
            addr = (1, 2, 1)
            there = p.coords_at(addr)
            q = TropPoint("Y", B_A2, there, addr)
            assert q.at_root() == coords

    @pytest.mark.parametrize("space", ["A", "Y", "Yprin"])
    def test_memo_closed_under_parents_at_construction(self, space):
        b = named_cartan("B3").b_matrix()
        root = principal_wide_root(b) if space == "Yprin" else b
        coords = (2, -1, 1, 0, 3, -2)[: len(root[0])]
        anchor = (1, 2, 3, 1, 2)
        memo = TropPoint(space, root, coords, anchor)._walk.memo
        assert len(memo) == len(anchor) + 1
        assert all(mutation._PARENT[v] in memo for v in memo)
        assert memo[0] == _memo_free_coords(space, root, coords, anchor, ())

    def test_overflow_on_the_walk_to_the_root_raises_at_construction(self):
        # the triple bond of G2 pushes a near-limit coordinate past 2^63 on
        # the edge from the anchor (2,) to the root
        big = 2**62 + 2**61
        b = named_cartan("G2").b_matrix()
        with pytest.raises(TropOverflow):
            TropPoint("A", transpose(b), (big, big), (2,))

    def test_pattern_must_be_an_exchange_matrix(self):
        # b_11 != 0, and a wide pattern whose principal part is symmetric
        with pytest.raises(ValueError, match="skew-symmetrizable"):
            TropPoint("Y", ((-1, 0), (0, 0)), (2**62 + 2**61, 0))
        with pytest.raises(ValueError, match="skew-symmetrizable"):
            TropPoint("Yprin", ((0, 1, 1, 0), (1, 0, 0, 1)), (0, 0, 0, 0))

    def test_equality_across_anchors(self):
        p = TropPoint("Y", B_A2, (1, -2))
        q = TropPoint("Y", B_A2, p.coords_at((2, 1)), (2, 1))
        assert p == q


    @pytest.mark.parametrize("space", ["A", "Y", "Yprin"])
    def test_belt_value(self, space):
        b = named_cartan("B2").b_matrix()
        root = principal_wide_root(b) if space == "Yprin" else b
        p = TropPoint(space, root, (2, -1, 1, 0)[: len(root[0])], (1,))
        for i in (1, 2):
            for m in range(-3, 4):
                addr = canonical_address(i, m, 2)
                assert p.belt_value(i, m) == p.coords_at(addr)[i - 1]


def _memo_free_coords(space, root, coords, anchor, word):
    """Coordinates after the unreduced walk anchor -> root -> word, by a
    plain chain of tropical mutations: no walker, no vertex table."""
    rule = trop_mutate_A if space == "A" else trop_mutate_Y
    b = root
    for k in anchor:
        b = mutate_matrix_raw(b, k)
    for k in tuple(reversed(anchor)) + tuple(word):
        coords = rule(coords, b, k)
        b = mutate_matrix_raw(b, k)
    return coords


TYPES = ["A1", "A3", "B3", "G2"]


@st.composite
def trop_points(draw):
    name = draw(st.sampled_from(TYPES))
    space = draw(st.sampled_from(["A", "Y", "Yprin"]))
    b = named_cartan(name).b_matrix()
    r = len(b)
    root = principal_wide_root(b) if space == "Yprin" else b
    coords = tuple(draw(st.lists(st.integers(-4, 4), min_size=len(root[0]), max_size=len(root[0]))))
    anchor = tuple(draw(st.lists(st.integers(1, r), max_size=8)))
    return space, root, coords, anchor, r


class TestCoordsAtOracle:
    @settings(max_examples=120, deadline=None)
    @given(trop_points(), st.data())
    def test_equals_memo_free_chain(self, point, data):
        space, root, coords, anchor, r = point
        p = TropPoint(space, root, coords, anchor)
        for _ in range(4):
            word = tuple(data.draw(st.lists(st.integers(1, r), max_size=12)))
            expected = _memo_free_coords(space, root, coords, anchor, word)
            assert p.coords_at(word) == expected

    @settings(max_examples=80, deadline=None)
    @given(trop_points(), st.lists(st.tuples(st.integers(1, 3), st.integers(-6, 6)), max_size=12))
    def test_belt_value_reads_the_belt_vertex(self, point, cells):
        space, root, coords, anchor, r = point
        p = TropPoint(space, root, coords, anchor)
        q = TropPoint(space, root, coords, anchor)
        for i, m in cells:
            i = min(i, r)
            assert p.belt_value(i, m) == q.coords_at(canonical_address(i, m, r))[i - 1]


class TestBeltRays:
    """Belt reads index a point's line of belt columns: column m >= 0 is
    entry m + 1, column m < 0 entry m, and entry 0 is the root."""

    @pytest.mark.parametrize("space", ["A", "Y", "Yprin"])
    def test_index_outside_the_rank_raises(self, space):
        # place m * r + i - 1 of i = 0 or r + 1 is a cell of the next or
        # previous column; the index is checked before the line is read
        b = named_cartan("B2").b_matrix()
        root = principal_wide_root(b) if space == "Yprin" else b
        p = TropPoint(space, root, (2, -1, 1, 0)[: len(root[0])])
        for m in range(-2, 3):
            for i in (0, 3):
                with pytest.raises(DimensionMismatch):
                    p.belt_value(i, m)

    @pytest.mark.parametrize("space, kept", [("A", 1), ("Y", 2)])
    def test_overflowing_step_appends_nothing(self, space, kept):
        # the triple bond of G2 pushes near-limit coordinates past 2^63 on
        # the negative belt: at its first step in A, at its third in Y, so
        # the line keeps its root entry, and in Y column -1 as well
        big = 2**62 + 2**61
        b = named_cartan("G2").b_matrix()
        root = transpose(b) if space == "A" else b
        p = TropPoint(space, root, (big, big))
        backward = p._belt.behind
        with pytest.raises(TropOverflow):
            p.belt_value(1, -3)
        assert len(backward) == kept
        entries = list(backward)
        with pytest.raises(TropOverflow):
            p.belt_value(1, -3)
        assert backward == entries
        # every cell, read later, is what the tree walker gives, overflow
        # included
        q = TropPoint(space, root, (big, big))
        for m in range(-4, 5):
            for i in (1, 2):
                try:
                    expected = q.coords_at(canonical_address(i, m, 2))[i - 1]
                except TropOverflow:
                    with pytest.raises(TropOverflow):
                        p.belt_value(i, m)
                else:
                    assert p.belt_value(i, m) == expected
        assert backward == entries

    def test_threads_read_one_point_and_one_function(self):
        cartan = named_cartan("E6")
        b = belts(cartan).b
        coords, values = (3, -2, 1, 0, -4, 2), (1, -1, 2, -3, 0, 2)
        windows = [
            [(i, m) for m in range(-12 + 4 * t, 1 + 4 * t) for i in range(1, 7)]
            for t in range(6)
        ]
        cells = sorted({cell for window in windows for cell in window})
        point = TropPoint("Y", b, coords)
        function = FriezeFunction.from_slice("cluster-additive", cartan, values)
        expected = {c: (point.belt_value(*c), function.value(*c)) for c in cells}
        for trial in range(4):
            point = TropPoint("Y", b, coords)
            function = FriezeFunction.from_slice("cluster-additive", cartan, values)
            lines = (point._belt, function._line)
            steps = [_count_steps(line) for line in lines]
            results = [None] * 6
            start = threading.Barrier(6)

            def worker(t):
                order = list(windows[t])
                random.Random(6 * trial + t).shuffle(order)
                start.wait(timeout=60)
                results[t] = {c: (point.belt_value(*c), function.value(*c)) for c in order}

            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            for window, result in zip(windows, results):
                assert result == {c: expected[c] for c in window}
            # each entry but entry 0 was computed once, each side in order
            # outward from 0
            for line, places in zip(lines, steps):
                assert [s for s in places if s > 0] == list(range(1, len(line.ahead)))
                assert [s for s in places if s < 0] == list(
                    range(-1, -len(line.behind), -1)
                )

    @pytest.mark.parametrize("name", ["A1", "G2", "F4", "E6"])
    @pytest.mark.parametrize("space", ["A", "Y", "Yprin"])
    def test_belt_column_reads_the_belt_values(self, space, name):
        b = named_cartan(name).b_matrix()
        root = principal_wide_root(b) if space == "Yprin" else b
        rng = random.Random(len(root[0]))
        coords = tuple(rng.randint(-3, 3) for _ in root[0])
        # separate points, so that no read feeds another: both belt reads
        # against the tree walker at the belt vertices
        by_column = TropPoint(space, root, coords)
        by_value = TropPoint(space, root, coords)
        by_walk = TropPoint(space, root, coords)
        r = len(b)
        for m in range(-5, 6):
            expected = tuple(
                by_walk.coords_at(canonical_address(i, m, r))[i - 1]
                for i in range(1, r + 1)
            )
            assert by_column.belt_column(m) == expected
            assert tuple(by_value.belt_value(i, m) for i in range(1, r + 1)) == expected

    @pytest.mark.parametrize("name", ["A1", "G2", "F4", "E6"])
    @pytest.mark.parametrize("space", ["A", "Y"])
    def test_belt_columns_share_their_plans(self, space, name):
        # the square belt matrices repeat from column to column, so every
        # column past 1 and past -1 holds its neighbour's plans; column 0
        # has no plan for the root
        b = named_cartan(name).b_matrix()
        r = len(b)
        TropPoint(space, b, (1,) * r).belt_column(4)
        line = tropical._plans.items[space, b].belt
        assert len(line.get(0)) == r - 1
        for m in (2, 3, -2, -3):
            near = line.get(m - 1 if m > 0 else m + 1)
            assert line.get(m) is near and len(near) == r

    def test_near_limit_point_reads_up_to_its_overflow(self):
        # building steps nothing along the belt; the first step of column 0
        # overflows, so of column 0 only its root cell reads, while column
        # -1 steps the other way and stays in range
        big = 2**62 + 2**61
        b = named_cartan("G2").b_matrix()
        p = TropPoint("Y", b, (big, big))
        q = TropPoint("Y", b, (big, big))
        assert len(p._belt.ahead) == len(p._belt.behind) == 1
        assert p.belt_value(1, 0) == big
        assert p.belt_column(-1) == (-big, -big) == tuple(
            q.coords_at(canonical_address(i, -1, 2))[i - 1] for i in (1, 2)
        )
        with pytest.raises(TropOverflow):
            p.belt_column(0)
        with pytest.raises(TropOverflow):
            p.belt_value(2, 0)
        with pytest.raises(TropOverflow):
            q.coords_at(canonical_address(2, 0, 2))
        assert len(p._belt.ahead) == 1

    @pytest.mark.parametrize("space, kept", [("A", 1), ("Y", 2)])
    def test_overflowing_column_read_appends_nothing(self, space, kept):
        # as test_overflowing_step_appends_nothing, a column at a time
        big = 2**62 + 2**61
        b = named_cartan("G2").b_matrix()
        root = transpose(b) if space == "A" else b
        p = TropPoint(space, root, (big, big))
        forward, backward = p._belt.ahead, p._belt.behind
        with pytest.raises(TropOverflow):
            p.belt_column(-3)
        assert len(backward) == kept and len(forward) == 1
        entries = list(backward)
        with pytest.raises(TropOverflow):
            p.belt_column(-3)
        assert backward == entries
        # a column read raises exactly when one of its cells does, read by
        # the tree walker, and else gives the walker's values
        q = TropPoint(space, root, (big, big))
        for m in range(-4, 5):
            try:
                expected = tuple(
                    q.coords_at(canonical_address(i, m, 2))[i - 1] for i in (1, 2)
                )
            except TropOverflow:
                with pytest.raises(TropOverflow):
                    p.belt_column(m)
            else:
                assert p.belt_column(m) == expected
        assert backward == entries

    def test_threads_read_columns_of_one_point(self):
        b = belts(named_cartan("E6")).b
        coords = (3, -2, 1, 0, -4, 2)
        windows = [list(range(-12 + 4 * t, 1 + 4 * t)) for t in range(6)]
        reference = TropPoint("Y", b, coords)
        expected = {m: reference.belt_column(m) for m in range(-12, 22)}
        for trial in range(4):
            point = TropPoint("Y", b, coords)
            places = _count_steps(point._belt)
            results = [None] * 6
            start = threading.Barrier(6)

            def worker(t):
                order = list(windows[t])
                random.Random(6 * trial + t).shuffle(order)
                start.wait(timeout=60)
                results[t] = {m: point.belt_column(m) for m in order}

            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            for window, result in zip(windows, results):
                assert result == {m: expected[m] for m in window}
            # each column was stepped once, each side outward from 0
            line = point._belt
            assert [s for s in places if s > 0] == list(range(1, len(line.ahead)))
            assert [s for s in places if s < 0] == list(
                range(-1, -len(line.behind), -1)
            )


def _count_steps(line):
    """Record the index of each step the line takes."""
    places = []
    step = line.step

    def counting(value, s):
        places.append(s)
        return step(value, s)

    line.step = counting
    return places


class TestReexpress:
    @pytest.mark.parametrize("kind", ["A", "Y"])
    @pytest.mark.parametrize("name", ["A2", "B2"])
    def test_chart_round_trip(self, kind, name):
        """The cluster of seed t, given in the root chart and re-expressed
        along t's address into chart t, is the coordinate variables."""
        b0 = named_cartan(name).b_matrix()
        pattern = seed_pattern(kind, b0)
        coordinates = tuple(RF.variable(i, 2) for i in (1, 2))
        graph = enumerate_exchange_graph(kind, b0, 100)
        assert len(graph.seeds) == {"A2": 5, "B2": 6}[name]
        for seed in graph.seeds.values():
            addr = seed.address
            cluster = seed.cluster
            for pos, k in enumerate(addr):
                cluster = tuple(reexpress(x, pattern, addr[:pos], k) for x in cluster)
            assert cluster == coordinates, addr


class TestPMap:
    def test_zero(self):
        assert p_map(TropPoint("A", B_A2, (0, 0))).at_root() == (0, 0)

    def test_root_linear(self):
        assert p_map(TropPoint("A", B_A2, (1, 0))).at_root() == (0, -1)

    def test_chart_linearity(self):
        rng = random.Random(12)
        pattern = matrix_pattern(B_A2)
        for _ in range(30):
            coords = tuple(rng.randint(-3, 3) for _ in range(2))
            delta = TropPoint("A", B_A2, coords)
            rho = p_map(delta)
            for addr in [(1,), (2, 1), (1, 2, 1), (2, 1, 2, 1)]:
                bt = pattern.at(addr)
                assert rho.coords_at(addr) == row_times_matrix(
                    delta.coords_at(addr), bt
                )


class TestBetaMap:
    def test_zero(self):
        d = TropPoint("A", BT_A2, (0, 0))
        assert beta_map(d, B_A2).at_root() == (0, 0, 0, 0)

    def test_root_blocks(self):
        d = TropPoint("A", BT_A2, (2, -1))
        assert beta_map(d, B_A2).at_root() == row_times_matrix(
            (2, -1), transpose(B_A2)
        ) + (2, -1)

    def test_coherence_at_mutated_vertices(self):
        rng = random.Random(14)
        for _ in range(15):
            coords = tuple(rng.randint(-3, 3) for _ in range(2))
            d = TropPoint("A", BT_A2, coords)
            img = beta_map(d, B_A2)
            for addr in [(1,), (2,), (1, 2), (2, 1, 2)]:
                bt, _, ct, _ = gcf_pattern(B_A2).at(addr)
                dt = d.coords_at(addr)
                expect = row_times_matrix(dt, transpose(bt)) + row_times_matrix(
                    dt, transpose(ct)
                )
                assert img.coords_at(addr) == expect

    def test_wide_root_shape(self):
        wide = principal_wide_root(B_A2)
        assert wide == ((0, 1, 1, 0), (-1, 0, 0, 1))


class TestGVectors:
    def test_basis_vector_at_root(self):
        g = g_vector_of_cluster_monomial(B_A2, (), (0, 1))
        assert g.at_root() == (0, -1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(NegativeExponent):
            g_vector_of_cluster_monomial(B_A2, (), (-1, 0))

    def test_first_mutated_variable(self):
        # oracle: the g-vector coordinates at the root are E_A^+ applied to
        # the denominator vector there
        cartan = named_cartan("A2")
        b = belts(cartan)
        g = g_vector_of_cluster_monomial(B_A2, canonical_address(1, 1, 2), (1, 0))
        dvec = b.x_sv(1, 1).denominator_vector()
        assert g.at_root() == PLMap(cartan, "+").apply(dvec)
        assert g.at_root() == (1, -1)

    def test_well_defined_from_two_addresses(self):
        # x2 sits in the root cluster and in the cluster at (1,): both
        # presentations give the same tropical point
        g1 = g_vector_of_cluster_monomial(B_A2, (), (0, 1))
        g2 = g_vector_of_cluster_monomial(B_A2, (1,), (0, 1))
        assert g1 == g2


class TestDCompat:
    def test_self_is_minus_one(self):
        cartan = named_cartan("A2")
        b = belts(cartan)
        for i, m in finite_context(cartan).roots.fundamental_domain():
            d = d_trop_point("A", b.bt, canonical_address(i, m, 2), i)
            assert d_compat_degree(d, b.x_sv(i, m)) == -1

    def test_compatible_distinct_is_zero(self):
        cartan = named_cartan("A2")
        ctx = finite_context(cartan)
        b = ctx.belts
        for seed in ctx.a_graph().seeds.values():
            for i, j in itertools.permutations(range(2), 2):
                d = d_trop_point("A", b.bt, seed.address, i + 1)
                assert d_compat_degree(d, seed.cluster[j]) == 0

    @pytest.mark.parametrize("i", [5, 3, 0, -1, True, 1.0])
    def test_index_out_of_range(self, i):
        # -e_i has no -1 entry for i outside 1..r, and True equals 1
        with pytest.raises(DimensionMismatch, match="out of range"):
            d_trop_point("A", BT_A2, (1,), i)

    def test_denominator_vector_entry(self):
        cartan = named_cartan("A2")
        b = belts(cartan)
        d = d_trop_point("A", b.bt, (), 1)
        x21 = b.x_sv(2, 1)
        assert d_compat_degree(d, x21) == 1
        assert x21.denominator_vector() == (1, 1)

    def test_matches_denominator_vectors_everywhere(self):
        cartan = named_cartan("B2")
        ctx = finite_context(cartan)
        b = ctx.belts
        dom = ctx.roots.fundamental_domain()
        for i, m in dom:
            d = d_trop_point("A", b.bt, canonical_address(i, m, 2), i)
            for j, n in dom:
                x = b.x_sv(j, n)
                got = d_compat_degree(d, x)
                # reference: exponent read from the reduced expansion at the
                # chart containing the variable (i, m)
                from cluster_friezes.mutation import seed_pattern
                from cluster_friezes.tropical import reexpress

                pattern = seed_pattern("A", b.bt)
                addr = canonical_address(i, m, 2)
                expr = x
                for pos, k in enumerate(addr):
                    expr = reexpress(expr, pattern, addr[:pos], k)
                assert got == expr.denominator_vector()[i - 1]


def _cone_case(r):
    """An r x r matrix with entries in -2..2, a u in 0..3 and an offset."""
    row = st.tuples(*[st.integers(-2, 2)] * r)
    return st.tuples(
        st.tuples(*[row] * r),
        st.tuples(*[st.integers(0, 3)] * r),
        st.tuples(*[st.integers(-4, 4)] * r),
    )


def _assert_circuits_in_kernel(m, circuits):
    for support, w in circuits:
        assert all(x > 0 for x in w)
        assert not any(sum(row[j] * x for j, x in zip(support, w)) for row in m)


class TestAdmissibility:
    def test_cluster_variable_true(self):
        cartan = named_cartan("A2")
        b = belts(cartan)
        res = check_admissible_A(b.x_sv(1, 1), b.rho_im(1, 1), depth=12)
        assert res is True

    def test_two_term_sum_false(self):
        x12 = RF.variable(1, 2) + RF.variable(2, 2)
        for coords in itertools.product(range(-2, 3), repeat=2):
            assert check_admissible_A(x12, TropPoint("Y", B_A2, coords), 12) is False

    def test_one_against_zero(self):
        d0 = TropPoint("A", BT_A2, (0, 0))
        assert check_admissible_Y(RF.one(2), d0, depth=12) is True

    @pytest.mark.parametrize(
        "depth, expected",
        [(0, UNKNOWN), (1, UNKNOWN), (2, UNKNOWN), (3, True), (4, True)],
    )
    def test_depth_edge(self, depth, expected):
        """The A2 exchange graph's BFS levels are 0, 1, 1, 2, 2: a walk that
        reaches a chart at level `depth` has not seen the graph close."""
        b = belts(named_cartan("A2"))
        x1 = RF.variable(1, 2)
        rho = TropPoint("Y", b.b, (-1, 0))
        delta = TropPoint("A", b.bt, (-1, 0))
        assert check_admissible_A(x1, rho, depth) is expected
        assert check_admissible_Y(x1, delta, depth) is expected

    def test_affine_graph_never_closes(self):
        b = belts(CartanMatrix([[2, -2], [-2, 2]]))
        rho = TropPoint("Y", b.b, (-1, 0))
        assert check_admissible_A(RF.variable(1, 2), rho, 6) is UNKNOWN

    def test_uniqueness_among_sampled(self):
        cartan = named_cartan("A2")
        b = belts(cartan)
        x = b.x_sv(1, 1)
        good = b.rho_im(1, 1).at_root()
        for coords in itertools.product(range(-2, 3), repeat=2):
            expected = coords == good
            res = check_admissible_A(x, TropPoint("Y", B_A2, coords), 12)
            assert res is (True if expected else False)

    def test_a3_root_monomial_true(self):
        # every B_t of A3 is singular; two mutations away x1*x2*x3 reads
        # x2(1 + x2)^2/(x1' x3'), with coefficient 2 at its pointed exponent
        ctx = finite_context(named_cartan("A3"))
        x = [RF.variable(i, 3) for i in (1, 2, 3)]
        rho = TropPoint("Y", ctx.belts.b, (-1, -1, -1))
        depth = 2 * len(ctx.a_graph().seeds)
        assert check_admissible_A(x[0] * x[1] * x[2], rho, depth) is True
        for coords in itertools.product(range(-1, 2), repeat=3):
            point = TropPoint("Y", ctx.belts.b, coords)
            assert check_admissible_A(x[0] + x[1], point, depth) is False

    def test_pointed_coefficient_above_one(self):
        # x2(1 + x2)^2/(x1 x3) pointed at (-1, 2, -1): the offsets -e2 and e2
        # are columns of the cone matrix, and u = (1, 0, 1) >= 0 spans its
        # kernel, so the pointed term may collect coefficient 2
        x1, x2, x3 = (RF.variable(i, 3) for i in (1, 2, 3))
        expansion = x2 * (x2 + 1) ** 2 / (x1 * x3)
        singular = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
        mixed_kernel = ((0, 1, 0), (-1, 0, -1), (0, 1, 0))
        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert _positive_circuits(singular) == [((0, 2), (1, 1))]
        assert _positive_circuits(identity) == []
        assert _positive_circuits(mixed_kernel) == []
        circuits = _positive_circuits(singular)
        assert _pointed_form_ok(expansion, (-1, 2, -1), singular, circuits) is True
        # the identity's cone Z_{>=0}^3 (the Y side's) holds no offset -e2
        no_circuits = _positive_circuits(identity)
        assert _pointed_form_ok(expansion, (-1, 2, -1), identity, no_circuits) is False
        assert _pointed_form_ok(-expansion, (-1, 2, -1), singular, circuits) is False

    def test_circuits_once_per_chart_matrix(self, monkeypatch):
        """Positive circuits are kept per chart matrix for the process: two
        checks over one pattern compute those of each distinct B_t^T once."""
        calls = []

        def counted(m):
            calls.append(m)
            return _positive_circuits(m)

        monkeypatch.setattr(tropical, "_circuits", mutation._Registry())
        monkeypatch.setattr(tropical, "_positive_circuits", counted)
        ctx = finite_context(named_cartan("A3"))
        x = RF.variable(1, 3) * RF.variable(2, 3) * RF.variable(3, 3)
        rho = TropPoint("Y", ctx.belts.b, (-1, -1, -1))
        depth = 2 * len(ctx.a_graph().seeds)
        assert check_admissible_A(x, rho, depth) is True
        first = list(calls)
        assert check_admissible_A(x, rho, depth) is True
        assert calls == first
        assert len(first) == len(set(first)) > 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    def test_identity_cone_is_the_nonnegative_orthant(self, offset):
        """The Y side's cone is the identity's: an offset is in it exactly
        when it is componentwise nonnegative."""
        identity = mutation._identity(len(offset))
        assert _in_cone(identity, offset, []) == all(x >= 0 for x in offset)

    @pytest.mark.parametrize("name", ["B3", "C3"])
    def test_in_cone_against_box_search(self, name):
        """Every B_t of B3 and C3 is singular with a one-dimensional kernel;
        _in_cone decides it exactly, as a box enumeration of u >= 0 does for
        offsets this small."""
        bt = transpose(named_cartan(name).b_matrix())
        graph = enumerate_exchange_graph("A", bt, 1000)
        cones = {seed.principal_part() for seed in graph.seeds.values()}
        box = list(itertools.product(range(9), repeat=3))
        offsets = list(itertools.product(range(-2, 3), repeat=3))
        decided = set()
        for cone in cones:
            images = {row_times_matrix(u, transpose(cone)) for u in box}
            circuits = _positive_circuits(cone)
            for offset in offsets:
                verdict = _in_cone(cone, offset, circuits)
                assert verdict == (offset in images)
                decided.add(verdict)
        assert decided == {True, False}

    @pytest.mark.parametrize("name", ["B3", "C3"])
    def test_positive_circuits_against_box_search(self, name):
        """Every B_t of B3 and C3 has a positive circuit exactly when a box
        enumeration finds a nonzero u >= 0 with B_t u = 0, and each circuit
        vector lies in the kernel."""
        bt = transpose(named_cartan(name).b_matrix())
        graph = enumerate_exchange_graph("A", bt, 1000)
        cones = {seed.principal_part() for seed in graph.seeds.values()}
        box = [u for u in itertools.product(range(9), repeat=3) if any(u)]
        decided = set()
        for cone in cones:
            images = (row_times_matrix(u, transpose(cone)) for u in box)
            circuits = _positive_circuits(cone)
            assert bool(circuits) == any(not any(image) for image in images)
            _assert_circuits_in_kernel(cone, circuits)
            decided.add(bool(circuits))
        assert decided == {True, False}

    def test_two_dimensional_kernels_against_box_search(self):
        """Every B_t of D4 has rank 2, a two-dimensional kernel.  _in_cone
        decides every offset in -1..1 exactly: its verdict is membership in
        the image of the box 0..6 (218 True and 2,536 False verdicts over
        the 34 matrices), and a matrix has a positive circuit exactly when
        the box holds a nonzero u >= 0 with B_t u = 0."""
        ctx = finite_context(named_cartan("D4"))
        cones = {seed.principal_part() for seed in ctx.a_graph().seeds.values()}
        assert len(cones) == 34
        box = list(itertools.product(range(7), repeat=4))
        offsets = list(itertools.product(range(-1, 2), repeat=4))
        verdicts = []
        for cone in cones:
            assert mutation._gauss_jordan(cone)[0] == 0
            images = {row_times_matrix(u, transpose(cone)) for u in box}
            circuits = _positive_circuits(cone)
            for offset in offsets:
                verdict = _in_cone(cone, offset, circuits)
                assert verdict == (offset in images), (cone, offset)
                verdicts.append(verdict)
            zero = (0, 0, 0, 0)
            assert bool(circuits) == any(
                row_times_matrix(u, transpose(cone)) == zero for u in box if any(u)
            )
            _assert_circuits_in_kernel(cone, circuits)
        assert (verdicts.count(True), verdicts.count(False)) == (218, 2536)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(_cone_case))
    # the only preimage has u_1 = 1, the largest u_1 at a vertex
    @example((((-2, 1, 2), (0, 2, 1), (2, -1, -2)), (0, 0, 1), (0, 0, 0)))
    def test_in_cone_property(self, case):
        """On random integer matrices, the image of every u in 0..3 is in the
        cone, and a False verdict has no preimage u in 0..6."""
        m, u, offset = case
        r = len(m)
        circuits = _positive_circuits(m)
        _assert_circuits_in_kernel(m, circuits)
        assert _in_cone(m, mutation.matrix_times_col(m, u), circuits) is True
        if _in_cone(m, offset, circuits) is False:
            assert all(
                mutation.matrix_times_col(m, u) != offset
                for u in itertools.product(range(7), repeat=r)
            )

    def test_y_side_globals(self):
        cartan = named_cartan("A2")
        ctx = finite_context(cartan)
        b = ctx.belts
        for i, m in ctx.roots.fundamental_domain():
            assert check_admissible_Y(b.y(i, m), b.delta_sv_im(i, m), 12) is True


class TestVariableCorrespondence:
    def test_d_point_of_y_is_g_vector_of_matching_x(self):
        # the index-preserving correspondence between Y-variables and cluster
        # variables of the dual A-space matches d-tropical points with
        # g-vectors in both directions
        cartan = named_cartan("A2")
        ctx = finite_context(cartan)
        b = ctx.belts
        for seed in enumerate_exchange_graph("Y", b.b).seeds.values():
            for i in range(1, 3):
                d_y = d_trop_point("Y", b.b, seed.address, i)
                g_of_x = g_vector_of_cluster_monomial(
                    b.b, seed.address, tuple(1 if j == i - 1 else 0 for j in range(2))
                )
                assert d_y == g_of_x
        for i, m in ctx.roots.fundamental_domain():
            addr = canonical_address(i, m, 2)
            assert b.delta_sv_im(i, m) == d_trop_point("A", b.bt, addr, i)
