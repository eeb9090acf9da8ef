import random
import sys
import threading
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cluster_friezes import finite, friezes
from cluster_friezes.errors import DimensionMismatch, NotAdmissible, TropOverflow
from cluster_friezes.finite import finite_context, named_cartan
from cluster_friezes.friezes import (
    KINDS,
    CartanMatrix,
    FriezeFunction,
    PLMap,
    belts,
    ensemble_map_friezes,
    f_from_admissible_y,
    f_from_trop_point,
    find_symmetrizer,
    generic_A_frieze,
    generic_Y_frieze,
    hammock,
    k_from_admissible_x,
    k_from_trop_point,
    shift,
    shift_trop,
    slice_step,
)
from cluster_friezes.laurent import IntLaurentPoly, RationalFunction as RF, check_trop
from cluster_friezes.mutation import (
    canonical_address,
    is_global_Y_monomial,
    matrix_pattern,
    pp,
    transpose,
)
from cluster_friezes.tropical import TropPoint, p_map

A2 = named_cartan("A2")
G2 = named_cartan("G2")
_B = 2**62


def mat_neg(m):
    return tuple(tuple(-x for x in row) for row in m)


def rf(i, n=2):
    return RF.variable(i, n)


class TestRecursions:
    def test_cluster_additive_hammock_slice(self):
        k = FriezeFunction.from_slice("cluster-additive", A2, (-1, 0))
        assert [k.value(1, m) for m in range(3)] == [-1, 1, 0]
        assert [k.value(2, m) for m in range(3)] == [0, 1, -1]

    def test_tropical_frieze_table(self):
        f = FriezeFunction.from_slice("tropical-frieze", A2, (1, 0))
        expected = {
            (1, 1): -1, (2, 1): 0, (1, 2): 1, (2, 2): 1, (1, 3): 0, (2, 3): -1,
        }
        assert all(f.value(i, m) == v for (i, m), v in expected.items())

    def test_zero_slice(self):
        for kind in ("additive", "cluster-additive", "tropical-frieze"):
            f = FriezeFunction.from_slice(kind, A2, (0, 0))
            assert all(f.value(i, m) == 0 for i in (1, 2) for m in range(-6, 7))

    def test_additive_table(self):
        d = FriezeFunction.from_slice("additive", A2, (1, 0))
        assert (d.value(1, 1), d.value(2, 1), d.value(1, 2)) == (-1, -1, 0)

    def test_additive_linearity(self):
        rng = random.Random(3)
        for _ in range(20):
            u = tuple(rng.randint(-3, 3) for _ in range(2))
            v = tuple(rng.randint(-3, 3) for _ in range(2))
            s = tuple(a + b for a, b in zip(u, v))
            du, dv, ds = (
                FriezeFunction.from_slice("additive", A2, w) for w in (u, v, s)
            )
            assert all(
                ds.value(i, m) == du.value(i, m) + dv.value(i, m)
                for i in (1, 2)
                for m in range(-5, 6)
            )

    def test_backward_forward_consistency(self):
        rng = random.Random(5)
        for kind in ("additive", "cluster-additive", "tropical-frieze"):
            for _ in range(10):
                v = tuple(rng.randint(-3, 3) for _ in range(2))
                f = FriezeFunction.from_slice(kind, A2, v)
                g = FriezeFunction.from_slice(kind, A2, f.slice_at(-4), m0=-4)
                assert f.agrees_with(g, -6, 6)
                assert f.satisfies_recursion(-6, 6)


class TestGenericFriezes:
    def test_root_slice(self):
        for i in (1, 2):
            assert generic_A_frieze(A2, i, 0) == rf(i)
        # y(1,0) is the first root variable; y(2,0) already differs from the
        # second one because the belt vertex t(2,0) is not the root
        assert generic_Y_frieze(A2, 1, 0) == rf(1)
        assert generic_Y_frieze(A2, 2, 0) == rf(2) * (RF.one(2) + rf(1))

    def test_a2_values(self):
        one = RF.one(2)
        assert generic_A_frieze(A2, 1, 1) == (one + rf(2)) / rf(1)
        assert generic_A_frieze(A2, 2, 1) == (one + rf(1) + rf(2)) / (rf(1) * rf(2))

    def test_knitting_identity_x(self):
        # x(i,m) x(i,m+1) = 1 + prod x(j,m)^{-a_ij} prod x(j,m+1)^{-a_ij}
        for name in ("A2", "A3", "B2", "G2"):
            cartan = named_cartan(name)
            at = cartan.transpose().entries
            r = cartan.rank
            for m in range(-2, 3):
                for i in range(1, r + 1):
                    lhs = generic_A_frieze(cartan, i, m) * generic_A_frieze(
                        cartan, i, m + 1
                    )
                    rhs = RF.one(r)
                    for j in range(i + 1, r + 1):
                        rhs = rhs * generic_A_frieze(cartan, j, m) ** (
                            -at[j - 1][i - 1]
                        )
                    for j in range(1, i):
                        rhs = rhs * generic_A_frieze(cartan, j, m + 1) ** (
                            -at[j - 1][i - 1]
                        )
                    assert lhs == rhs + 1

    def test_knitting_identity_y(self):
        for name in ("A2", "B2"):
            cartan = named_cartan(name)
            a = cartan.entries
            r = cartan.rank
            one = RF.one(r)
            for m in range(-2, 3):
                for i in range(1, r + 1):
                    lhs = generic_Y_frieze(cartan, i, m) * generic_Y_frieze(
                        cartan, i, m + 1
                    )
                    rhs = one
                    for j in range(i + 1, r + 1):
                        rhs = rhs * (one + generic_Y_frieze(cartan, j, m)) ** (
                            -a[j - 1][i - 1]
                        )
                    for j in range(1, i):
                        rhs = rhs * (one + generic_Y_frieze(cartan, j, m + 1)) ** (
                            -a[j - 1][i - 1]
                        )
                    assert lhs == rhs

    def test_y_entries_are_global(self):
        b = belts(A2)
        one = RF.one(2)
        assert b.y(2, 0) == rf(2) * (one + rf(1))
        assert b.y(1, 1) == (one + rf(2) + rf(1) * rf(2)) / rf(1)

    def test_dual_belt_patterns(self):
        """-B(A)^T = B(A^T): the Y-space of -B^T is the Y-space of B(A^T),
        and the A-space of -B is the A-space of B(A^T)^T, so the second dual
        pair of A is the pair that belts(A^T) reads.  This pins the matrix
        identity; it does not compare two computations."""
        for name in ("A2", "B2", "C3", "G2", "B3", "F4"):
            cartan = named_cartan(name)
            b, bt = belts(cartan), belts(cartan.transpose())
            assert mat_neg(transpose(b.b)) == bt.b
            assert mat_neg(b.b) == bt.bt


class TestTropicalRealizations:
    def test_zero_point(self):
        f = f_from_trop_point(TropPoint("A", belts(A2).bt, (0, 0)), A2)
        assert all(f.value(i, m) == 0 for i in (1, 2) for m in range(-5, 6))

    def test_coordinate_readback_table(self):
        f = f_from_trop_point(TropPoint("A", belts(A2).bt, (1, 0)), A2)
        rec = FriezeFunction.from_slice("tropical-frieze", A2, (1, 0))
        assert f.agrees_with(rec, -6, 6)

    def test_slice_readback(self):
        p = TropPoint("A", belts(A2).bt, (2, -1))
        f = f_from_trop_point(p, A2)
        for m in range(-4, 5):
            assert p.coords_at(canonical_address(1, m, 2)) == f.slice_at(m)

    def test_k_from_trop_point_hammock(self):
        k = k_from_trop_point(TropPoint("Y", belts(A2).b, (-1, 0)), A2)
        assert k.agrees_with(hammock(A2, 1, 0), -6, 6)

    def test_slice_laws(self):
        rng = random.Random(7)
        eplus, eminus = PLMap(A2, "+"), PLMap(A2, "-")
        for _ in range(25):
            coords = tuple(rng.randint(-3, 3) for _ in range(2))
            rho = TropPoint("Y", belts(A2).b, coords)
            k = k_from_trop_point(rho, A2)
            for m in range(-3, 4):
                assert rho.coords_at(canonical_address(1, m, 2)) == eplus.apply(
                    k.slice_at(m)
                )
                assert rho.coords_at(canonical_address(1, m + 1, 2)) == tuple(
                    -v for v in eminus.apply(k.slice_at(m))
                )


class TestPLMaps:
    def test_zero(self):
        for sign in "+-":
            assert PLMap(A2, sign).apply((0, 0)) == (0, 0)

    def test_a2_values(self):
        ep = PLMap(A2, "+")
        assert ep.apply((1, 1)) == (1, 0)
        assert ep.apply((-1, 1)) == (-1, 1)

    def test_round_trips(self):
        rng = random.Random(9)
        for name in ("A2", "A3", "B2", "G2"):
            cartan = named_cartan(name)
            ep, em = PLMap(cartan, "+"), PLMap(cartan, "-")
            for _ in range(50):
                v = tuple(rng.randint(-6, 6) for _ in range(cartan.rank))
                assert ep.invert(ep.apply(v)) == v
                assert em.invert(em.apply(v)) == v

    def test_slice_step(self):
        assert slice_step(A2, (0, 0)) == (0, 0)
        assert slice_step(A2, (-1, 0)) == (1, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: slice_step(A2, (1, 2, 3)),
            lambda: PLMap(A2, "+").apply((1, 2, 3)),
            lambda: PLMap(A2, "-").apply((1,)),
            lambda: PLMap(A2, "+").invert((5, 0, 0)),
            lambda: PLMap(A2, "-").invert((5,)),
        ],
        ids=["slice-step", "apply-long", "apply-short", "invert-long", "invert-short"],
    )
    def test_wrong_length_refused(self, call):
        with pytest.raises(DimensionMismatch, match="length"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: PLMap(A2, "+").apply((0.5, 1)),
            lambda: PLMap(A2, "-").apply((0, True)),
            lambda: PLMap(A2, "+").invert((1.0, 0)),
            lambda: PLMap(A2, "-").invert(("1", 0)),
            lambda: slice_step(A2, (-1, 0.5)),
        ],
        ids=["apply-float", "apply-bool", "invert-float", "invert-str", "slice-step"],
    )
    def test_non_int_entries_refused(self, call):
        # (0.5, 1) once came back as (0.5, 0.5)
        with pytest.raises(TypeError, match="is not an int"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: PLMap(G2, "-").invert((_B, _B)),
            lambda: PLMap(G2, "+").invert((_B, _B)),
            lambda: PLMap(G2, "+").apply((_B, -_B)),
            lambda: PLMap(G2, "-").apply((-_B, _B)),
            lambda: slice_step(G2, (-_B, -_B)),
            lambda: ensemble_map_friezes(
                FriezeFunction.from_slice("tropical-frieze", G2, (_B - 1, _B - 1))
            ).slice_at(0),
        ],
        ids=["invert-minus", "invert-plus", "apply-plus", "apply-minus", "slice-step",
             "ensemble-map"],
    )
    def test_out_of_range_refused(self, call):
        # B = 2^62 on G2, whose bond is 1-3: these once returned (2^64, 2^62),
        # (2^62, 2^63), (2^62, -2^63), (-2^64, 2^62), (2^62, 2^63) and
        # (3 * 2^62 - 3, 2^63 - 2)
        with pytest.raises(TropOverflow):
            call()

    def test_in_range_edge_kept(self):
        top = 2**63 - 1
        assert PLMap(G2, "+").invert((_B, _B - 1)) == (_B, top)
        assert PLMap(G2, "+").apply((_B, -_B + 1)) == (_B, -top)

    def test_slice_step_matches_recursion(self):
        rng = random.Random(11)
        for _ in range(30):
            v = tuple(rng.randint(-4, 4) for _ in range(2))
            k = FriezeFunction.from_slice("cluster-additive", A2, v)
            assert slice_step(A2, v) == k.slice_at(1)


@st.composite
def cartans_with_vectors(draw):
    """A symmetrizable Cartan matrix of rank 1..6 and six integer vectors of
    its rank.  The matrix is symmetric, or has the bonds of a forest (each
    index j > 0 bonds to at most one i < j) with any pair of negative
    entries on a bond."""
    r = draw(st.integers(1, 6))
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    symmetric = draw(st.booleans())
    for j in range(1, r):
        for i in range(j) if symmetric else [draw(st.integers(0, j - 1))]:
            a[i][j] = draw(st.integers(-4, 0))
            if a[i][j]:
                a[j][i] = a[i][j] if symmetric else draw(st.integers(-4, -1))
    vector = st.tuples(*[st.integers(-(10**6), 10**6)] * r)
    return CartanMatrix(a), draw(st.lists(vector, min_size=6, max_size=6))


# the affine rank-2 matrices, whose bonds are 2-2 and 4-1
AFFINE_CASES = [
    (CartanMatrix(a), [(3, -2), (-1, 4), (0, 0), (-5, -5), (7, 1), (-2, 9)])
    for a in (((2, -2), (-2, 2)), ((2, -4), (-1, 2)))
]


def _pair_sum_by_formula(kind, cartan, col_m, col_m1, i):
    """S(i, m) summed over every j, as the knitting relation reads."""
    a, r = cartan.entries, cartan.rank
    bracket = pp if kind == "cluster-additive" else (lambda v: v)
    s = sum(-a[j][i] * bracket(col_m[j]) for j in range(i + 1, r))
    s += sum(-a[j][i] * bracket(col_m1[j]) for j in range(i))
    return pp(s) if kind == "tropical-frieze" else s


def _pl_by_formula(cartan, sign):
    """E^{+/-} and its inverse from the whole strict upper (lower) part."""
    a, r = cartan.entries, cartan.rank
    u = [
        [a[j][i] if (j < i if sign == "+" else j > i) else 0 for i in range(r)]
        for j in range(r)
    ]

    def apply(d):
        return tuple(d[i] + sum(pp(d[j]) * u[j][i] for j in range(r)) for i in range(r))

    def invert(v):
        d = [0] * r
        for i in range(r) if sign == "+" else range(r - 1, -1, -1):
            d[i] = v[i] - sum(pp(d[j]) * u[j][i] for j in range(r))
        return tuple(d)

    return apply, invert


class TestKnittingTerms:
    """The sparse kernels against the dense formulas they replace."""

    @settings(max_examples=80, deadline=None)
    @given(cartans_with_vectors())
    @example(AFFINE_CASES[0])
    @example(AFFINE_CASES[1])
    def test_pair_sum(self, case):
        """A column step, either way, solves every relation S(i, m) read
        by the dense formula; each is linear in its unknown, so that fixes
        the column."""
        cartan, vectors = case
        for kind in KINDS:
            f = FriezeFunction.from_slice(kind, cartan, vectors[0])
            step = f._line.step
            for col in vectors:
                for col_m, col_m1 in ((col, step(col, 1)), (step(col, -1), col)):
                    for i in range(cartan.rank):
                        assert col_m[i] + col_m1[i] == _pair_sum_by_formula(
                            kind, cartan, col_m, col_m1, i
                        )

    @settings(max_examples=80, deadline=None)
    @given(cartans_with_vectors())
    @example(AFFINE_CASES[0])
    @example(AFFINE_CASES[1])
    def test_pl_maps(self, case):
        cartan, vectors = case
        for sign in "+-":
            pl = PLMap(cartan, sign)
            apply, invert = _pl_by_formula(cartan, sign)
            for d in vectors:
                assert pl.apply(d) == apply(d)
                assert pl.invert(d) == invert(d)
                assert pl.invert(pl.apply(d)) == d


# every named type, the two affine rank-2 matrices, a wild and a hyperbolic
# one
KNITTED_CARTANS = {
    **{
        f"{family}{r}": named_cartan(f"{family}{r}")
        for family, (ranks, *_) in finite._DYNKIN.items()
        for r in ranks
    },
    "affine-2-2": AFFINE_CASES[0][0],
    "affine-4-1": AFFINE_CASES[1][0],
    "wild-3-3": CartanMatrix(((2, -3), (-3, 2))),
    "hyperbolic": CartanMatrix(((2, -2, 0), (-2, 2, -1), (0, -1, 2))),
}

# small cells, cells within 8 of the limit 2^63 - 1 on either side, and cells
# in between
_TOP = 2**63 - 1
_CELL = st.one_of(
    st.integers(-5, 5),
    st.integers(_TOP - 8, _TOP),
    st.integers(-_TOP, -_TOP + 8),
    st.integers(-(2**62), 2**62),
)


def _knit_by_formula(kind, cartan, col, s):
    """The column after col (s > 0) or before it (s < 0), one relation at a
    time by _pair_sum_by_formula, each new cell checked once solved; the
    outcome is the column, or the message of the first cell out of range."""
    r = cartan.rank
    new = [None] * r
    col_m, col_m1 = (col, new) if s > 0 else (new, col)
    try:
        for i in range(r) if s > 0 else range(r - 1, -1, -1):
            pair_sum = _pair_sum_by_formula(kind, cartan, col_m, col_m1, i)
            new[i] = check_trop(pair_sum - col[i])
    except TropOverflow as e:
        return str(e)
    return tuple(new)


class TestKnittingKernels:
    """Each compiled column step against the dense formula, cell by cell."""

    @pytest.mark.parametrize("name", sorted(KNITTED_CARTANS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_kernel_equals_formula(self, name, data):
        cartan = KNITTED_CARTANS[name]
        col = data.draw(st.tuples(*[_CELL] * cartan.rank))
        for kind in KINDS:
            step = friezes._knitter(kind, cartan._knitting)
            for s in (1, -1):
                try:
                    outcome = step(col, s)
                except TropOverflow as e:
                    outcome = str(e)
                assert outcome == _knit_by_formula(kind, cartan, col, s)

    def test_kernels_are_shared_by_value(self):
        # named_cartan builds a new matrix on every call; equal matrices
        # share one kernel per kind, and the slice line steps by it
        for kind in KINDS:
            f = FriezeFunction.from_slice(kind, named_cartan("E6"), (1,) * 6)
            assert f._line.step is friezes._knitter(kind, named_cartan("E6")._knitting)

    def test_overflow_stores_nothing(self):
        # v(1, 1) = 3 v(2, 0) - v(1, 0) = 2B leaves the range, so the line
        # keeps column 0 alone; backward, v(2, -1) = v(1, 0) - v(2, 0) = 0
        # and v(1, -1) = 3 v(2, -1) - v(1, 0) = -B
        big = 2**62 + 2**61
        f = FriezeFunction.from_slice("additive", named_cartan("G2"), (big, big))
        with pytest.raises(TropOverflow, match=str(2 * big)):
            f.slice_at(1)
        assert len(f._line.ahead) == 1
        assert f.slice_at(-1) == (-big, 0)


class TestHammocks:
    def test_defining_slice(self):
        h = hammock(A2, 2, 3)
        assert h.slice_at(3) == (0, -1)

    def test_bounded_below(self):
        ctx = finite_context(A2)
        for i, m in ctx.roots.fundamental_domain():
            h = hammock(A2, i, m)
            for j in (1, 2):
                for n in range(-4, 8):
                    v = h.value(j, n)
                    assert v >= -1
                    same = ctx.belts.x_sv(j, n) == ctx.belts.x_sv(i, m)
                    assert (v == -1) == same

    def test_is_tropical_frieze(self):
        h = hammock(A2, 1, 0)
        as_frieze = FriezeFunction("tropical-frieze", A2, h.slice_at)
        assert as_frieze.satisfies_recursion(-5, 5)


class TestAdmissibleRealizations:
    def test_constant_one(self):
        f = f_from_admissible_y(RF.one(2), A2)
        assert all(f.value(i, m) == 0 for i in (1, 2) for m in range(-4, 5))

    def test_variable_gives_hammock(self):
        k = k_from_admissible_x(rf(1), A2)
        assert k.agrees_with(hammock(A2, 1, 0), -5, 5)

    def test_multiplicativity(self):
        k1 = k_from_admissible_x(rf(1), A2)
        k2 = k_from_admissible_x(rf(2), A2)
        k12 = k_from_admissible_x(rf(1) * rf(2), A2)
        assert all(
            k12.value(i, m) == k1.value(i, m) + k2.value(i, m)
            for i in (1, 2)
            for m in range(-4, 5)
        )

    def test_rejects_non_admissible(self):
        with pytest.raises(NotAdmissible):
            k_from_admissible_x(rf(1) + rf(2), A2)

    def test_y_side_multiplicativity(self):
        b = belts(A2)
        y1 = b.y(1, 0)
        y2 = b.y(2, 0)
        f1 = f_from_admissible_y(y1, A2)
        f2 = f_from_admissible_y(y2, A2)
        f12 = f_from_admissible_y(y1 * y2, A2)
        assert all(
            f12.value(i, m) == f1.value(i, m) + f2.value(i, m)
            for i in (1, 2)
            for m in range(-4, 5)
        )

    def test_realizations_agree_for_admissible_pairs(self):
        # evaluating an admissible element at the belt g-vectors gives the
        # same table as reading coordinates of its own tropical point
        ctx = finite_context(A2)
        b = ctx.belts
        for i, m in ctx.roots.fundamental_domain():
            f_elem = f_from_admissible_y(b.y(i, m), A2)
            f_point = f_from_trop_point(b.delta_sv_im(i, m), A2)
            assert f_elem.agrees_with(f_point, -4, 5)
            k_elem = k_from_admissible_x(b.x_sv(i, m), A2)
            k_point = k_from_trop_point(b.rho_im(i, m), A2)
            assert k_elem.agrees_with(k_point, -4, 5)

    def test_denominator_vector_readback(self):
        from cluster_friezes.mutation import seed_pattern
        from cluster_friezes.tropical import reexpress

        b = belts(A2)
        y = b.y(1, 1)
        f = f_from_admissible_y(y, A2)
        pattern = seed_pattern("Y", b.b)
        for m in range(-2, 3):
            addr = canonical_address(1, m, 2)
            expr = y
            for pos, k in enumerate(addr):
                expr = reexpress(expr, pattern, addr[:pos], k)
            assert f.slice_at(m) == expr.denominator_vector()


class TestShifts:
    def test_zero(self):
        z = FriezeFunction.from_slice("cluster-additive", A2, (0, 0))
        assert all(shift(z).value(i, m) == 0 for i in (1, 2) for m in range(-3, 4))

    def test_hammock_shift(self):
        assert shift(hammock(A2, 1, 0)).agrees_with(hammock(A2, 1, 1), -4, 6)

    def test_trop_shift_vs_reanchor(self):
        rng = random.Random(13)
        b = belts(A2)
        for _ in range(30):
            coords = tuple(rng.randint(-3, 3) for _ in range(2))
            rho = TropPoint("Y", b.b, coords)
            assert shift_trop(rho, A2) == TropPoint(
                "Y", b.b, coords, canonical_address(1, 1, 2)
            )

    def test_shift_commutes_with_readback(self):
        rng = random.Random(15)
        b = belts(A2)
        for _ in range(20):
            coords = tuple(rng.randint(-3, 3) for _ in range(2))
            rho = TropPoint("Y", b.b, coords)
            lhs = k_from_trop_point(shift_trop(rho, A2), A2)
            rhs = shift(k_from_trop_point(rho, A2))
            assert lhs.agrees_with(rhs, -4, 4)


class TestEnsembleMap:
    def test_zero(self):
        z = FriezeFunction.from_slice("tropical-frieze", A2, (0, 0))
        k = ensemble_map_friezes(z)
        assert all(k.value(i, m) == 0 for i in (1, 2) for m in range(-3, 4))

    def test_route_agreement(self):
        rng = random.Random(17)
        b = belts(A2)
        for _ in range(20):
            coords = tuple(rng.randint(-3, 3) for _ in range(2))
            f = f_from_trop_point(TropPoint("A", mat_neg(b.b), coords), A2.transpose())
            lhs = ensemble_map_friezes(f)
            rhs = k_from_trop_point(p_map(TropPoint("A", b.b, coords)), A2)
            assert lhs.agrees_with(rhs, -4, 4)

    def test_periodic_image(self):
        ctx = finite_context(A2)
        f = FriezeFunction.from_slice("tropical-frieze", A2, (1, -2))
        k = ensemble_map_friezes(f)
        for i in (1, 2):
            for m in range(-2, 6):
                j, n = ctx.roots.glide(i, m)
                assert k.value(i, m) == k.value(j, n)


# -- every constructor reads columns ------------------------------------------

WINDOW = range(-3, 5)


def _knitted_cells(kind, cartan, values, m0):
    """The cells of the function of the given kind whose slice at m0 is
    values, on a margin around WINDOW, one relation at a time: each
    v(i, m) + v(i, m + 1) = S(i, m) solved for its unknown cell."""
    a, r = cartan.entries, cartan.rank
    bracket = pp if kind == "cluster-additive" else (lambda v: v)
    cells = {(i, m0): v for i, v in enumerate(values, 1)}

    def pair_sum(i, m):
        s = sum(-a[j - 1][i - 1] * bracket(cells[(j, m)]) for j in range(i + 1, r + 1))
        s += sum(-a[j - 1][i - 1] * bracket(cells[(j, m + 1)]) for j in range(1, i))
        return pp(s) if kind == "tropical-frieze" else s

    for m in range(m0, WINDOW.stop + 1):
        for i in range(1, r + 1):
            cells[(i, m + 1)] = pair_sum(i, m) - cells[(i, m)]
    for m in range(m0 - 1, WINDOW.start - 2, -1):
        for i in range(r, 0, -1):
            cells[(i, m)] = pair_sum(i, m) - cells[(i, m + 1)]
    return lambda i, m: cells[(i, m)]


def _constructed(cartan):
    """Each library constructor of a frieze function, over cartan or its
    transpose, with a reference that computes one cell from its definition."""
    from cluster_friezes.finite import reconstruct_from_hammocks

    r, a, b = cartan.rank, cartan.entries, belts(cartan)
    coords = tuple((-1) ** i * i for i in range(1, r + 1))

    def unit(i):
        return tuple(-int(j == i) for j in range(1, r + 1))

    def belt_coordinate(point):
        return lambda i, m: point.coords_at(canonical_address(i, m, r))[i - 1]

    def at_g_vector(element, space, b0):
        # tropical value at the point with coordinates -e_i at t(i, m)
        return lambda i, m: element.trop_eval(
            TropPoint(space, b0, unit(i), canonical_address(i, m, r)).at_root()
        )

    f = FriezeFunction.from_slice("tropical-frieze", cartan, coords)
    f_cells = _knitted_cells("tropical-frieze", cartan, coords, 0)
    h = hammock(cartan, r, 1)
    h_cells = _knitted_cells("cluster-additive", cartan, unit(r), 1)
    parts = {(1, 0): 2, (r, 1): 1}
    part_cells = {
        (i, m): _knitted_cells("cluster-additive", cartan, unit(i), m) for i, m in parts
    }
    delta = TropPoint("A", b.bt, coords)
    rho = TropPoint("Y", b.b, coords)
    y, x = b.y(1, 1), b.x_sv(r, 0)
    return {
        "from_slice": (f, f_cells),
        "hammock": (h, h_cells),
        "f_from_trop_point": (f_from_trop_point(delta, cartan), belt_coordinate(delta)),
        "k_from_trop_point": (k_from_trop_point(rho, cartan), belt_coordinate(rho)),
        "shift": (shift(f), lambda i, m: f_cells(i, m - 1)),
        "ensemble_map_friezes": (
            ensemble_map_friezes(f),
            lambda i, m: sum(-a[j - 1][i - 1] * f_cells(j, m) for j in range(i + 1, r + 1))
            + sum(-a[j - 1][i - 1] * f_cells(j, m + 1) for j in range(1, i)),
        ),
        "reconstruct_from_hammocks": (
            reconstruct_from_hammocks(cartan, parts),
            lambda i, m: sum(e * part_cells[p](i, m) for p, e in parts.items()),
        ),
        "f_from_admissible_y": (f_from_admissible_y(y, cartan), at_g_vector(y, "Y", b.b)),
        "k_from_admissible_x": (k_from_admissible_x(x, cartan), at_g_vector(x, "A", b.bt)),
        # the decomposition suite's view of a hammock as a tropical frieze
        "hammock-as-frieze": (FriezeFunction("tropical-frieze", cartan, h.slice_at), h_cells),
    }


CONSTRUCTORS = tuple(_constructed(A2))


class TestWindows:
    """A check over a window refuses m_lo > m_hi: over no column it would
    pass having checked nothing."""

    def test_empty_window_refused(self):
        f = FriezeFunction("additive", A2, lambda m: (m, m))  # not additive
        with pytest.raises(ValueError, match="empty window"):
            f.satisfies_recursion(3, 1)
        with pytest.raises(ValueError, match="empty window"):
            f.agrees_with(hammock(A2, 1, 0), 3, 1)
        assert f.table(3, 1) == {}
        # one column is a window: its relations are checked
        assert not f.satisfies_recursion(0, 0)
        assert not f.agrees_with(hammock(A2, 1, 0), 0, 0)


class TestColumnReaders:
    """A frieze function is its column reader: a cell is read from its
    column, and every constructor's columns hold the cells its definition
    gives."""

    @pytest.mark.parametrize("name", ["A2", "B2", "G2"])
    @pytest.mark.parametrize("constructor", CONSTRUCTORS)
    def test_cells_are_column_entries(self, constructor, name):
        cartan = named_cartan(name)
        f, reference = _constructed(cartan)[constructor]
        r = f.cartan.rank
        for m in WINDOW:
            column = f.slice_at(m)
            assert len(column) == r
            for i in range(1, r + 1):
                assert f.value(i, m) == column[i - 1] == reference(i, m)

    def test_value_checks_the_index(self):
        f = FriezeFunction("additive", A2, lambda m: (m, -m))
        for i in (0, 3):
            with pytest.raises(DimensionMismatch):
                f.value(i, 0)


class TestIndexRule:
    """Every entry point that takes a 1-based index i refuses a bool, a
    non-int and an int outside 1..r with DimensionMismatch, as -e_i does;
    True is not read as 1, nor 1.0 as 1."""

    ENTRY_POINTS = {
        "FriezeFunction.value": lambda i: FriezeFunction(
            "additive", A2, lambda m: (m, -m)
        ).value(i, 0),
        "TropPoint.belt_value": lambda i: TropPoint("Y", belts(A2).b, (1, 0)).belt_value(
            i, 0
        ),
        "canonical_address": lambda i: canonical_address(i, 1, 2),
        "generic_A_frieze": lambda i: generic_A_frieze(A2, i, 0),
        "generic_Y_frieze": lambda i: generic_Y_frieze(A2, i, 0),
        "Belts.rho_im": lambda i: belts(A2).rho_im(i, 0),
        "RationalFunction.variable": lambda i: RF.variable(i, 2),
        "IntLaurentPoly.variable": lambda i: IntLaurentPoly.variable(i, 2),
    }

    @pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", 0, 3])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_bad_index_refused(self, entry, bad):
        with pytest.raises(DimensionMismatch, match="out of range"):
            self.ENTRY_POINTS[entry](bad)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_good_index_read(self, entry):
        for i in (1, 2):
            self.ENTRY_POINTS[entry](i)


class TestColumnRule:
    """Every entry point that takes a column m refuses a bool and a non-int
    with a labeled TypeError, as integer entries are refused; True is not
    read as column 1."""

    ENTRY_POINTS = {
        "FriezeFunction.value": lambda m: FriezeFunction.from_slice(
            "additive", A2, (4, 5)
        ).value(1, m),
        "FriezeFunction.slice_at": lambda m: FriezeFunction.from_slice(
            "additive", A2, (4, 5)
        ).slice_at(m),
        "from_slice m0": lambda m: FriezeFunction.from_slice(
            "additive", A2, (4, 5), m0=m
        ),
        "canonical_address": lambda m: canonical_address(1, m, 2),
        "generic_A_frieze": lambda m: generic_A_frieze(A2, 1, m),
        "hammock": lambda m: hammock(A2, 1, m),
        "TropPoint.belt_column": lambda m: TropPoint(
            "Y", belts(A2).b, (1, 0)
        ).belt_column(m),
    }

    @pytest.mark.parametrize("bad", [True, False, 1.5, 0.5, 1.0, "1", None])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_bad_column_refused(self, entry, bad):
        with pytest.raises(TypeError, match="is not an int"):
            self.ENTRY_POINTS[entry](bad)


def _after_int_pattern(make, *args):
    """make(*args) once the pattern of ((0, 1), (-1, 0)) exists: the root
    among args equals it and hashes like it, but is not of ints."""
    matrix_pattern(((0, 1), (-1, 0)))
    return make(*args)


class TestCartanRefusals:
    @pytest.mark.parametrize(
        "rows, error, match",
        [
            ([[2, -1], [-1, 2], [0, 0]], DimensionMismatch, "must be square"),
            ([[3]], ValueError, "diagonal"),
            ([[2, 1], [1, 2]], ValueError, "nonpositive"),
            ([[2, -1], [0, 2]], ValueError, "not symmetrizable"),
            ([[2, -1, -1], [-1, 2, -1], [-2, -1, 2]], ValueError, "not symmetrizable"),
        ],
        ids=["not-square", "diagonal", "positive", "zero-pattern", "inconsistent-cycle"],
    )
    def test_refused(self, rows, error, match):
        with pytest.raises(error, match=match):
            CartanMatrix(rows)
        if match == "not symmetrizable":
            assert find_symmetrizer(rows) is None


class TestIntegerEntries:
    """Entries are exact integers: a float, a str or a bool is refused, not
    truncated to an int, whatever patterns the process built before."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CartanMatrix([[2, -1.5], [-1, 2]]),
            lambda: CartanMatrix([[2, "-1"], [-1, 2]]),
            lambda: TropPoint("Y", A2.b_matrix(), (1.7, -2.2)),
            lambda: TropPoint("Y", A2.b_matrix(), ("1", 0)),
            lambda: TropPoint("Y", A2.b_matrix(), (0, True)),
            lambda: FriezeFunction.from_slice("additive", A2, (0.5, 1.9)),
            lambda: FriezeFunction.from_slice("additive", A2, (0, "1")),
            lambda: FriezeFunction.from_slice("additive", A2, (False, 0)),
            partial(_after_int_pattern, TropPoint, "Y", ((0, 1.0), (-1.0, 0)), (1, 2)),
            partial(_after_int_pattern, TropPoint, "Y", ((0, True), (-1, 0)), (1, 2)),
            partial(
                _after_int_pattern, is_global_Y_monomial, ((0, True), (-1, 0)), (), (1, 0)
            ),
        ],
        ids=[
            "cartan-float", "cartan-str", "point-float", "point-str", "point-bool",
            "slice-float", "slice-str", "slice-bool", "root-float-after-int-root",
            "root-bool-after-int-root", "global-y-root-bool-after-int-root",
        ],
    )
    def test_refused(self, make):
        with pytest.raises(TypeError, match="is not an int"):
            make()

    def test_int_subclass_becomes_int(self):
        class Int(int):
            pass

        f = FriezeFunction.from_slice("additive", A2, (Int(2), 1))
        assert f.slice_at(0) == (2, 1)
        assert all(type(v) is int for v in f.slice_at(0))
        assert CartanMatrix([[2, Int(-1)], [-1, 2]]) == A2


class TestConcurrency:
    def test_parallel_extension_deterministic(self):
        f = FriezeFunction.from_slice("cluster-additive", A2, (2, -3))
        reference = FriezeFunction.from_slice("cluster-additive", A2, (2, -3))
        expected = reference.table(-40, 40)
        results = {}

        def worker(lo, hi, tag):
            results[tag] = {
                (i, m): f.value(i, m) for m in range(lo, hi) for i in (1, 2)
            }

        threads = [
            threading.Thread(target=worker, args=(-40, 41, t)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tag in results:
            assert results[tag] == expected

    def test_threads_read_the_single_threaded_columns(self):
        cartan = named_cartan("B3")
        values = (2, -1, 3)
        fresh = FriezeFunction.from_slice("tropical-frieze", cartan, values)
        expected = {m: fresh.slice_at(m) for m in range(-40, 41)}
        windows = [range(-40 + 6 * t, 11 + 6 * t) for t in range(6)]
        for trial in range(4):
            shared = FriezeFunction.from_slice("tropical-frieze", cartan, values)
            computed = _count_column_steps(shared)
            results = [None] * 6
            start = threading.Barrier(6)

            def worker(t):
                order = list(windows[t])
                random.Random(6 * trial + t).shuffle(order)
                start.wait(timeout=60)
                results[t] = {m: shared.slice_at(m) for m in order}

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
            # each of the 80 columns past the slice was computed once
            assert sorted(computed) == [s for s in range(-40, 41) if s]

    def test_far_columns_need_no_recursion(self):
        values = (2, -3)
        f = FriezeFunction.from_slice("cluster-additive", A2, values)
        computed = _count_column_steps(f)
        far = (f.slice_at(5000), f.slice_at(-5000))
        outward = FriezeFunction.from_slice("cluster-additive", A2, values)
        for m in range(5001):
            outward.slice_at(m)
        for m in range(0, -5001, -1):
            outward.slice_at(m)
        assert far == (outward.slice_at(5000), outward.slice_at(-5000))
        assert all(f.slice_at(m) == outward.slice_at(m) for m in range(-5000, 5001))
        assert len(computed) == 2 * 5000


def _count_column_steps(f):
    """Record the place, along f's column line, of each column f computes."""
    calls = []
    line = f._line
    step = line.step

    def counting(col, s):
        calls.append(s)
        return step(col, s)

    line.step = counting
    return calls
