import random

import pytest

from cluster_friezes import finite, verify
from cluster_friezes.errors import DimensionMismatch, NotFiniteType
from cluster_friezes.finite import (
    classify,
    coxeter_data,
    d_duality_check,
    decompose_hammocks,
    fim_recursion,
    finite_context,
    mono_from_gvector_A,
    mono_from_gvector_Y,
    named_cartan,
    pairing,
    positive_roots,
    reconstruct_from_hammocks,
    verify_periodicity,
    x_from_rho,
    y_from_delta,
)
from cluster_friezes.friezes import (
    CartanMatrix,
    FriezeFunction,
    PLMap,
    belts,
    find_symmetrizer,
    hammock,
    k_from_trop_point,
)
from cluster_friezes.laurent import IntLaurentPoly as P, RationalFunction as RF
from cluster_friezes.mutation import _Registry, canonical_address, extract_gcf
from cluster_friezes.tropical import TropPoint

A2 = named_cartan("A2")


def mat_neg(m):
    return tuple(tuple(-x for x in row) for row in m)


class TestCartanTranspose:
    @pytest.mark.parametrize("name", [
        f"{family}{r}" for family, (ranks, *_) in finite._DYNKIN.items() for r in ranks
    ])
    def test_built_once(self, name):
        c = named_cartan(name)
        t = c.transpose()
        assert t is c.transpose()
        assert t.transpose() == c and t.transpose() is c
        assert t.entries == tuple(zip(*c.entries))
        assert t.symmetrizer == find_symmetrizer(t.entries)


class TestClassification:
    def test_a2_finite(self):
        assert classify(A2).finite

    def test_affine_not_finite(self):
        assert not classify(CartanMatrix([[2, -2], [-2, 2]])).finite

    def test_g2_minors(self):
        g2 = named_cartan("G2")
        assert g2.entries == ((2, -1), (-3, 2))
        assert classify(g2).finite

    def test_blocks(self):
        a1xa2 = CartanMatrix(
            [[2, 0, 0], [0, 2, -1], [0, -1, 2]]
        )
        cls = classify(a1xa2)
        assert cls.finite
        assert cls.blocks == ((1,), (2, 3))


class TestCoxeterData:
    def test_a1(self):
        rd = coxeter_data(named_cartan("A1"))
        assert rd.orbit_lengths == (1,) and rd.involution == (1,)

    def test_a2(self):
        rd = coxeter_data(A2)
        assert rd.orbit_lengths == (2, 1)
        assert rd.involution == (2, 1)

    def test_b2(self):
        rd = coxeter_data(named_cartan("B2"))
        assert rd.orbit_lengths == (2, 2)
        assert rd.involution == (1, 2)

    def test_counts_match_root_enumeration(self):
        expected = {
            "A2": 5, "A3": 9, "A4": 14, "B2": 6, "B3": 12,
            "C3": 12, "D4": 16, "G2": 8,
        }
        for name, count in expected.items():
            cartan = named_cartan(name)
            rd = coxeter_data(cartan)
            roots = positive_roots(cartan)
            assert rd.rank + len(roots) == count
            assert len(rd.fundamental_domain()) == count

    def test_decomposable_blockwise(self):
        a1xa2 = CartanMatrix([[2, 0, 0], [0, 2, -1], [0, -1, 2]])
        rd = coxeter_data(a1xa2)
        assert rd.orbit_lengths == (1, 2, 1)
        assert rd.involution == (1, 3, 2)

    def test_not_finite_raises(self):
        with pytest.raises(NotFiniteType):
            coxeter_data(CartanMatrix([[2, -2], [-2, 2]]))

    def test_fundamental_domain_covers_orbits(self):
        rd = coxeter_data(named_cartan("A3"))
        dom = set(rd.fundamental_domain())
        for i in range(1, 4):
            for m in range(-8, 9):
                assert rd.reduce(i, m) in dom

    def test_glide_and_reduce_check_their_arguments(self):
        # an index outside 1..r is refused, not wrapped; m is not truncated
        rd = coxeter_data(named_cartan("A3"))
        for method in (rd.glide, rd.reduce):
            for i, m in ((0, 0), (-1, 0), (4, 0), (0, 9), (True, 0), (1.0, 0)):
                with pytest.raises(DimensionMismatch):
                    method(i, m)
            for m in (1.5, 2.0, "1", False):
                with pytest.raises(TypeError):
                    method(1, m)
        assert rd.glide(1, 0) == (3, 2) and rd.reduce(3, 2) == (1, 0)


class TestPeriodicity:
    def test_generic_and_sampled(self):
        violations = verify_periodicity(A2, -2, 6)
        assert violations == []

    def test_supplied_functions(self):
        friezes = [
            FriezeFunction.from_slice("tropical-frieze", A2, (2, -1)),
            FriezeFunction.from_slice("cluster-additive", A2, (-3, 1)),
        ]
        assert verify_periodicity(A2, -2, 6, friezes) == []

    def test_violations_reported(self):
        # f(i, m) = m is not invariant under (i, m) -> (i*, m + 1 + h(i*; c))
        f = FriezeFunction("cluster-additive", A2, lambda m: (m, m))
        cells = [(i, m) for i in (1, 2) for m in range(4)]
        assert verify_periodicity(A2, 0, 3, [f]) == [("frieze0",) + c for c in cells]

    def test_empty_window_refused(self):
        # over 3..1 the same f once gave no violations
        f = FriezeFunction("additive", A2, lambda m: (m, m))
        with pytest.raises(ValueError, match="empty window"):
            verify_periodicity(A2, 3, 1, [f])
        assert len(verify_periodicity(A2, 0, 2, [f])) == 6

    def test_frieze_values_across_gliding(self):
        ctx = finite_context(A2)
        f = FriezeFunction.from_slice("tropical-frieze", A2, (1, 0))
        assert f.value(1, 0) == 1 == f.value(*ctx.roots.glide(1, 0))
        assert f.value(2, 0) == 0 == f.value(*ctx.roots.glide(2, 0))
        assert f.value(1, 1) == -1 == f.value(*ctx.roots.glide(1, 1))

    def test_one_period_of_variables(self):
        ctx = finite_context(A2)
        seen = {ctx.belts.x_sv(i, m) for i, m in ctx.roots.fundamental_domain()}
        assert len(seen) == 5


class TestMonomialsFromPoints:
    def test_already_optimized_at_root(self):
        addr, exps, expr = mono_from_gvector_A(
            A2, TropPoint("Y", belts(A2).b, (-1, 0))
        )
        assert expr == RF.variable(1, 2)

    def test_mutated_vertex(self):
        # oracle: the point with root coordinates E_A^+(denominator vector)
        # recovers the variable it came from
        b = belts(A2)
        x21 = b.x_sv(2, 1)
        coords = PLMap(A2, "+").apply(x21.denominator_vector())
        assert coords == (1, 0)
        _, _, expr = mono_from_gvector_A(A2, TropPoint("Y", b.b, coords))
        assert expr == x21

    def test_zero_gives_one(self):
        _, _, expr = mono_from_gvector_Y(A2, TropPoint("A", belts(A2).bt, (0, 0)))
        assert expr == RF.one(2)

    def test_y_monomial_gvector_roundtrip(self):
        ctx = finite_context(A2)
        for i, m in ctx.roots.fundamental_domain():
            delta = ctx.belts.delta_sv_im(i, m)
            _, _, expr = mono_from_gvector_Y(A2, delta)
            assert expr == ctx.belts.y(i, m)


class TestPairing:
    def test_zero_delta(self):
        rng = random.Random(0)
        for _ in range(5):
            rho = TropPoint("Y", belts(A2).b, (rng.randint(-3, 3), rng.randint(-3, 3)))
            assert pairing(A2, TropPoint("A", belts(A2).bt, (0, 0)), rho) == 0

    def test_worked_pair(self):
        delta = TropPoint("A", belts(A2).bt, (1, 0))
        rho = TropPoint("Y", belts(A2).b, (-1, 0))
        assert pairing(A2, delta, rho) == 1
        # the fundamental-domain sum has a single contribution at (1, 0)
        k = k_from_trop_point(rho, A2)
        contributions = {
            (i, m): max(0, -k.value(i, m))
            for i, m in finite_context(A2).roots.fundamental_domain()
            if k.value(i, m) < 0
        }
        assert contributions == {(1, 0): 1}

    def test_triple_agreement_random(self):
        rng = random.Random(1)
        for name in ("A3", "B2", "G2"):
            cartan = named_cartan(name)
            b = belts(cartan)
            r = cartan.rank
            for _ in range(50):
                delta = TropPoint(
                    "A", b.bt, tuple(rng.randint(-3, 3) for _ in range(r))
                )
                rho = TropPoint(
                    "Y", b.b, tuple(rng.randint(-3, 3) for _ in range(r))
                )
                pairing(cartan, delta, rho)  # raises on route disagreement


class TestXFromRho:
    def test_zero(self):
        exps, expr = x_from_rho(A2, TropPoint("Y", belts(A2).b, (0, 0)))
        assert exps == {} and expr == RF.one(2)

    def test_pure_root_monomial(self):
        exps, expr = x_from_rho(A2, TropPoint("Y", belts(A2).b, (-2, -1)))
        assert exps == {(1, 0): 2, (2, 0): 1}
        assert expr == RF.variable(1, 2) ** 2 * RF.variable(2, 2)

    def test_matches_graph_search(self):
        rng = random.Random(2)
        for _ in range(25):
            rho = TropPoint(
                "Y", belts(A2).b, (rng.randint(-3, 3), rng.randint(-3, 3))
            )
            _, expr = x_from_rho(A2, rho)
            _, _, expr2 = mono_from_gvector_A(A2, rho)
            assert expr == expr2


class TestFimRecursion:
    def test_initial_conditions(self):
        table = fim_recursion(A2)
        assert table[(1, 0)].is_one() and table[(2, 0)].is_one()

    def test_a2_values(self):
        table = fim_recursion(A2)
        p1, p2 = P.variable(1, 2), P.variable(2, 2)
        assert table[(1, 1)] == P.one(2) + p1
        assert table[(2, 1)] == P.one(2) + p2 + p1 * p2

    def test_matches_principal_pattern(self):
        for name in ("A2", "B2", "G2"):
            cartan = named_cartan(name)
            r = cartan.rank
            table = fim_recursion(cartan)
            for (i, m), poly in table.items():
                data = extract_gcf(belts(cartan).b, canonical_address(i, m, r))
                assert data.fpolys[i - 1] == poly

    def test_negative_window(self):
        table = fim_recursion(A2, m_hi=2, m_lo=-2)
        for i in (1, 2):
            assert (i, -2) in table
            assert table[(i, -2)].coefficients_nonnegative()

    def test_built_once_per_type(self, monkeypatch):
        # fresh contexts, so each type's table is built within the suite
        monkeypatch.setattr(finite, "_contexts", _Registry())
        calls = []

        def counted(cartan, *args, **kwargs):
            calls.append(cartan.entries)
            return fim_recursion(cartan, *args, **kwargs)

        monkeypatch.setattr(finite, "fim_recursion", counted)
        assert verify.run_suite("pairing", types=("A2", "A3")).passed
        assert sorted(calls) == sorted({named_cartan(n).entries for n in ("A2", "A3")})
        ctx = finite.finite_context(A2)
        assert ctx.fim_table() is ctx.fim_table()
        assert ctx.fim_table() == fim_recursion(A2)


class TestYFromDelta:
    def test_zero(self):
        assert y_from_delta(A2, TropPoint("A", belts(A2).bt, (0, 0))) == RF.one(2)

    def test_optimized_at_root_is_monomial(self):
        # -delta * B^T >= 0 at the root leaves only the monomial factor
        delta = TropPoint("A", belts(A2).bt, (-1, 0))
        y = y_from_delta(A2, delta)
        assert y == RF.variable(1, 2)

    def test_random_route_agreement(self):
        rng = random.Random(3)
        for name in ("A2", "B2"):
            cartan = named_cartan(name)
            b = belts(cartan)
            r = cartan.rank
            for _ in range(25):
                delta = TropPoint(
                    "A", b.bt, tuple(rng.randint(-3, 3) for _ in range(r))
                )
                y_from_delta(cartan, delta)  # raises on route disagreement


class TestDecomposition:
    def test_hammock_decomposes_to_itself(self):
        parts = decompose_hammocks(A2, hammock(A2, 1, 0))
        assert parts == {(1, 0): 1}

    def test_zero(self):
        z = FriezeFunction.from_slice("cluster-additive", A2, (0, 0))
        assert decompose_hammocks(A2, z) == {}

    def test_reconstruction_exact(self):
        rng = random.Random(4)
        dom = finite_context(A2).roots.fundamental_domain()
        for _ in range(30):
            k = FriezeFunction.from_slice(
                "cluster-additive", A2, (rng.randint(-3, 3), rng.randint(-3, 3))
            )
            rebuilt = reconstruct_from_hammocks(A2, decompose_hammocks(A2, k))
            assert all(rebuilt.value(i, m) == k.value(i, m) for i, m in dom)
            # agreement on the domain propagates to any window by periodicity
            assert all(
                rebuilt.value(i, m) == k.value(i, m)
                for i in (1, 2)
                for m in range(-5, 8)
            )

    @pytest.mark.parametrize("other", ["B2", "A3"])
    def test_function_over_another_cartan_matrix_refused(self, other):
        # C2 is B2 transposed: over B2 the domain reads a different function,
        # and A3 has another rank
        k = FriezeFunction.from_slice("cluster-additive", named_cartan("C2"), (1, -2))
        with pytest.raises(ValueError, match="over the given Cartan matrix"):
            decompose_hammocks(named_cartan(other), k)


class TestDDuality:
    def test_small_types_exhaustive(self):
        for name in ("A2", "B2"):
            assert d_duality_check(named_cartan(name)) == []

    def test_self_pairs(self):
        ctx = finite_context(A2)
        # the A-space of -B is the A-space of B(A^T)^T
        neg = belts(A2.transpose())
        from cluster_friezes.tropical import d_trop_point, d_compat_degree

        for i, m in ctx.roots.fundamental_domain():
            d = d_trop_point("A", mat_neg(ctx.belts.b), canonical_address(i, m, 2), i)
            assert d_compat_degree(d, neg.x_sv(i, m)) == -1


class TestPhiShiftLaw:
    def test_gvector_of_phi_image(self):
        # the isomorphism z_(t;i) -> x_(t;i) between the A-spaces of B and of
        # -B shifts negated g-vectors by one belt column
        from cluster_friezes.friezes import shift_trop
        from cluster_friezes.mutation import transpose

        rng = random.Random(5)
        for name in ("A2", "B2"):
            cartan = named_cartan(name)
            at = cartan.transpose()
            b = belts(cartan).b
            r = cartan.rank
            for _ in range(20):
                addr = tuple(rng.randint(1, r) for _ in range(rng.randint(0, 4)))
                exps = tuple(rng.randint(0, 2) for _ in range(r))
                rho_wedge = TropPoint(
                    "Y", transpose(b), tuple(-e for e in exps), addr
                )
                neg = TropPoint(
                    "Y",
                    mat_neg(transpose(b)),
                    tuple(-x for x in rho_wedge.at_root()),
                )
                rho_vee = TropPoint(
                    "Y", mat_neg(transpose(b)), tuple(-e for e in exps), addr
                )
                assert rho_vee == shift_trop(neg, at)
