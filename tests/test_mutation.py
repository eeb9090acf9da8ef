import itertools
import random
import sys
import threading
import time
from fractions import Fraction
from functools import partial
from operator import itemgetter, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_friezes import cli, finite, friezes, laurent, mutation, tropical, verify
from cluster_friezes.errors import BudgetExceeded, DimensionMismatch, InternalDisagreement
from cluster_friezes.finite import named_cartan
from cluster_friezes.friezes import FriezeFunction
from cluster_friezes.laurent import IntLaurentPoly as P, RationalFunction as RF
from cluster_friezes.verify import DEFAULT_TYPES
from cluster_friezes.mutation import (
    GCFPattern,
    MatrixPattern,
    SeedPattern,
    _Exchanges,
    _gauss_jordan,
    _gcf_step,
    _identity,
    _address,
    _child,
    _PARENT,
    _Registry,
    _vertex,
    canonical_address,
    enumerate_exchange_graph,
    extract_gcf,
    find_skew_symmetrizer,
    gcf_from_principal,
    gcf_pattern,
    is_global_Y_monomial,
    matrix_pattern,
    mutate_A_seed,
    mutate_matrix_raw,
    mutate_seed,
    mutate_Y_seed,
    principal_extension,
    reduce_word,
    root_seed,
    seed_at,
    seed_pattern,
    separation_check,
    walk_exchange_graph,
)
from cluster_friezes.tropical import TropPoint, reexpress

B_A2 = ((0, -1), (1, 0))
B_A3 = ((0, -1, 0), (1, 0, -1), (0, 1, 0))
B_B2 = ((0, -1), (2, 0))


def rf(i, n=2):
    return RF.variable(i, n)


def mat_mul(a, b):
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*b)) for row in a)


def rand_mutation_matrix(rng, r=3):
    while True:
        rows = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                v = rng.randint(-2, 2)
                rows[i][j] = v
                rows[j][i] = -v
        if find_skew_symmetrizer(tuple(map(tuple, rows))) is not None:
            return tuple(map(tuple, rows))


@st.composite
def _skew_symmetrizable_roots(draw):
    """D S for a positive diagonal D and a skew-symmetric S: rank 2 with
    |b_ij| <= 3, or rank 3 with d_i in {1, 2}, s_ij in {-1, 0, 1} and
    d_i d_j <= 2 wherever s_ij != 0."""
    if draw(st.booleans()):
        s = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        d = draw(st.tuples(*[st.integers(1, 3 // abs(s))] * 2))
        return ((0, d[0] * s), (-d[1] * s, 0))
    d = draw(st.tuples(*[st.integers(1, 2)] * 3))
    rows = [[0] * 3 for _ in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        s = draw(st.integers(-1, 1)) if d[i] * d[j] <= 2 else 0
        rows[i][j], rows[j][i] = d[i] * s, -d[j] * s
    return tuple(map(tuple, rows))


class TestMatrixMutation:
    def test_rank2_sign_flip(self):
        assert matrix_pattern(B_A2).at((1,)) == ((0, 1), (-1, 0))

    def test_involution_random(self):
        rng = random.Random(2)
        for _ in range(40):
            b = rand_mutation_matrix(rng)
            k = rng.randint(1, 3)
            assert mutate_matrix_raw(mutate_matrix_raw(b, k), k) == b

    def test_a3_direction_one(self):
        assert mutate_matrix_raw(B_A3, 1) == ((0, 1, 0), (-1, 0, -1), (0, 1, 0))

    def test_direction_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            matrix_pattern(B_A2).at((3,))

    @pytest.mark.parametrize(
        "make",
        [
            lambda b: matrix_pattern(b),
            lambda b: seed_at("A", b, (1, 2)),
            lambda b: seed_at("Y", b, (1, 2)),
            lambda b: seed_pattern("A", b + ((1, 0), (0, 1))),
            lambda b: gcf_pattern(b).at((1,)),
            lambda b: extract_gcf(b, (1,)),
        ],
        ids=["matrix", "A-seed", "Y-seed", "tall-A-seed", "gcf", "extract-gcf"],
    )
    def test_root_not_skew_symmetrizable(self, make):
        # b_12 b_21 > 0: no pattern over this root is made, tall roots are
        # checked on their principal part
        with pytest.raises(ValueError, match="skew-symmetrizable"):
            make(((0, 1), (1, 0)))

    def test_one_matrix_object_per_vertex(self):
        # seed and G/C/F patterns read B_t from their root's matrix pattern,
        # at vertices reached by seed_at and by the exchange-graph walk
        b = named_cartan("B3").b_matrix()
        tall = principal_extension(b)
        matrices, tall_matrices = matrix_pattern(b), matrix_pattern(tall)
        for word in _reduced_words(3, 4):
            bt = matrices.at(word)
            assert seed_pattern("Y", b).seed_at(word).matrix is bt
            assert seed_pattern("A", b).seed_at(word).matrix is bt
            assert gcf_pattern(b).at(word)[0] is bt
            assert seed_pattern("A", tall).seed_at(word).matrix is tall_matrices.at(word)
        for kind, root, pattern in (("Y", b, matrices), ("A", tall, tall_matrices)):
            for seed in enumerate_exchange_graph(kind, root).seeds.values():
                assert seed.matrix is pattern._walk.get(seed.vertex)

    def test_walk_hands_its_matrices_to_the_matrix_pattern(self, monkeypatch):
        # the walk stores the matrices it mutates in the root's matrix
        # pattern, unless the G/C/F pattern read them there first; either
        # way every reader gets one object per vertex
        for name in ("_matrix_patterns", "_seed_patterns", "_gcf_patterns"):
            monkeypatch.setattr(mutation, name, _Registry())
        b = named_cartan("D4").b_matrix()
        early = {w: gcf_pattern(b).at(w)[0] for w in _reduced_words(4, 2)}
        seeds = enumerate_exchange_graph("Y", b).seeds.values()
        matrices = matrix_pattern(b)
        for seed in seeds:
            assert matrices.at(seed.address) is seed.matrix
            assert early.get(seed.address, seed.matrix) is seed.matrix
            bt = b
            for k in seed.address:
                bt = mutate_matrix_raw(bt, k)
            assert seed.matrix == bt

    def test_skew_symmetrizability_preserved(self):
        rng = random.Random(9)
        for _ in range(20):
            b = rand_mutation_matrix(rng)
            k = rng.randint(1, 3)
            d = find_skew_symmetrizer(b)
            assert find_skew_symmetrizer(mutate_matrix_raw(b, k)) == d


class TestAddresses:
    def test_root(self):
        assert canonical_address(1, 0, 3) == ()

    def test_positive_belt(self):
        assert canonical_address(3, 0, 3) == (1, 2)
        assert canonical_address(1, 1, 3) == (1, 2, 3)

    def test_negative_belt(self):
        assert canonical_address(3, -1, 3) == (3,)
        assert canonical_address(1, -1, 3) == (3, 2, 1)
        assert canonical_address(2, -2, 3) == (3, 2, 1, 3, 2)

    def test_rank_one_reduces(self):
        assert canonical_address(1, 2, 1) == ()
        assert canonical_address(1, 3, 1) == (1,)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_textbook_word(self, r):
        # t(i, m) is reached by (1..r)^m (1..i-1) for m >= 0, and by the
        # mirrored sequence (r..1)^(-m-1) (r..i) for m < 0
        for m in range(-5, 6):
            for i in range(1, r + 1):
                if m >= 0:
                    word = list(range(1, r + 1)) * m + list(range(1, i))
                else:
                    word = list(range(r, 0, -1)) * (-m - 1) + list(range(r, i - 1, -1))
                assert canonical_address(i, m, r) == reduce_word(word)

    def test_index_out_of_range(self):
        for i in (0, 4):
            with pytest.raises(DimensionMismatch):
                canonical_address(i, 1, 3)

    def test_word_reduction(self):
        assert reduce_word((1, 1)) == ()
        assert reduce_word((1, 2, 2, 1, 3)) == (3,)


WORDS = st.lists(st.integers(1, 4), max_size=24)


class TestVertexTable:
    """The interned vertex table against reduce_word, the independent
    reduction of edge words."""

    @settings(max_examples=200, deadline=None)
    @given(WORDS)
    def test_vertex_of_reduced_word(self, word):
        assert _vertex(word) == _vertex(reduce_word(word))

    @settings(max_examples=200, deadline=None)
    @given(WORDS)
    def test_address_reads_back_reduced_word(self, word):
        assert _address(_vertex(word)) == reduce_word(word)

    @settings(max_examples=200, deadline=None)
    @given(WORDS, st.integers(1, 4))
    def test_child_is_an_involution(self, word, k):
        v = _vertex(word)
        assert _child(_child(v, k), k) == v
        assert _address(_child(v, k)) == reduce_word(word + [k])

    def test_threads_interning_overlapping_words(self):
        # letters no other test uses, so the threads make the vertices
        rng = random.Random(11)
        words = [
            tuple(rng.randint(61, 64) for _ in range(rng.randint(1, 30)))
            for _ in range(60)
        ]
        results = [None] * 6

        def worker(t):
            order = list(range(len(words)))
            random.Random(t).shuffle(order)
            results[t] = {i: _vertex(words[i]) for i in order}

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
        assert all(result == results[0] for result in results)
        parent, letter, child = mutation._PARENT, mutation._LETTER, mutation._CHILD
        assert len(parent) == len(letter) == len(child) + 1
        for v in range(1, len(parent)):
            assert child[parent[v], letter[v]] == v
            assert parent[v] < v and letter[v] != letter[parent[v]]
        for i, word in enumerate(words):
            assert _address(results[0][i]) == reduce_word(word)


class TestWordsAtTheEdge:
    """Inside the library a tree position is an interned vertex: a word is
    interned where a caller hands one in and built where one goes out."""

    @pytest.mark.parametrize(
        "suite",
        [
            "d-duality",
            "fpoly-separation",
            "shift-laws",
            "admissibility",
            "pairing",
            "closure-counts",
            "remark-not-in",
        ],
    )
    def test_suite_makes_no_word_and_interns_none(self, suite, monkeypatch):
        calls = []
        for name in ("canonical_address", "_address", "_vertex"):
            orig = getattr(mutation, name)

            def counted(*args, name=name, orig=orig):
                # _vertex(()) is the root: no word to intern
                if name != "_vertex" or args[0]:
                    calls.append((name, args))
                return orig(*args)

            for module in (mutation, tropical, friezes, finite, verify, cli):
                if getattr(module, name, None) is orig:
                    monkeypatch.setattr(module, name, counted)
        result = verify.run_suite(suite, types=("A2", "B2"))
        assert result.passed
        assert calls == []


class TestStrictLetters:
    """A letter that is not an int >= 1 raises DimensionMismatch, as an index
    does, before any vertex is made."""

    @pytest.mark.parametrize(
        "word", [(True,), (True, 1), (1, False), (1.0,), (1.5,), (2, 1.9), ("1",)]
    )
    def test_non_int_letters(self, word):
        with pytest.raises(DimensionMismatch):
            reduce_word(word)
        with pytest.raises(DimensionMismatch):
            seed_at("A", B_A2, word)

    @pytest.mark.parametrize("word", [(0,), (1, -1), (2, 1, 0)])
    def test_letters_below_one(self, word):
        with pytest.raises(DimensionMismatch):
            reduce_word(word)
        with pytest.raises(DimensionMismatch):
            MatrixPattern(B_A2).at(word)

    def test_seed_at_float_does_not_truncate(self):
        # 1.9 used to be read as direction 1
        with pytest.raises(DimensionMismatch):
            seed_at("A", B_A2, (1.9,))
        with pytest.raises(DimensionMismatch):
            mutate_A_seed(root_seed("A", B_A2), True)
        # a direction is refused as a row or belt index is
        with pytest.raises(DimensionMismatch, match="out of range"):
            mutate_A_seed(root_seed("A", B_A2), 1.5)
        with pytest.raises(DimensionMismatch, match="out of range"):
            mutate_Y_seed(root_seed("Y", B_A2), 2.0)

    def test_int_subclass_letters_become_ints(self):
        class Int(int):
            pass

        word = reduce_word((Int(1), 2))
        assert word == (1, 2) and all(type(k) is int for k in word)
        assert mutate_A_seed(root_seed("A", B_A2), Int(1)).address == (1,)

    def test_out_of_range_letters(self):
        for word in [(3,), (1, 2, 3)]:
            with pytest.raises(DimensionMismatch):
                seed_at("Y", B_A2, word)
            with pytest.raises(DimensionMismatch):
                TropPoint("A", B_A2, (1, 0), word)
        with pytest.raises(DimensionMismatch):
            extract_gcf(B_A2, (2, 1, 5))

    @pytest.mark.parametrize(
        "word", [(2, 1, 2, 1, 2, 1.5), (2, 1, 2, 1, 2, True), (2, 1, 2, 1, 2, 9)]
    )
    def test_no_vertex_before_the_check(self, word):
        before = len(mutation._PARENT)
        with pytest.raises(DimensionMismatch):
            SeedPattern("A", B_A2).seed_at(word)
        with pytest.raises(DimensionMismatch):
            TropPoint("Y", B_A2, (0, 1), word)
        assert len(mutation._PARENT) == before


class TestSeedMutation:
    def test_a_mutation_rank2(self):
        seed = mutate_A_seed(seed_at("A", B_A2, ()), 1)
        assert seed.cluster[0] == (RF.one(2) + rf(2)) / rf(1)
        assert seed.cluster[1] == rf(2)

    def test_a_involution(self):
        root = seed_at("A", B_A2, ())
        assert mutate_A_seed(mutate_A_seed(root, 1), 1) == root

    def test_a2_five_variables(self):
        graph = enumerate_exchange_graph("A", B_A2, 100)
        one = RF.one(2)
        expected = {
            rf(1),
            rf(2),
            (one + rf(2)) / rf(1),
            (one + rf(1) + rf(2)) / (rf(1) * rf(2)),
            (one + rf(1)) / rf(2),
        }
        assert set(graph.cluster_variables()) == expected

    def test_y_mutation_chain(self):
        y1, y2, one = rf(1), rf(2), RF.one(2)
        s = seed_at("Y", B_A2, (1,))
        assert s.cluster == (y1**-1, y2 * (one + y1))
        s = seed_at("Y", B_A2, (1, 2))
        assert s.cluster == ((one + y2 + y1 * y2) / y1, (y2 * (one + y1)) ** -1)
        s = seed_at("Y", B_A2, (1, 2, 1, 2, 1))
        assert s.cluster == (y2, y1)

    def test_y_involution(self):
        root = seed_at("Y", B_B2, ())
        assert mutate_Y_seed(mutate_Y_seed(root, 2), 2) == root

    def test_seed_at_reduced_word(self):
        assert seed_at("A", B_A2, (1, 1)) == seed_at("A", B_A2, ())

    def test_seed_at_matrix(self):
        s = seed_at("Y", B_A2, (1,))
        assert s.matrix == ((0, 1), (-1, 0))

    def test_path_independence_unordered(self):
        far = seed_at("A", B_A2, (1, 2, 1, 2, 1))
        root = seed_at("A", B_A2, ())
        assert far.unordered_key() == root.unordered_key()
        assert far.address != root.address


class TestPrincipalCoefficients:
    def test_fpoly_shape_checked_where_made(self):
        # F_1 = -1 at the root makes the new F_1 = -(1 + y_1)
        minus_one, one = P.constant(-1, 2), P.one(2)
        state = (B_A2, _identity(2), _identity(2), (minus_one, one))
        with pytest.raises(AssertionError, match="sign-coherence shape"):
            _gcf_step_on(_Exchanges(), state, 1)

    def test_separation_check_reads_checked_fpolys(self, monkeypatch):
        # on a fresh G/C/F registry every F is made anew, and checked
        monkeypatch.setattr(mutation, "_gcf_patterns", _Registry())
        monkeypatch.setattr(P, "coefficients_nonnegative", lambda self: False)
        with pytest.raises(AssertionError, match="sign-coherence shape"):
            separation_check(B_A2, (1,))

    def test_root_identity(self):
        data = extract_gcf(B_A2, ())
        ident = ((1, 0), (0, 1))
        assert data.gmatrix == ident and data.cmatrix == ident
        assert all(f.is_one() for f in data.fpolys)

    def test_a2_fpolys(self):
        data = extract_gcf(B_A2, (1,))
        assert data.fpolys[0] == P.one(2) + P.variable(1, 2)
        data = extract_gcf(B_A2, (1, 2))
        p1, p2 = P.variable(1, 2), P.variable(2, 2)
        assert data.fpolys[1] == P.one(2) + p2 + p1 * p2

    def test_recurrence_matches_principal_seed(self):
        rng = random.Random(4)
        # (b0, n): (1, 2)^n and (2, 1)^n go round the exchange graph, a
        # polygon, and come back along edges that they crossed the other
        # way, so they read reverse entries
        cases = [(B_A2, 5), (B_B2, 6), (B_A3, 0), (named_cartan("G2").b_matrix(), 8)]
        cases += [(named_cartan(n).b_matrix(), 0) for n in ("B3", "C3", "D4")]
        for b0, n in cases:
            r = len(b0)
            addrs = [reduce_word(tuple(rng.randint(1, r) for _ in range(5)))
                     for _ in range(12)]
            for addr in addrs + [(1, 2) * n, (2, 1) * n]:
                fast = extract_gcf(b0, addr)
                slow = gcf_from_principal(b0, addr)
                assert fast.gmatrix == slow.gmatrix
                assert fast.cmatrix == slow.cmatrix
                assert fast.fpolys == slow.fpolys

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_recurrence_matches_principal_seed_beyond_finite_type(self, data):
        # affine, wild and mutation-cyclic roots, and random D S with S
        # skew-symmetric: rank 2 with bonds up to 3, and rank 3 with entries
        # up to 2 and no bond between two rows that D doubles.  On rank 3,
        # words stop at length 4: at length 5 a double bond in a cycle takes
        # the oracle past 10 s
        markov = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))
        b0 = data.draw(st.one_of(
            st.sampled_from([((0, 2), (-2, 0)), ((0, 3), (-3, 0)), markov]),
            _skew_symmetrizable_roots(),
        ))
        r = len(b0)
        longest = 4 if r == 3 and b0 != markov else 5
        addr = reduce_word(data.draw(st.lists(st.integers(1, r), max_size=longest)))
        fast = extract_gcf(b0, addr)
        slow = gcf_from_principal(b0, addr)
        assert fast.gmatrix == slow.gmatrix
        assert fast.cmatrix == slow.cmatrix
        assert fast.fpolys == slow.fpolys

    def test_g_b_equals_b_c(self):
        rng = random.Random(8)
        for b0 in (B_A2, B_A3):
            r = len(b0)
            for _ in range(15):
                addr = reduce_word(tuple(rng.randint(1, r) for _ in range(6)))
                from cluster_friezes.mutation import gcf_pattern

                bt, g, c, _ = gcf_pattern(b0).at(addr)
                assert mat_mul(g, bt) == mat_mul(b0, c)

    def test_fpoly_shape(self):
        rng = random.Random(21)
        for _ in range(15):
            addr = reduce_word(tuple(rng.randint(1, 3) for _ in range(6)))
            data = extract_gcf(B_A3, addr)
            for f in data.fpolys:
                assert f.constant_coeff() == 1
                assert f.coefficients_nonnegative()

    def test_principal_seed_frozen_variables(self):
        seed = seed_pattern("A", principal_extension(B_A2)).seed_at((1, 2, 1))
        assert seed.frozen == (RF.variable(3, 4), RF.variable(4, 4))


class TestFrozenRowsFromShape:
    """A root's frozen rows are its rows below the square part: no frozen
    count is passed beside the matrix."""

    def test_principal_seed_at_is_the_walked_seed(self):
        # seed_at once refused the principal extension for want of a count
        tall = principal_extension(B_A2)
        seed = seed_at("A", tall, (1, 2))
        assert seed.frozen == (RF.variable(3, 4), RF.variable(4, 4))
        graph = enumerate_exchange_graph("A", tall)
        assert any(s is seed for s in graph.seeds.values())

    @pytest.mark.parametrize(
        "kind, b0",
        [("A", ((0, 1, 1), (-1, 0, 0))), ("Y", principal_extension(B_A2))],
        ids=["wide", "tall-Y"],
    )
    def test_wide_root_and_tall_y_root_raise(self, kind, b0):
        with pytest.raises(DimensionMismatch):
            root_seed(kind, b0)
        with pytest.raises(DimensionMismatch):
            seed_at(kind, b0, ())

    @pytest.mark.parametrize(
        "b0", [principal_extension(B_A2), ((0, 1, 0), (-1, 0, 1))], ids=["tall", "wide"]
    )
    def test_non_square_gcf_root_raises(self, b0):
        # a tall root gave 4 x 4 "G" and "C" matrices, and a wide one the
        # data of its principal part
        for make in (
            GCFPattern,
            gcf_pattern,
            lambda b: extract_gcf(b, (1,)),
            lambda b: gcf_from_principal(b, (1,)),
        ):
            with pytest.raises(DimensionMismatch):
                make(b0)


class TestSeparation:
    def test_root(self):
        assert separation_check(B_A2, ())

    def test_depth_six_rank2(self):
        for addr in [(1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2),
                     (1, 2, 1, 2), (2, 1, 2, 1), (1, 2, 1, 2, 1),
                     (2, 1, 2, 1, 2), (1, 2, 1, 2, 1, 2)]:
            assert separation_check(B_A2, addr)

    def test_b2_whole_graph(self):
        graph = enumerate_exchange_graph("Y", B_B2, 100)
        assert all(separation_check(B_B2, s.address) for s in graph.seeds.values())

    @pytest.mark.parametrize("break_state", [
        # F_1 times (1 + x1)
        lambda b, g, c, f: (b, g, c, (f[0] * (P.one(len(b)) + P.variable(1, len(b))),)
                            + f[1:]),
        # the entry c_11 off by one
        lambda b, g, c, f: (b, g, ((c[0][0] + 1,) + c[0][1:],) + c[1:], f),
    ], ids=["f-times-1-plus-x1", "c-entry-off-by-one"])
    def test_catches_a_broken_gcf_state(self, break_state, monkeypatch):
        class Broken:
            """A G/C/F pattern whose walker reads broken states."""

            def __init__(self, pattern):
                self.pattern = pattern
                self._walk = self

            def get(self, v):
                return break_state(*self.pattern._walk.get(v))

        gcf_pattern = mutation.gcf_pattern
        monkeypatch.setattr(mutation, "gcf_pattern", lambda b0: Broken(gcf_pattern(b0)))
        for addr in [(), (1,), (1, 2), (3, 2, 1), (2, 1, 3, 2)]:
            assert separation_check(B_A3, addr) is False
        result = verify.run_suite("fpoly-separation", types=("A2",))
        assert result.passed is False
        assert result.details["A2"]["separation_failures"] > 0

    @pytest.mark.parametrize("name", ["A3", "B3"])
    def test_no_gcd(self, name, monkeypatch):
        b = named_cartan(name).b_matrix()
        addrs = [s.address for s in enumerate_exchange_graph("Y", b).seeds.values()]
        # both routes are memoized, so the first pass leaves only the
        # comparison to run under the patch
        assert all(separation_check(b, addr) for addr in addrs)

        def no_gcd(p, q):
            raise AssertionError("separation_check ran a gcd")

        monkeypatch.setattr(laurent, "_gcd_cofactors", no_gcd)
        assert all(separation_check(b, addr) for addr in addrs)


def _textbook_y_step(seed, k):
    """y_i' = y_i y_k^[b_ki]+ (1 + y_k)^(-b_ki), and y_k' = 1/y_k, as written
    (Fomin and Zelevinsky, "Cluster algebras IV")."""
    yk = seed.cluster[k - 1]
    out = []
    for i, yi in enumerate(seed.cluster, 1):
        b = seed.matrix[k - 1][i - 1]
        out.append(yk**-1 if i == k else yi * yk ** max(b, 0) * (yk + 1) ** (-b))
    return tuple(out)


class TestYStep:
    """The Y-seed exchange against the textbook product, on a throwaway
    table (mutate_Y_seed) and on one table kept across steps."""

    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
    def test_every_vertex_of_the_graph(self, name):
        b = named_cartan(name).b_matrix()
        table = _Exchanges()
        for _, _, _, seed in walk_exchange_graph("Y", b):
            for k in range(1, len(b) + 1):
                expected = _textbook_y_step(seed, k)
                assert mutate_Y_seed(seed, k).cluster == expected
                assert mutation._mutate(seed, k, table).cluster == expected
                yk = seed.cluster[k - 1]
                inverse, one_plus, ratio = table.memo[table.ids[yk]]
                assert (table.values[inverse], one_plus, ratio) == (
                    yk**-1, yk + 1, yk / (yk + 1)
                )

    def test_random_words_a4(self):
        b = named_cartan("A4").b_matrix()
        rng = random.Random("A4")
        table = _Exchanges()
        for _ in range(30):
            seed = root_seed("Y", b)
            for k in _random_reduced_word(rng, 4, 10):
                expected = _textbook_y_step(seed, k)
                assert mutation._mutate(seed, k, table).cluster == expected
                seed = mutate_Y_seed(seed, k)
                assert seed.cluster == expected


class TestGlobalMonomials:
    def test_global_y_monomial(self):
        assert is_global_Y_monomial(B_A2, (), (0, 0))
        assert is_global_Y_monomial(B_A2, (), (1, 0))
        assert not is_global_Y_monomial(B_A2, (), (0, 1))

    @pytest.mark.parametrize("exponents", [(0.5, 0), (1.0, 0), (True, 0), ("1", 0)])
    def test_non_int_exponents_raise(self, exponents):
        with pytest.raises(TypeError, match="is not an int"):
            is_global_Y_monomial(B_A2, (), exponents)

    @pytest.mark.parametrize("exponents", [(), (1,), (0, 1, 5)])
    def test_exponents_of_the_wrong_length_raise(self, exponents):
        # B_t times the exponents zips rows with entries, so a short or long
        # vector would be cut to the rank and answered
        with pytest.raises(DimensionMismatch, match="wrong length"):
            is_global_Y_monomial(B_A2, (1,), exponents)


def _reference_walk(kind, b0, depth=None):
    """(level, vertex, key) of the breadth-first exchange-graph walk down to
    level depth, following every edge (the one back to the parent too) and
    sorting each seed by keys recomputed from its polynomials, never read
    from a cache.  The rows of a tall b0 below its square part are frozen."""

    def key(seed):
        r = seed.rank
        order = sorted(
            range(r),
            key=lambda i: (seed.cluster[i].num.sort_key(), seed.cluster[i].den.sort_key()),
        )
        rows = [tuple(seed.matrix[i][j] for j in order) for i in order]
        rows += [tuple(row[j] for j in order) for row in seed.matrix[r:]]
        return (tuple(seed.cluster[i] for i in order), tuple(rows))

    pattern = mutation.seed_pattern(kind, b0)
    root = pattern.seed_at(())
    walk = [(0, 0, key(root))]
    seen = {walk[0][2]}
    frontier = [()]
    level = 0
    while frontier and (depth is None or level < depth):
        level += 1
        next_frontier = []
        for addr in frontier:
            for k in range(1, root.rank + 1):
                child = reduce_word(addr + (k,))
                child_key = key(pattern.seed_at(child))
                if child_key not in seen:
                    seen.add(child_key)
                    next_frontier.append(child)
                    walk.append((level, _vertex(child), child_key))
        frontier = next_frontier
    return walk


def _counting(function, calls, *args, **kwargs):
    calls.append(args)
    return function(*args, **kwargs)


def _count_walk_steps(monkeypatch):
    """Lists that record, from now on, each exchange step (A or Y), each
    unordered key, each tree vertex looked up or made, and each seed built
    from entry ids; patterns made later step by the counted exchanges."""
    calls, keys, vertices, seeds = [], [], [], []
    for kind, f in mutation._EXCHANGES.items():
        monkeypatch.setitem(mutation._EXCHANGES, kind, partial(_counting, f, calls))
    monkeypatch.setattr(mutation, "_child", partial(_counting, _child, vertices))
    monkeypatch.setattr(
        mutation, "_seed_from", partial(_counting, mutation._seed_from, seeds)
    )
    unordered_key = mutation.Seed.unordered_key

    def counted_key(seed):
        keys.append(seed)
        return unordered_key(seed)

    monkeypatch.setattr(mutation.Seed, "unordered_key", counted_key)
    return calls, keys, vertices, seeds


class TestExchangeGraph:
    def test_a2_counts(self):
        graph = enumerate_exchange_graph("A", B_A2, 100)
        assert len(graph.seeds) == 5
        assert len(graph.cluster_variables()) == 5

    def test_a2_y_variables(self):
        graph = enumerate_exchange_graph("Y", B_A2, 100)
        assert len(graph.cluster_variables()) == 10

    def test_budget_exceeded_affine(self):
        with pytest.raises(BudgetExceeded):
            enumerate_exchange_graph("A", ((0, -2), (2, 0)), 20)

    def test_walk_levels_and_depth(self):
        walk = list(walk_exchange_graph("A", B_A2))
        assert [level for level, _, _, _ in walk] == [0, 1, 1, 2, 2]
        assert list(walk_exchange_graph("A", B_A2, 1)) == walk[:3]
        assert list(walk_exchange_graph("A", B_A2, 0)) == walk[:1]
        graph = enumerate_exchange_graph("A", B_A2, 100)
        assert [(key, seed) for _, _, key, seed in walk] == list(graph.seeds.items())
        # every vertex but the root hangs below one yielded before it
        yielded = set()
        for _, v, _, _ in walk:
            assert v == 0 or _PARENT[v] in yielded
            yielded.add(v)

    @pytest.mark.parametrize("name", ("A1",) + DEFAULT_TYPES)
    @pytest.mark.parametrize("kind", ["A", "Y"])
    def test_walk_matches_reference_walk(self, kind, name):
        # the A-graph of B^T and the Y-graph of B, as a finite context has them
        b = named_cartan(name).b_matrix()
        b0 = mutation.transpose(b) if kind == "A" else b
        walk = [(level, v, key) for level, v, key, _ in walk_exchange_graph(kind, b0)]
        assert walk == _reference_walk(kind, b0)

    @pytest.mark.parametrize("name", ["E6", "D6"])
    def test_large_walk_matches_reference_walk(self, name):
        b0 = mutation.transpose(named_cartan(name).b_matrix())
        walk = [(level, v, key) for level, v, key, _ in walk_exchange_graph("A", b0)]
        assert walk == _reference_walk("A", b0)

    @pytest.mark.parametrize("name", ["A3", "B3", "D4"])
    def test_principal_coefficient_walk_matches_reference_walk(self, name):
        # a tall root: frozen rows keep their place in the key, and the
        # graph is the coefficient-free one
        b0 = principal_extension(named_cartan(name).b_matrix())
        walk = [(level, v, key) for level, v, key, _ in walk_exchange_graph("A", b0)]
        assert walk == _reference_walk("A", b0)
        assert len(walk) == {"A3": 14, "B3": 20, "D4": 50}[name]

    @pytest.mark.parametrize("depth", range(7))
    @pytest.mark.parametrize("kind", ["A", "Y"])
    def test_affine_walk_matches_reference_walk(self, kind, depth):
        b0 = ((0, -2), (2, 0))
        walk = [
            (level, v, key) for level, v, key, _ in walk_exchange_graph(kind, b0, depth)
        ]
        assert walk == _reference_walk(kind, b0, depth)
        assert len(walk) == 2 * depth + 1

    @pytest.mark.parametrize(
        "kind, name",
        [("A", "E6"), ("A", "D6")]
        + [(kind, name) for name in DEFAULT_TYPES for kind in ("A", "Y")],
    )
    def test_each_edge_mutated_once(self, kind, name, monkeypatch):
        # a fresh pattern registry, so every child seed is computed here
        monkeypatch.setattr(mutation, "_seed_patterns", _Registry())
        calls, keys, vertices, seeds = _count_walk_steps(monkeypatch)
        b = named_cartan(name).b_matrix()
        b0 = mutation.transpose(b) if kind == "A" else b
        graph = enumerate_exchange_graph(kind, b0)
        assert 2 * len(calls) == len(graph.seeds) * len(b0)
        # no edge back to a parent is looked at, and only a yielded seed is
        # built, given a tree vertex and keyed: a twin child is none of these
        assert len(keys) == len(graph.seeds)
        assert len(vertices) == len(seeds) == len(graph.seeds) - 1
        if name in ("E6", "D6"):
            assert len(calls) == {"E6": 2499, "D6": 2016}[name]

    @pytest.mark.parametrize("kind", ["A", "Y"])
    def test_twin_without_the_new_entry_raises(self, kind, monkeypatch):
        # one forged twin key for every seed but the root (whose entry ids
        # are 0, 1, 2): the root's second child passes for a twin of its
        # first, whose cluster lacks the second child's new entry
        monkeypatch.setattr(mutation, "_seed_patterns", _Registry())
        monkeypatch.setattr(
            mutation, "_twin_key", lambda ids, matrix, r: ids != (0, 1, 2)
        )
        with pytest.raises(InternalDisagreement, match="holds the new entry 0 times"):
            list(walk_exchange_graph(kind, B_A3))

    @pytest.mark.parametrize("kind", ["A", "Y"])
    def test_second_walk_replays_the_first(self, kind, monkeypatch):
        monkeypatch.setattr(mutation, "_seed_patterns", _Registry())
        calls = _count_walk_steps(monkeypatch)[0]
        b0 = named_cartan("B3").b_matrix()
        shallow = list(walk_exchange_graph(kind, b0, 2))
        first = len(calls)
        assert first
        # a second walk as deep replays the kept one: no exchange at all
        assert list(walk_exchange_graph(kind, b0, 2)) == shallow
        assert len(calls) == first
        # a deeper one extends it from where it stopped
        deep = list(walk_exchange_graph(kind, b0))
        assert deep[: len(shallow)] == shallow
        assert len(deep) > len(shallow) and len(calls) > first
        assert 2 * len(calls) == len(deep) * len(b0)
        total = len(calls)
        assert list(walk_exchange_graph(kind, b0)) == deep
        assert list(walk_exchange_graph(kind, b0, 3)) == [e for e in deep if e[0] <= 3]
        assert len(calls) == total
        # the kept walk is what a pattern of its own walks
        assert list(SeedPattern(kind, b0)._replay()) == deep

    def test_threads_share_one_walk(self, monkeypatch):
        # six threads walk one fresh pattern at mixed depths, switching as
        # often as the interpreter allows
        monkeypatch.setattr(mutation, "_seed_patterns", _Registry())
        calls = _count_walk_steps(monkeypatch)[0]
        b0 = mutation.transpose(named_cartan("D4").b_matrix())
        depths = [None, 2, 5, None, 1, 4]
        results = [None] * len(depths)

        def worker(t):
            results[t] = list(walk_exchange_graph("A", b0, depths[t]))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(depths))]
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
        shared = len(calls)
        full = list(SeedPattern("A", b0)._replay())
        assert len(full) == 50
        for depth, result in zip(depths, results):
            assert result == [e for e in full if depth is None or e[0] <= depth]
        # each edge was mutated across once, by one thread or another
        assert 2 * shared == len(full) * len(b0)

    def test_laurent_positivity(self):
        # every variable, re-expanded in every chart, is a nonnegative
        # Laurent polynomial
        from cluster_friezes.mutation import seed_pattern

        for b0 in (B_A2, B_B2):
            graph = enumerate_exchange_graph("A", b0, 100)
            pattern = seed_pattern("A", b0)
            addresses = [seed.address for seed in graph.seeds.values()]
            for var in graph.cluster_variables():
                for target in addresses:
                    expr = var
                    for pos, k in enumerate(target):
                        expr = reexpress(expr, pattern, target[:pos], k)
                    assert expr.is_laurent()
                    assert expr.num.coefficients_nonnegative()


def cofactor_det(m):
    """Determinant by Laplace expansion along the first row (test oracle)."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def minor_rank(m):
    """The largest k with a nonzero k x k minor of m (test oracle)."""
    rows, cols = range(len(m)), range(len(m[0]) if m else 0)
    return max(
        k
        for k in range(min(len(rows), len(cols)) + 1)
        for rs in itertools.combinations(rows, k)
        for cs in itertools.combinations(cols, k)
        if cofactor_det([[m[i][j] for j in cs] for i in rs])
    )


def mat_vec(m, u):
    return [sum(x * y for x, y in zip(row, u)) for row in m]


class TestGaussJordan:
    @pytest.mark.parametrize(
        "m",
        [
            [[0, 1, 2], [3, 4, 5], [6, 7, 9]],  # zero first pivot: row swap
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],  # odd permutation
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # singular
            [[1, 2], [2, 4]],  # singular
            [[2, 1], [1, 3]],  # det 5: pivots are not units
            [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],  # Cartan A3, det 4
            [[3]],
            [],
        ],
    )
    def test_det_matches_cofactor_expansion(self, m):
        assert _gauss_jordan(m)[0] == cofactor_det(m)

    def test_det_random(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert _gauss_jordan(m)[0] == cofactor_det(m)

    def test_unique_solution(self):
        m, rhs = [[0, 2, 1], [1, 1, 0], [3, 0, 2]], [1, 2, 3]
        det, u = _gauss_jordan(m, rhs)
        assert det == cofactor_det(m) != 0
        assert all(isinstance(x, Fraction) for x in u)
        assert mat_vec(m, u) == rhs

    def test_singular_consistent(self):
        m, rhs = [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [6, 15, 24]
        det, u = _gauss_jordan(m, rhs)
        assert det == 0
        assert u is not None and mat_vec(m, u) == rhs

    def test_singular_inconsistent(self):
        det, u = _gauss_jordan([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [6, 15, 25])
        assert det == 0 and u is None

    def test_random_systems(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randint(-3, 3) for _ in range(n)]
            det, u = _gauss_jordan(m, rhs)
            assert det == cofactor_det(m)
            if det:
                assert mat_vec(m, u) == rhs
            elif u is not None:
                assert mat_vec(m, u) == rhs

    def test_non_square_systems(self):
        """An n x s system: det is nonzero exactly when the s columns are
        independent, and u is None exactly when rhs is not in their span
        (ranks read from the nonzero minors)."""
        rng = random.Random(29)
        for _ in range(200):
            n, s = rng.randint(1, 4), rng.randint(0, 4)
            m = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(n)]
            if rng.random() < 0.5:
                rhs = mat_vec(m, [rng.randint(-2, 2) for _ in range(s)])
            else:
                rhs = [rng.randint(-3, 3) for _ in range(n)]
            det, u = _gauss_jordan(m, rhs)
            assert (det != 0) == (minor_rank(m) == s)
            augmented = [row + [b] for row, b in zip(m, rhs)]
            assert (u is None) == (minor_rank(augmented) > minor_rank(m))
            if u is not None:
                assert len(u) == s and mat_vec(m, u) == rhs


def _reduced_words(r, max_len):
    words = [()]
    for length in range(1, max_len + 1):
        for w in itertools.product(range(1, r + 1), repeat=length):
            if all(a != b for a, b in zip(w, w[1:])):
                words.append(w)
    return words


class TestPrefixWalkers:
    """Every memoized walker returns the same value at an address whatever
    was asked before it."""

    ADDRS = _reduced_words(3, 4)
    WALKERS = [
        (lambda: MatrixPattern(B_A3), lambda w, a: w.at(a)),
        (lambda: SeedPattern("A", B_A3), lambda w, a: w.seed_at(a)),
        (lambda: SeedPattern("Y", B_A3), lambda w, a: w.seed_at(a)),
        (lambda: GCFPattern(B_A3), lambda w, a: w.at(a)),
        (
            lambda: TropPoint("A", B_A3, (2, -1, 1), (2, 3, 1)),
            lambda w, a: w.coords_at(a),
        ),
    ]
    IDS = ["matrix", "a-seed", "y-seed", "gcf", "trop"]

    @pytest.mark.parametrize("make,query", WALKERS, ids=IDS)
    def test_deep_first_equals_shallow_first(self, make, query):
        shallow, deep = make(), make()
        by_shallow = {a: query(shallow, a) for a in sorted(self.ADDRS, key=len)}
        by_deep = {
            a: query(deep, a) for a in sorted(self.ADDRS, key=len, reverse=True)
        }
        assert by_shallow == by_deep

    @pytest.mark.parametrize("make,query", WALKERS, ids=IDS)
    def test_shared_between_threads(self, make, query):
        reference = make()
        expected = {a: query(reference, a) for a in self.ADDRS}
        shared = make()
        results = [None] * 6

        def worker(t):
            order = list(self.ADDRS)
            random.Random(t).shuffle(order)
            results[t] = {a: query(shared, a) for a in order}

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
        assert all(result == expected for result in results)


    def test_seed_and_gcf_walkers_of_a_fresh_root_between_threads(self, monkeypatch):
        # Y-seed and G/C/F walkers of one root, made on first use, step
        # from the one matrix walker: each takes it while holding its own
        # lock, and it takes no other; the expected values are computed
        # before the registries are emptied, so the threads make all three
        # patterns
        b = named_cartan("B3").b_matrix()
        words = _reduced_words(3, 4)
        expected = {}
        for word in words:
            seed, state = root_seed("Y", b), GCFPattern(b).at(())
            for k in word:
                seed, state = mutate_seed(seed, k), _gcf_step_on(_Exchanges(), state, k)
            expected[word] = (seed.cluster, state)
        for name in ("_matrix_patterns", "_seed_patterns", "_gcf_patterns"):
            monkeypatch.setattr(mutation, name, _Registry())
        results = [None] * 6

        def worker(t):
            order = list(words)
            random.Random(t).shuffle(order)
            out = {}
            for i, word in enumerate(order):
                if (i + t) % 2:
                    seed = seed_pattern("Y", b).seed_at(word)
                    state = gcf_pattern(b).at(word)
                else:
                    state = gcf_pattern(b).at(word)
                    seed = seed_pattern("Y", b).seed_at(word)
                assert seed.matrix is state[0]
                out[word] = (seed.cluster, state)
            results[t] = out

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
        assert all(result == expected for result in results)


class LockTaken(Exception):
    pass


class _NoLock:
    """Stands in for a memo's lock; taking it raises LockTaken."""

    def __enter__(self):
        raise LockTaken

    def __exit__(self, *exc):
        return False


class TestCacheContract:
    """Every memo is a _Registry, a _PrefixWalker or a _Line: a hit reads the
    dict or list without a lock, and a miss creates the value once, under
    the lock."""

    def test_hit_takes_no_lock(self, monkeypatch):
        registry = _Registry()
        item = registry.get("key", object)
        cartan = named_cartan("B2")
        b = cartan.b_matrix()
        slice_backed = FriezeFunction.from_slice("cluster-additive", cartan, (1, -2))
        point = TropPoint("Y", b, (2, -1))
        reads = []

        def provider(m):
            reads.append(m)
            return (3 - m, 6 - m)

        provider_backed = FriezeFunction("additive", cartan, provider)
        cells = [(i, m) for i in (1, 2) for m in range(-4, 5)]
        table = [slice_backed.value(i, m) for i, m in cells]
        belt = [point.belt_value(i, m) for i, m in cells]
        vertices = [mutation._belt_vertex(i, m, 2) for i, m in cells]
        # the process-wide lines a point over b reads: its pattern's belt
        # matrices, and the belt vertices of rank 2
        matrices = matrix_pattern(b).belt
        vertex_line = mutation._belt_lines.items[2]
        belt_matrices = [matrices.get(s) for s in range(-8, 9)]
        # the process-wide plans of the Y-rule over b: the belt plans a
        # point's column steps read, and the tree-walk plans per edge
        words = _reduced_words(2, 4)
        at_words = [point.coords_at(a) for a in words]
        plans = tropical._plans.items[("Y", b)]
        column_plans = [plans.belt.get(m) for m in range(-4, 5)]
        pattern = SeedPattern("Y", B_A3)
        seeds = {a: pattern.seed_at(a) for a in _reduced_words(3, 3)}
        registry.lock = pattern._walk.lock = _NoLock()
        slice_backed._line.lock = point._belt.lock = _NoLock()
        monkeypatch.setattr(matrices, "lock", _NoLock())
        monkeypatch.setattr(vertex_line, "lock", _NoLock())
        for plan_cache in (tropical._plans, plans.belt, plans.edges):
            monkeypatch.setattr(plan_cache, "lock", _NoLock())
        assert registry.get("key", object) is item
        assert [slice_backed.value(i, m) for i, m in cells] == table
        assert [point.belt_value(i, m) for i, m in cells] == belt
        # a new point over b reads the plan caches only: its belt columns
        # step from the cached belt plans and its tree walk from the cached
        # edge plans (its own line and walker take their own locks)
        fresh = TropPoint("Y", b, (2, -1))
        assert [fresh.belt_value(i, m) for i, m in cells] == belt
        assert [fresh.coords_at(a) for a in words] == at_words
        assert [plans.belt.get(m) for m in range(-4, 5)] == column_plans
        assert [mutation._belt_vertex(i, m, 2) for i, m in cells] == vertices
        assert [matrices.get(s) for s in range(-8, 9)] == belt_matrices
        assert {a: pattern.seed_at(a) for a in seeds} == seeds
        # a provider-backed function caches nothing and owns no lock: every
        # read, a repeated one too, calls the column provider once
        for _ in range(2):
            assert [provider_backed.value(i, m) for i, m in cells] == [
                3 * i - m for i, m in cells
            ]
        assert reads == [m for _, m in cells] * 2
        lock_types = (type(threading.Lock()), type(threading.RLock()), _Registry)
        assert not any(isinstance(v, lock_types) for v in vars(provider_backed).values())
        # the stand-ins are the locks a miss takes, on either side of a line
        for miss in (
            lambda: registry.get("other", object),
            lambda: slice_backed.value(1, 9),
            lambda: slice_backed.value(1, -9),
            lambda: point.belt_value(1, 9),
            lambda: point.belt_value(2, -9),
            lambda: matrices.get(len(matrices.ahead)),
            lambda: matrices.get(-len(matrices.behind)),
            lambda: vertex_line.get(len(vertex_line.ahead)),
            lambda: vertex_line.get(-len(vertex_line.behind)),
            lambda: pattern.seed_at((1, 2, 3, 1)),
            lambda: tropical._plans.get(("Y", object()), object),
            lambda: plans.belt.get(len(plans.belt.ahead)),
            lambda: plans.belt.get(-len(plans.belt.behind)),
            # a walk with more edges than the plans cached: one is new
            lambda: fresh.coords_at((2, 1) * (len(plans.edges.items) + 1)),
        ):
            with pytest.raises(LockTaken):
                miss()

    def test_make_runs_once_per_key_under_a_race(self):
        registry = _Registry()
        keys = list(range(40))
        calls = []

        def make(key):
            calls.append(key)
            time.sleep(1e-4)  # widen the window between the probe and the store
            return object()

        results = [None] * 6

        def worker(t):
            order = list(keys)
            random.Random(t).shuffle(order)
            results[t] = {k: registry.get(k, make, k) for k in order}

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
        assert sorted(calls) == keys
        assert all(result == results[0] for result in results)
        assert registry.items == results[0]


def _gcf_step_on(table, state, k):
    """The (B, G, C, F) state across edge k from state: the F exchange on
    table, and B mutated directly."""
    g, c, ids = _gcf_step(table, state, tuple(map(table.intern, state[3])), k)
    return (mutate_matrix_raw(state[0], k), g, c, tuple(table.values[i] for i in ids))


def _memo_free_entries(state, k, table):
    """The exchange-memo entries that a step in direction k from state (a
    (B, G, C, F) state, or a seed) reads, each computed on a throwaway
    table.  Keys are made of the ids in table, whose entries are the
    state's F-polynomials or the seed's entries, and a key that names an
    entry table lacks is left out; each value is an entry, not its id (and
    for a Y-seed's y_k, 1/y_k, 1 + y_k and y_k/(1 + y_k))."""
    if isinstance(state, tuple):
        b, _, c, f = state
        ids = [table.ids.get(x) for x in f]
        if None in ids:
            return {}
        pairs = tuple(sorted((i, row[k - 1]) for i, row in zip(ids, b) if row[k - 1]))
        key = (ids[k - 1], pairs, tuple(row[k - 1] for row in c))
        return {key: _gcf_step_on(_Exchanges(), state, k)[3][k - 1]}
    new = mutate_seed(state, k)
    ids = [table.ids.get(x) for x in state.variables()]
    out = ids[k - 1]
    column = [row[k - 1] for row in state.matrix]
    if state.kind == "A":
        if None in ids:
            return {}
        pairs = tuple(sorted((i, b) for i, b in zip(ids, column) if b))
        return {(out, pairs): new.cluster[k - 1]}
    y = state.cluster[k - 1]
    entries = {out: (new.cluster[k - 1], y + 1, y / (y + 1))}
    for i, (yi, bki) in enumerate(zip(ids, state.matrix[k - 1])):
        if i != k - 1 and bki:
            entries[(yi, out, bki)] = new.cluster[i]
    return {key: value for key, value in entries.items()
            if None not in (key if isinstance(key, tuple) else (key,))}


def _memo_entries(pattern):
    """A pattern's exchange memo with entry ids read as entries."""
    values = pattern._exchanges.values
    return {
        key: (values[v[0]], *v[1:]) if isinstance(v, tuple) else values[v]
        for key, v in pattern._exchanges.memo.items()
    }


def _memo(pattern):
    """A pattern's exchange memo as stored."""
    return pattern._exchanges.memo


def _random_reduced_word(rng, r, length):
    word = [rng.randint(1, r)]
    while len(word) < length:
        k = rng.randint(1, r - 1)
        word.append(k if k < word[-1] else k + 1)
    return tuple(word)


class TestExchangeMemo:
    """Seed and G/C/F patterns memoize exchanges by interned entry ids; the
    memo changes no value, saves every repeated division, and is never
    shared."""

    @pytest.mark.parametrize("name", ["A4", "B3", "G2"])
    def test_walker_equals_memo_free_chain(self, name):
        b = named_cartan(name).b_matrix()
        r = len(b)
        kinds = [("A", b), ("Y", b), ("A", principal_extension(b))]
        roots = [root_seed(*kind) for kind in kinds]
        patterns = [SeedPattern(*kind) for kind in kinds]
        gcf = GCFPattern(b)
        gcf_root = GCFPattern(b).at(())
        rng = random.Random(name)
        for _ in range(25):
            word = _random_reduced_word(rng, r, 8)
            for root, pattern in zip(roots, patterns):
                seed = root
                for k in word:
                    seed = mutate_seed(seed, k)
                assert pattern.seed_at(word) == seed
            state = gcf_root
            for k in word:
                state = _gcf_step_on(_Exchanges(), state, k)
            assert gcf.at(word) == state

    def test_one_memo_across_matrices(self):
        # one table shared by rank-2 roots whose seeds and states meet the
        # same entries with other b_jk (bonds 1, 2 and 3, both signs, with
        # and without frozen rows) still gives the values of throwaway
        # tables: every key carries all that its exchange depends on
        mats = [B_A2, B_B2, ((0, 2), (-1, 0)), ((0, -3), (1, 0)), ((0, 3), (-1, 0))]
        mats += [tuple(tuple(-x for x in row) for row in b) for b in mats]
        roots = [root_seed(kind, b) for kind in "AY" for b in mats]
        for b in mats:
            roots.append(root_seed("A", b + ((0, 0), (0, 0))))
            roots.append(root_seed("A", principal_extension(b)))
        words = _reduced_words(2, 6)
        table = _Exchanges()
        for root in roots:
            for word in words:
                shared = free = root
                for k in word:
                    shared = mutation._mutate(shared, k, table)
                    free = mutate_seed(free, k)
                assert shared == free
        table = _Exchanges()
        for b in mats:
            for word in words:
                shared = free = GCFPattern(b).at(())
                for k in word:
                    shared = _gcf_step_on(table, shared, k)
                    free = _gcf_step_on(_Exchanges(), free, k)
                assert shared == free

    def test_key_counts_repeated_entries(self):
        # F-polynomials repeat within a state (every root F is 1): a key
        # holds an id once per F_j with b_jk != 0, and none for b_jk = 0
        root = GCFPattern(B_A3).at(())
        table = _Exchanges()
        one = table.intern(root[3][0])
        assert _gcf_step(table, root, (one,) * 3, 2)[2] == (one, 1, one)
        assert _gcf_step(table, root, (one,) * 3, 1)[2] == (2, one, one)
        assert table.memo == {
            # column 2 of B_A3 is (-1, 0, 1): F_1 and F_3 are both 1
            (one, ((one, -1), (one, 1)), (0, 1, 0)): 1,
            (1, ((one, -1), (one, 1)), (0, -1, 0)): one,
            # column 1 is (0, 1, 0): only F_2 counts
            (one, ((one, 1),), (1, 0, 0)): 2,
            (2, ((one, -1),), (-1, 0, 0)): one,
        }
        # at a sink of A3, column 2 is (1, 0, 1): the key holds (one, 1)
        # twice, and differs from the key at a root whose column 2 holds it
        # once, though both exchanges give F_2 = 1 + y_2
        sink = ((0, 1, 0), (-1, 0, -1), (0, 1, 0))
        once = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
        table = _Exchanges()
        one = table.intern(root[3][0])
        for b in (sink, once):
            state = GCFPattern(b).at(())
            assert _gcf_step(table, state, (one,) * 3, 2)[2] == (one, 1, one)
        assert table.values[1] == P.one(3) + P.variable(2, 3)
        assert table.memo == {
            (one, ((one, 1), (one, 1)), (0, 1, 0)): 1,
            (1, ((one, -1), (one, -1)), (0, -1, 0)): one,
            (one, ((one, 1),), (0, 1, 0)): 1,
            (1, ((one, -1),), (0, -1, 0)): one,
        }

    def test_one_division_per_exchange_key(self, monkeypatch):
        calls = []
        exact_div = P.exact_div

        def counted(self, other):
            calls.append((self, other))
            return exact_div(self, other)

        monkeypatch.setattr(P, "exact_div", counted)
        # a fresh registry, so the pattern starts with an empty memo
        monkeypatch.setattr(mutation, "_seed_patterns", _Registry())
        steps = _count_walk_steps(monkeypatch)[0]
        b = named_cartan("D4").b_matrix()
        graph = enumerate_exchange_graph("A", b)
        (pattern,) = mutation._seed_patterns.items.values()
        assert len(graph.seeds) == 50
        # no exchange is divided for twice; each division writes its key and
        # the reverse one, and the reverse entries save divisions outright
        assert len(set(calls)) == len(calls) < len(steps)
        assert len(calls) < len(pattern._exchanges.memo) <= 2 * len(calls)

    @pytest.mark.parametrize("name", ["A4", "B3", "G2"])
    def test_reverse_entries_match_memo_free(self, name):
        b = named_cartan(name).b_matrix()
        r = len(b)
        rng = random.Random(name)
        words = [_random_reduced_word(rng, r, 8) for _ in range(20)]
        patterns = [SeedPattern("A", b), SeedPattern("A", principal_extension(b)),
                    SeedPattern("Y", b), GCFPattern(b)]
        for pattern in patterns:
            walk = pattern._walk
            for word in words:
                walk.get(mutation._vertex(word))
            memo = _memo_entries(pattern)
            table = pattern._exchanges
            # every entry, forward or reverse, is an exchange that a walked
            # seed reads, and equals that exchange recomputed on a throwaway
            # table
            expected = {}
            for state in walk.memo.values():
                for k in range(1, r + 1):
                    expected.update(_memo_free_entries(state, k, table))
            assert memo.keys() <= expected.keys()
            assert all(memo[key] == expected[key] for key in memo)
            # each step the walker took wrote the way back too (exchanges
            # have tuple keys; a Y memo also keys the parts of y_k by the
            # id of y_k)
            for v, state in walk.memo.items():
                if v:
                    back = _memo_free_entries(state, mutation._LETTER[v], table)
                    assert {key for key in back if isinstance(key, tuple)} <= memo.keys()

    @pytest.mark.parametrize("kind", ["A", "A-frozen", "Y", "GCF"])
    def test_cycle_back_reads_reverse_entries(self, kind, monkeypatch):
        # (1, 2)^5 closes the A2 pentagon twice; (2, 1)^5 then walks it the
        # other way, across edges that the first walk crossed the other way
        pattern = {
            "A": lambda: SeedPattern("A", B_A2),
            "A-frozen": lambda: SeedPattern("A", principal_extension(B_A2)),
            "Y": lambda: SeedPattern("Y", B_A2),
            "GCF": lambda: GCFPattern(B_A2),
        }[kind]()
        calls = []
        for cls, op in ((P, "exact_div"), (RF, "__mul__")):
            def counted(self, other, _f=getattr(cls, op)):
                calls.append(other)
                return _f(self, other)

            monkeypatch.setattr(cls, op, counted)
        pattern._walk.get(mutation._vertex((1, 2) * 5))
        assert calls
        del calls[:]
        pattern._walk.get(mutation._vertex((2, 1) * 5))
        assert calls == []

    @pytest.mark.parametrize("kind", ["A", "A-frozen", "Y", "GCF"])
    def test_planted_wrong_reverse_entry_raises(self, kind):
        b = named_cartan("A3").b_matrix()
        k = 2
        if kind == "GCF":
            root = GCFPattern(b).at(())
            step, entries = partial(_gcf_step_on, state=root, k=k), itemgetter(3)
        else:
            root = root_seed(kind[0], principal_extension(b) if kind == "A-frozen" else b)
            step, entries = partial(mutation._mutate, root, k), mutation.Seed.variables
        new = step(_Exchanges())

        def table(key=None, value=None):
            # the ids a step from the root hands out: the root's entries
            # first, then the new ones, with key planted to give value
            table = _Exchanges()
            for x in entries(root) + entries(new):
                table.intern(x)
            if key is not None:
                table.memo[key] = table.intern(value)
            return table

        # the exchanges that the step back from the new seed or state reads
        back = {key: value for key, value in _memo_free_entries(new, k, table()).items()
                if isinstance(key, tuple)}
        assert back
        for key, value in back.items():
            assert step(table(key, value)) == new
            with pytest.raises(InternalDisagreement):
                step(table(key, value * 2))

    def test_patterns_never_share_a_memo(self):
        patterns = [
            SeedPattern("A", B_A3), SeedPattern("A", B_A3), SeedPattern("Y", B_A3),
            GCFPattern(B_A3),
        ]
        patterns[0].seed_at((1, 2, 3, 1))
        assert _memo(patterns[0])
        assert not any(_memo(p) for p in patterns[1:])
        for p in patterns[1:3]:
            p.seed_at((1, 2, 3, 1))
        patterns[3].at((1, 2, 3, 1))
        memos = [_memo(p) for p in patterns]
        assert all(memos)
        assert len({id(m) for m in memos}) == len(memos)
        # the registered patterns of one matrix keep separate memos too, so
        # separation_check compares two independently computed values
        yseed = _memo(mutation.seed_pattern("Y", B_A3))
        assert yseed is not _memo(mutation.gcf_pattern(B_A3))
        assert yseed is not _memo(mutation.seed_pattern("A", B_A3))
        assert separation_check(B_A3, (1, 2, 3, 1))
