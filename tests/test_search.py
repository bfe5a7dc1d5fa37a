"""Search oracle: exhaustiveness, canonicalization, determinism, bounds."""

import functools
import importlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from cskit.algebra import Sequence, aacf, root_coords
from cskit.construct import Coeffs4, cs4_from_pairs
from cskit.errors import InputError, WorkBoundExceeded
from cskit import search
from cskit.search import canonical_rows, first_cs, search_cs
from cskit.seeds import gcp_for_length
from cskit.verify import ComplementarySet, verify

from helpers import (
    affine_rank,
    brute_force_cs,
    brute_force_facets,
    oracle_canonical_rows,
    oracle_tied_images,
    per_touch_backtrack,
    undo_log_enumerate,
)


verify_module = importlib.import_module("cskit.verify")  # cskit.verify is the function


def rows_of(cs):
    return tuple(r.exponents for r in cs.rows)


def test_binary_length2_pair_is_unique():
    result = search_cs(2, 2, 2)
    assert [rows_of(cs) for cs in result.sets] == [((0, 0), (0, 1))]
    assert result.complete


def test_no_binary_length3_pair():
    result = search_cs(2, 2, 3)
    assert result.sets == ()
    assert result.complete


def test_quaternary_length3_pairs_contain_known_seed():
    result = search_cs(4, 2, 3)
    assert ((0, 0, 2), (0, 1, 0)) in [rows_of(cs) for cs in result.sets]


def test_binary_size4_length2_witness():
    result = search_cs(2, 4, 2)
    assert ((0, 0), (0, 0), (0, 1), (0, 1)) in [rows_of(cs) for cs in result.sets]


def test_no_binary_size2_length3():
    assert search_cs(2, 2, 3).sets == ()


def test_all_results_verify():
    for cs in search_cs(2, 4, 3).sets + search_cs(4, 2, 2).sets:
        assert cs.verified
        assert verify(cs).is_cs


def test_each_distinct_row_is_correlated_once(monkeypatch):
    # the classes are verified in one batch, which correlates each distinct
    # row once; `verify` runs only to name a failing stack's first defect
    correlated = []

    def counting_aacf(row):
        correlated.append(row)
        return aacf(row)

    monkeypatch.setattr(verify_module, "aacf", counting_aacf)
    monkeypatch.setattr(verify_module, "verify", None)
    result = search_cs(2, 2, 10)
    rows = [row for cs in result.sets for row in cs.rows]
    assert len(result.sets) == 8
    assert len(correlated) == len(set(correlated)) and set(correlated) == set(rows)
    assert len(set(rows)) < len(rows)  # the batch has repeated rows to skip
    assert all(cs.verified and verify(cs).is_cs for cs in result.sets)


def test_non_complementary_emission_is_an_internal_error(monkeypatch):
    def bad_enumerate(q, set_size, length, emit, work_bound):
        emit(((0, 0), (0, 0)))
        return 1

    monkeypatch.setattr(search, "_enumerate", bad_enumerate)
    with pytest.raises(RuntimeError, match="non-complementary"):
        search_cs(2, 2, 2)


def test_repeated_class_emission_is_an_internal_error(monkeypatch):
    def twice_enumerate(q, set_size, length, emit, work_bound):
        emit(((0, 0), (0, 1)))
        emit(((0, 1), (0, 0)))  # the same pair, rows swapped
        return 2

    monkeypatch.setattr(search, "_enumerate", twice_enumerate)
    with pytest.raises(RuntimeError, match="internal error: .* twice"):
        search_cs(2, 2, 2)


def test_results_sorted_lexicographically():
    result = search_cs(2, 4, 4)
    forms = [rows_of(cs) for cs in result.sets]
    assert forms == sorted(forms)


@pytest.mark.parametrize(
    "q,p,n",
    [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 2), (2, 4, 2), (2, 4, 3), (2, 4, 4), (4, 2, 3),
     (3, 2, 3), (3, 3, 2), (3, 3, 3), (4, 3, 3), (5, 5, 2), (6, 2, 2), (6, 2, 3), (6, 3, 3)],
)
def test_matches_unpruned_reference_enumeration(q, p, n):
    expected = brute_force_cs(q, p, n)
    got = {rows_of(cs) for cs in search_cs(q, p, n).sets}
    assert got == expected


def test_constructed_size4_sets_appear_in_oracle_output():
    # length 3 = 1+2: every admissible binary coefficient tuple's output
    # must already be in the exhaustive list
    oracle = {rows_of(cs) for cs in search_cs(2, 4, 3).sets}
    pair1 = gcp_for_length(2, 1).pair
    pair2 = gcp_for_length(2, 2).pair
    for x0 in range(2):
        for x1 in range(2):
            for y0 in range(2):
                y1 = (x1 - x0 + y0 + 1) % 2
                built = cs4_from_pairs(pair1, pair2, Coeffs4(x0, x1, y0, y1))
                assert canonical_rows(2, rows_of(built)) in oracle


PINNED_NODES = {(2, 2, 10): 1283, (4, 2, 5): 770, (3, 3, 4): 349, (6, 2, 4): 1317,
                (2, 4, 4): 154, (3, 3, 5): 856, (4, 4, 3): 485, (4, 2, 6): 2866,
                (2, 2, 13): 0, (2, 2, 16): 67009}


@pytest.mark.parametrize("q,p,n", PINNED_NODES)
def test_node_counts_are_pinned(q, p, n):
    # work_bound is measured in these nodes; a change to the count moves it.
    # (2, 2, 13) visited 10,661 nodes before the parity test refuted it;
    # (3, 3, 4) and (3, 3, 5) visited 376 and 946 while |S| <= M pruned,
    # before the facets of the triangle of cube roots did.
    assert search_cs(q, p, n).nodes == PINNED_NODES[q, p, n]


# Shapes for the engine-versus-oracle test: every q <= 10 and sizes 1-5,
# with and without solutions, several past the work bounds.
ORACLE_SHAPES = [
    (1, 3, 4), (2, 1, 6), (2, 2, 10), (2, 3, 3), (2, 4, 4), (2, 5, 3), (3, 3, 4),
    (4, 2, 6), (4, 4, 3), (5, 2, 4), (5, 5, 2), (6, 3, 3), (7, 3, 4), (8, 2, 4),
    (8, 3, 3), (9, 3, 3), (10, 2, 4), (10, 4, 2),
]


def run_engine(engine, q, p, n, stop_at=None, work_bound=10**9, keep=None):
    """Every emitted row tuple that passes `keep`, then the node count or the
    work-bound error; the run stops at the stop_at-th kept tuple."""
    emitted = []

    def emit(rows):
        if keep is None or keep(rows):
            emitted.append(rows)
        return len(emitted) == stop_at

    try:
        outcome = engine(q, p, n, emit, work_bound)
    except WorkBoundExceeded as exc:
        outcome = f"WorkBoundExceeded: {exc}"
    return emitted, outcome


def is_class_leader(q, rows):
    """True when the rows are sorted in the fill order and no image of the
    stack under reversal (rows rescaled to lead with 0), conjugation or
    both, its rows sorted the same way, comes first in the slot order:
    columns in fill order, rows top down within a column."""
    order = search._column_order(len(rows[0]))

    def row_sorted(stack):
        return sorted(stack, key=lambda row: [row[c] for c in order])

    def slot_key(stack):
        return [tuple(row[c] for row in stack) for c in order]

    images = [
        [tuple((e - row[-1]) % q for e in reversed(row)) for row in rows],
        [tuple(-e % q for e in row) for row in rows],
        [tuple((row[-1] - e) % q for e in reversed(row)) for row in rows],
    ]
    return list(rows) == row_sorted(rows) and all(
        slot_key(rows) <= slot_key(row_sorted(image)) for image in images
    )


@pytest.mark.parametrize("q,p,n", ORACLE_SHAPES)
def test_engine_matches_undo_log_oracle(q, p, n):
    # The engine skips exactly the stacks whose rows are out of order in the
    # fill order or that an image under reversal or conjugation precedes,
    # and every node it counts the oracle counts too.
    # The backtracker alone is checked too, since the norm test stops the
    # engine before it on the shapes it refutes.
    keep = functools.partial(is_class_leader, q)
    every, _ = run_engine(undo_log_enumerate, q, p, n, keep=keep)
    for engine in (search._enumerate, search._backtrack):
        for stop_at in (None, 1, 2, 3, 7):
            emitted, nodes = run_engine(engine, q, p, n, stop_at)
            expected, oracle_nodes = run_engine(undo_log_enumerate, q, p, n, stop_at, keep=keep)
            assert emitted == expected
            assert nodes <= oracle_nodes
        for bound in (50, 300, 2000, 10**9):
            emitted, outcome = run_engine(engine, q, p, n, work_bound=bound)
            oracle_emitted, oracle_outcome = run_engine(
                undo_log_enumerate, q, p, n, work_bound=bound, keep=keep
            )
            assert emitted[: len(oracle_emitted)] == oracle_emitted
            assert emitted == every[: len(emitted)]
            if isinstance(oracle_outcome, int):
                assert isinstance(outcome, int) and outcome <= oracle_outcome


def oracle_classes(q, p, n):
    """The classes of the oracle's raw emits, in the order first reached."""
    classes = []

    def emit(rows):
        canon = oracle_canonical_rows(q, rows)
        if canon not in classes:
            classes.append(canon)
        return False

    undo_log_enumerate(q, p, n, emit, 10**9)
    return classes


@pytest.mark.parametrize("q,p,n", [(2, 2, 10), (2, 4, 5), (3, 3, 5), (4, 2, 6), (4, 4, 3),
                                   (6, 2, 4)])
def test_limit_keeps_the_oracle_class_order(q, p, n):
    classes = oracle_classes(q, p, n)
    assert len(classes) > 3
    for k in (1, 2, 3):
        got = [rows_of(cs) for cs in search_cs(q, p, n, limit=k).sets]
        assert got == sorted(classes[:k])
    assert rows_of(first_cs(q, p, n)) == classes[0]


@pytest.mark.parametrize("q,p,n", [(2, 4, 5), (3, 3, 5), (4, 2, 8), (6, 2, 4), (8, 2, 4)])
def test_each_class_is_canonicalized_once(monkeypatch, q, p, n):
    # without symmetry breaking, search_cs(2, 4, 5) canonicalizes 1,056 raw
    # hits of its 24 classes; with row order alone, 48
    calls = []

    def counting_canonical_rows(q, rows):
        calls.append(rows)
        return canonical_rows(q, rows)

    monkeypatch.setattr(search, "canonical_rows", counting_canonical_rows)
    result = search_cs(q, p, n)
    assert result.sets
    assert len(calls) == len(result.sets)


def taxicab(z):
    """|Re z| + |Im z|: a Gaussian integer is a sum of that many 4th roots,
    and of no fewer."""
    return abs(z.real) + abs(z.imag)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_engine_matches_per_touch_oracle(data):
    # The facet test prunes every branch the per-touch engine's abs prunes
    # and decides a completed shift as exactly: the same emits in the same
    # order, no more nodes. For q in {2, 4} the facets are |x| <= M and
    # |Re| + |Im| <= M, so every live/dead decision is the one the
    # per-touch engine makes when it prunes on |Re| + |Im|: the same node
    # count or the same work-bound error.
    q = data.draw(st.integers(1, 10), label="q")
    p = data.draw(st.integers(1, 5), label="p")
    n = data.draw(st.integers(1, min(12, 40 // p)), label="n")
    stop_at = data.draw(st.none() | st.integers(1, 4), label="limit")
    bound = data.draw(st.integers(0, 12000), label="work_bound")
    emitted, outcome = run_engine(search._backtrack, q, p, n, stop_at, bound)
    if q in (2, 4):
        l1_oracle = functools.partial(per_touch_backtrack, norm=taxicab)
        assert (emitted, outcome) == run_engine(l1_oracle, q, p, n, stop_at, bound)
    oracle_emitted, oracle_outcome = run_engine(per_touch_backtrack, q, p, n, stop_at, bound)
    assert emitted[: len(oracle_emitted)] == oracle_emitted
    if isinstance(oracle_outcome, int):
        assert emitted == oracle_emitted
        assert isinstance(outcome, int) and outcome <= oracle_outcome


@pytest.mark.parametrize("q", range(1, 11))
def test_one_engine_serves_every_q(monkeypatch, q):
    # every q runs the packed test, to completion and past a work bound one
    # node short. A sum of P 7th roots vanishes only for P a multiple of 7.
    calls = []
    packed_tests = search._packed_tests
    monkeypatch.setattr(search, "_packed_tests",
                        lambda *shape: calls.append(shape) or packed_tests(*shape))
    shape = (7, 7, 2) if q == 7 else (q, 3, 3)
    emitted, nodes = run_engine(search._backtrack, *shape)
    oracle_emitted, oracle_nodes = run_engine(per_touch_backtrack, *shape)
    assert emitted == oracle_emitted and nodes > 0
    assert nodes <= oracle_nodes
    assert run_engine(search._backtrack, *shape, work_bound=nodes) == (emitted, nodes)
    _, outcome = run_engine(search._backtrack, *shape, work_bound=nodes - 1)
    assert outcome == f"WorkBoundExceeded: search exceeded the work bound of {nodes - 1} nodes"
    assert calls == [shape] * 3


@pytest.mark.parametrize("q", range(1, 11))
def test_forms_are_the_facets_of_the_root_polytope(q):
    # the facets found through root 1 and rotated are every facet; each form
    # is at most h on the roots, with equality on roots spanning a hyperplane
    forms = search._forms(q)
    assert len(forms) == (2, 2, 3, 4, 5, 6, 7, 16, 27, 30)[q - 1]
    assert {(values, max(values)) for values in forms} == brute_force_facets(q)
    ring = root_coords(q).tolist()
    for values in forms:
        on = [ring[e] for e in range(q) if values[e] == max(values)]
        assert affine_rank(on) == len(ring[0]) - 1


# ---------------------------------------------------------------------------
# Row-sum norm test.

NORM_QS = (1, 2, 3, 4, 6)


def brute_force_row_sums(q, n):
    """The root_coords coordinates (x, y) (y = 0 when phi(q) = 1) of every
    sum of n q-th roots, mapped to its norm. The norm is computed exactly as
    |A|^2 = sum over j, k of zeta^(a_j - a_k), whose coordinates are
    (norm, 0)."""
    ring = root_coords(q)
    rows = np.array(list(itertools.product(range(q), repeat=n)))
    sums, first = np.unique(ring[rows].sum(axis=1), axis=0, return_index=True)
    reps = rows[first]
    square = ring[(reps[:, :, None] - reps[:, None, :]) % q].sum(axis=(1, 2))
    assert not square[:, 1:].any()
    return {(x, *rest, 0)[:2]: norm for (x, *rest), norm in zip(sums.tolist(), square[:, 0].tolist())}


@pytest.mark.parametrize("q", NORM_QS)
def test_row_sum_rules_match_brute_force(q):
    for n in range(1, (8 if q <= 4 else 6) + 1):
        sums = brute_force_row_sums(q, n)
        box = range(-n, n + 1)
        ruled = {(x, y) for x in box for y in (box if q > 2 else (0,))
                 if search._is_row_sum(q, n, x, y)}
        assert ruled == set(sums), (q, n)
        for bound in (n * n, 2 * n, n):  # the last two cut the search box
            expected = sum(1 << v for v in set(sums.values()) if v <= bound)
            assert search._row_sum_norms(q, n, bound) == expected, (q, n, bound)


def test_norm_refutations_are_sound():
    # the oracle runs no norm test; every shape refuted here has no solution
    shapes = [(q, p, n) for q in NORM_QS for p in range(1, 5) for n in range(1, 9)]
    refuted = [shape for shape in shapes + [(2, 2, n) for n in range(9, 16)]
               if search._norm_refuted(*shape)]
    assert {q for q, _, _ in refuted} == set(NORM_QS)
    assert {(2, 2, 11), (2, 2, 12), (2, 2, 14), (2, 2, 15)} <= set(refuted)
    for shape in refuted:
        emitted, nodes = run_engine(undo_log_enumerate, *shape)
        assert emitted == [] and isinstance(nodes, int), shape
        assert run_engine(search._enumerate, *shape) == ([], 0)


@pytest.mark.parametrize("q,lengths", [(2, (1, 2, 4, 8, 10, 16, 20, 26, 32, 40)),
                                       (4, (1, 2, 3, 5, 11, 13))])
def test_known_pair_lengths_pass_the_norm_test(q, lengths):
    for n in lengths:
        assert not search._norm_refuted(q, 2, n), n


def test_norm_test_runs_only_where_norms_are_integers():
    assert not any(search._norm_refuted(q, p, n) for q in (5, 7, 8, 12)
                   for p in range(1, 5) for n in range(1, 9))


@pytest.mark.parametrize("n", [22, 24])
def test_refuted_pair_lengths_visit_no_nodes(n):
    # 3,296,525 and 11,710,815 nodes of brute force without the norm test
    assert search_cs(2, 2, n) == search.SearchResult(2, 2, n, (), True, 0)


def test_refuted_shapes_pass_any_work_bound():
    assert search_cs(2, 2, 24, work_bound=0).nodes == 0
    assert first_cs(2, 2, 22, work_bound=1) is None


@pytest.mark.parametrize("q,n", [(2, 18), (2, 20), (4, 10), (4, 11)])
def test_bounded_workload_shapes_pass_the_norm_test(q, n):
    assert not search._norm_refuted(q, 2, n)
    with pytest.raises(WorkBoundExceeded):
        search_cs(q, 2, n, work_bound=24000)


PARITY_SHAPES = [(q, p, n) for q in (2, 4) for p in range(1, 7) for n in range(2, 10)]


def test_parity_refutations_are_sound():
    # the oracle runs neither refutation; (2, 6, 9) passes 10^8 nodes of the
    # engine and rests on the congruences of the next test alone
    refuted = [shape for shape in PARITY_SHAPES if search._parity_refuted(*shape)]
    assert {(2, 2, 5), (2, 2, 9), (2, 6, 9), (4, 3, 4), (4, 5, 9)} <= set(refuted)
    assert not any(search._norm_refuted(*shape) for shape in [(2, 2, 5), (2, 2, 9), (2, 6, 9)])
    for shape in refuted:
        if shape[1] * shape[2] < 30:
            emitted, nodes = run_engine(undo_log_enumerate, *shape)
        elif shape != (2, 6, 9):  # the engine is the oracle's equal on these
            emitted, nodes = run_engine(search._backtrack, *shape)
        else:
            continue
        assert emitted == [] and isinstance(nodes, int), shape
        assert run_engine(search._enumerate, *shape) == ([], 0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parity_congruences_hold(data):
    # the congruences of the module notes, on random stacks: for q = 2,
    # C(tau) - C(tau+1) = P - 2 * sum_r (a[r][tau] + a[r][N-1-tau]) (mod 4),
    # with C(N) = 0 and a the 0/1 exponents; for q = 4, the same difference
    # is P + (i - 1) * Y (mod 2), Y that sum over the exponents
    q = data.draw(st.sampled_from([2, 4]))
    p, n = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 12))
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                              min_size=p, max_size=p))
    total = verify(ComplementarySet(tuple(Sequence(q, tuple(r)) for r in rows))).sum_profile.coords
    c = [complex(*total[n - 1 + tau].tolist()) if q == 4 else total[n - 1 + tau][0]
         for tau in range(n)] + [0]
    for tau in range(1, n):
        y = sum(r[tau] + r[n - 1 - tau] for r in rows)
        diff = c[tau] - c[tau + 1]
        if q == 2:
            assert (diff - p + 2 * y) % 4 == 0
        else:
            rest = diff - p - (1j - 1) * y
            assert rest.real % 2 == 0 and rest.imag % 2 == 0


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 4), (2, 8), (2, 10), (2, 16), (2, 18),
                                 (2, 20), (2, 26), (4, 3), (4, 5), (4, 10), (4, 11), (4, 13)])
def test_parity_test_passes_pair_lengths_and_workload_shapes(q, n):
    assert not search._parity_refuted(q, 2, n)


def test_limit_truncates_with_flag():
    full = search_cs(2, 4, 4)
    assert len(full.sets) > 2
    cut = search_cs(2, 4, 4, limit=2)
    assert len(cut.sets) == 2
    assert not cut.complete
    roomy = search_cs(2, 4, 4, limit=len(full.sets) + 5)
    assert roomy.complete
    assert len(roomy.sets) == len(full.sets)
    assert search_cs(2, 4, 4, limit=1).nodes < full.nodes
    with pytest.raises(InputError):
        search_cs(2, 4, 4, limit=0)
    with pytest.raises(InputError, match="^set size and length must both be >= 1$"):
        search_cs(2, 0, 4)


def test_search_deeper_than_the_recursion_limit():
    size = 2 * (sys.getrecursionlimit() // 2 + 50)
    result = search_cs(2, size, 2, limit=1)
    assert len(result.sets) == 1
    assert result.sets[0].size == size


def test_work_bound_is_enforced():
    with pytest.raises(WorkBoundExceeded):
        search_cs(2, 4, 4, work_bound=50)


def test_work_bound_error_reports_how_far_the_search_got():
    # a bound one node short of the k-th class stops at that node, in the
    # last of the 15 columns after column 0, with k - 1 classes found
    for k in (1, 5):
        nodes = search_cs(2, 2, 16, limit=k).nodes
        with pytest.raises(WorkBoundExceeded,
                           match=f"^search exceeded the work bound of {nodes - 1} nodes$") as exc:
            search_cs(2, 2, 16, work_bound=nodes - 1)
        assert (exc.value.nodes, exc.value.depth, exc.value.classes) == (nodes, 15, k - 1)
    with pytest.raises(WorkBoundExceeded) as exc:
        search_cs(2, 2, 16, work_bound=0)
    assert (exc.value.nodes, exc.value.depth, exc.value.classes) == (1, 1, 0)


@pytest.mark.parametrize("q", [2, 4])
def test_long_search_stops_at_a_small_work_bound(q):
    # the packed setup grows as N^2 bits; at N = 1000 it takes well under 1 s
    with pytest.raises(WorkBoundExceeded):
        search_cs(q, 2, 1000, work_bound=10)


def test_state_bound_stops_a_deep_search(monkeypatch):
    # a (10, 2, 40) search's ints grow by about 1.9 Mbit a column, so a
    # bound of 2^24 bits stops it when it reaches its 9th column
    monkeypatch.setattr(search, "STATE_BOUND", 2**24)
    with pytest.raises(WorkBoundExceeded,
                       match="search state exceeded the bound of 2 MiB at column 9 of 40") as exc:
        search_cs(10, 2, 40)
    assert exc.value.nodes > 0 and (exc.value.depth, exc.value.classes) == (8, 0)
    assert search_cs(10, 2, 5).nodes == 22735  # its 4 columns stay below


def test_negative_work_bound_is_an_input_error():
    # (2, 2, 24) is refuted before any node, so only the check can refuse it
    for shape in [(2, 2, 3), (2, 2, 24)]:
        with pytest.raises(InputError, match="work bound must be >= 0, got -1"):
            search_cs(*shape, work_bound=-1)


def test_first_cs_finds_quaternary_length5_pair():
    pair = first_cs(4, 2, 5)
    assert pair is not None
    assert pair.verified
    assert pair.length == 5


def test_first_cs_returns_none_when_empty():
    assert first_cs(2, 2, 3) is None


# ---------------------------------------------------------------------------
# Canonical form.


def small_stacks(q):
    return st.lists(
        st.lists(st.integers(0, q - 1), min_size=3, max_size=5),
        min_size=1,
        max_size=3,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(st.sampled_from([2, 4]), st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_idempotent_and_invariant(q, data):
    rows = [tuple(r) for r in data.draw(small_stacks(q))]
    canon = canonical_rows(q, rows)
    assert canonical_rows(q, canon) == canon
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    # row permutation
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert canonical_rows(q, shuffled) == canon
    # per-row scaling
    scaled = []
    for r in rows:
        u = rng.randrange(q)
        scaled.append(tuple((e + u) % q for e in r))
    assert canonical_rows(q, scaled) == canon
    # simultaneous reversal / conjugation
    assert canonical_rows(q, [tuple(reversed(r)) for r in rows]) == canon
    assert canonical_rows(q, [tuple((-e) % q for e in r) for r in rows]) == canon


KERNEL_QS = st.sampled_from(range(1, 11))


def random_stack(data, q, p, n):
    # exponents from {0, 1, -1} make ties between a stack and its images common
    few = data.draw(st.booleans(), label="few exponents")
    entries = st.sampled_from(sorted({0, 1 % q, q - 1})) if few else st.integers(0, q - 1)
    return [data.draw(st.lists(entries, min_size=n, max_size=n), label=f"row {r}")
            for r in range(p)]


@settings(max_examples=200, deadline=None)
@given(KERNEL_QS, st.sampled_from([1, -1]), st.integers(0, 6), st.integers(0, 12), st.data())
def test_affine_rows_match_the_formula(q, sign, p, n, data):
    rows = random_stack(data, q, p, n)
    bases = data.draw(st.lists(st.integers(0, q - 1), min_size=p, max_size=p), label="bases")
    expected = [tuple(sign * (e - b) % q for e in row) for row, b in zip(rows, bases)]
    assert list(map(tuple, search._affine_rows(q, sign, rows, bases))) == expected


@settings(max_examples=300, deadline=None)
@given(KERNEL_QS, st.integers(1, 6), st.integers(1, 12), st.data())
def test_canonical_rows_match_the_tuple_kernel(q, p, n, data):
    rows = random_stack(data, q, p, n)
    assert canonical_rows(q, rows) == oracle_canonical_rows(q, rows)
    assert canonical_rows(q, map(iter, rows)) == oracle_canonical_rows(q, rows)


@settings(max_examples=300, deadline=None)
@given(KERNEL_QS, st.integers(1, 6), st.integers(1, 12), st.data())
def test_tied_images_match_the_tuple_kernel(q, p, n, data):
    # every check slot of the shape, and every subset of the three maps
    rows, columns, *_ = search._slots(q, p, n, itertools.repeat([()] * p))
    rows[:] = random_stack(data, q, p, n)
    order = search._column_order(n)
    checks = 0
    for i, column in enumerate(columns, 1):
        leader = column[-1][4]
        if leader is None:
            continue
        checks += 1
        filled = order[: i + 1]
        mirror = [n - 1 - f for f in filled]
        images = ((1, mirror, n - 1), (-1, filled, 0), (-1, mirror, n - 1))
        for k in range(4):
            for maps in itertools.combinations(range(3), k):
                expected = oracle_tied_images(q, rows, filled, images, maps)
                assert search._tied_images(q, rows, leader, maps) == expected
    assert checks == ((n + 1) // 2 if n > 1 else 0)


@pytest.mark.parametrize("q,rows", [(2, [[0, 5], [0, 1]]), (3, [[0, 4]]), (3, [[0, -1]]),
                                    (300, [[0, 300]]), (300, [[-1, 0]]), (2, [[0, 1], []])])
def test_canonical_rows_refuses_rows_outside_the_alphabet(q, rows):
    with pytest.raises(InputError, match=r"rows must be nonempty, with exponents in \[0, "):
        canonical_rows(q, rows)


def test_canonical_rows_lead_with_zero():
    canon = canonical_rows(2, [(1, 0, 1), (1, 1, 0)])
    for row in canon:
        assert row[0] == 0
