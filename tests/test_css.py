from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quditprod import (
    ComplexShape,
    CssCode,
    complex_from_text,
    complex_to_text,
    extract_css,
    flip_sectors,
    kunneth_check,
    min_distance,
    product,
    random_boundary,
    standard_boundary,
    trial_rng,
    vanishing_reduced_implies_boundary,
)
from quditprod import css, gf
from quditprod.gf import FieldSpec, MatGF, kernel_basis, rank
from support import (
    FIELD3, FIELD5, SHAPE3, SHAPE5, bounded_logical_weight, distance3_complex,
    reference_coset_basis, reference_rank, reference_row_reduce, reference_span,
)


def _standard_product(field):
    std = standard_boundary(SHAPE3, field)
    return product(std, std)


@pytest.mark.parametrize("field", [FIELD3, FIELD5])
def test_extract_css_product_parameters(field) -> None:
    code = extract_css(_standard_product(field).complex)
    assert code.n_phys == 18
    assert code.k == 2
    assert code.stab_weight == 2
    assert (code.x_gens @ code.z_gens).is_zero()


def test_extract_css_standard_factor() -> None:
    code = extract_css(standard_boundary(SHAPE3, FIELD3))
    assert code.n_phys == 3
    assert code.k == 1
    assert code.stab_weight == 1


def test_extract_css_zero_homology_code() -> None:
    code = extract_css(standard_boundary(ComplexShape(2, 0, 1), FIELD3))
    assert code.k == 0


def test_extract_css_orthogonality_on_random_products() -> None:
    for i in range(5):
        c1, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(50, 2 * i))
        c2, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(50, 2 * i + 1))
        code = extract_css(product(c1, c2).complex)
        assert (code.x_gens @ code.z_gens).is_zero()
        assert code.n_phys == 18 and code.k == 2


def test_standard_product_distance_golden() -> None:
    # golden value confirmed by two independent search strategies
    code = extract_css(_standard_product(FIELD3).complex)
    ex = min_distance(code, mode="exhaustive")
    assert (ex.d_z, ex.d_x) == (1, 1)
    assert ex.method == "exhaustive"
    bd = min_distance(code, mode="bounded", w_max=1)
    assert (bd.d_z, bd.d_x) == (1, 1)
    assert bd.search_bound == 1


def test_distance_rejects_zero_k() -> None:
    code = extract_css(standard_boundary(ComplexShape(2, 0, 1), FIELD3))
    with pytest.raises(ValueError, match="no logical operators"):
        min_distance(code)


def test_distance_refuses_above_the_enumeration_limit(monkeypatch) -> None:
    """The refusal counts the whole kernel, p**(r + k), not the vectors
    walked: an [[18,2]] GF(3) code (kernels of 3^10 vectors, 3^8 + 3^9
    walked) is refused one below 3^10, before any span is built."""
    code = extract_css(_standard_product(FIELD3).complex)
    with monkeypatch.context() as mp:
        calls = []
        mp.setattr(css, "_line_weights", lambda *a, **k: calls.append(a))
        mp.setattr(gf, "ENUMERATION_LIMIT", 3**10 - 1)
        refusal = r"^enumeration needs 3\^10 vectors, above the limit of 59048$"
        with pytest.raises(ValueError, match=refusal):
            min_distance(code, mode="exhaustive")
        assert calls == []
    rep = min_distance(code, mode="exhaustive")
    assert rep.d_z == 1


def test_distance_refuses_before_building_coset_bases(monkeypatch) -> None:
    """The exhaustive refusal reads the kernel sizes off the ranks the
    code keeps: no coset basis is built, and the message is unchanged."""
    code = extract_css(_standard_product(FIELD3).complex)

    def refused(*args):
        raise AssertionError("a coset basis was built")

    monkeypatch.setattr(css, "_coset_bases", refused)
    monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 3**10 - 1)
    refusal = r"^enumeration needs 3\^10 vectors, above the limit of 59048$"
    with pytest.raises(ValueError, match=refusal):
        min_distance(code, mode="exhaustive")


def test_coset_bases_are_built_once_per_code(eliminations) -> None:
    """The first distance search eliminates only the two rank-k pairings:
    the kernels and stabilizer rows come from the echelon forms the
    code's ranks keep.  Every later search reuses the code's coset
    bases: no further elimination, in either mode, and the same
    distances."""
    code = extract_css(_standard_product(FIELD3).complex)
    eliminations.clear()
    first = min_distance(code, mode="exhaustive")
    assert [e.rank for e in eliminations] == [code.k, code.k]
    eliminations.clear()
    assert min_distance(code, mode="exhaustive") == first
    min_distance(code, mode="bounded", w_max=2)
    assert eliminations == []
    for basis, _ in code._cosets:
        assert not basis.flags.writeable


def test_bounded_mode_reports_lower_bound_when_nothing_found() -> None:
    c = distance3_complex(trial_rng(51, 0))
    code = extract_css(c)
    rep = min_distance(code, mode="bounded", w_max=2)
    assert rep.d_z is None and rep.d_x is None
    assert rep.d_z_lower == 3 and rep.d_x_lower == 3
    full = min_distance(code, mode="exhaustive")
    assert (full.d_z, full.d_x) == (3, 3)


def test_bounded_mode_needs_positive_w_max() -> None:
    code = extract_css(_standard_product(FIELD3).complex)
    with pytest.raises(ValueError):
        min_distance(code, mode="bounded")
    with pytest.raises(ValueError):
        min_distance(code, mode="unknown")
    with pytest.raises(ValueError, match="exhaustive mode takes no w_max"):
        min_distance(code, mode="exhaustive", w_max=2)


def test_repetition_analogue_matches_hand_count() -> None:
    """z_gens the single column (1, -1), no x generators: brute force
    over all 9 vectors gives d_z = 1 and d_x = 2."""
    z = MatGF(FIELD3, [[1], [2]])
    x = MatGF.zeros(FIELD3, 0, 2)
    code = CssCode(z_gens=z, x_gens=x)
    assert (code.field, code.n_phys, code.k, code.stab_weight) == (FIELD3, 2, 1, 2)
    rep = min_distance(code, mode="exhaustive")

    # independent oracle: enumerate every vector of GF(3)^2; with no x
    # generators the z-side kernel is the whole space
    z_span = {(0, 0), (1, 2), (2, 1)}
    d_z = min(
        sum(1 for t in v if t)
        for v in itertools.product(range(3), repeat=2)
        if any(v) and v not in z_span
    )
    d_x = min(
        sum(1 for t in v if t)
        for v in itertools.product(range(3), repeat=2)
        if any(v) and (v[0] + 2 * v[1]) % 3 == 0
    )
    assert (rep.d_z, rep.d_x) == (d_z, d_x) == (1, 2)


def test_distance_refuses_non_commuting_generators() -> None:
    """Hand-built X and Z generators that do not commute have no
    distance: the code is refused when built, with extract_css's
    message."""
    z = MatGF(FIELD3, [[1], [2]])
    x = MatGF(FIELD3, [[1, 0]])
    with pytest.raises(ValueError, match="^X and Z generators do not commute"):
        CssCode(z_gens=z, x_gens=x)


def test_commutation_is_checked_once_per_code(monkeypatch) -> None:
    """extract_css checks commutation when it builds the code; neither
    distance mode checks it again."""
    calls = []
    check = css._check_commute
    monkeypatch.setattr(css, "_check_commute", lambda x, z: calls.append(1) or check(x, z))
    code = extract_css(_standard_product(FIELD3).complex)
    min_distance(code, mode="exhaustive")
    min_distance(code, mode="bounded", w_max=2)
    assert calls == [1]


@st.composite
def distance_codes(draw):
    """CSS codes of the product of two seeded factors with n <= 3 over
    GF(3/5/7), or of a distance-3 GF(5) factor; either sign of the
    involution."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.integers(0, 3)) == 0:
        c = distance3_complex(trial_rng(seed, 0))
    else:
        field = FieldSpec(draw(st.sampled_from([3, 5, 7])))
        # Every shape with n <= 3; n = 3, H = 1 (the [[18,2]] products,
        # whose distance is often 2) is drawn most often.
        shapes = st.sampled_from([(3, 1, 1), (1, 1, 0), (2, 2, 0), (2, 0, 1), (3, 3, 0), (3, 1, 1)])
        factors = [
            random_boundary(ComplexShape(*draw(shapes)), field, trial_rng(seed, i))[0]
            for i in range(2)
        ]
        c = product(*factors).complex
    if draw(st.booleans()):
        c = flip_sectors(c)
    return extract_css(c)


@st.composite
def generator_only_codes(draw):
    """Hand-built codes over GF(3/5/7) with only Z or only X generators,
    2..6 qudits and up to n of them; the other family is empty."""
    field = FieldSpec(draw(st.sampled_from([3, 5, 7])))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(0, n))
    gens = np.array(draw(st.lists(st.integers(0, field.order - 1), min_size=n * m, max_size=n * m)))
    gens = MatGF(field, gens.reshape(n, m))
    if draw(st.booleans()):
        return CssCode(z_gens=gens, x_gens=MatGF.zeros(field, 0, n))
    return CssCode(z_gens=MatGF.zeros(field, n, 0), x_gens=gens.T)


@st.composite
def zero_boundary_codes(draw):
    """Codes of the GF(17) product of two zero-boundary factors (H = n):
    no stabilizers on either side (r = 0)."""
    n1, n2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    factors = [
        random_boundary(ComplexShape(n, n, 0), FieldSpec(17), trial_rng(seed, i))[0]
        for i, n in enumerate((n1, n2))
    ]
    return extract_css(product(*factors).complex)


def _rank(a: np.ndarray, p: int) -> int:
    return len(reference_row_reduce(a, p)[1])


def _same_span(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    return _rank(a, p) == _rank(b, p) == _rank(np.concatenate([a, b]), p)


@settings(max_examples=150, deadline=None)
@given(st.one_of(distance_codes(), zero_boundary_codes(), generator_only_codes()))
def test_coset_bases_match_the_stacked_reference(code) -> None:
    """Per side, the coset basis read off the code's echelon forms and
    the pairing of its kernels has the same r as the stacked-elimination
    reference, first r rows with the same span (the stabilizers), and
    r + k independent rows spanning the same kernel."""
    assume(code.k > 0)
    p = code.field.order
    sides = ((code.x_gens, code.z_gens), (code.z_gens.T, code.x_gens.T))
    for (basis, r), (kernel_of, image_of) in zip(css._coset_bases(code), sides):
        ref, ref_r = reference_coset_basis(kernel_of, image_of)
        assert r == ref_r == rank(image_of)
        assert basis.shape == ref.shape == (r + code.k, code.n_phys)
        assert not (kernel_of @ basis.T).any()
        assert _same_span(basis[:r], ref[:r], p)
        assert _same_span(basis, ref, p)
        assert _rank(basis, p) == r + code.k


def _brute_force_distance(kernel_of: MatGF, image_of: MatGF) -> int:
    """The least weight of a vector of ker kernel_of outside im image_of,
    walking the whole kernel and testing each vector against the whole
    image, each vector encoded as its integer sum_i v_i p**i."""
    p = kernel_of.field.order
    powers = p ** np.arange(kernel_of.cols, dtype=np.int64)
    rref, pivots = reference_row_reduce(image_of.data.T, p)
    image = np.concatenate(list(reference_span(rref[: len(pivots)], p))) @ powers
    kernel = np.concatenate(list(reference_span(kernel_basis(kernel_of), p)))
    logical = ~np.isin(kernel @ powers, image)
    return int(np.count_nonzero(kernel[logical], axis=1).min())


@pytest.mark.parametrize(
    "order, shapes",
    [
        (3, ((3, 1, 1), (3, 1, 1))),
        (3, ((2, 2, 0), (3, 1, 1))),
        (5, ((1, 1, 0), (4, 2, 1))),
        (5, ((1, 1, 0), (5, 1, 2))),
        (7, ((1, 1, 0), (3, 1, 1))),
        (7, ((2, 2, 0), (1, 1, 0))),
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_exhaustive_walk_matches_a_brute_force_kernel_walk(
    monkeypatch, order, shapes, seed
) -> None:
    """Exhaustive mode equals a walk of the whole kernel on products with
    k = 2 and 4, either sign of the involution, and walks exactly
    p**r (p**k - 1) / (p - 1) vectors per side, one per logical line."""
    field = FieldSpec(order)
    factors = [
        random_boundary(ComplexShape(*shape), field, trial_rng(seed, i))[0]
        for i, shape in enumerate(shapes)
    ]
    c = product(*factors).complex
    walked = []
    blocks = css._line_weights
    monkeypatch.setattr(
        css, "_line_weights", lambda *a, **k: [walked.append(len(v)) or v for v in blocks(*a, **k)]
    )
    for code in (extract_css(c), extract_css(flip_sectors(c))):
        assert code.k >= 2
        walked.clear()
        rep = min_distance(code, mode="exhaustive")
        assert rep.d_z == _brute_force_distance(code.x_gens, code.z_gens)
        assert rep.d_x == _brute_force_distance(code.z_gens.T, code.x_gens.T)
        lines = (order**code.k - 1) // (order - 1)
        assert sum(walked) == (order ** rank(code.z_gens) + order ** rank(code.x_gens)) * lines


@settings(max_examples=100, deadline=None)
@given(
    order=st.sampled_from([3, 5, 7]),
    t=st.integers(1, 6),
    width=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_exhaustive_walk_matches_a_full_span_reference(order, t, width, seed, data) -> None:
    """On any basis, dependent ones included, the least weight over one
    vector per line with a nonzero coefficient at index >= r is the least
    weight over every such combination of ``reference_span``, 0 when a
    dependent combination vanishes."""
    assume(order**t <= 3**6)
    r = data.draw(st.integers(0, t - 1))
    rng = np.random.default_rng(seed)
    dim = data.draw(st.integers(0, t))
    basis = rng.integers(0, order, (t, dim)) @ rng.integers(0, order, (dim, width)) % order
    span = np.concatenate(list(reference_span(basis, order)))
    want = int(np.count_nonzero(span[order**r :], axis=1).min())
    assert css._min_weight_logical_exhaustive(basis, r, order) == want


def test_each_distance_mode_eliminates_no_large_matrix(eliminations) -> None:
    """On a code built by extract_css the echelon forms of z_gens^T and
    x_gens are kept, so neither mode eliminates a matrix of rank above
    k, only the rank-k pairing of the kernels, twice."""
    c1, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(42, 0))
    c2, _, _ = random_boundary(SHAPE3, FIELD3, trial_rng(42, 1))
    complex_ = product(c1, c2).complex
    code = extract_css(complex_)
    assert code.k == 2 and rank(code.z_gens) == rank(code.x_gens) == 8
    for mode, w_max in (("exhaustive", None), ("bounded", 2)):
        # A fresh code each time: a code keeps the coset bases it built.
        code = extract_css(complex_)
        eliminations.clear()
        min_distance(code, mode=mode, w_max=w_max)
        assert [e.rank for e in eliminations] == [code.k, code.k]


@pytest.mark.parametrize("n", [3, 5])
def test_a_product_code_eliminates_each_generator_family_once(eliminations, n) -> None:
    """Through the text round trip, CSS extraction, the Kunneth check and
    both distance modes, the only eliminations of rank above k are of
    d_pm^T and d_mp, the Z and X generators as rows, once for the
    product and once for the complex read back; min_distance eliminates
    only the rank-k pairing.  At n = 5 exhaustive mode is refused (3^26
    kernel vectors) before anything is eliminated."""
    shape = ComplexShape.from_hom_dim(n, 1)
    c1, _, _ = random_boundary(shape, FIELD3, trial_rng(29, 0))
    c2, _, _ = random_boundary(shape, FIELD3, trial_rng(29, 1))
    eliminations.clear()  # the factors' draws and inverses
    pc = product(c1, c2)
    back = complex_from_text(complex_to_text(pc.complex))
    code = extract_css(back)
    assert kunneth_check(pc).ok and code.k == 2
    built = len(eliminations)
    if n == 3:
        min_distance(code, mode="exhaustive")
    else:
        with pytest.raises(ValueError, match="enumeration needs 3\\^26"):
            min_distance(code, mode="exhaustive")
    min_distance(code, mode="bounded", w_max=2)
    assert [e.rank for e in eliminations[built:]] == [code.k, code.k]
    large = [e.matrix for e in eliminations if e.rank > code.k]
    blocks = (pc.complex.d_pm.data.T, pc.complex.d_mp.data) * 2
    assert len(large) == 4 and all(map(np.array_equal, large, blocks))


@settings(max_examples=100, deadline=None)
@given(distance_codes())
def test_bounded_search_matches_reference_and_exhaustive(code) -> None:
    """For w_max = 1..4 bounded mode reports the first logical weight of
    the one-support-at-a-time reference search, and the exhaustive
    distance wherever that is at most w_max.  At w = 4 both halves of
    the meet-in-the-middle search have two positions, so their supports
    can overlap.  Exhaustive mode runs on kernels of at most 10^5
    vectors, to keep the property fast."""
    assume(code.k > 0)
    p = code.field.order
    sides = ((code.x_gens, code.z_gens), (code.z_gens.T, code.x_gens.T))
    first = [bounded_logical_weight(k_of, i_of, 4) for k_of, i_of in sides]
    small = all(p ** (k_of.cols - rank(k_of)) <= 10**5 for k_of, _ in sides)
    exact = min_distance(code, mode="exhaustive") if small else None
    for w_max in (1, 2, 3, 4):
        rep = min_distance(code, mode="bounded", w_max=w_max)
        found = [d if d is not None and d <= w_max else None for d in first]
        assert [rep.d_z, rep.d_x] == found
        for d, lower in zip(found, (rep.d_z_lower, rep.d_x_lower)):
            assert lower == (w_max + 1 if d is None else d)
        if exact is not None:
            for d, e in zip(found, (exact.d_z, exact.d_x)):
                assert d == (e if e <= w_max else None)


def _assert_bounded_search_agrees(code: CssCode, w_max: int) -> None:
    """Bounded reports for w_max = 1..w_max equal the reference search,
    and equal themselves when every table chunk and stream block holds
    one support: ``_syndromes`` gets a budget of one support's vectors,
    max(c, 8) (p - 1)**(h - lead) cells for c checks, since a vector
    counts as at least 8 cells.  A side whose first
    logical weight is not 1 streams every weight-1 support at w = 1 and
    tabulates them at w = 2, so the search then meets more than one
    chunk and more than one block."""
    sides = ((code.x_gens, code.z_gens), (code.z_gens.T, code.x_gens.T))
    first = [bounded_logical_weight(k_of, i_of, w_max) for k_of, i_of in sides]
    whole = [min_distance(code, mode="bounded", w_max=w) for w in range(1, w_max + 1)]
    for w, rep in enumerate(whole, 1):
        assert [rep.d_z, rep.d_x] == [d if d is not None and d <= w else None for d in first]
    chunks, blocks = [], []
    syndromes, group_table, meets = css._syndromes, css._group_table, css._meets_logical

    def one_support(cols, h, p, cells, *, lead):
        assert cells in (css._TABLE_CELLS, css._BLOCK_CELLS)
        vectors = (p - 1) ** (h - lead)
        for syn in syndromes(cols, h, p, max(cols.shape[1], 8) * vectors, lead=lead):
            assert len(syn) == vectors
            yield syn

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(css, "_syndromes", one_support)
        mp.setattr(css, "_group_table", lambda syn, r: chunks.append(1) or group_table(syn, r))
        mp.setattr(css, "_meets_logical", lambda t, syn, r: blocks.append(1) or meets(t, syn, r))
        chunked = [min_distance(code, mode="bounded", w_max=w) for w in range(1, w_max + 1)]
    assert chunked == whole
    if any(d != 1 for d in first):
        assert len(chunks) > 1 and len(blocks) > 1


@settings(max_examples=30, deadline=None)
@given(distance_codes())
def test_bounded_search_in_one_support_chunks_and_blocks(code) -> None:
    assume(code.k > 0)
    _assert_bounded_search_agrees(code, 3)


@pytest.mark.parametrize(
    "shapes", [((1, 1, 0), (2, 2, 0)), ((1, 1, 0), (3, 1, 1)), ((3, 1, 1), (3, 1, 1))]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_bounded_search_matches_reference_on_multi_byte_syndromes(shapes, seed) -> None:
    """Over GF(17) every syndrome is uint16, so each stabilizer syndrome
    entry is two bytes of its key.  The product of two zero-boundary
    factors (H = n) has no stabilizers (r = 0: one key for every
    syndrome); the others have some.  Either sign of the involution,
    w_max = 1..3, against the reference search, in one chunk and block
    and in one support per chunk and block."""
    field = FieldSpec(17)
    factors = [
        random_boundary(ComplexShape(*shape), field, trial_rng(seed, i))[0]
        for i, shape in enumerate(shapes)
    ]
    c = product(*factors).complex
    for code in (extract_css(c), extract_css(flip_sectors(c))):
        _assert_bounded_search_agrees(code, 3)


@pytest.mark.parametrize("flip", [False, True])
def test_bounded_search_matches_reference_at_gf257(flip) -> None:
    """Over GF(257), p - 1 = 256 is one past a byte.  The product of
    the (1, 1, 0) and (3, 1, 1) factors has distance 2 on both sides, so
    at w = 2 the table holds every value 1..256 of each position.
    w_max = 1..2 against the reference search, in one chunk and block
    and in one support per chunk and block."""
    field = FieldSpec(257)
    factors = [
        random_boundary(ComplexShape(*shape), field, trial_rng(0, i))[0]
        for i, shape in enumerate([(1, 1, 0), (3, 1, 1)])
    ]
    c = product(*factors).complex
    code = extract_css(flip_sectors(c) if flip else c)
    rep = min_distance(code, mode="bounded", w_max=2)
    assert (rep.d_z, rep.d_x) == (2, 2)
    _assert_bounded_search_agrees(code, 2)


@pytest.mark.parametrize("c", [1, 2, 4, 8])
def test_bounded_search_table_chunk_stays_within_its_budget_at_gf131(c) -> None:
    """At GF(131) and w_max = 6 the larger half has weight 3: one support
    holds 130^3 = 2.2M vectors, more than a table chunk.  The first chunk
    is the first ``_TABLE_CELLS`` // max(c, 8) vectors on support
    {0, 1, 2}, in value order, with a traced peak under four times the
    bytes of a full chunk of uint16 syndromes, whatever the check count
    c: each vector's index run and decode temporary count as 8 cells.
    With a budget of ``_TABLE_CELLS`` // c vectors, c = 1 traced 48 MiB;
    a table of every support's values built up front peaked at 232 MiB."""
    p = 131
    cols = np.random.default_rng(131).integers(0, p, (20, c)).astype(np.uint16)
    tracemalloc.start()
    try:
        chunk = next(css._syndromes(cols, 3, p, css._TABLE_CELLS, lead=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunk.shape == (css._TABLE_CELLS // max(c, 8), c)
    assert peak < 4 * css._TABLE_CELLS * 2
    values = np.array(list(itertools.islice(itertools.product(range(1, p), repeat=3), len(chunk))))
    assert np.array_equal(chunk, values @ cols[:3].astype(np.int64) % p)


def test_a_mixed_table_group_meets_each_of_its_dual_syndromes() -> None:
    """Table rows (r = 2 stabilizer entries, then the dual ones) that
    share a stabilizer syndrome but hold two dual syndromes form one
    marked group.  A streamed row with either dual syndrome meets it,
    since the difference from the other row is a logical; a row of an
    unmixed group meets it only with a different dual syndrome."""
    table = css._group_table(np.array([[2, 0, 1], [1, 1, 1], [2, 0, 2]], dtype=np.uint8), 2)
    assert sorted(table[2].tolist()) == [False, True]
    for row, meets in (([2, 0, 1], True), ([2, 0, 2], True), ([1, 1, 1], False),
                       ([1, 1, 2], True), ([0, 0, 1], False)):
        assert css._meets_logical(table, np.array([row], dtype=np.uint8), 2) is meets


def test_vanishing_reduced_trivial_and_boundary_cases() -> None:
    pc = product(distance3_complex(trial_rng(53, 0)), distance3_complex(trial_rng(53, 1)))
    cx = pc.complex
    full_rows = list(range(5))
    zero = np.zeros(cx.dim_plus, dtype=np.int64)
    assert vanishing_reduced_implies_boundary(pc, zero, full_rows, full_rows, full_rows, full_rows)

    # the boundary of a single C- basis vector at block position (i, j)
    # touches only row i of psi_plus and column j of psi_minus, so any
    # supports avoiding them expose it as a boundary
    for i, j in ((0, 0), (2, 4), (4, 1)):
        g = np.zeros(cx.dim_minus, dtype=np.int64)
        g[i * 5 + j] = 1
        h = cx.d_pm @ g
        rows_plus = [r for r in range(5) if r != i][:4]
        cols_minus = [c for c in range(5) if c != j][:4]
        assert vanishing_reduced_implies_boundary(
            pc, h, rows_plus, range(4), range(4), cols_minus
        )


def test_vanishing_reduced_validates_inputs() -> None:
    pc = product(distance3_complex(trial_rng(53, 3)), distance3_complex(trial_rng(53, 4)))
    cx = pc.complex
    rng = trial_rng(53, 5)
    v = rng.integers(0, 5, cx.dim_plus)
    if not (cx.d_mp @ v).any():  # pragma: no cover
        v[0] = (v[0] + 1) % 5
    with pytest.raises(ValueError, match="not a cycle"):
        vanishing_reduced_implies_boundary(pc, v, range(4), range(4), range(4), range(4))

    # a cycle that does not vanish on the requested blocks is rejected
    cycle = next(w for w in kernel_basis(cx.d_mp) if w.any())
    psi_plus, psi_minus = pc.vector_to_blocks(cycle)
    if psi_plus.submatrix(range(4), range(4)).is_zero() and psi_minus.submatrix(
        range(4), range(4)
    ).is_zero():  # pragma: no cover
        pytest.skip("seeded cycle happens to vanish on the leading blocks")
    with pytest.raises(ValueError, match="does not vanish"):
        vanishing_reduced_implies_boundary(pc, cycle, range(4), range(4), range(4), range(4))


def test_vanishing_reduced_lemma_single_instance() -> None:
    """One full instance of the lemma: both factors have distance 3 on
    every side, and every cycle vanishing on the leading 4x4 blocks of
    both sectors is a boundary."""
    c1 = distance3_complex(trial_rng(54, 0))
    c2 = distance3_complex(trial_rng(54, 1))
    for c in (c1, c2):
        for cc in (c, flip_sectors(c)):
            rep = min_distance(extract_css(cc), mode="exhaustive")
            assert min(rep.d_z, rep.d_x) >= 3
    pc = product(c1, c2)
    cx = pc.complex
    sel = []
    for i in range(4):
        for j in range(4):
            row = np.zeros(50, dtype=np.int64)
            row[i * 5 + j] = 1
            sel.append(row)
            row = np.zeros(50, dtype=np.int64)
            row[25 + i * 5 + j] = 1
            sel.append(row)
    stacked = MatGF(FIELD5, np.vstack([cx.d_mp.data, np.array(sel)]))
    joint = kernel_basis(stacked)
    assert len(joint) >= 1
    for h in joint:
        assert vanishing_reduced_implies_boundary(pc, h, range(4), range(4), range(4), range(4))


@pytest.mark.parametrize(
    "index_sets, message",
    [
        (([-1], [0], [0], [0]), r"row indices must lie in \[0, 5\), got \[-1\]"),
        (([0], [5], [0], [0]), r"column indices must lie in \[0, 5\), got \[5\]"),
        (([0], [0], [0, 5], [0]), r"row indices must lie in \[0, 5\), got \[0, 5\]"),
        (([0], [0], [0], [-5]), r"column indices must lie in \[0, 5\), got \[-5\]"),
        (([1.5], [0], [0], [0]), r"integers of int64 range, got 1.5"),
    ],
)
def test_vanishing_reduced_refuses_indices_outside_the_blocks(index_sets, message) -> None:
    """An index outside a 5 x 5 block is refused: a negative one is not
    wrapped to count from the end, one past the end does not escape as
    an IndexError, and a fractional one is not truncated."""
    pc = product(distance3_complex(trial_rng(53, 0)), distance3_complex(trial_rng(53, 1)))
    zero = np.zeros(pc.complex.dim_plus, dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        vanishing_reduced_implies_boundary(pc, zero, *index_sets)


@st.composite
def vanishing_cycles(draw):
    """A product of two random GF(3/5/7) factors with H = 1..2 and
    L = 0..1, an index set on each side of each block, a random cycle
    that vanishes on the blocks those sets pick, and a random C- vector."""
    field = FieldSpec(draw(st.sampled_from([3, 5, 7])))
    p = field.order
    seed = draw(st.integers(0, 2**32 - 1))
    factors = []
    for i in range(2):
        H, L = draw(st.integers(1, 2)), draw(st.integers(0, 1))
        factors.append(random_boundary(ComplexShape(H + 2 * L, H, L), field, trial_rng(seed, i))[0])
    pc = product(*factors)
    cx = pc.complex
    (p1, p2), (m1, m2) = pc.block_shapes
    index_sets = [
        draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
        for size in (p1, p2, m1, m2)
    ]
    rows_plus, cols_plus, rows_minus, cols_minus = index_sets
    picks = [i * p2 + j for i in rows_plus for j in cols_plus]
    picks += [p1 * p2 + i * m2 + j for i in rows_minus for j in cols_minus]
    stacked = np.vstack([cx.d_mp.data, np.eye(cx.dim_plus, dtype=np.int64)[picks]])
    basis = kernel_basis(MatGF(field, stacked))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(basis), max_size=len(basis)))
    h = np.array(coeffs, dtype=np.int64) @ basis % p
    g = trial_rng(seed, 2).integers(0, p, cx.dim_minus)
    return pc, h, index_sets, g


@settings(max_examples=150, deadline=None)
@given(vanishing_cycles())
def test_boundary_membership_matches_the_reference_rank(case) -> None:
    """h is reported a boundary exactly when rank [d_pm | h] = rank
    d_pm, by the reference elimination.  With no index sets every cycle
    qualifies: each logical row of the product's coset basis is
    reported no boundary, and d_pm g a boundary."""
    pc, h, index_sets, g = case
    cx = pc.complex
    p = cx.field.order
    d_pm = cx.d_pm.data

    def is_boundary(v: np.ndarray) -> bool:
        return reference_rank(np.column_stack([d_pm, v]), p) == reference_rank(d_pm, p)

    assert vanishing_reduced_implies_boundary(pc, h, *index_sets) is is_boundary(h)
    z_basis, r = css._coset_bases(extract_css(cx))[0]
    assert len(z_basis) > r
    for row in z_basis[r:]:
        assert not is_boundary(row)
        assert vanishing_reduced_implies_boundary(pc, row, [], [], [], []) is False
    assert vanishing_reduced_implies_boundary(pc, cx.d_pm @ g, [], [], [], []) is True
