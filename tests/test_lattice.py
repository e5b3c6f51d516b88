"""Reduction and enumeration over explicit Gram matrices."""

import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

from arakelov import lattice as lattice_module
from arakelov.bundle import tensor
from arakelov.errors import EnumerationCapError, InvalidMetricError
from arakelov.intlinalg import rat_det
from arakelov.lattice import (
    LLL_DELTA,
    ReducedLattice,
    apply_transform,
    enumerate_short_vectors,
    form_value,
    lll_transform,
    shortest_vector,
)
from arakelov.numberfield import make_field
from arakelov.sampler import DEFAULT_PRIME, RandomLatticeSpec, random_bundle
from tests.oracles import (
    box_bound,
    e8_gram,
    enumerate_short_vectors_reference,
    gram_schmidt,
    lll_reference,
    random_pd_fraction_gram,
    rational_sections_brute,
    restrict_scalars_reference,
    skewed_unimodular,
    trace_gram_reference,
)


def gram_matrix(basis):
    """Gram matrix of row vectors under the standard inner product."""
    return [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]


def quadratic_value(gram, x):
    n = len(gram)
    return sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def brute_short_vectors(gram, radius_sq):
    """All +-classes with 0 < Q(x) <= radius_sq, by box enumeration over
    the coordinate ranges certified by the dual bound."""
    bounds = box_bound([[float(x) for x in row] for row in gram],
                       float(radius_sq))
    out = {}
    for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if not any(x):
            continue
        lead = next(v for v in reversed(x) if v)
        if lead < 0:
            continue
        q = quadratic_value(gram, x)
        if q <= radius_sq:
            out[x] = q
    return out


def test_gram_matrix_and_transform():
    basis = [[1, 0], [1, 2]]
    G = gram_matrix(basis)
    assert G == [[1, 1], [1, 5]]
    U = [[0, 1], [1, 0]]
    assert apply_transform(U, G) == [[5, 1], [1, 1]]


def test_lll_unimodular_and_quality():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 5)
        G = random_pd_fraction_gram(rng, n)
        U = lll_transform(G)
        det = 1
        M = [row[:] for row in U]
        # integer determinant via fraction elimination
        from arakelov.intlinalg import rat_det

        assert abs(rat_det(M)) == 1
        red = apply_transform(U, G)
        # reduced basis must not be longer than the original worst vector
        assert min(float(red[i][i]) for i in range(n)) <= \
            min(float(G[i][i]) for i in range(n)) + 1e-9
        # determinant of the Gram matrix is basis independent
        assert rat_det(red) == rat_det(G)


def test_lll_finds_short_vector_in_skewed_plane():
    # basis (1, 0), (1000, 1): reduction must recover unit-length vectors
    G = gram_matrix([[1, 0], [1000, 1]])
    U = lll_transform([[Fraction(x) for x in row] for row in G])
    red = apply_transform(U, G)
    assert sorted(red[i][i] for i in range(2)) == [1, 1]


def test_lll_is_exact_on_int_grams():
    # U U^T for a unimodular U: a skewed copy of Z^3 that float
    # Gram-Schmidt reads as not positive definite
    skewed = [[176879975875, -13089133019291, -882388873184],
              [-13089133019291, 968596938965505, 65296850469933],
              [-882388873184, 65296850469933, 4401912198758]]
    rng = random.Random(37)
    grams = [skewed]
    for _ in range(20):
        G = random_pd_fraction_gram(rng, rng.randint(2, 5))
        grams.append([[int(4 * x) for x in row] for row in G])
    for G in grams:
        U = lll_transform(G)
        assert U == lll_transform([[Fraction(x) for x in row] for row in G])
    red = apply_transform(lll_transform(skewed), skewed)
    assert [red[i][i] for i in range(3)] == [1, 1, 1]


def congruence_gram(rng, n, p):
    """Integer Gram of the index-p sublattice {x : a.x = 0 mod p} of Z^n in
    its echelon basis p e_0, e_i - a_i e_0: the Hecke sampler's input."""
    rows = [[p] + [0] * (n - 1)]
    for i in range(1, n):
        row = [0] * n
        row[0], row[i] = -rng.randrange(p), 1
        rows.append(row)
    return gram_matrix(rows)


def test_lll_matches_reference_on_hecke_grams():
    rng = random.Random(41)
    for n in range(3, 13):
        G = congruence_gram(rng, n, DEFAULT_PRIME)
        assert lll_transform(G) == lll_reference(G)


def test_lll_matches_reference_on_rational_and_float_grams():
    rng = random.Random(43)
    Q = make_field("Q")
    # the first Gram meets the Lovasz condition with equality: no swap
    grams = [[[100, 0], [0, 99]]]
    grams += [random_pd_fraction_gram(rng, rng.randint(2, 6),
                                      rng.choice([1, 3, 4, 7]))
              for _ in range(30)]
    for trial in range(8):
        # tensor products of sampler bundles: Fraction Grams whose entries
        # carry denominators from the float rescaling p^(-2/n)
        E, F = (random_bundle(Q, n, 0.0, RandomLatticeSpec(n, 10007, trial, Q))
                for n in (2, rng.randint(2, 3)))
        grams.append(tensor(E, F).gram_real[0])
    exact = len(grams)
    # float inputs: float copies of the exact Grams, and trace Grams of
    # bundles over quadratic fields; the reference reads their exact values
    grams += [[[float(x) for x in row] for row in G] for G in grams]
    for name in ("Q(sqrt{-1})", "Q(sqrt{5})", "Q(sqrt{-7})"):
        K = make_field(name)
        for trial in range(4):
            spec = RandomLatticeSpec(2, 10007, trial, K)
            grams.append(trace_gram_reference(restrict_scalars_reference(
                random_bundle(K, 2, 0.3 * trial, spec)).place_forms))
    assert all(isinstance(x, float) for G in grams[exact:] for row in G
               for x in row)
    for G in grams:
        assert lll_transform(G) == lll_reference(G)


def random_pd_integer_gram(rng):
    """B B^T for a random nonsingular integer B, or U U^T for a skewed
    unimodular U built from large elementary shears."""
    n = rng.randint(2, 6)
    if rng.random() < 0.5:
        B = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(1, 2 * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            c = rng.randint(-10 ** 6, 10 ** 6)
            if i != j:
                B[i] = [a + c * b for a, b in zip(B[i], B[j])]
    else:
        while True:
            B = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            if rat_det(B) != 0:
                break
    return gram_matrix(B)


def test_lll_output_is_reduced():
    rng = random.Random(47)
    for _ in range(150):
        G = random_pd_integer_gram(rng)
        n = len(G)
        U = lll_transform(G)
        assert abs(rat_det(U)) == 1
        B, mu = gram_schmidt([[Fraction(x) for x in row]
                              for row in apply_transform(U, G)])
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, n):
            assert B[k] >= (LLL_DELTA - mu[k][k - 1] ** 2) * B[k - 1]


@pytest.mark.parametrize("G", [
    [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],  # first leading minor negative
    [[0, 0, 0], [0, 1, 0], [0, 0, 1]],  # first leading minor zero
    [[1, 2, 0], [2, 1, 0], [0, 0, 1]],  # middle minor negative
    [[1, 1, 0], [1, 1, 0], [0, 0, 1]],  # middle minor zero
    [[2, 1, 1], [1, 2, 1], [1, 1, 0]],  # last minor negative
    [[1, 1, 1], [1, 2, 2], [1, 2, 2]],  # last minor zero
])
@pytest.mark.parametrize("kind", [int, Fraction, float])
def test_lll_rejects_non_positive_definite(G, kind):
    G = [[kind(x) for x in row] for row in G]
    for lll in (lll_transform, lll_reference):
        with pytest.raises(InvalidMetricError, match="not positive definite"):
            lll(G)


def test_enumeration_matches_brute_force():
    rng = random.Random(29)
    checked = 0
    while checked < 12:
        n = rng.randint(2, 4)
        G = random_pd_fraction_gram(rng, n)
        radius_sq = Fraction(rng.randint(2, 6))
        bounds = box_bound([[float(x) for x in row] for row in G],
                           float(radius_sq))
        work = 1
        for b in bounds:
            work *= 2 * b + 1
        if work > 300_000:  # keep the oracle affordable
            continue
        brute = brute_short_vectors(G, radius_sq)
        floats = [[float(x) for x in row] for row in G]
        # the bare enumeration, then the reduce-once path on exact and on
        # float Grams, read in the original coordinates; only the mapped-back
        # vectors may break the sign convention, so only they are flipped
        for vectors, flip in (
                (enumerate_short_vectors(G, radius_sq), False),
                (ReducedLattice(G).short_vectors(radius_sq), True),
                (ReducedLattice(floats).short_vectors(radius_sq), True)):
            found = {}
            for x in vectors:
                if flip and next(v for v in reversed(x) if v) < 0:
                    x = tuple(-v for v in x)  # the oracle's sign convention
                exact = quadratic_value(G, x)
                if exact <= radius_sq:  # float envelope may over-include
                    assert x not in found
                    found[x] = exact
            assert found == brute
        checked += 1


def test_radius_on_a_lattice_value_matches_brute_force():
    # the radius is the exact value of a lattice vector, so points lie on
    # the sphere; the enumeration, given that radius unpadded, must keep all
    # of them, on integer Grams and on skewed copies U G U^T, whose vector x
    # is x U in G's basis
    rng = random.Random(37)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 4)
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        G = gram_matrix(B)
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        if not any(v) or rat_det(G) == 0:
            continue
        radius = quadratic_value(G, v)
        work = 1
        for b in box_bound(G, radius):
            work *= 2 * b + 1
        if work > 100_000:
            continue
        brute = rational_sections_brute(G, radius)
        assert v in brute
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        sweeps = [(identity, enumerate_short_vectors(G, radius))]
        for shear in (1, 10 ** 3, 10 ** 6):
            U = skewed_unimodular(rng, n, shear)
            lattice = ReducedLattice(apply_transform(U, G))
            sweeps.append((U, lattice.short_vectors(radius)))
        for U, vectors in sweeps:
            found = set()
            for x in vectors:
                y = tuple(sum(map(mul, x, col)) for col in zip(*U))  # x U
                if quadratic_value(G, y) <= radius:
                    found.update((y, tuple(-c for c in y)))
            assert found == brute
        checked += 1


def test_enumeration_sign_convention():
    G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    reps = list(enumerate_short_vectors(G, 1))
    assert sorted(reps) == [(0, 1), (1, 0)]
    for x in reps:
        lead = next(v for v in reversed(x) if v)
        assert lead > 0


def test_enumeration_empty_cases():
    G = [[Fraction(4)]]
    assert list(enumerate_short_vectors(G, 3)) == []
    assert list(enumerate_short_vectors(G, -1)) == []
    assert list(enumerate_short_vectors([], 5)) == []


def test_node_counter_and_cap():
    G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    counter = [0]
    list(enumerate_short_vectors(G, 100, node_counter=counter))
    assert counter[0] > 0
    with pytest.raises(EnumerationCapError) as exc:
        list(enumerate_short_vectors(G, 100, node_cap=5))
    assert exc.value.nodes > 5


def test_rejects_non_positive_definite():
    with pytest.raises(InvalidMetricError):
        list(enumerate_short_vectors([[Fraction(0)]], 1))
    with pytest.raises(InvalidMetricError):
        list(enumerate_short_vectors([[1, 2], [2, 1]], 1))
    with pytest.raises(InvalidMetricError):
        lll_transform([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])


def test_shortest_vector_brute_force():
    rng = random.Random(31)
    checked = 0
    while checked < 15:
        n = rng.randint(2, 4)
        G = random_pd_fraction_gram(rng, n)
        floats = [[float(v) for v in row] for row in G]
        smallest = min(float(G[i][i]) for i in range(n))
        work = 1
        for b in box_bound(floats, smallest):
            work *= 2 * b + 1
        if work > 300_000:
            continue
        checked += 1
        x, q = shortest_vector(G)
        assert any(x)
        exact = quadratic_value(G, x)
        assert q == exact
        best = min(brute_short_vectors(G, exact).values(), default=None)
        assert best is not None and best == exact


def test_shortest_vector_e8():
    G = [[Fraction(x) for x in row] for row in e8_gram()]
    x, _ = shortest_vector(G)
    assert quadratic_value(G, x) == 2
    count = sum(1 for _ in enumerate_short_vectors(G, 2))
    assert 2 * count == 240  # kissing number, one representative per +-pair


def walk(enumerate_fn, G, radius_sq, node_cap):
    """Every vector a walk yields, in order, its node counter, and the
    nodes of the cap error that ended it, if one did."""
    counter, vectors = [0], []
    try:
        for x in enumerate_fn(G, radius_sq, node_cap, counter):
            vectors.append(x)
    except EnumerationCapError as exc:
        return vectors, counter[0], exc.nodes
    return vectors, counter[0], None


def skewed_walk_cases(rng, count):
    """(G, radius) for skewed U U^T Grams of ranks 1 to 6 with radii on
    lattice values: |y|^2 is the value of y U^-1, an integer vector."""
    for _ in range(count):
        n = rng.randint(1, 6)
        U = skewed_unimodular(rng, n, rng.choice([1, 2, 3]))
        G = gram_matrix(U)
        y = [rng.randint(-1, 1) for _ in range(n)]
        yield G, (sum(v * v for v in y) or 1) * rng.choice([1, 2])


def test_walk_matches_the_recursive_reference():
    # the same vectors in the same order, the same node count, and a cap
    # error at the same node; the float decomposition may refuse a skewed
    # Gram, and then both refuse it
    rng = random.Random(53)
    ended = capped = 0
    for G, radius in skewed_walk_cases(rng, 150):
        for node_cap in (20_000, rng.randint(1, 300)):
            try:
                got = walk(enumerate_short_vectors, G, radius, node_cap)
            except InvalidMetricError:
                with pytest.raises(InvalidMetricError):
                    walk(enumerate_short_vectors_reference, G, radius, node_cap)
                continue
            assert got == walk(enumerate_short_vectors_reference, G, radius,
                               node_cap)
            if got[2] is None:
                ended += 1
            else:
                capped += 1
                assert got[1] == got[2] == node_cap + 1
    assert ended > 150 and capped > 50
    rng = random.Random(59)
    for _ in range(20):  # Fraction Grams and radii off the lattice values
        G = random_pd_fraction_gram(rng, rng.randint(1, 5))
        radius = Fraction(rng.randint(1, 40), 4)
        assert (walk(enumerate_short_vectors, G, radius, 10 ** 5)
                == walk(enumerate_short_vectors_reference, G, radius, 10 ** 5))


def test_node_counter_after_early_break_and_nested_walks(monkeypatch):
    rng = random.Random(61)
    G = [[Fraction(x) for x in row] for row in e8_gram()]
    # a counter read after a break holds the nodes up to the vector taken,
    # as _scan(first=True) reads it
    for stop in (1, 2, 17, 100):
        counts = []
        for fn in (enumerate_short_vectors, enumerate_short_vectors_reference):
            counter = [0]
            for k, _ in enumerate(fn(G, 4, node_counter=counter), 1):
                if k == stop:
                    break
            counts.append(counter[0])
        assert counts[0] == counts[1] > 0

    def pair_nodes(A):
        # a second enumeration per first vector, both on one
        # ReducedLattice: no caller nests walks any more, but each walk
        # raises the one counter by its own nodes, so the sum still holds
        lattice = ReducedLattice(A)
        pairs = sum(1 for b1 in lattice.short_vectors(2)
                    for _ in lattice.short_vectors(4 - form_value(A, b1)))
        return pairs, lattice.nodes

    grams = [gram_matrix(skewed_unimodular(rng, n, 3)) for n in (2, 3, 4, 4)]
    got = [pair_nodes(A) for A in grams]
    monkeypatch.setattr(lattice_module, "enumerate_short_vectors",
                        enumerate_short_vectors_reference)
    assert got == [pair_nodes(A) for A in grams]
    assert all(pairs and nodes for pairs, nodes in got)
