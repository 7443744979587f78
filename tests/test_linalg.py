from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from koszul import _kernels
from koszul.linalg import (GF, Matrix, MatrixEquations, QQ, Subspace, _is_prime, matrix_kernels,
                           solve)
from tests.helpers import intersect

P_CHECK = 1000003


def test_matrix_kernels_identity():
    rank, ker, img = matrix_kernels(Matrix.identity(QQ, 3))
    assert rank == 3 and ker.nrows == 0 and img.nrows == 3


def test_matrix_kernels_zero():
    rank, ker, img = matrix_kernels(Matrix.zeros(QQ, 2, 5))
    assert rank == 0 and ker.nrows == 5 and img.nrows == 0


def test_matrix_kernels_rank_one():
    rank, ker, _ = matrix_kernels(Matrix.from_rows(QQ, [[1, 2], [2, 4]]))
    assert rank == 1 and ker.nrows == 1
    # kernel is the line spanned by (2, -1)
    v = ker.rows[0]
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)


def test_subspace_same_space_canonical():
    u1 = Subspace.from_vectors(QQ, 3, [[1, 1, 0], [0, 1, 1]])
    u2 = Subspace.from_vectors(QQ, 3, [[1, 2, 1], [2, 3, 1], [1, 0, -1]])
    assert u1 == u2
    assert u1.sparse_rows == u2.sparse_rows


def test_subspace_trivial_cases():
    u = Subspace.from_vectors(QQ, 2, [[1, 0]])
    v = Subspace.from_vectors(QQ, 2, [[0, 1]])
    s = u.add(v)
    assert s.dim == 2 and intersect(u, v).dim == 0
    assert u.perp() == v  # annihilator of the x-axis is the y-functional line
    assert u.project(range(2)) == Matrix.from_rows(QQ, [[0, 1]])   # e_0 is in u, e_1 is not
    assert u.add(u) == u and intersect(u, u) == u


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_block_places_given_blocks_and_zeros_elsewhere(field):
    a = Matrix.from_rows(field, [[1, 2], [3, 4]])
    b = Matrix.from_rows(field, [[5], [-1], [Fraction(1, 2)]])
    m = Matrix.block(field, [2, 3], [2, 1, 2], {(0, 0): a, (1, 1): b})
    assert (m.nrows, m.ncols) == (5, 5)
    expected = [[1, 2, 0, 0, 0], [3, 4, 0, 0, 0], [0, 0, 5, 0, 0], [0, 0, -1, 0, 0],
                [0, 0, Fraction(1, 2), 0, 0]]
    assert m == Matrix.from_rows(field, expected)
    assert Matrix.block(field, [2, 3], [2, 1, 2], {}) == Matrix.zeros(field, 5, 5)
    # empty heights or widths: no rows, or rows of length 0
    assert Matrix.block(field, [], [2, 1], {}) == Matrix.zeros(field, 0, 3)
    assert Matrix.block(field, [2, 1], [], {}) == Matrix.zeros(field, 3, 0)
    assert Matrix.block(field, [], [], {}) == Matrix.zeros(field, 0, 0)
    assert Matrix.block(field, [0, 2], [2], {(1, 0): a}) == a


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_block_rejects_wrong_shapes(field):
    a = Matrix.from_rows(field, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        Matrix.block(field, [3], [2], {(0, 0): a})      # wrong height
    with pytest.raises(ValueError):
        Matrix.block(field, [2], [1, 2], {(0, 0): a})   # wrong width
    with pytest.raises(ValueError):
        Matrix.block(field, [2], [2], {(1, 0): a})      # no such block row


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_kron_matches_entrywise_definition(field):
    rng = random.Random(7)
    for ra, ca, rb, cb in [(2, 3, 3, 2), (3, 1, 1, 4), (0, 2, 3, 1), (2, 0, 1, 3),
                           (2, 2, 0, 3), (1, 2, 2, 0), (0, 0, 0, 0)]:
        a = Matrix.from_rows(field, [[rng.choice([0, 0, 1, -1, 2, Fraction(1, 3)])
                                      for _ in range(ca)] for _ in range(ra)]) \
            if ra else Matrix.zeros(field, 0, ca)
        b = Matrix.from_rows(field, [[rng.choice([0, 1, -2, Fraction(2, 5)])
                                      for _ in range(cb)] for _ in range(rb)]) \
            if rb else Matrix.zeros(field, 0, cb)
        k = Matrix.kron(a, b)
        assert (k.nrows, k.ncols) == (ra * rb, ca * cb)
        p = field.characteristic
        for i in range(ra * rb):
            for j in range(ca * cb):
                v = a.rows[i // rb][j // cb] * b.rows[i % rb][j % cb]
                assert k.rows[i][j] == (v % p if p else v)
        # the block matrix of scaled copies, a-index major
        blocks = {(i, j): b.scale(v) for i, row in enumerate(a.sparse_rows)
                  for j, v in row.items()}
        assert k == Matrix.block(field, [rb] * ra, [cb] * ca, blocks)
        # no explicit zeros, and every entry in canonical form
        assert all(v and type(v) is type(field.of(v)) and v == field.of(v)
                   for row in k.sparse_rows for v in row.values())
    # Fractions whose product is integral give an int over QQ
    thirds = Matrix.from_rows(field, [[Fraction(1, 3), 0], [0, Fraction(3, 2)]])
    k = Matrix.kron(thirds, Matrix.from_rows(field, [[3, Fraction(2, 3)]]))
    assert k.rows == [[field.of(1), field.of(Fraction(2, 9)), 0, 0],
                      [0, 0, field.of(Fraction(9, 2)), field.of(1)]]
    assert type(k.sparse_rows[0][0]) is int and type(k.sparse_rows[1][3]) is int
    # a zero factor gives a zero product of the right shape
    zero = Matrix.zeros(field, 2, 2)
    assert Matrix.kron(zero, Matrix.identity(field, 3)) == Matrix.zeros(field, 6, 6)
    # the 1x1 identity factor hands back the other factor itself; another
    # 1x1 factor does not
    b = Matrix.from_rows(field, [[1, 2, 0], [0, -1, 3]])
    assert Matrix.kron(Matrix.identity(field, 1), b) is b
    two = Matrix.kron(Matrix.from_rows(field, [[2]]), b)
    assert two is not b and two == b.scale(2)


def _entries(rng, field, nrows, ncols):
    """Dense rows of raw entries: zeros, small integers, fractions over QQ and
    multiples of p over GF(p), which `from_rows` must store as no entry."""
    p = field.characteristic
    pool = [0, 0, 0, 1, -1, 2, -3] + ([p, -2 * p, 3 * p + 1] if p else
                                      [Fraction(1, 3), Fraction(-5, 2)])
    return [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]


def _from_dense(field, rows, ncols):
    return Matrix.from_rows(field, rows) if rows else Matrix.zeros(field, 0, ncols)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_matrix_operations_match_dense_reference(field, seed):
    rng = random.Random(900 + seed)
    of, z = field.of, field.zero
    # the first seeds give empty operands: 0 x k, k x 0 and 0 x 0
    m, n, k = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)][seed] if seed < 4 else \
        [rng.randint(1, 5) for _ in range(3)]
    da, db, dc = _entries(rng, field, m, n), _entries(rng, field, m, n), _entries(rng, field, n, k)
    a, b, c = _from_dense(field, da, n), _from_dense(field, db, n), _from_dense(field, dc, k)
    ra, rb, rc = ([[of(v) for v in r] for r in d] for d in (da, db, dc))
    zeros = [[z] * n for _ in range(m)]
    results = {     # name -> (result, entrywise reference, number of columns)
        "from_rows": (a, ra, n),
        "zeros": (Matrix.zeros(field, m, n), zeros, n),
        "identity": (Matrix.identity(field, n),
                     [[of(int(i == j)) for j in range(n)] for i in range(n)], n),
        "add": (a + b, [[of(x + y) for x, y in zip(u, v)] for u, v in zip(ra, rb)], n),
        "sub": (a - b, [[of(x - y) for x, y in zip(u, v)] for u, v in zip(ra, rb)], n),
        "sub-self": (a - a, zeros, n),
        "neg": (-a, [[of(-x) for x in u] for u in ra], n),
        "scale": (a.scale(-3), [[of(-3 * x) for x in u] for u in ra], n),
        "scale-0": (a.scale(0), zeros, n),
        "scale-1": (a.scale(1), ra, n),
        "mul": (a * c, [[of(sum((u[t] * rc[t][j] for t in range(n)), 0)) for j in range(k)]
                        for u in ra], k),
        "transpose": (a.transpose(), [[u[j] for u in ra] for j in range(n)], m),
        "block": (Matrix.block(field, [m, k], [n, n], {(0, 1): a, (1, 0): c.transpose()}),
                  [[z] * n + u for u in ra] + [[r[i] for r in rc] + [z] * n for i in range(k)],
                  2 * n),
        "kron": (Matrix.kron(a, c), [[of(ra[i // n][j // k] * rc[i % n][j % k])
                                      for j in range(n * k)] for i in range(m * n)], n * k),
    }
    for name, (got, want, ncols) in results.items():
        assert (got.nrows, got.ncols, got.rows) == (len(want), ncols, want), name
        # `__eq__` compares the row dicts, so none may hold an explicit zero
        assert len(got.sparse_rows) == got.nrows, name
        for row in got.sparse_rows:
            assert all(0 <= j < ncols and v and type(v) is type(of(v)) and v == of(v)
                       for j, v in row.items()), name
        assert got == _from_dense(field, want, ncols), name
        assert got.is_zero() == (want == [[z] * ncols for _ in want]), name
    vec = [of(rng.choice([0, 1, -2, 5])) for _ in range(n)]
    got = a.apply(vec)
    assert got == [of(sum((x * y for x, y in zip(u, vec)), 0)) for u in ra]
    # the dense vector methods return canonical values too (no integral Fraction)
    space = Subspace.from_matrix(a)
    coefs = [of(rng.choice([1, -2, 3])) for _ in range(space.dim)]
    member = [of(sum((x * r[j] for x, r in zip(coefs, space.dense_rows())), 0))
              for j in range(n)]
    assert _canonical(field, got) and _canonical(field, space.reduce(vec))
    assert space.coordinates(member) == coefs and _canonical(field, space.coordinates(member))
    assert not any(space.reduce(member))
    # an entry p in GF(p) is zero, also where no basis row eliminates it
    assert space.coordinates([x + field.characteristic for x in member]) == coefs
    assert (a == b) == (ra == rb)
    assert a != Matrix.zeros(field, m + 1, n) and a != Matrix.zeros(field, m, n + 1)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_coordinates_of_and_project_match_dense_references(field, seed):
    rng = random.Random(700 + seed)
    of, n = field.of, rng.randint(1, 6)
    random_space = Subspace.from_matrix(
        Matrix.from_rows(field, _entries(rng, field, rng.randint(1, n), n)))
    for space in (Subspace.zero(field, n), Subspace.full(field, n), random_space):
        rows, free = space.dense_rows(), [c for c in range(n) if c not in space.pivots]
        # members: k random combinations of the basis rows, k = 0 a zero-width input
        for k in (0, rng.randint(1, 4)):
            coefs = [[of(rng.choice([0, 1, -2, 3])) for _ in range(space.dim)] for _ in range(k)]
            cols = [[of(sum((x * r[i] for x, r in zip(cf, rows)), 0)) for i in range(n)]
                    for cf in coefs]
            mat = Matrix.from_rows(field, cols).transpose() if k else Matrix.zeros(field, n, 0)
            got = space.coordinates_of(mat)
            want = [space.coordinates(col) for col in cols]
            assert (got.nrows, got.ncols) == (space.dim, k) and _canonical_rows(got)
            assert got.rows == [[w[r] for w in want] for r in range(space.dim)]
        # the class of each unit vector: the reduced unit vector at the free columns
        for picks in ([], list(range(n)), [rng.randrange(n) for _ in range(3)]):
            got = space.project(picks)
            want = [[space.reduce([of(int(i == c)) for i in range(n)])[f] for f in free]
                    for c in picks]
            assert (got.nrows, got.ncols) == (len(free), len(picks)) and _canonical_rows(got)
            assert got.rows == [[w[r] for w in want] for r in range(len(free))]
        if free:        # a unit vector at a free column is no member
            with pytest.raises(ValueError):
                space.coordinates_of(Matrix.from_rows(field, [[int(i == free[0])]
                                                              for i in range(n)]))
        for misfit in (Matrix.zeros(field, n + 1, 1), Matrix.zeros(GF(3) if field == QQ
                                                                   else QQ, n, 1)):
            with pytest.raises(ValueError):
                space.coordinates_of(misfit)
        with pytest.raises(ValueError):
            space.project([n])


def _reference_rref(rows, ncols, p=0):
    """Textbook Gauss-Jordan, column by column, over Fraction or mod p.

    Returns the non-zero rows of the reduced row echelon form and the pivots.
    """
    if p:
        mat = [[v % p for v in r] for r in rows]
    else:
        mat = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        if p:
            s = pow(mat[r][c], p - 2, p)
            mat[r] = [v * s % p for v in mat[r]]
        else:
            s = 1 / mat[r][c]
            mat[r] = [v * s for v in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                if p:
                    mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
                else:
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], tuple(pivots)


@pytest.mark.parametrize("seed", range(12))
def test_dimension_formula_against_stacked_oracle(seed):
    rng = random.Random(seed)
    urows = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(3)]
    vrows = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(4)]
    u = Subspace.from_vectors(QQ, 7, urows)
    v = Subspace.from_vectors(QQ, 7, vrows)
    s = u.add(v)
    i = intersect(u, v)
    assert s.dim == len(_reference_rref(urows + vrows, 7)[1])
    assert s.dim + i.dim == u.dim + v.dim
    # s maps onto a (dim s - dim u)-dimensional subspace of k^7 / u
    assert (u.project(range(7)) * s.basis_matrix().transpose()).rank() == s.dim - u.dim


@pytest.mark.parametrize("seed", range(8))
def test_double_perp_and_perp_laws(seed):
    rng = random.Random(100 + seed)
    u = Subspace.from_vectors(QQ, 6, [[rng.randint(-2, 2) for _ in range(6)] for _ in range(2)])
    v = Subspace.from_vectors(QQ, 6, [[rng.randint(-2, 2) for _ in range(6)] for _ in range(3)])
    assert u.perp().perp() == u
    assert u.add(v).perp() == intersect(u.perp(), v.perp())
    assert intersect(u, v).perp() == u.perp().add(v.perp())


@pytest.mark.parametrize("seed", range(8))
def test_rationals_agree_with_prime_field(seed):
    rng = random.Random(200 + seed)
    rows = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(4)]
    fq = Matrix.from_rows(QQ, rows)
    fp = Matrix.from_rows(GF(P_CHECK), rows)
    rq, pq = fq.rref()
    rp, pp = fp.rref()
    assert pq == pp
    gf = GF(P_CHECK)
    assert [[gf.of(v) for v in row] for row in rq.rows] == rp.rows
    assert fq.kernel().basis_matrix().nrows == fp.kernel().basis_matrix().nrows


def _random_rows(rng, nrows, ncols, density, rational):
    """Seeded rows with signed (optionally fractional) entries, plus a zero
    row and a scaled duplicate row when there are any rows at all."""
    def entry():
        if rng.random() >= density:
            return 0
        num = rng.choice((-1, 1)) * rng.randint(1, 9)
        return Fraction(num, rng.randint(1, 6)) if rational else num

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rows:
        rows.append([0] * ncols)
        rows.append([-2 * v for v in rng.choice(rows)])
        rng.shuffle(rows)
    return rows


def _check_rref(field, rows, ncols):
    p = field.characteristic
    want_rows, want_piv = _reference_rref(rows, ncols, p)
    nonzeros = [{c: w for c, v in enumerate(r) if (w := field.of(v))} for r in rows]
    red, piv = Matrix(field, len(rows), ncols, nonzeros).rref()
    assert piv == want_piv
    assert red.rows == want_rows
    sparse = [{c: field.of(v) for c, v in enumerate(r) if v} for r in rows]
    before = [dict(r) for r in sparse]
    space = Subspace.from_sparse(field, ncols, sparse)
    assert sparse == before                      # the kernels leave their input alone
    assert space.pivots == want_piv
    assert space.dense_rows() == want_rows
    assert space.sparse_rows == [{c: v for c, v in enumerate(r) if v} for r in want_rows]
    if not p:
        # integer lane: the canonical RREF scaled to content 1, leading entries positive
        ints = []
        for r in rows:
            den = 1
            for v in r:
                den = den * Fraction(v).denominator // gcd(den, Fraction(v).denominator)
            ints.append({c: int(v * den) for c, v in enumerate(r) if v})
        before = [dict(r) for r in ints]
        got, kpiv = _kernels.rref_int(ints)
        assert ints == before and kpiv == want_piv
        for row, c, want in zip(got, kpiv, want_rows):
            assert row[c] > 0 and gcd(*row.values()) == 1
            assert [Fraction(row.get(j, 0), row[c]) for j in range(ncols)] == want


@pytest.mark.parametrize("seed", range(24))
def test_rref_matches_reference_gauss_jordan(seed):
    rng = random.Random(400 + seed)
    m, n = rng.randint(0, 8), rng.randint(0, 8)
    density = (0.15, 0.9)[seed % 2]          # sparse and dense inputs alternate
    _check_rref(QQ, _random_rows(rng, m, n, density, rational=True), n)
    ints = _random_rows(rng, m, n, density, rational=False)
    for p in (2, 3, 101, P_CHECK):
        _check_rref(GF(p), ints, n)


@pytest.mark.parametrize("seed", range(24))
def test_kernel_and_rank_agree_with_rref(seed):
    rng = random.Random(400 + seed)
    m, n = rng.randint(0, 8), rng.randint(0, 8)
    density = (0.15, 0.9)[seed % 2]
    cases = [(QQ, _random_rows(rng, m, n, density, rational=True))]
    ints = _random_rows(rng, m, n, density, rational=False)
    cases += [(GF(p), ints) for p in (2, 101, P_CHECK)]
    for field, rows in cases:
        mat = Matrix(field, len(rows), n,
                     [{c: w for c, v in enumerate(r) if (w := field.of(v))} for r in rows])
        ker = mat.kernel()
        dense = mat.kernel().basis_matrix()
        assert ker == Subspace.from_matrix(dense)
        assert mat.rank() == len(mat.rref()[1])
        assert ker.dim == n - mat.rank()
        for row in ker.dense_rows():
            assert not any(mat.apply(row))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(P_CHECK)], ids=str)
def test_rref_edge_shapes(field):
    _check_rref(field, [], 5)                   # 0 x n
    _check_rref(field, [[], [], []], 0)         # n x 0
    _check_rref(field, [[0] * 4] * 3, 4)        # all zero
    rng = random.Random(7)
    n = 9
    lower = [[1 if i == j else rng.randint(-3, 3) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.randint(-3, 3) if j > i else 0 for j in range(n)]
             for i in range(n)]
    full = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]                  # determinant 1, so full rank in every field
    _check_rref(field, full, n)
    assert Matrix.from_rows(field, full).rank() == n


def test_from_vectors_rejects_wrong_length():
    with pytest.raises(ValueError):
        Subspace.from_vectors(QQ, 3, [[1, 0]])


def test_solve():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    x = solve(a, [5, 6])
    assert a.apply(x) == [Fraction(5), Fraction(6)]
    inconsistent = Matrix.from_rows(QQ, [[1, 1], [2, 2]])
    assert solve(inconsistent, [1, 3]) is None


def _canonical(field, values):
    """Each value has its field's one canonical type (no float, no integral Fraction)."""
    return all(type(v) is type(field.of(v)) and v == field.of(v) for v in values)


def _canonical_rows(m: Matrix) -> bool:
    return _canonical(m.field, [v for row in m.sparse_rows for v in row.values()])


def test_rationals_are_ints_when_integral():
    f = Fraction
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.zero) is type(QQ.one) is int
    assert [type(QQ.of(v)) for v in (3, f(6, 2), "4/2", f(1, 3), "-5/10")] == \
        [int, int, int, f, f]
    assert [type(QQ.from_str(s)) for s in ("-7", "8/4", "2/3")] == [int, int, f]
    assert str(QQ.of(f(6, 2))) == str(f(6, 2)) == "3"
    third = Matrix.from_rows(QQ, [[f(1, 3), f(2, 3), 1], [f(-1, 3), 0, f(1, 2)]])
    # denominators that cancel: a scale, a sum and a product
    assert third.scale(3).sparse_rows == [{0: 1, 1: 2, 2: 3}, {0: -1, 2: f(3, 2)}]
    flip = Matrix.from_rows(QQ, [[f(2, 3), f(1, 3), 0], [f(1, 3), 0, f(1, 2)]])
    assert (third + flip).sparse_rows == [{0: 1, 1: 1, 2: 1}, {2: 1}]
    col = Matrix.from_rows(QQ, [[3], [f(3, 2)], [0]])
    assert (third * col).sparse_rows == [{0: 2}, {0: -1}]
    for m in (third.scale(3), third.scale(f(3, 2)), third + flip, third * col, -third,
              third.transpose(), Matrix.kron(col, third)):
        assert _canonical_rows(m)
    # reductions: a reduced row whose lead divides its entries comes back as ints
    red, piv = Matrix.from_rows(QQ, [[2, 4, 6], [f(1, 3), 1, f(5, 3)]]).rref()
    assert piv == (0, 1) and red.sparse_rows == [{0: 1, 2: -1}, {1: 1, 2: 2}]
    red, _ = Matrix.from_rows(QQ, [[3, 1, 0]]).rref()
    assert red.sparse_rows == [{0: 1, 1: f(1, 3)}] and _canonical_rows(red)
    assert _canonical_rows(third.kernel().basis_matrix()) and _canonical_rows(third.rref()[0])
    # solutions, of A x = b and of matrix equations
    x = solve(Matrix.from_rows(QQ, [[f(1, 3), 0], [0, 3]]), [1, 1])
    assert x == [3, f(1, 3)] and _canonical(QQ, x)
    eqs = MatrixEquations(QQ, [("x", 1, 2)])
    eqs.add(1, 1, [(1, None, "x", Matrix.from_rows(QQ, [[f(1, 3)], [f(2, 3)]]))],
            Matrix.from_rows(QQ, [[2]]))
    sol = eqs.solve()["x"]
    assert sol.sparse_rows == [{0: 6}] and _canonical_rows(sol)
    eqs = MatrixEquations(QQ, [("x", 1, 2)])
    eqs.add(1, 1, [(1, None, "x", Matrix.from_rows(QQ, [[f(2, 3)], [f(1, 3)]]))])
    (ker,) = [sol["x"] for sol in eqs.kernel()]
    assert ker.sparse_rows == [{0: 1, 1: -2}] and _canonical_rows(ker)
    # coordinates in a subspace spanned by fractional vectors
    space = Subspace.from_vectors(QQ, 3, [[f(1, 3), f(2, 3), 0], [0, 0, f(1, 2)]])
    assert space.sparse_rows == [{0: 1, 1: 2}, {2: 1}]
    for vec, want in (([3, 6, 2], [3, 2]), ([f(1, 2), 1, -1], [f(1, 2), -1])):
        coords = space.coordinates([QQ.of(v) for v in vec])
        assert coords == want and _canonical(QQ, coords)



@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF(101)"])
def test_matrix_equations_solve_and_kernel(field):
    rng = random.Random(31)

    def draw(nrows, ncols):
        return Matrix.from_rows(field, [[rng.randint(-3, 3) for _ in range(ncols)]
                                        for _ in range(nrows)])

    a, b, x = draw(2, 3), draw(2, 2), draw(3, 2)
    # A X - Y B = A x is solvable, by (X, Y) = (x, 0) at least
    eqs = MatrixEquations(field, [("x", 3, 2), ("y", 2, 2)])
    eqs.add(2, 2, [(1, a, "x", None), (-1, None, "y", b)], a * x)
    sol = eqs.solve()
    assert a * sol["x"] - sol["y"] * b == a * x
    # the unknowns are laid out slot by slot, row-major, so the kernel is the
    # canonical kernel basis of the flattened coefficient matrix
    eqs = MatrixEquations(field, [("x", 3, 2), ("y", 2, 2)])
    eqs.add(2, 2, [(1, a, "x", None), (-1, None, "y", b)])
    flat = [[0] * 10 for _ in range(4)]
    for r in range(2):
        for c in range(2):
            for k in range(3):
                flat[2 * r + c][2 * k + c] += a.rows[r][k]
            for k in range(2):
                flat[2 * r + c][6 + 2 * r + k] -= b.rows[k][c]
    got = [sum(sol["x"].rows + sol["y"].rows, []) for sol in eqs.kernel()]
    assert got == Matrix.from_rows(field, flat).kernel().basis_matrix().rows


def test_matrix_equations_keep_an_inconsistent_equation():
    one = Matrix.identity(QQ, 1)
    eqs = MatrixEquations(QQ, [])
    eqs.add(1, 1, [(1, one, "absent", None)], one)      # 0 = 1, with no unknowns
    assert eqs.solve() is None
    eqs = MatrixEquations(QQ, [("x", 1, 1)])
    eqs.add(1, 1, [(1, one, "x", None), (-1, None, "x", one)], one)     # x - x = 1
    assert eqs.solve() is None
    with pytest.raises(ValueError, match="right side"):
        eqs.kernel()
    eqs = MatrixEquations(QQ, [("x", 1, 1)])
    eqs.add(1, 1, [(1, one, "x", None), (-1, None, "x", one)])          # x - x = 0
    assert [sol["x"] for sol in eqs.kernel()] == [one]
    assert eqs.solve() == {"x": Matrix.zeros(QQ, 1, 1)}


def test_matrix_equations_reject_misfitting_terms():
    eqs = MatrixEquations(QQ, [("x", 2, 3)])
    with pytest.raises(ValueError, match="does not fit"):
        eqs.add(2, 3, [(1, Matrix.identity(QQ, 3), "x", None)])
    with pytest.raises(ValueError, match="does not fit"):
        eqs.add(2, 3, [(1, None, "x", Matrix.identity(QQ, 2))])
    with pytest.raises(ValueError, match="does not fit"):
        eqs.add(2, 3, [], Matrix.identity(QQ, 2))


def test_primality_is_exact_or_refused():
    assert [n for n in range(10_000) if _is_prime(n)] == \
        [n for n in range(2, 10_000) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert _is_prime(2 ** 64 - 59) and not _is_prime(2 ** 64 - 1)
    # the least composite that passes Miller-Rabin to every prime base 2..37
    strong_pseudoprime = 318665857834031151167461
    assert strong_pseudoprime == 399165290221 * 798330580441
    for n in (strong_pseudoprime, 2 ** 64):
        with pytest.raises(ValueError, match="below 2\\^64"):
            GF(n)
