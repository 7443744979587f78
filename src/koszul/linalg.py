"""Exact scalar arithmetic, matrices and canonical subspaces.

Everything is computed over an exact field: arbitrary-precision rationals
(`QQ`) or a prime field (`GF(p)`).  A `Subspace` is its canonical reduced
row echelon basis, so subspace equality is plain data equality.

There is one matrix representation: a `Matrix` and a `Subspace` both store
their rows as ``{column: value}`` dicts of the non-zero entries
(`sparse_rows`), every operation touches only the non-zeros, and the rows
go to the kernels in `koszul._kernels` as they are.  Over `QQ` an integral
value is a Python `int` and only a non-integral one is a `Fraction`, so
rows of integers reach the integer kernel with no conversion.  Vectors stay
sparse too: `Subspace.coordinates_of` and `Subspace.project` read basis
coordinates and quotient classes off the canonical RREF.  The dense views
(`Matrix.rows`, `apply`, `Subspace.dense_rows`, `reduce`, `coordinates`,
`contains`, `from_vectors`) serve output, random data and tests only.

`MatrixEquations` is the one place where linear systems whose unknowns are
the entries of matrices (Hom spaces, null-homotopies, maps of double
complexes) are built and solved; it and `solve` share one sparse solve.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from . import _kernels as _impl


def kernel_backend() -> str:
    """Name of the row-reduction backend (always "python")."""
    return _impl.BACKEND


class RationalField:
    """The field of rationals.

    An integral element is an `int` and any other one a `fractions.Fraction`,
    so every rational has one canonical Python value (`of`)."""

    name = "QQ"
    characteristic = 0

    zero = 0
    one = 1

    def of(self, v) -> int | Fraction:
        if type(v) is int:
            return v
        v = Fraction(v)
        return v.numerator if v.denominator == 1 else v

    def to_str(self, v) -> str:
        return str(v)

    def from_str(self, s: str) -> int | Fraction:
        return self.of(s)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """F_p for a prime p; elements are ints in [0, p)."""

    characteristic: int

    def __init__(self, p: int):
        if p < 2 or not _is_prime(p):
            raise ValueError(f"not a prime: {p}")
        self.p = p
        self.name = f"GF({p})"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of(self, v) -> int:
        if isinstance(v, Fraction):
            num = v.numerator % self.p
            den = v.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return num * pow(den, self.p - 2, self.p) % self.p
        return int(v) % self.p

    def to_str(self, v) -> str:
        return str(v)

    def from_str(self, s: str) -> int:
        return self.of(Fraction(s))

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the 12 prime bases 2..37, which decides primality
    exactly below 2^64; a larger n raises rather than risk a pseudoprime."""
    if n >= 1 << 64:
        raise ValueError("a modulus must be below 2^64")
    if n < 4:
        return n >= 2
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


Field = RationalField | PrimeField


class Matrix:
    """Matrix over an exact field, stored sparse; treated as immutable.

    `sparse_rows` holds one ``{column: value}`` dict per row with that row's
    non-zero entries only, so equal matrices have equal rows.  Row dicts may
    be shared between matrices and are never written in place.  `rows` is a
    dense copy built on each read, for output.  The rank is eliminated on the
    first `rank()` call and kept in `_rank`.

    Columns index the source basis, rows the target basis: a morphism
    matrix A sends the column vector v to A*v.
    """

    __slots__ = ("field", "nrows", "ncols", "sparse_rows", "_rank")

    def __init__(self, field: Field, nrows: int, ncols: int, sparse_rows: list[dict]):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.sparse_rows = sparse_rows
        self._rank = None

    @property
    def rows(self) -> list[list]:
        """The rows as dense lists, built on each read."""
        z = self.field.zero
        return [[r.get(c, z) for c in range(self.ncols)] for r in self.sparse_rows]

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence]) -> "Matrix":
        ncols = len(rows[0]) if rows else 0
        out = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            # zeros are dropped after `field.of`, which maps p to 0 in GF(p)
            out.append({c: w for c, v in enumerate(r) if (w := field.of(v))})
        return cls(field, len(out), ncols, out)

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols, [{} for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls(field, n, n, [{i: field.one} for i in range(n)])

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        rows = []
        for ra, rb in zip(self.sparse_rows, other.sparse_rows):
            if not (ra and rb):
                rows.append(ra or rb)
                continue
            acc = dict(ra)
            for c, v in rb.items():
                acc[c] = acc.get(c, 0) + v
            rows.append(_nonzero_sums(acc, self.field.characteristic))
        return Matrix(self.field, self.nrows, self.ncols, rows)

    def __neg__(self) -> "Matrix":
        p = self.field.characteristic
        rows = [{c: -v % p if p else -v for c, v in r.items()} for r in self.sparse_rows]
        return Matrix(self.field, self.nrows, self.ncols, rows)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def scale(self, c) -> "Matrix":
        """c times the matrix; the matrix itself when c is 1."""
        c = self.field.of(c)
        if c == self.field.one:
            return self
        if not c:
            return Matrix.zeros(self.field, self.nrows, self.ncols)
        p = self.field.characteristic
        if p:
            rows = [{k: c * v % p for k, v in r.items()} for r in self.sparse_rows]
        else:   # canonical: a product that cancels to an integer becomes an int
            rows = [{k: w if type(w := c * v) is int or w.denominator != 1 else w.numerator
                     for k, v in r.items()} for r in self.sparse_rows]
        return Matrix(self.field, self.nrows, self.ncols, rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        brows = other.sparse_rows
        out = []
        for ra in self.sparse_rows:
            acc: dict = {}
            for k, a in ra.items():
                for c, b in brows[k].items():
                    acc[c] = acc.get(c, 0) + a * b
            out.append(_nonzero_sums(acc, self.field.characteristic))
        return Matrix(self.field, self.nrows, other.ncols, out)

    def transpose(self) -> "Matrix":
        cols = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.sparse_rows):
            for c, v in r.items():
                cols[c][i] = v
        return Matrix(self.field, self.ncols, self.nrows, cols)

    def apply(self, vec: Sequence) -> list:
        """Matrix times column vector (vec given as a flat sequence)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        of = self.field.of
        out = []
        for r in self.sparse_rows:
            s = 0
            for c, a in r.items():
                b = vec[c]
                if b:
                    s += a * b
            out.append(of(s))
        return out

    @classmethod
    def block(cls, field, heights: Sequence[int], widths: Sequence[int], blocks) -> "Matrix":
        """Block matrix with block rows of the given heights and block columns of
        the given widths; `blocks` maps (r, c) to a Matrix and omitted blocks are zero."""
        offsets = [0]
        for w in widths:
            offsets.append(offsets[-1] + w)
        by_row: dict[int, list] = {}
        for (r, c), m in blocks.items():
            if not (0 <= r < len(heights) and 0 <= c < len(widths)) \
                    or (m.nrows, m.ncols) != (heights[r], widths[c]):
                raise ValueError(f"block ({r},{c}) has the wrong shape")
            by_row.setdefault(r, []).append((offsets[c], m.sparse_rows))
        out = []
        for r, h in enumerate(heights):
            placed = by_row.get(r, ())
            if len(placed) == 1 and not placed[0][0]:
                out.extend(placed[0][1])        # one block in the first column: rows as they are
                continue
            for i in range(h):
                row = {}
                for off, rows in placed:
                    for c, v in rows[i].items():
                        row[c + off] = v
                out.append(row)
        return cls(field, len(out), offsets[-1], out)

    @classmethod
    def kron(cls, a: "Matrix", b: "Matrix") -> "Matrix":
        """Kronecker product, `a`-index major; `b` itself when `a` is the 1x1 identity.
        Each row is written from a row of `a` and one of `b`, in canonical form."""
        if a.nrows == a.ncols == 1 and a.sparse_rows[0].get(0) == a.field.one:
            return b
        p, bn = a.field.characteristic, b.ncols
        rows = [{j * bn + c: v * w for j, v in ra.items() for c, w in rb.items()}
                for ra in a.sparse_rows for rb in b.sparse_rows]
        if p or any(type(v) is not int for m in (a, b) for r in m.sparse_rows for v in r.values()):
            rows = [_nonzero_sums(r, p) for r in rows]
        return cls(a.field, a.nrows * b.nrows, a.ncols * bn, rows)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Canonical reduced row echelon form (zero rows dropped)."""
        rows, pivots = _rref_sparse(self.field, self.sparse_rows)
        return Matrix(self.field, len(rows), self.ncols, rows), pivots

    def rank(self) -> int:
        """The rank, eliminated once per matrix and then remembered."""
        if self._rank is None:
            self._rank = len(_rref_sparse(self.field, self.sparse_rows)[1])
        return self._rank

    def kernel(self) -> "Subspace":
        """The subspace {v : A v = 0}, in canonical form."""
        return _null_space(self.field, self.ncols, *_rref_sparse(self.field, self.sparse_rows))

    def column_space(self) -> "Subspace":
        return Subspace.from_matrix(self.transpose())


def _nonzero_sums(acc: dict, p: int) -> dict:
    """The non-zero entries of a row of sums, reduced mod p when p is non-zero
    and over `QQ` in canonical form (an integral `Fraction` becomes an `int`)."""
    if p:
        return {c: s % p for c, s in acc.items() if s % p}
    return {c: s if type(s) is int or s.denominator != 1 else s.numerator
            for c, s in acc.items() if s}


def _rref_sparse(field, rows: list[dict]) -> tuple[list[dict], tuple[int, ...]]:
    """Canonical RREF of sparse rows of field elements, zero rows dropped.

    Over `QQ` a row of `int`s goes to the integer kernel as it is, any other
    row is scaled to integers by the lcm of its denominators, and a reduced
    row is divided by its leading entry unless that is 1, each entry in
    canonical form (`RationalField.of`).
    """
    if not rows:
        return [], ()      # the commonest request on small inputs: the span of nothing
    if field.characteristic:
        return _impl.rref_fp(rows, field.p)
    int_rows = []
    for r in rows:
        dens = [v.denominator for v in r.values() if type(v) is not int]
        if dens:
            den = lcm(*dens)
            r = {c: v.numerator * (den // v.denominator) for c, v in r.items()}
        int_rows.append(r)
    red, pivots = _impl.rref_int(int_rows)
    out = []
    for r, c in zip(red, pivots):
        lead = r[c]
        if lead != 1:
            r = {k: Fraction(v, lead) if v % lead else v // lead for k, v in r.items()}
        out.append(r)
    return out, pivots


def _null_space(field, ncols: int, rows: list[dict], pivots) -> "Subspace":
    """Null space of a sparse RREF, spanned by one vector per free column and
    re-reduced, so two computations of the same kernel agree bit-exactly."""
    p = field.characteristic
    entries: dict[int, dict] = {}
    for row, pc in zip(rows, pivots):
        for c, v in row.items():
            if c != pc:
                entries.setdefault(c, {})[pc] = (-v) % p if p else -v
    pivset = set(pivots)
    out = []
    for c in range(ncols):
        if c not in pivset:
            vec = entries.get(c, {})
            vec[c] = field.one
            out.append(vec)
    return Subspace.from_sparse(field, ncols, out)


def matrix_kernels(a: Matrix) -> tuple[int, Matrix, Matrix]:
    """(rank, kernel basis rows, image basis rows) of a matrix."""
    ker = a.kernel()
    return a.ncols - ker.dim, ker.basis_matrix(), a.column_space().basis_matrix()


def _solve_sparse(field, rows: list[dict], ncols: int) -> dict | None:
    """One solution, as {column: value}, of sparse augmented rows whose column
    `ncols` holds the right side; free unknowns are 0, and None means the
    system is inconsistent."""
    red, pivots = _rref_sparse(field, rows)
    if ncols in pivots:
        return None
    return {c: row[ncols] for row, c in zip(red, pivots) if ncols in row}


def solve(a: Matrix, b: Sequence) -> list | None:
    """One solution of A x = b (free variables set to zero), or None."""
    if len(b) != a.nrows:
        raise ValueError("rhs length mismatch")
    field = a.field
    rows = []
    for row, v in zip(a.sparse_rows, b):
        v = field.of(v)
        rows.append({**row, a.ncols: v} if v else row)
    sol = _solve_sparse(field, rows, a.ncols)
    if sol is None:
        return None
    return [sol.get(c, field.zero) for c in range(a.ncols)]


class MatrixEquations:
    """Linear equations whose unknowns are the entries of matrices X_s.

    The unknowns are laid out slot by slot, in the order the slots are
    given, each matrix in row-major order.  Each equation is a sparse
    ``{column: value}`` row, with its right side in the column after the
    last unknown.
    """

    def __init__(self, field, slots: Iterable[tuple]):
        """`slots` holds (key, nrows, ncols) for each unknown matrix."""
        self.field = field
        self.slots: dict = {}       # key -> (offset, nrows, ncols)
        size = 0
        for key, nrows, ncols in slots:
            self.slots[key] = (size, nrows, ncols)
            size += nrows * ncols
        self.size = size
        self.equations: list[dict] = []
        self.homogeneous = True

    def add(self, nrows: int, ncols: int, terms, rhs: Matrix | None = None):
        """Add the nrows x ncols equations: sum of `terms` = `rhs` (zero if None).

        Each term is (sign, A, key, B) with sign 1 or -1 and exactly one of A
        and B a Matrix, the other None: it stands for sign·A·X_key or
        sign·X_key·B.  A term on a key that is not a slot is zero, as that
        matrix has no entries.  An equation whose two sides are both zero is
        dropped; one with a zero left side and a non-zero right side is kept,
        and makes the system inconsistent.
        """
        eqs: dict = {}
        for sign, a, key, b in terms:
            if key not in self.slots:
                continue
            off, snr, snc = self.slots[key]
            if a is not None:
                fits = (a.nrows, a.ncols, snc) == (nrows, snr, ncols)
                # (A X)[r, c] = sum_k A[r, k] X[k, c]
                hits = [((r, c), off + k * snc + c, v) for r, row in enumerate(a.sparse_rows)
                        for k, v in row.items() for c in range(ncols)]
            else:
                fits = (snr, b.nrows, b.ncols) == (nrows, snc, ncols)
                # (X B)[r, c] = sum_k X[r, k] B[k, c]
                hits = [((r, c), off + r * snc + k, v) for k, row in enumerate(b.sparse_rows)
                        for c, v in row.items() for r in range(nrows)]
            if not fits:
                raise ValueError(f"a term on {key} does not fit the equation shape")
            for rc, idx, v in hits:
                eq = eqs.setdefault(rc, {})
                eq[idx] = eq.get(idx, 0) + (v if sign > 0 else -v)
        if rhs is not None:
            if (rhs.nrows, rhs.ncols) != (nrows, ncols):
                raise ValueError("right side does not fit the equation shape")
            self.homogeneous = False
            for r, row in enumerate(rhs.sparse_rows):
                for c, v in row.items():
                    eqs.setdefault((r, c), {})[self.size] = v
        self.equations.extend(eqs.values())

    def kernel(self) -> list[dict]:
        """The canonical basis of the solutions, each as {key: Matrix}."""
        if not self.homogeneous:
            raise ValueError("kernel of a system with a right side")
        space = _null_space(self.field, self.size,
                            *_rref_sparse(self.field, self.equations))
        return [self._unpack(vec) for vec in space.sparse_rows]

    def solve(self) -> dict | None:
        """One solution as {key: Matrix}, free unknowns 0; None if inconsistent."""
        sol = _solve_sparse(self.field, self.equations, self.size)
        return None if sol is None else self._unpack(sol)

    def _unpack(self, vec: dict) -> dict:
        return {key: Matrix(self.field, nrows, ncols,
                            [{c: vec[off + r * ncols + c] for c in range(ncols)
                              if off + r * ncols + c in vec} for r in range(nrows)])
                for key, (off, nrows, ncols) in self.slots.items()}


class Subspace:
    """Subspace of a coordinatized k^n, stored as its canonical RREF basis.

    The basis is kept only in sparse form: `sparse_rows` holds its rows as
    {column: value} dicts of their non-zero entries, and `pivots` their
    leading columns, in increasing order.
    """

    __slots__ = ("field", "ambient", "pivots", "sparse_rows")

    def __init__(self, field, ambient: int, pivots: tuple[int, ...], sparse_rows: list[dict]):
        self.field = field
        self.ambient = ambient
        self.pivots = pivots
        self.sparse_rows = sparse_rows

    @classmethod
    def from_sparse(cls, field, ambient: int, rows: list[dict]) -> "Subspace":
        """Span of vectors given as {column: value} dicts of field elements."""
        red, pivots = _rref_sparse(field, rows)
        return cls(field, ambient, pivots, red)

    @classmethod
    def from_matrix(cls, mat: Matrix) -> "Subspace":
        return cls.from_sparse(mat.field, mat.ncols, mat.sparse_rows)

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = []
        for vec in vectors:
            if len(vec) != ambient:
                raise ValueError(f"vector of length {len(vec)} in a space of dimension {ambient}")
            rows.append({c: field.of(v) for c, v in enumerate(vec) if v})
        return cls.from_sparse(field, ambient, rows)

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, (), [])

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, tuple(range(ambient)),
                   [{i: field.one} for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        raise TypeError("subspaces are not hashable")

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def basis_matrix(self) -> Matrix:
        """The basis as the rows of a dim x ambient matrix, sharing the row dicts."""
        return Matrix(self.field, self.dim, self.ambient, self.sparse_rows)

    def dense_rows(self) -> list[list]:
        """The basis rows as dense lists, built on each call."""
        return self.basis_matrix().rows

    def coordinates_of(self, mat: Matrix) -> Matrix:
        """The basis coordinates of each column of `mat`, as the columns of a
        dim x mat.ncols matrix; raises if a column is not a member.

        A basis row is 1 at its own pivot and 0 at every other pivot, so a
        member's coordinates are its entries at the pivots: `mat`'s rows there.
        """
        if (mat.field, mat.nrows) != (self.field, self.ambient):
            raise ValueError(f"a {mat.nrows}-row matrix over {mat.field} in {self!r}")
        rows = mat.sparse_rows
        coords = Matrix(self.field, self.dim, mat.ncols, [rows[c] for c in self.pivots])
        if self.basis_matrix().transpose() * coords != mat:
            raise ValueError("column not in subspace")
        return coords

    def project(self, cols: Sequence[int]) -> Matrix:
        """The classes of the unit vectors e_c, c in `cols`, modulo the subspace,
        as the columns of a matrix over the free (non-pivot) coordinates.

        A free column maps to its own unit vector and the pivot column of row r
        to -(row r), which is zero at every other pivot; the free index of a
        column j is j less the number of pivots before it.
        """
        pivots, rows, p = self.pivots, self.sparse_rows, self.field.characteristic
        out = [{} for _ in range(self.ambient - self.dim)]
        for k, c in enumerate(cols):
            if not 0 <= c < self.ambient:
                raise ValueError(f"column {c} outside k^{self.ambient}")
            r = bisect_left(pivots, c)
            if r < len(pivots) and pivots[r] == c:
                for j, v in rows[r].items():
                    if j != c:
                        out[j - bisect_left(pivots, j)][k] = (-v) % p if p else -v
            else:
                out[c - r][k] = self.field.one
        return Matrix(self.field, len(out), len(cols), out)

    def reduce(self, vec: Sequence) -> list:
        """Remainder of vec after reduction modulo the subspace."""
        return [self.field.of(v) for v in self._eliminate(list(vec), None)]

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def coordinates(self, vec: Sequence) -> list:
        """Coefficients of vec in the stored basis; raises if not a member."""
        coords: list = []
        v = self._eliminate(list(vec), coords)
        if any(map(self.field.of, v)):      # an entry never eliminated may be p in GF(p)
            raise ValueError("vector not in subspace")
        return [self.field.of(a) for a in coords]

    def _eliminate(self, v: list, coords: list | None) -> list:
        """Subtract from v, in place, its pivot entries times the basis rows.

        The basis rows vanish at each other's pivots, so each coefficient is
        read off v as it stands; they are appended to `coords` if given.
        """
        modp = self.field.characteristic
        for row, c in zip(self.sparse_rows, self.pivots):
            f = v[c]
            if coords is not None:
                coords.append(f)
            if f:
                if modp:
                    for k, b in row.items():
                        v[k] = (v[k] - f * b) % modp
                else:
                    for k, b in row.items():
                        v[k] -= f * b
        return v

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_sparse(self.field, self.ambient,
                                    self.sparse_rows + other.sparse_rows)

    def perp(self) -> "Subspace":
        """Annihilator subspace in the dual coordinates."""
        return _null_space(self.field, self.ambient, self.sparse_rows, self.pivots)

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("ambient mismatch")
