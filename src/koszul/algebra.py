"""Quadratic presentations kQ/R: graded pieces, R^(n) spaces, quadratic duals,
and the special multiserial / condition checks.

Every piece is coordinatized over the lexicographic path bases of the quiver
and stored canonically, so equality of presentations and of pieces is plain
data equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Field, Matrix, QQ, Subspace
from .quiver import PathEnumerator, Quiver


@dataclass
class AlgebraPiece:
    """e_y Lambda_n e_x by its normal words: the candidates p.al (p a normal
    word of degree n-1, al an arrow into y; `candidates` maps each one to its
    coordinate) that are not pivots of their `relations`."""

    words: tuple[tuple[int, ...], ...]
    candidates: dict
    relations: Subspace

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def dim(self) -> int:
        return len(self.words)


class Presentation:
    """A quadratic presentation Lambda = kQ/R over an exact field.

    Immutable after construction, so its derived data is memoized on it and
    dropped with it: algebra pieces (`_alg_piece`), arrow-multiplication
    matrices and their injective mates (`_arrow_mat`), the standard projective
    and injective modules (`_modules`, filled by `koszul.modules`), and the
    related presentations.  Every memoized value is shared and never written
    into.  Only the pairing table's oracle enumerates paths above degree 2:
    the relation pieces R_n of kQ_n (`_rel_piece`) and R^(n) (`_r_upper`).
    """

    def __init__(self, quiver: Quiver, field: Field = QQ, relations=None,
                 degree_cap: int = 8):
        self.quiver = quiver
        self.field = field
        self.degree_cap = degree_cap
        self.paths = PathEnumerator(quiver, degree_cap)
        self.relations: dict[tuple, Subspace] = {}
        for (x, z), space in (relations or {}).items():
            ambient = len(self.paths.basis(2, x, z))
            if space.ambient != ambient:
                raise ValueError(f"relation space at ({x},{z}) has wrong ambient")
            if space.dim:
                self.relations[(x, z)] = space
        self._rel_piece: dict[tuple, Subspace] = {}
        self._r_upper: dict[tuple, Subspace] = {}
        self._alg_piece: dict[tuple, AlgebraPiece] = {}
        self._empty_piece = AlgebraPiece((), {}, Subspace.zero(field, 0))
        self._arrow_mat: dict[tuple, Matrix] = {}
        self._modules: dict[tuple, object] = {}
        self._support: dict[tuple, frozenset] | None = None
        self._dual: Presentation | None = None
        self._opp: Presentation | None = None
        self._rev: Presentation | None = None

    # -- basic coordinate plumbing ------------------------------------------

    def path_basis(self, n, x, y):
        return self.paths.basis(n, x, y)

    def zero_space(self, n, x, y) -> Subspace:
        return Subspace.zero(self.field, len(self.path_basis(n, x, y)))

    def relation_space(self, x, z) -> Subspace:
        return self.relations.get((x, z)) or self.zero_space(2, x, z)

    # -- graded pieces of R and of Lambda -----------------------------------

    def relation_piece(self, n: int, x, y) -> Subspace:
        """R_n(x, y), via R_n = R_{n-1} . kQ_1 + kQ_{n-2} . R_2: the sum of
        R_{n-1}(x, w) . al over the arrows al: w -> y, and of q . R_2(b, y)
        over the paths q in kQ_{n-2}(x, b)."""
        if n > self.degree_cap:
            raise ValueError(f"degree {n} exceeds cap {self.degree_cap}")
        key = (n, x, y)
        if key in self._rel_piece:
            return self._rel_piece[key]
        if n < 2:
            space = self.zero_space(n, x, y)
        elif n == 2:
            space = self.relation_space(x, y)
        else:
            index = self.path_basis(n, x, y).index
            rows = []
            for aidx in self.quiver.in_arrows(y):
                w = self.quiver.arrows[aidx].source
                words = self.path_basis(n - 1, x, w).words
                rows.extend({index[words[c] + (aidx,)]: v for c, v in row.items()}
                            for row in self.relation_piece(n - 1, x, w).sparse_rows)
            for (b, z), gen in self.relations.items():
                if z == y:
                    words = self.path_basis(2, b, y).words
                    rows.extend({index[q + words[c]]: v for c, v in row.items()}
                                for q in self.path_basis(n - 2, x, b).words
                                for row in gen.sparse_rows)
            space = Subspace.from_sparse(self.field, len(index), rows)
        self._rel_piece[key] = space
        return space

    def algebra_piece(self, n: int, x, y) -> AlgebraPiece:
        """e_y Lambda_n e_x as the quotient of its candidates by Lambda_{n-2} . R_2.

        A row's pivot is its lex-least word and lex order is a monomial
        order, so these normal words are the non-pivot paths of R_n(x, y) in
        kQ_n (Bergman's diamond lemma): a word p.al with p not normal is a
        pivot of R_{n-1} . kQ_1, and the rest of R_n = R_{n-1} . kQ_1 +
        kQ_{n-2} . R_2 reduces to the relation rows among the candidates.
        Every piece without candidates is one shared empty piece."""
        if n > self.degree_cap:
            raise ValueError(f"degree {n} exceeds cap {self.degree_cap}")
        key = (n, x, y)
        if key not in self._alg_piece:
            words = [()] if n == 0 and x == y else sorted(
                p + (aidx,) for aidx in self.quiver.in_arrows(y) if n for p in
                self.algebra_piece(n - 1, x, self.quiver.arrows[aidx].source).words)
            if not words:
                self._alg_piece[key] = self._empty_piece
            else:
                candidates = {word: c for c, word in enumerate(words)}
                relations = Subspace.from_sparse(self.field, len(words),
                                                 self._relation_rows(n, x, y, candidates))
                pivots = set(relations.pivots)
                self._alg_piece[key] = AlgebraPiece(
                    tuple(word for c, word in enumerate(words) if c not in pivots),
                    candidates, relations)
        return self._alg_piece[key]

    def _relation_rows(self, n: int, x, y, candidates) -> list[dict]:
        """q . r for the normal words q of Lambda_{n-2}(x, b) and the rows r of
        R_2(b, y), in the candidates' coordinates: the prefix q.be of a term
        q.be.ga goes to its normal form by left multiplication by be."""
        rows, columns = [], {}
        for (b, z), gen in self.relations.items() if n > 1 and candidates else ():
            if z != y or not self.dim_piece(n - 2, x, b):
                continue
            words = self.path_basis(2, b, y).words
            for row in gen.sparse_rows:
                acc = [{} for _ in range(self.dim_piece(n - 2, x, b))]
                for col, coeff in row.items():
                    bidx, gidx = words[col]
                    if bidx not in columns:     # left multiplication by be, column by column
                        columns[bidx] = self.left_arrow_matrix(
                            self.quiver.arrows[bidx].name, n - 2, x).transpose().sparse_rows
                    mid = self.algebra_piece(n - 1, x, self.quiver.arrows[bidx].target)
                    for image, out in zip(columns[bidx], acc):
                        for j, v in image.items():
                            c = candidates[mid.words[j] + (gidx,)]
                            out[c] = out.get(c, 0) + coeff * v
                rows.extend(acc)
        return rows

    def dim_piece(self, n, x, y) -> int:
        return self.algebra_piece(n, x, y).dim

    def lambda_vanishing_degree(self, limit: int | None = None) -> int | None:
        """Least d with Lambda_d = 0, if any (then Lambda_e = 0 for all e >= d).

        Scans degrees up to min(limit, cap); pieces are generated in degree 1,
        so the first vanishing degree is conclusive.
        """
        top = self.degree_cap if limit is None else min(limit, self.degree_cap)
        for d in range(top + 1):
            if all(self.dim_piece(d, x, y) == 0
                   for x in self.quiver.vertices for y in self.quiver.vertices):
                return d
        return None

    # -- multiplication ------------------------------------------------------

    def left_arrow_matrix(self, arrow_name: str, n: int, x) -> Matrix:
        """Left multiplication by an arrow a: w->z on e_w Lambda_n e_x (cached,
        shared): each p.a is a candidate of e_z Lambda_{n+1} e_x, taken to its class."""
        key = ("left", arrow_name, n, x)
        if key not in self._arrow_mat:
            arrow = self.quiver.arrow(arrow_name)
            aidx = self.quiver.arrow_index(arrow_name)
            src = self.algebra_piece(n, x, arrow.source)
            tgt = self.algebra_piece(n + 1, x, arrow.target)
            self._arrow_mat[key] = tgt.relations.project(
                [tgt.candidates[p + (aidx,)] for p in src.words])
        return self._arrow_mat[key]

    def right_arrow_matrix(self, arrow_name: str, n: int, w) -> Matrix:
        """Right multiplication by an arrow a: y->x, e_w Lambda_n e_x -> e_w Lambda_{n+1} e_y
        (cached, shared).  a.p is its own class when it is a normal word; else
        p = p'.be, and a.p is the class of a.p' (one degree lower) times be."""
        key = ("right", arrow_name, n, w)
        if key not in self._arrow_mat:
            arrow = self.quiver.arrow(arrow_name)
            aidx = self.quiver.arrow_index(arrow_name)
            src = self.algebra_piece(n, arrow.target, w)
            tgt = self.algebra_piece(n + 1, arrow.source, w)
            cols = [{} for _ in range(src.dim)]
            by_last = {}
            for i, p in enumerate(src.words if tgt.dim else ()):
                j = tgt.index.get((aidx,) + p)
                if j is None:
                    by_last.setdefault(p[-1], []).append(i)
                else:
                    cols[i] = {j: self.field.one}
            for bidx, members in by_last.items():
                # the columns of the inner matrix, read once per arrow be
                beta = self.quiver.arrows[bidx]
                inner = self.right_arrow_matrix(arrow_name, n - 1, beta.source).transpose()
                prefix = self.algebra_piece(n - 1, arrow.target, beta.source).index
                outer = self.left_arrow_matrix(beta.name, n, arrow.source).transpose()
                picked = Matrix(self.field, len(members), outer.nrows,
                                [inner.sparse_rows[prefix[src.words[i][:-1]]]
                                 for i in members])
                for i, col in zip(members, (picked * outer).sparse_rows):
                    cols[i] = col
            self._arrow_mat[key] = Matrix(self.field, src.dim, tgt.dim, cols).transpose()
        return self._arrow_mat[key]

    def opposite_right_arrow_transpose(self, arrow_name: str, n: int, w) -> Matrix:
        """The transpose of `right_arrow_matrix` over the opposite presentation:
        the injective-side mate of right multiplication (cached, shared)."""
        key = ("right-opposite-transpose", arrow_name, n, w)
        if key not in self._arrow_mat:
            self._arrow_mat[key] = self.opposite().right_arrow_matrix(arrow_name, n, w).transpose()
        return self._arrow_mat[key]

    # -- R^(n) ----------------------------------------------------------------

    def r_upper(self, n: int, a, x) -> Subspace:
        """R^(n)(a, x) = cap_i kQ_i . R_2 . kQ_{n-2-i}, the perp of the relation
        piece sum_i kQ_i . R_2^perp . kQ_{n-2-i} of (Lambda^!)^op = kQ/R_2^perp.

        (Lambda^!)^op lives on this quiver with its arrow order, so its path
        bases are this presentation's; the perp is full for n <= 1 and R_2
        for n = 2."""
        key = (n, a, x)
        if key not in self._r_upper:
            self._r_upper[key] = self.quadratic_dual().opposite().relation_piece(n, a, x).perp()
        return self._r_upper[key]

    # -- opposites and duals ---------------------------------------------------

    def _transport(self, space: Subspace, x, y, quiver, pair, word) -> Subspace:
        """Carry a subspace of kQ_2(x,y) to the kQ'_2 of `quiver` at `pair`
        along each word p -> word(p)."""
        src = self.path_basis(2, x, y)
        tgt = PathEnumerator(quiver, 2).basis(2, *pair)
        rows = [{tgt.index[word(src.words[c])]: v for c, v in row.items()}
                for row in space.sparse_rows]
        return Subspace.from_sparse(self.field, len(tgt), rows)

    def opposite(self) -> "Presentation":
        if self._opp is None:
            opp = self.quiver.opposite()
            rels = {}
            for (x, y), space in self.relations.items():
                rels[(y, x)] = self._transport(space, x, y, opp, (y, x), lambda w: w[::-1])
            self._opp = Presentation(opp, self.field, rels, self.degree_cap)
            self._opp._opp = self       # the opposite of the opposite is this presentation
        return self._opp

    def reversed_arrows(self) -> "Presentation":
        """The same algebra with its arrow list reversed: arrow k becomes arrow
        K-1-k, so lex order on the words of one length turns round."""
        if self._rev is None:
            last = len(self.quiver.arrows) - 1
            quiver = Quiver(self.quiver.vertices, self.quiver.arrows[::-1])
            rels = {(x, y): self._transport(space, x, y, quiver, (x, y),
                                            lambda word: tuple(last - k for k in word))
                    for (x, y), space in self.relations.items()}
            self._rev = Presentation(quiver, self.field, rels, self.degree_cap)
            self._rev._rev = self
        return self._rev

    def quadratic_dual(self) -> "Presentation":
        """Lambda^! = kQ^o / R^!, with R^!_2(y,x) the transported perp of R_2(x,y)."""
        if self._dual is None:
            opp = self.quiver.opposite()
            rels = {}
            for x, y in itertools.product(self.quiver.vertices, repeat=2):
                basis = self.path_basis(2, x, y)
                if not len(basis):
                    continue
                perp = self.relation_space(x, y).perp()
                if perp.dim:
                    rels[(y, x)] = self._transport(perp, x, y, opp, (y, x), lambda w: w[::-1])
            self._dual = Presentation(opp, self.field, rels, self.degree_cap)
        return self._dual

    def __eq__(self, other):
        if not isinstance(other, Presentation) or self.quiver != other.quiver \
                or self.field != other.field:
            return False
        pairs = set(self.relations) | set(other.relations)
        return all(self.relation_space(x, y) == other.relation_space(x, y)
                   for (x, y) in pairs)

    def __hash__(self):
        raise TypeError("presentations are not hashable")

    def pairing_dimension_check(self, a, x, n: int):
        """dim R^(n)(a,x) versus dim e_a Lambda^!_n e_x; they must agree.

        Two recursions meet here: R^(n) is the perp of (Lambda^!)^op's relation
        piece in kQ_n(a, x), and Lambda^!_n is counted by Lambda^!'s normal
        words, which enumerate no path of kQ^o_n.  R^(n) as the intersection of the
        kQ_i . R_2 . kQ_{n-2-i} is checked only by the tests' oracle."""
        left = self.r_upper(n, a, x).dim
        right = self.quadratic_dual().dim_piece(n, x, a)
        return left == right, left, right

    # -- multiserial and condition (*) -----------------------------------------

    def _relation_supports(self):
        """Per vertex pair, the set of length-2 paths involved in R_2."""
        if self._support is None:
            supp = {}
            for (x, z), space in self.relations.items():
                basis = self.path_basis(2, x, z)
                cols = set()
                for row in space.sparse_rows:
                    cols.update(row)
                supp[(x, z)] = frozenset(basis.words[j] for j in cols)
            self._support = supp
        return self._support

    def special_multiserial_check(self):
        """Each arrow composes, on each side, with at most one arrow outside R.

        A length-2 path counts as killed by R when it appears in the support
        of the relation space of its vertex pair, i.e. as a summand of some
        relation; a path bound into a polynomial relation does not count as
        a surviving composite even though its class in Lambda_2 is nonzero.
        """
        supports = self._relation_supports()

        def free(first_idx, second_idx):
            a1 = self.quiver.arrows[first_idx]
            a2 = self.quiver.arrows[second_idx]
            return (first_idx, second_idx) not in supports.get((a1.source, a2.target), ())

        violations = []
        for idx, arrow in enumerate(self.quiver.arrows):
            succ = [self.quiver.arrows[b].name
                    for b in self.quiver.out_arrows(arrow.target) if free(idx, b)]
            pred = [self.quiver.arrows[c].name
                    for c in self.quiver.in_arrows(arrow.source) if free(c, idx)]
            if len(succ) > 1:
                violations.append({"arrow": arrow.name, "side": "successors", "arrows": succ})
            if len(pred) > 1:
                violations.append({"arrow": arrow.name, "side": "predecessors", "arrows": pred})
        return not violations, violations

    def circuits(self, x, z):
        """Minimal-support nonzero vectors of R_2(x,z), one per scalar class."""
        space = self.relations.get((x, z))
        if space is None:
            return []
        return subspace_circuits(space)

    def condition_star_check(self, side: str = "self"):
        """The condition on polynomial relations that forces Koszulity.

        side="self" checks the presentation itself, side="dual-of-opposite"
        checks the opposite presentation (equivalent to the dual condition).
        The excluded index in the conclusion is read literally: it is each
        witnessing term index i, and all other term indices j are tested.
        """
        pres = self if side == "self" else self.opposite()
        ok, violations = pres.special_multiserial_check()
        if not ok:
            raise ValueError(f"not special multiserial: {violations}")
        supports = pres._relation_supports()
        quiver = pres.quiver
        for (x, z) in sorted(pres.relations, key=_pair_key(quiver)):
            basis = pres.path_basis(2, x, z)
            for circ in pres.circuits(x, z):
                terms = [(coeff, basis.words[j]) for j, coeff in enumerate(circ) if coeff]
                if len(terms) < 2:
                    continue  # monomial relation: quantifier domain empty
                witness_idx = set()
                for i, (_, p) in enumerate(terms):
                    beta = p[-1]
                    for zeta in quiver.out_arrows(z):
                        pair = (quiver.arrows[beta].source, quiver.arrows[zeta].target)
                        rel = pres.relations.get(pair)
                        if rel is None or not rel.project(
                                [pres.path_basis(2, *pair).index[(beta, zeta)]]).is_zero():
                            witness_idx.add(i)
                            break
                for i in sorted(witness_idx):
                    for gidx in quiver.in_arrows(x):
                        gamma = quiver.arrows[gidx]
                        for j, (_, pj) in enumerate(terms):
                            if j == i:
                                continue
                            alpha_j = pj[0]
                            y_j = quiver.arrows[alpha_j].target
                            comp = (gidx, alpha_j)
                            if comp not in supports.get((gamma.source, y_j), ()):
                                counterexample = {
                                    "pair": (x, z),
                                    "relation": [pres.field.to_str(c) for c in circ],
                                    "witness_index": i,
                                    "gamma": gamma.name,
                                    "term_index": j,
                                }
                                return False, counterexample
        return True, None


def _pair_key(quiver):
    order = {v: i for i, v in enumerate(quiver.vertices)}
    return lambda pair: (order[pair[0]], order[pair[1]])


def subspace_circuits(space: Subspace):
    """All circuits of a subspace w.r.t. the standard coordinates.

    A circuit is a nonzero member of minimal support, normalized to leading
    coefficient one; supports are enumerated in increasing size over the
    involved coordinates.
    """
    involved = sorted({j for row in space.sparse_rows for j in row})
    if len(involved) > 22:
        raise ValueError("relation space too wide for circuit enumeration")
    found: list[tuple[frozenset, list]] = []
    for size in range(1, len(involved) + 1):
        for combo in itertools.combinations(involved, size):
            s = set(combo)
            if any(supp <= s for supp, _ in found):
                continue
            outside = {j: k for k, j in enumerate(j for j in range(space.ambient) if j not in s)}
            restr = Matrix(space.field, space.dim, len(outside),
                           [{outside[j]: v for j, v in row.items() if j in outside}
                            for row in space.sparse_rows])
            combos = restr.transpose().kernel()
            if not combos.dim:
                continue
            vec = [space.field.zero] * space.ambient
            coefs = combos.sparse_rows[0]
            for k, c in coefs.items():
                for j, v in space.sparse_rows[k].items():
                    vec[j] = vec[j] + c * v if space.field.characteristic == 0 \
                        else (vec[j] + c * v) % space.field.p
            supp = frozenset(j for j, v in enumerate(vec) if v)
            lead = next(vec[j] for j in sorted(supp))
            vec = [space.field.of(Fraction(v, lead)) for v in vec]     # exact in either field
            found.append((supp, vec))
    found.sort(key=lambda t: sorted(t[0]))
    return [vec for _, vec in found]
