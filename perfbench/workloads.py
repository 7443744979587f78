"""The four benchmark workloads: inputs from a seed, operations, and their checks.

A workload object is built in a fresh pass process.  `setup()` generates the
inputs (untimed, but inside `setup_s`), `ops()` lists the operations that the
pass times one by one, `check(key, result)` returns the operation's digest
and an oracle error (or None) outside the timed region, and `finish()` runs
checks that are deferred until every operation has run.

Inputs depend on the seed only through `seed % SEED_CLASSES`, so that every
seed has golden answers recorded in `golden.json`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import oracles

SEED_CLASSES = 32
HERE = Path(__file__).resolve().parent
MULTISERIAL = (HERE / "inputs" / "multiserial.kz").read_text()


def run_cli(argv):
    """`koszul <argv>` in this process; returns (exit code, stdout text)."""
    from koszul import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _hilbert_error(text, out, span):
    """A verdict without failures must satisfy the numerical Koszulity identity."""
    if json.loads(out)["certificate"]["verdict"] != "NOT_KOSZUL":
        bad = oracles.hilbert_failures(text, span - 1)
        return f"Hilbert series identity fails in degrees {bad}" if bad else None
    return None


def _witness_errors(text, out, span, window):
    """Re-check every NOT_KOSZUL witness: d_n w = 0 and w not in im d_{n-1}.

    The differentials are rebuilt from a fresh parse; the arithmetic on them
    is the oracle's own.
    """
    from koszul import parse_presentation, QQ
    from koszul.engine import TruncationPolicy, local_koszul_complex

    cert = json.loads(out)["certificate"]
    if not cert["failures"]:
        return None
    pres = parse_presentation(text, QQ, max(8, window[1], span + 2))
    policy = TruncationPolicy(span, tuple(window))
    complexes = {}
    for fail in cert["failures"]:
        a, pos, d = fail["vertex"], fail["position"], fail["degree"]
        if a not in complexes:
            complexes[a] = local_koszul_complex(pres, a, policy, augmented=True)
        cx = complexes[a]
        w = [Fraction(s) for s in fail["witness"]]
        ok = False
        for x in pres.quiver.vertices:
            if cx.module(pos).dim(d, x) != len(w):
                continue
            dn, dp = cx.diff(pos).piece(d, x), cx.diff(pos - 1).piece(d, x)
            if oracles.witness_holds(dn.rows, dp.rows, dp.ncols, w):
                ok = True
                break
        if not ok:
            return f"witness at vertex {a}, position {pos}, degree {d} does not hold"
    return None


def seeded_module(shape, coeff, pres, window):
    """A quotient of shifted projectives by the submodule some elements generate.

    `shape` (a fixed stream) picks the summands and the pieces the generators
    live in; `coeff` (the seeded stream) picks only their non-zero
    coefficients.  So the seed changes the module, but not the kind of work
    it costs, and a pass costs about the same whatever the seed.
    """
    from koszul import GradedModule, Subspace, direct_sum, projective_module
    from koszul.modules import quotient_module

    summands = []
    for k in range(shape.randint(1, 2)):
        a = shape.choice(pres.quiver.vertices)
        summands.append(((a, k), projective_module(pres, a, -shape.randint(0, 2), window)))
    big = direct_sum(pres, window, summands)
    big = GradedModule(pres, big.window, big.dims, big.actions)
    field = pres.field
    pieces = {k: Subspace.zero(field, d) for k, d in big.dims.items()}
    keys = [k for k, d in big.dims.items() if d and k[0] > 0]
    frontier = []
    for _ in range(shape.randint(0, 3) if keys else 0):
        (i, x) = shape.choice(keys)
        frontier.append(((i, x), [field.of(coeff.choice((-2, -1, 1, 2)))
                                  for _ in range(big.dim(i, x))]))
    while frontier:              # close the generated pieces under the arrow actions
        (i, x), vec = frontier.pop()
        sp = pieces[(i, x)]
        if sp.contains(vec):
            continue
        pieces[(i, x)] = sp.add(Subspace.from_vectors(field, big.dim(i, x), [vec]))
        for aidx in pres.quiver.out_arrows(x):
            arrow = pres.quiver.arrows[aidx]
            if big.dim(i + 1, arrow.target):
                img = big.action(arrow.name, i).apply(vec)
                if any(img):
                    frontier.append(((i + 1, arrow.target), img))
    return quotient_module(big, pieces)[0]


class Workload:
    """Shared plumbing; subclasses define setup, ops and check."""

    name = ""

    def __init__(self, seed, smoke, workdir):
        self.cls = seed % SEED_CLASSES
        self.smoke = smoke
        self.workdir = workdir

    def golden_class(self):
        return str(self.cls)

    def finish(self):
        return {}

    def info(self):
        return {}


class Certify(Workload):
    """The ROADMAP's fixed certificate: multiserial, -N 8, window -2..14."""

    name = "certify"
    ARGV = ["-N", "8", "--window", "-2", "14", "--json"]

    path = str(HERE / "inputs" / "multiserial.kz")

    def golden_class(self):
        return "all"       # one fixed input, whatever the seed

    def setup(self):
        import koszul.cli  # noqa: F401

    def ops(self):
        yield "multiserial", lambda: run_cli(["check-koszul", self.path] + self.ARGV)

    def check(self, key, result):
        code, out = result
        if code != 0:
            return oracles.digest(out), f"exit {code}"
        err = _hilbert_error(MULTISERIAL, out, 8) or _witness_errors(MULTISERIAL, out, 8, (-2, 14))
        return oracles.digest(out), err


def path_count(vertices, arrows, n):
    """Number of paths of length n in the quiver with these (source, target) arrows."""
    ways = {v: 1 for v in vertices}
    for _ in range(n):
        nxt = {v: 0 for v in vertices}
        for s, t in arrows:
            nxt[t] += ways[s]
        ways = nxt
    return sum(ways.values())


class CertifyCorpus(Workload):
    """check-koszul -N 5 --window -2 7 on a seeded stream of random presentations.

    A draw is kept only if its quiver has at most PATH_BOUND paths of length
    8 (the CLI's degree cap here).  Path counts grow without limit on quivers
    with several loops and no input budget exists yet (ROADMAP item 5); the
    excluded draws are reported, not hidden.
    """

    name = "certify-corpus"
    PATH_BOUND = 200
    KEPT = 100
    SPAN, WINDOW = 5, (-2, 7)

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.kept_target = 6 if smoke else self.KEPT
        self.texts = []
        self.drawn = 0
        self.excluded = []
        self.outs = {}

    def setup(self):
        from koszul import dsl, randomgen

        rng = random.Random(f"certify-corpus:{self.cls}")
        while len(self.texts) < self.kept_target:
            self.drawn += 1
            q = randomgen.random_quiver(rng)
            count = path_count(q.vertices, [(a.source, a.target) for a in q.arrows], 8)
            if count > self.PATH_BOUND:
                self.excluded.append(count)
                continue
            pres = randomgen.random_presentation(rng, q)
            self.texts.append(dsl.print_presentation(pres))
        self.paths = []
        for i, text in enumerate(self.texts):
            path = os.path.join(self.workdir, f"p{i:03d}.kz")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths.append(path)

    def ops(self):
        argv = ["-N", str(self.SPAN), "--window", str(self.WINDOW[0]), str(self.WINDOW[1]),
                "--json"]
        for i, path in enumerate(self.paths):
            yield f"p{i:03d}", (lambda p=path: run_cli(["check-koszul", p] + argv))

    def check(self, key, result):
        code, out = result
        if code != 0:
            return oracles.digest(out), f"exit {code}"
        self.outs[key] = out
        return oracles.digest(out), _hilbert_error(self.texts[int(key[1:])], out, self.SPAN)

    def finish(self):
        errors = {}
        for key, out in self.outs.items():
            err = _witness_errors(self.texts[int(key[1:])], out, self.SPAN, self.WINDOW)
            if err:
                errors[key] = err
        return errors

    def info(self):
        verdicts = {}
        for out in self.outs.values():
            v = json.loads(out)["certificate"]["verdict"]
            verdicts[v] = verdicts.get(v, 0) + 1
        return {"path_bound": self.PATH_BOUND,
                "excluded_because": "paths of length 8 above path_bound: unbounded path "
                                    "growth, open ROADMAP item 5 (no input budget yet)",
                "drawn": self.drawn, "kept": len(self.texts),
                "excluded": len(self.excluded), "excluded_path_counts": self.excluded,
                "verdicts": verdicts}


def acyclic_quiver_text(rng, max_vertices=4, max_arrows=5):
    """A random acyclic quiver as (vertices, [(name, src, tgt)])."""
    nv = rng.randint(2, max_vertices)
    vertices = [str(i + 1) for i in range(nv)]
    arrows = []
    for k in range(rng.randint(1, max_arrows)):
        i = rng.randint(0, nv - 2)
        j = rng.randint(i + 1, nv - 1)
        arrows.append((chr(ord("a") + k), vertices[i], vertices[j]))
    return vertices, arrows


def kz_text(vertices, arrows, relations):
    lines = ["quiver", "  vertices: " + " ".join(vertices),
             "  arrows: " + "  ".join(f"{n}: {s}->{t}" for n, s, t in arrows)]
    if relations:
        lines.append("relations")
        lines.extend("  " + r for r in relations)
    return "\n".join(lines) + "\n"


def radical_square_zero_relations(arrows):
    return [f"{g}*{b}" for b, _, bt in arrows for g, gs, _ in arrows if gs == bt]


class Resolve(Workload):
    """eta/zeta (projective resolutions, injective coresolutions) with policy (5, (-2, 9))."""

    name = "resolve"
    PER_ALGEBRA = 20

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.per_algebra = 1 if smoke else self.PER_ALGEBRA
        self.modules = []
        self.simples = []

    def setup(self):
        from koszul import QQ, parse_presentation, simple_module
        from koszul.engine import TruncationPolicy

        vertices, arrows = acyclic_quiver_text(random.Random("resolve:quiver"))
        self.texts = {
            "multiserial": MULTISERIAL,
            "path": kz_text(vertices, arrows, []),
            "rz": kz_text(vertices, arrows, radical_square_zero_relations(arrows)),
        }
        caps = {"multiserial": 12, "path": 10, "rz": 10}
        self.policy = TruncationPolicy(5, (-2, 9))
        self.algebras = {name: parse_presentation(t, QQ, caps[name])
                         for name, t in self.texts.items()}
        for name, pres in self.algebras.items():
            shape = random.Random(f"resolve:shape:{name}")
            coeff = random.Random(f"resolve:{self.cls}:{name}")
            for k in range(self.per_algebra):
                m = seeded_module(shape, coeff, pres, (0, 4))
                if m.is_zero():
                    m = simple_module(pres, pres.quiver.vertices[0], 0, (0, 4))
                self.modules.append((f"{name}.m{k}", m))
            vs = pres.quiver.vertices[:1] if self.smoke else pres.quiver.vertices
            for a in vs:
                self.simples.append((f"{name}.S{a}", name, a,
                                     simple_module(pres, a, 0, self.policy.degree_window)))
        self.dual_dims = {name: oracles.piece_dims(t, self.policy.max_span, dual=True)
                          for name, t in self.texts.items()}

    def ops(self):
        from koszul.engine import injective_coresolution, projective_resolution

        for key, m in self.modules:
            yield key + ".eta", (lambda m=m: projective_resolution(m, self.policy))
            yield key + ".zeta", (lambda m=m: injective_coresolution(m, self.policy))
        for key, _, _, s in self.simples:
            yield key + ".eta", (lambda s=s: projective_resolution(s, self.policy))
            yield key + ".zeta", (lambda s=s: injective_coresolution(s, self.policy))

    def check(self, key, res):
        text = (f"{oracles.complex_bytes(res.complex)}\nlabels={sorted(res.betti().items())!r}"
                f"\nsafe={res.safe_positions!r} qi={res.quasi_iso} h0={res.h0_isomorphism}")
        if not (res.quasi_iso and res.h0_isomorphism):
            return oracles.digest(text), "not a quasi-isomorphism with H^0 isomorphism"
        return oracles.digest(text), self._betti_error(key, res)

    def _betti_error(self, key, res):
        """For a simple S_a: position -n of the resolution is sum_x P_x<-n>^(dim e_a L^!_n e_x),
        position n of the coresolution is sum_x I_x<n>^(dim e_x L^!_n e_a)."""
        simple = next((s for s in self.simples if key.startswith(s[0] + ".")), None)
        if simple is None:
            return None
        _, name, a, _ = simple
        dims = self.dual_dims[name]
        eta = key.endswith(".eta")
        for pos, mults in res.betti().items():
            n = -pos if eta else pos
            if not 0 <= n <= self.policy.max_span:
                continue
            want = {}
            for x in self.algebras[name].quiver.vertices:
                d = dims[(n, a, x)] if eta else dims[(n, x, a)]
                if d:
                    want[(x, pos)] = d
            if mults != want:
                return f"Betti table at position {pos}: {mults} != {want}"
        return None


class FunctorExt(Workload):
    """Shift, cone and composition laws of the extended Koszul functors.

    Random two-term complexes over multiserial; every law side goes through
    extend_functor / extend_functor_map, mapping_cone, total_complex and
    canonical_form.  The laws must hold bit-exactly.
    """

    name = "functor-ext"
    TRIALS = 4
    # fixed shape streams whose two-term complexes (6+6 and 4+8 dimensional)
    # have a non-zero differential for every seed, so extend_functor_map works
    SHAPES = (1, 2)
    W, WD = (-2, 10), (-8, 8)

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.trials = 1 if smoke else self.TRIALS
        self.complexes = []

    def setup(self):
        from koszul import QQ, ComplexOfModules, parse_presentation
        from koszul.randomgen import random_morphism

        self.pres = parse_presentation(MULTISERIAL, QQ, 16)
        self.dual = self.pres.quadratic_dual()
        coeff = random.Random(f"functor-ext:{self.cls}")
        for t in range(self.trials):
            shape = random.Random(f"functor-ext:shape:{self.SHAPES[t % len(self.SHAPES)]}")
            m = seeded_module(shape, coeff, self.pres, (0, 4))
            n = seeded_module(shape, coeff, self.pres, (0, 4))
            f = random_morphism(coeff, m, n)
            self.complexes.append(ComplexOfModules(self.pres, self.W, {0: m, 1: n},
                                                   {0: f} if not f.is_zero() else {}))

    def ops(self):
        # one operation is one complex with all three laws, so that the
        # latency percentiles compare operations of the same kind
        for t, x in enumerate(self.complexes):
            yield f"t{t}", (lambda x=x: (self._shift_law(x), self._cone_law(x),
                                         self._composition_law(x)))

    def _shift_law(self, x):
        from koszul import extend_functor

        w = self.W
        return (extend_functor("right", x.shift(1), w).canonical_form(),
                extend_functor("right", x, w).shift(1).canonical_form())

    def _cone_law(self, x):
        from koszul import ChainMap, GradedMorphism, extend_functor, mapping_cone
        from koszul.complexes import relabel_positions
        from koszul.engine import extend_functor_map
        from koszul.modules import identity_morphism

        w = self.W
        xa, xb = relabel_positions(x, "A"), relabel_positions(x, "B")
        ident = {pos: GradedMorphism(xa.module(pos), xb.module(pos),
                                     identity_morphism(x.module(pos)).mats)
                 for pos in x.modules}
        g = ChainMap(xa, xb, ident).validate()
        return (extend_functor("right", mapping_cone(g), w).canonical_form(),
                mapping_cone(extend_functor_map("right", g, w)).canonical_form())

    def _composition_law(self, x):
        from koszul import (DoubleComplex, extend_functor, koszul_functor, koszul_functor_map,
                            total_complex)
        from koszul.engine import extend_functor_map

        pres, dual, w, wd = self.pres, self.dual, self.W, self.WD
        cells, vert, horiz, cols = {}, {}, {}, {}
        for i in x.positions():
            cx = extend_functor("left", koszul_functor("right", x.module(i), wd, pres, dual),
                                w, dual, pres)
            cols[i] = cx
            for j, mod in cx.modules.items():
                cells[(i, j)] = mod
            for j, d in cx.diffs.items():
                vert[(i, j)] = d if i % 2 == 0 else d.negate()
        for i in x.positions():
            if i + 1 in cols:
                inner = koszul_functor_map("right", x.diff(i), wd, pres, dual)
                cmap = extend_functor_map("left", inner, w, dual, pres)
                for j in set(cmap.source.modules) | set(cmap.target.modules):
                    part = cmap.part(j)
                    if not part.is_zero():
                        horiz[(i, j)] = part
        lhs = total_complex(DoubleComplex(pres, w, cells, vert, horiz, validate=False))
        rhs = extend_functor("left", extend_functor("right", x, wd, pres, dual), w, dual, pres)
        return lhs.canonical_form(), rhs.canonical_form()

    def check(self, key, result):
        sides = [(oracles.complex_bytes(lhs), oracles.complex_bytes(rhs)) for lhs, rhs in result]
        broken = [law for law, (lhs, rhs) in zip(("shift", "cone", "composition"), sides)
                  if lhs != rhs]
        err = f"{', '.join(broken)} law sides differ" if broken else None
        return oracles.digest("\n=\n".join(lhs + "\n=\n" + rhs for lhs, rhs in sides)), err


WORKLOADS = {w.name: w for w in (Certify, FunctorExt, Resolve, CertifyCorpus)}
