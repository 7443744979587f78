"""Command-line interface.

Exit codes: 0 success, 1 input error (a usage error too), 2 a checked
mathematical assertion failed (for example `check-koszul --expect koszul`
on a non-Koszul input).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import random
import sys

from . import engine, randomgen, reports
from .algebra import Presentation
from .complexes import homology_tables
from .dsl import ParseError, parse_presentation, print_presentation
from .engine import TruncationPolicy
from .linalg import GF, QQ
from .modules import injective_module, projective_module, simple_module


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a `CliError`: exit 1 with `input-error`, not
    argparse's exit 2, which is the code of a failed assertion."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


@functools.cache
def build_parser(command=None):
    """The argument parser, built on the first call per `command` and shared by
    every `main`; defaults are immutable, so no parsed namespace shares a
    mutable value.  With a `command`, only that subcommand's parser is built:
    it parses that command's arguments, help and errors as the full one does."""
    p = _Parser(
        prog="koszul",
        description="Quadratic quiver algebras: Koszul duals, certificates, "
                    "Koszul functors and resolutions, by exact linear algebra.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _SUBCOMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_text)
            for flags, kwargs in _COMMON + arguments:
                sp.add_argument(*flags, **kwargs)
    return p


def _field_of(args):
    if args.field == "rationals":
        return QQ
    try:
        return GF(int(args.field))
    except ValueError as exc:
        raise CliError(f"bad field {args.field!r}: {exc}")


def _policy_of(args) -> TruncationPolicy:
    try:
        return TruncationPolicy(args.span, tuple(args.window))
    except ValueError:
        raise CliError("invalid -N/--window configuration") from None


def _load(args) -> Presentation:
    field = _field_of(args)
    lo, hi = args.window
    cap = args.degree_cap if args.degree_cap is not None else max(8, hi, args.span + 2)
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc}")
    try:
        return parse_presentation(text, field, cap)
    except ParseError as exc:
        raise CliError(f"{args.input}:{exc}")


def _module_of(args, pres, policy):
    spec = args.module
    window = policy.degree_window
    if spec.startswith(("simple:", "proj:", "inj:")):
        kind, rest = spec.split(":", 1)
        shift = 0
        if "@" in rest:
            rest, s = rest.split("@", 1)
            try:
                shift = int(s)
            except ValueError:
                raise CliError(f"bad shift in module spec {spec!r}")
        if rest not in pres.quiver.vertices:
            raise CliError(f"unknown vertex {rest!r} in module spec")
        if kind == "simple":
            return simple_module(pres, rest, shift, window)
        if kind == "proj":
            return projective_module(pres, rest, shift, window)
        return injective_module(pres, rest, shift, window)
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot load module file {spec!r}: {exc}")
    try:
        return reports.module_from_json(pres, data)
    except ValueError as exc:
        raise CliError(f"invalid module data: {exc}")


def _emit(args, payload, human_lines):
    """Print the `--json` payload (a dict, or a function building it, so a large
    one is built only under `--json`) or else the human-readable lines."""
    if args.json:
        sys.stdout.write(reports.dumps(payload() if callable(payload) else payload))
    else:
        for line in human_lines:
            print(line)


def cmd_dual(args):
    pres = _load(args)
    dual = pres.quadratic_dual()
    payload = {"command": "dual", "dual": reports.presentation_json(dual)}
    _emit(args, payload, [print_presentation(dual).rstrip("\n")])
    return 0


def cmd_check_koszul(args):
    pres = _load(args)
    policy = _policy_of(args)
    cert = engine.koszulity_certificate(pres, policy)
    payload = {"command": "check-koszul", "certificate": cert.to_dict()}
    lines = [f"verdict: {cert.verdict}",
             f"checked {cert.checked} (vertex, position, degree) triples; "
             f"complete: {cert.complete}"]
    for e in cert.failures[:5]:
        lines.append(f"  failure at vertex {e.vertex}, position {e.position}, "
                     f"degree {e.degree}; witness dim {e.witness_dim}")
    _emit(args, payload, lines)
    if args.expect == "koszul" and not cert.is_koszul:
        return 2
    if args.expect == "non-koszul" and cert.is_koszul:
        return 2
    return 0


def cmd_check_star(args):
    pres = _load(args)
    sm_ok, sm_violations = pres.special_multiserial_check()
    result = {"command": "check-star", "special_multiserial": sm_ok,
              "violations": sm_violations,
              "index_reading": "each witnessed term index is excluded literally"}
    lines = [f"special multiserial: {sm_ok}"]
    star_ok = None
    if sm_ok:
        star_self, ce_self = pres.condition_star_check("self")
        star_dual, ce_dual = pres.condition_star_check("dual-of-opposite")
        result["condition_star"] = {"self": star_self, "dual-of-opposite": star_dual,
                                    "counterexample_self": ce_self,
                                    "counterexample_dual": ce_dual}
        star_ok = star_self or star_dual
        lines.append(f"condition (*): self={star_self} dual-of-opposite={star_dual}")
        if star_ok:
            lines.append("Koszul by the multiserial criterion")
    else:
        lines.append(f"violations: {sm_violations}")
    _emit(args, result, lines)
    if args.expect == "satisfied" and not star_ok:
        return 2
    if args.expect == "violated" and star_ok:
        return 2
    return 0


def cmd_resolve(args):
    pres = _load(args)
    policy = _policy_of(args)
    m = _module_of(args, pres, policy)
    cert = engine.koszulity_certificate(pres, policy)
    if args.coresolution:
        res = engine.injective_coresolution(m, policy)
        kind = "injective coresolution"
    else:
        res = engine.projective_resolution(m, policy)
        kind = "projective resolution"
    labels = res.labels
    def payload():      # every dense action and differential: built only under --json
        return {"command": "resolve", "kind": kind, "koszul_certificate": cert.verdict,
                "asserted": cert.is_koszul, "quasi_isomorphism": res.quasi_iso,
                "h0_isomorphism": res.h0_isomorphism,
                "safe_positions": list(res.safe_positions),
                "complex": reports.labeled_complex_json(res.complex, labels)}
    lines = [f"{kind}; certificate: {cert.verdict}",
             f"quasi-isomorphism: {res.quasi_iso} (safe positions "
             f"{res.safe_positions[0]}..{res.safe_positions[1]}); "
             f"H^0 matches: {res.h0_isomorphism}"]
    for n in sorted(labels):
        terms = ", ".join(f"{'P' if not args.coresolution else 'I'}_{e['vertex']}"
                          f"<{e['shift']}>^{e['multiplicity']}"
                          for e in labels[n]) or "0"
        lines.append(f"  position {n}: {terms}")
    _emit(args, payload, lines)
    if cert.is_koszul and not (res.quasi_iso and res.h0_isomorphism):
        return 2
    return 0


def cmd_functor(args):
    pres = _load(args)
    policy = _policy_of(args)
    m = _module_of(args, pres, policy)
    side = "right" if args.side == "F" else "left"
    cx = engine.koszul_functor(side, m, policy.degree_window)
    labels = engine.functor_labels(cx)
    def payload():      # the complex and its homology: built only under --json
        return {"command": "functor", "side": args.side,
                "complex": reports.labeled_complex_json(cx, labels),
                "homology": reports.homology_json(homology_tables(cx))}
    lines = [f"{args.side}(M): positions {cx.positions()}"]
    for n in sorted(labels):
        terms = ", ".join(f"{'P!' if side == 'right' else 'I!'}_{e['vertex']}"
                          f"<{e['shift']}>^{e['multiplicity']}" for e in labels[n]) or "0"
        lines.append(f"  position {n}: {terms}")
    _emit(args, payload, lines)
    return 0


def cmd_homology(args):
    pres = _load(args)
    try:
        with open(args.complex, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot load complex {args.complex!r}: {exc}")
    try:
        cx = reports.complex_from_json(pres, data)
    except ValueError as exc:
        raise CliError(f"invalid complex: {exc}")
    tables = homology_tables(cx)
    payload = {"command": "homology", "homology": reports.homology_json(tables)}
    lines = []
    for n in sorted(tables):
        dims = ", ".join(f"({i},{x}):{d}" for (i, x), d in sorted(tables[n].items()))
        lines.append(f"H^{n}: {dims}")
    if not tables:
        lines.append("acyclic")
    _emit(args, payload, lines)
    return 0


def cmd_ext_table(args):
    pres = _load(args)
    policy = _policy_of(args)
    for v in (args.src, args.dst):
        if v not in pres.quiver.vertices:
            raise CliError(f"unknown vertex {v!r}")
    cert = engine.koszulity_certificate(pres, policy)
    table = engine.ext_table(pres, args.src, args.dst, policy.max_span)
    payload = {"command": "ext-table", "from": args.src, "to": args.dst,
               "koszul_certificate": cert.verdict, "caveat": not cert.is_koszul,
               "table": {str(n): d for n, d in table.items()}}
    lines = [f"GExt^n(S_{args.src}, S_{args.dst}<-n>) for n = 0..{policy.max_span}"
             + ("" if cert.is_koszul else "  [caveat: certificate " + cert.verdict + "]")]
    lines.append("  " + "  ".join(f"n={n}:{d}" for n, d in sorted(table.items())))
    _emit(args, payload, lines)
    return 0


def cmd_pairing_table(args):
    pres = _load(args)
    policy = _policy_of(args)
    ok, rows = engine.pairing_table(pres, policy.max_span)
    payload = {"command": "pairing-table", "all_equal": ok, "rows": rows}
    lines = [f"pairing dimensions equal: {ok}"]
    for r in rows:
        if not r["equal"]:
            lines.append(f"  MISMATCH at a={r['a']} x={r['x']} n={r['n']}: "
                         f"{r['dim_R_upper']} vs {r['dim_dual_piece']}")
    _emit(args, payload, lines)
    return 0 if ok else 2


def cmd_selfcheck(args):
    from .complexes import (ComplexOfModules, acyclic_assembly_check,
                            mapping_cone, horizontal_cone, vertical_cone,
                            null_homotopy_solve, relabel_cells, relabel_double_map,
                            total_chain_map, total_complex)
    rng = random.Random(args.seed)
    field = _field_of(args)
    pres = randomgen.point_presentation(field)
    failures = []
    rounds = 12
    for t in range(rounds):
        dc = randomgen.random_double_complex(rng, pres, grid=(0, 2, 0, 2))
        tot = total_complex(dc)
        try:
            ComplexOfModules(pres, tot.window, tot.modules, tot.diffs)
        except ValueError:
            failures.append(f"total d^2 != 0 in round {t}")
        other = randomgen.random_double_complex(rng, pres, grid=(0, 2, 0, 2))
        f = randomgen.random_double_morphism(rng, dc, other)
        src = relabel_cells(dc, 0)
        tgt = relabel_cells(other, 1)
        g = relabel_double_map(f, src, tgt)
        lhs = total_complex(horizontal_cone(g)).canonical_form()
        mid = mapping_cone(total_chain_map(g)).canonical_form()
        rhs = total_complex(vertical_cone(g)).canonical_form()
        if not (lhs.same_content(mid) and mid.same_content(rhs)):
            failures.append(f"cone identity failed in round {t}")
        u, hf = randomgen.random_horizontal_homotopy(rng, dc, other)
        tf = total_chain_map(hf)
        if null_homotopy_solve(tf) is None:
            failures.append(f"null homotopy not found in round {t}")
        rows_exact = randomgen.random_double_complex(rng, pres, grid=(0, 2, 0, 2),
                                                     exact_rows=True)
        for n in range(0, 5):
            verdict, _ = acyclic_assembly_check(rows_exact, n)
            if verdict is False:
                failures.append(f"acyclic assembly failed at n={n} in round {t}")
    payload = {"command": "selfcheck", "seed": args.seed, "rounds": rounds,
               "failures": failures}
    _emit(args, payload, [f"selfcheck over {rounds} rounds: "
                          + ("all identities hold" if not failures else "FAILURES"),
                          *[f"  {f}" for f in failures]])
    return 0 if not failures else 2


# the options every subcommand takes, then per subcommand its handler, its
# help and its own arguments, each argument as (flags, keyword arguments)
_COMMON = [
    (("--field",), dict(default="rationals", help="'rationals' or a prime p for F_p arithmetic")),
    (("-N", "--span"), dict(type=int, default=6, help="max homological span for truncated claims")),
    (("--window",), dict(nargs=2, type=int, default=(-2, 10), metavar=("LO", "HI"),
                         help="internal degree window")),
    (("-D", "--degree-cap"), dict(type=int, default=None,
                                  help="degree cap for algebra pieces (default: fits the window)")),
    (("--json",), dict(action="store_true", help="machine-readable output")),
    (("--seed",), dict(type=int, default=0, help="seed for randomized self-check subcommands"))]
_INPUT = (("input",), dict(help="presentation file (.kz)"))
_SUBCOMMANDS = {
    "dual": (cmd_dual, "emit the quadratic dual presentation", [_INPUT]),
    "check-koszul": (cmd_check_koszul, "Koszulity certificate", [
        _INPUT, (("--expect",), dict(choices=["koszul", "non-koszul"], default=None))]),
    "check-star": (cmd_check_star, "special multiserial and condition (*) verdicts", [
        _INPUT, (("--expect",), dict(choices=["satisfied", "violated"], default=None))]),
    "resolve": (cmd_resolve, "projective resolution of a module", [
        _INPUT,
        (("--module",), dict(required=True,
                             help="simple:a[@s], proj:a[@s], inj:a[@s] or a JSON file")),
        (("--coresolution",), dict(action="store_true",
                                   help="emit the injective coresolution instead"))]),
    "functor": (cmd_functor, "apply a Koszul functor", [
        _INPUT, (("--side",), dict(required=True, choices=["F", "G"])),
        (("--module",), dict(required=True))]),
    "homology": (cmd_homology, "homology of a complex file", [
        _INPUT, (("--complex",), dict(required=True, help="JSON complex in the module schema"))]),
    "ext-table": (cmd_ext_table, "graded Ext dimensions between simples", [
        _INPUT, (("--from",), dict(dest="src", required=True)),
        (("--to",), dict(dest="dst", required=True))]),
    "pairing-table": (cmd_pairing_table, "dim R^(n)(a,x) versus dim e_a Lambda^!_n e_x",
                      [_INPUT]),
    "selfcheck": (cmd_selfcheck, "seeded randomized identity checks", []),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    try:
        command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = build_parser(command).parse_args(argv)
        return _SUBCOMMANDS[args.command][0](args)
    except (CliError, ValueError, MemoryError, RecursionError) as exc:
        # free the failed command's frames, and after running out of memory or stack
        # its presentation's reference cycles, before the error is formatted
        exc.__traceback__ = None
        code = exc.code if isinstance(exc, CliError) else 1
        message = str(exc)
        if isinstance(exc, (MemoryError, RecursionError)):
            gc.collect()
            message = f"input too large: {type(exc).__name__} {message}".rstrip()
        # a usage error leaves no parsed arguments: look for --json in argv
        if args.json if args is not None else "--json" in argv:
            sys.stdout.write(reports.dumps({
                "error": message, "exit": code,
                "code": "assertion-failed" if code == 2 else "input-error"}))
        else:
            print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
