from __future__ import annotations

import argparse
import ast
import hashlib
import json
import random
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import koszul
from koszul import cli
from koszul.cli import CliError, main
from koszul.dsl import parse_presentation, print_presentation
from koszul.engine import (TruncationPolicy, ext_table, extend_functor, extend_functor_map,
                           koszulity_certificate, local_koszul_complex)
from koszul.linalg import GF, QQ
from koszul.modules import GradedMorphism, identity_morphism, projective_module
from koszul.randomgen import random_morphism
from koszul.reports import dumps, morphism_json, complex_json, complex_from_json
from koszul.complexes import (ChainMap, ComplexOfModules, relabel_positions,
                              single_module_complex)
from tests.conftest import MULTISERIAL as MULTISERIAL_TEXT, ROOT, presentations_dir
from tests.helpers import block_keys, random_module

BISERIAL = str(presentations_dir() / "biserial.kz")
MULTISERIAL = str(presentations_dir() / "multiserial.kz")
EMPTY = str(presentations_dir() / "empty.kz")
KRONECKER = str(presentations_dir() / "kronecker.kz")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def set_handler(monkeypatch, command, handler):
    """Replace a subcommand's handler, keeping its help and arguments."""
    monkeypatch.setitem(cli._SUBCOMMANDS, command, (handler, *cli._SUBCOMMANDS[command][1:]))


def test_dual_human_and_json(capsys):
    code, out, _ = run(capsys, "dual", MULTISERIAL)
    assert code == 0
    assert "al*al - ga*be" in out
    assert "g" not in out.split("relations")[0].split("arrows")[0]
    code, js, _ = run(capsys, "dual", MULTISERIAL, "--json")
    assert code == 0
    data = json.loads(js)
    assert len(data["dual"]["relations"]) == 3


def test_json_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "check-koszul", BISERIAL, "-N", "4", "--json")
    _, second, _ = run(capsys, "check-koszul", BISERIAL, "-N", "4", "--json")
    assert first == second


def test_check_koszul_verdicts_and_exit_codes(capsys):
    code, out, _ = run(capsys, "check-koszul", BISERIAL, "-N", "4")
    assert code == 0 and "NOT_KOSZUL" in out
    code, out, _ = run(capsys, "check-koszul", BISERIAL, "-N", "4",
                       "--expect", "non-koszul")
    assert code == 0
    code, _, _ = run(capsys, "check-koszul", BISERIAL, "-N", "4", "--expect", "koszul")
    assert code == 2
    code, out, _ = run(capsys, "check-koszul", EMPTY)
    assert code == 0 and "KOSZUL" in out
    code, out, _ = run(capsys, "check-koszul", BISERIAL, "-N", "4", "--json")
    data = json.loads(out)
    f = data["certificate"]["failures"][0]
    assert (f["vertex"], f["position"], f["degree"]) == ("1", -2, 4)
    assert f["witness_dim"] == 1


def test_window_above_degree_zero_gives_no_complete_certificate(capsys, biserial):
    # every piece of the augmented K_a lies in internal degree >= 0, so a
    # window starting above 0 checks none of biserial's failures (the first
    # sits in degree 4): it must not claim KOSZUL
    code, out, _ = run(capsys, "check-koszul", BISERIAL, "-N", "4", "--window", "6", "20",
                       "--json")
    cert = json.loads(out)["certificate"]
    assert code == 0
    assert (cert["verdict"], cert["complete"], cert["checked_triples"]) == \
        ("KOSZUL_UP_TO_4", False, 0)
    lib = koszulity_certificate(biserial, TruncationPolicy(4, (6, 20)))
    assert (lib.verdict, lib.complete) == ("KOSZUL_UP_TO_4", False)
    assert koszulity_certificate(biserial, TruncationPolicy(4, (0, 20))).verdict == "NOT_KOSZUL"


def test_usage_error_exits_1_with_input_error(capsys):
    # argparse on its own exits 2, the code of a failed assertion, and
    # writes no JSON; a usage error is an input error
    code, out, err = run(capsys, "check-koszul", MULTISERIAL, "-N", "abc")
    assert code == 1 and not out and "invalid int value: 'abc'" in err
    code, out, _ = run(capsys, "check-koszul", MULTISERIAL, "-N", "abc", "--json")
    data = json.loads(out)
    assert code == 1 and (data["code"], data["exit"]) == ("input-error", 1)
    assert "-N/--span" in data["error"]
    code, _, err = run(capsys, "no-such-command")
    assert code == 1 and "invalid choice" in err
    with pytest.raises(SystemExit) as exc:
        main(["check-koszul", "--help"])
    assert exc.value.code == 0
    assert "--expect" in capsys.readouterr().out


# sha256 of the `--json` stdout of commands on the shipped presentations, each
# recorded before a refactor of the code it runs (sparse row reduction, the
# single path-action and column-building routines); verdicts, witnesses and
# JSON bytes must not change with the code underneath.
PINNED_JSON = [
    (("check-koszul", BISERIAL, "-N", "4"),
     "d0ea21140119cdcb062fdcb72f320bdba5c4748426e0977d329181ec2b51cc5c"),
    (("check-koszul", MULTISERIAL),
     "fd264fb35d262d7ddeb9cbb81758eb69532e8a6758116ca64b61b1278c745e03"),
    (("check-koszul", MULTISERIAL, "-N", "8", "--window", "-2", "14"),
     "9605bbf2a25acbe044f56bba0e521a878398469b98fc245997fce1ec1641802d"),
    (("check-koszul", MULTISERIAL, "-N", "8", "--window", "-2", "16", "-D", "16"),
     "36cc20a734f8eace75595e7cd68015784fa664685538e5bd1d84d5c29fb5a943"),
    (("check-koszul", MULTISERIAL, "-N", "16", "--window", "-2", "24", "-D", "24"),
     "ca481e4197bff69b005f78dd18356f1a83f12e65f3ab8496e6c1529ca7f9c198"),
    (("check-koszul", KRONECKER),
     "1d3a732a272494c09f5f8ebf889b9b9f962952d8856112d12bf3139455635687"),
    (("check-koszul", EMPTY),
     "790d72b5baf374669711cc5bc09b1e4ffd4238b906ab6767456a70f738a68d7e"),
    (("check-koszul", MULTISERIAL, "--field", "101"),
     "fd264fb35d262d7ddeb9cbb81758eb69532e8a6758116ca64b61b1278c745e03"),
    (("dual", BISERIAL),
     "7a4163c5ef1e9bc730a49f273f7fcff7ae7f14de75b5f031ea8bce8d2583c86b"),
    (("dual", MULTISERIAL, "--field", "101"),
     "f98a9cb5dfb516294436b8c327c084f92a805e37c5284ab1f038f96a738b11b9"),
    (("resolve", MULTISERIAL, "--module", "simple:1", "-N", "4"),
     "b00593f6113631500645163724483e06ea06fb89995f54641478760522ef5cc6"),
    (("resolve", MULTISERIAL, "--module", "simple:1", "-N", "4", "--coresolution"),
     "0fe49df33ba8236a10f463f1a521a7e0baeb17de4565ce53c5473a51cc2f88b1"),
    (("functor", MULTISERIAL, "--side", "F", "--module", "simple:1"),
     "85c31d33a0cd75b669e589d1a73213e5dafd540cb3af06d9edee12a0acfc1356"),
    (("functor", MULTISERIAL, "--side", "G", "--module", "simple:1"),
     "14d1485db7323b510b4d2739a0e77744987d9e8246ba2c3436c956129d9d397e"),
    (("functor", BISERIAL, "--side", "G", "--module", "proj:1"),
     "ac8080fa54cc211ff5ec922aadb19cf6047c04c087eae907f6e5bf136e11e18e"),
    (("resolve", BISERIAL, "--module", "inj:3", "-N", "3"),
     "46d608d4bba0bd83acd6c2b81344ec90475c80eb162636b594544f6810a0f1ed"),
    (("ext-table", MULTISERIAL, "--from", "1", "--to", "1"),
     "6990040287e6fcdd68f3fddc53b73ea0b5658ca46ace2301d22cd6b0cea37131"),
    (("pairing-table", BISERIAL),
     "37378cd62f42c7af3c1da4aecad8eb1c82e6d75acb0d2fdfde243447aa434d99"),
]


@pytest.mark.parametrize("argv,digest", PINNED_JSON,
                         ids=[" ".join(a[:1] + (a[1].rsplit("/", 1)[-1],) + a[2:])
                              for a, _ in PINNED_JSON])
def test_json_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_span_past_the_degree_cap_is_an_input_error(capsys):
    # N_a needs R^(n) up to n = N, so a span above -D is refused at degree
    # cap + 1, even where Lambda^! vanishes below it (biserial's Lambda^!_9)
    code, out, _ = run(capsys, "check-koszul", MULTISERIAL, "-N", "8", "-D", "4", "--json")
    assert code == 1
    assert json.loads(out) == {"code": "input-error", "error": "degree 5 exceeds cap 4",
                               "exit": 1}
    code, out, err = run(capsys, "check-koszul", BISERIAL, "-N", "9", "-D", "8")
    assert (code, out, err) == (1, "", "error: degree 9 exceeds cap 8\n")


def _certificate(capsys, *argv):
    code, out, _ = run(capsys, "check-koszul", *argv, "--json")
    assert code == 0
    return json.loads(out)["certificate"]


def test_polynomial_ring_example(capsys, tmp_path):
    # k[a,b,c] is Koszul and its dual is the exterior algebra (BGS, JAMS 1996)
    path = str(presentations_dir() / "polynomial.kz")
    code, out, _ = run(capsys, "dual", path)
    assert code == 0
    assert out.split("relations\n")[1].splitlines() == [
        "  a*a", "  b*a + a*b", "  c*a + a*c", "  b*b", "  c*b + b*c", "  c*c"]
    pres = parse_presentation((presentations_dir() / "polynomial.kz").read_text(), QQ, 10)
    assert ext_table(pres, "1", "1", 5) == {0: 1, 1: 3, 2: 3, 3: 1, 4: 0, 5: 0}
    assert [pres.dim_piece(n, "1", "1") for n in range(6)] == [1, 3, 6, 10, 15, 21]
    cert = _certificate(capsys, path, "-N", "4", "--window", "-2", "9", "-D", "9")
    assert (cert["verdict"], cert["checked_triples"], cert["failures"]) == \
        ("KOSZUL_UP_TO_4", 34, [])
    dual = tmp_path / "exterior.kz"
    dual.write_text(out)
    cert = _certificate(capsys, str(dual), "-N", "4", "--window", "-2", "9")
    assert (cert["verdict"], cert["complete"], cert["checked_triples"]) == ("KOSZUL", True, 20)


def test_multiserial_dual_example(capsys, multiserial):
    # a comment line, then the output of `koszul dual multiserial.kz`
    text = (presentations_dir() / "multiserial_dual.kz").read_text()
    dual = multiserial.quadratic_dual()
    pres = parse_presentation(text, QQ, multiserial.degree_cap)
    assert pres == dual and pres.quadratic_dual() == multiserial
    comment, body = text.split("\n", 1)
    assert comment.startswith("#") and body == print_presentation(dual)
    cert = _certificate(capsys, str(presentations_dir() / "multiserial_dual.kz"),
                        "-N", "8", "--window", "-2", "16", "-D", "16")
    assert (cert["verdict"], cert["checked_triples"], cert["failures"]) == \
        ("KOSZUL_UP_TO_8", 648, [])


# sha256 prefixes of the JSON of every local Koszul complex K_a under
# TruncationPolicy(4, (-1, 8)) and degree cap 10, keyed by (vertex, augmented);
# recorded before K_a was rebuilt as the Koszul functor F of one module.
PINNED_LOCAL_KOSZUL = {
    ("biserial", None): {
        ("1", True): "2c160ca05a05dd7a", ("1", False): "b072336d9cb20e8d",
        ("2", True): "3d17bcb311bef1a5", ("2", False): "967c62abb695d325",
        ("3", True): "fc712122f30642b4", ("3", False): "71a0bccdc4da46ef",
        ("4", True): "7130d80da9866eeb", ("4", False): "f78ebed3568f87ea",
        ("5", True): "51287308fbb9c155", ("5", False): "7314caa698392df4",
        ("6", True): "cf2598f81e06c0d1", ("6", False): "e38512df3662c2ab",
    },
    ("multiserial", None): {
        ("1", True): "1ca25aab0727b785", ("1", False): "7adaf54f5167beff",
        ("2", True): "ae773001bbb59577", ("2", False): "587f52e926438b4b",
        ("3", True): "11b481a4fe8daad4", ("3", False): "3cf1c7358b62cfaa",
        ("4", True): "a2ae4bbd67bf82d1", ("4", False): "eb2c52398b611d0b",
    },
    ("kronecker", None): {
        ("1", True): "023ece1742b0a805", ("1", False): "92f80eb932efa2e3",
        ("2", True): "22b9b117b7f2fcb1", ("2", False): "5bdee8cacb4533af",
    },
    ("empty", None): {
        ("1", True): "e237145a01f6a329", ("1", False): "cb6cf2694082a9dd",
    },
    ("multiserial", 101): {
        ("1", True): "6373c64515b46b0a", ("1", False): "834cc762924bba9b",
        ("2", True): "a1f8748980e9131f", ("2", False): "773ae8c21fb8cd16",
        ("3", True): "11b481a4fe8daad4", ("3", False): "3cf1c7358b62cfaa",
        ("4", True): "a2ae4bbd67bf82d1", ("4", False): "eb2c52398b611d0b",
    },
}


@pytest.mark.parametrize("name,p", PINNED_LOCAL_KOSZUL,
                         ids=[f"{n}-{'QQ' if p is None else f'GF({p})'}"
                              for n, p in PINNED_LOCAL_KOSZUL])
def test_local_koszul_complex_bytes_pinned(name, p):
    field = QQ if p is None else GF(p)
    pres = parse_presentation((presentations_dir() / f"{name}.kz").read_text(), field, 10)
    policy = TruncationPolicy(4, (-1, 8))
    digests = {}
    for a in pres.quiver.vertices:
        for augmented in (True, False):
            cx = local_koszul_complex(pres, a, policy, augmented=augmented)
            digests[(a, augmented)] = hashlib.sha256(
                dumps(complex_json(cx)).encode()).hexdigest()[:16]
            # position -n holds one block (x, -n) per x with R^(n)(a, x) != 0
            keys = {-n: tuple(((x, -n),) for x in pres.quiver.vertices
                              if pres.r_upper(n, a, x).dim) for n in range(5)}
            keys = {n: k for n, k in keys.items() if k}
            if augmented:
                keys[1] = ((),)
            assert block_keys(cx) == keys
    assert digests == PINNED_LOCAL_KOSZUL[(name, p)]


# sha256 prefixes of the JSON (with block labels) of extend_functor("right", x)
# and of extend_functor_map("right", g), g the identity chain map of the cone
# law, for the two-term complex x of random_module/random_morphism draws on
# Random(seed) over multiserial, window (-2, 10); recorded before the functor
# builders reused each column's Koszul functor image.
PINNED_FUNCTOR_EXT = {
    5: ("8fd5afa707eeac55", "72ca2fa52726cdd2"),
    20: ("93d38ce14bf26c75", "16857ac27b8d8988"),
}


def _labeled_complex_json(cx):
    return {"complex": complex_json(cx), "blocks": repr(sorted(block_keys(cx).items()))}


@pytest.mark.parametrize("seed", PINNED_FUNCTOR_EXT)
def test_extend_functor_bytes_pinned(seed):
    pres = parse_presentation(MULTISERIAL_TEXT, QQ, 16)
    w = (-2, 10)
    rng = random.Random(seed)
    m, n = random_module(rng, pres, (0, 3)), random_module(rng, pres, (0, 3))
    f = random_morphism(rng, m, n)
    assert not f.is_zero()
    x = ComplexOfModules(pres, w, {0: m, 1: n}, {0: f})
    xa, xb = relabel_positions(x, "A"), relabel_positions(x, "B")
    g = ChainMap(xa, xb, {p: GradedMorphism(xa.module(p), xb.module(p),
                                            identity_morphism(x.module(p)).mats)
                          for p in x.modules}).validate()
    fx = extend_functor("right", x, w)
    fg = extend_functor_map("right", g, w)
    positions = sorted(set(fg.source.modules) | set(fg.target.modules))
    fg_json = {"source": _labeled_complex_json(fg.source),
               "target": _labeled_complex_json(fg.target),
               "parts": {str(p): morphism_json(fg.part(p)) for p in positions}}
    digests = tuple(hashlib.sha256(dumps(js).encode()).hexdigest()[:16]
                    for js in (_labeled_complex_json(fx), fg_json))
    assert digests == PINNED_FUNCTOR_EXT[seed]


def test_human_and_json_verdicts_agree(capsys):
    _, human, _ = run(capsys, "check-koszul", MULTISERIAL)
    _, js, _ = run(capsys, "check-koszul", MULTISERIAL, "--json")
    verdict = json.loads(js)["certificate"]["verdict"]
    assert verdict in human


def test_check_star(capsys):
    code, out, _ = run(capsys, "check-star", MULTISERIAL, "--expect", "satisfied")
    assert code == 0 and "self=True" in out
    code, out, _ = run(capsys, "check-star", BISERIAL, "--expect", "satisfied")
    assert code == 2 and "self=False" in out


def test_prime_field_mode(capsys):
    code, out, _ = run(capsys, "check-koszul", MULTISERIAL, "--field", "1000003")
    assert code == 0 and "KOSZUL" in out
    code, _, err = run(capsys, "check-koszul", MULTISERIAL, "--field", "10")
    assert code == 1


def test_modulus_past_the_exact_primality_range_is_refused(capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin to every base 2..37
    code, out, err = run(capsys, "dual", MULTISERIAL, "--field", "318665857834031151167461",
                         "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"code": "input-error", "exit": 1, "error":
                               "bad field '318665857834031151167461': "
                               "a modulus must be below 2^64"}


def test_resolve_and_functor(capsys):
    code, out, _ = run(capsys, "resolve", MULTISERIAL, "--module", "simple:1", "-N", "4")
    assert code == 0
    assert "quasi-isomorphism: True" in out
    code, out, _ = run(capsys, "resolve", MULTISERIAL, "--module", "simple:4",
                       "-N", "4", "--coresolution")
    assert code == 0 and "injective coresolution" in out
    code, out, _ = run(capsys, "functor", MULTISERIAL, "--side", "F",
                       "--module", "inj:1")
    assert code == 0 and "position 0" in out
    code, out, _ = run(capsys, "functor", MULTISERIAL, "--side", "G",
                       "--module", "proj:1", "--window", "-8", "2")
    assert code == 0


def test_human_mode_builds_no_json_payload(capsys, monkeypatch):
    # the --json payload holds every action and differential as dense rows (and
    # for `functor` the homology tables), so only --json may build it
    def refuse(*_):
        raise AssertionError("--json payload built without --json")

    monkeypatch.setattr(cli.reports, "labeled_complex_json", refuse)
    monkeypatch.setattr(cli.reports, "homology_json", refuse)
    code, out, _ = run(capsys, "resolve", MULTISERIAL, "--module", "simple:1", "-N", "4")
    assert code == 0 and "position 0: P_1<0>^1" in out
    code, out, _ = run(capsys, "functor", MULTISERIAL, "--side", "F", "--module", "inj:1")
    assert code == 0 and "position 0" in out
    with pytest.raises(AssertionError, match="without --json"):
        main(["resolve", MULTISERIAL, "--module", "simple:1", "-N", "4", "--json"])


def test_module_spec_errors(capsys):
    code, _, err = run(capsys, "resolve", MULTISERIAL, "--module", "simple:9")
    assert code == 1 and "unknown vertex" in err
    code, _, err = run(capsys, "resolve", MULTISERIAL, "--module", "nosuchfile.json")
    assert code == 1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.kz"
    bad.write_text("quiver\n vertices: 1\n arrows: a: 1->2\n")
    code, _, err = run(capsys, "check-koszul", str(bad))
    assert code == 1 and "unknown vertex" in err


@pytest.mark.parametrize("exc,code,kind", [
    (CliError("expected koszul", 2), 2, "assertion-failed"),
    (CliError("bad field"), 1, "input-error"),
    (ValueError("degree 9 exceeds cap 8"), 1, "input-error"),
    (MemoryError(), 1, "input-error"),
    (RecursionError("maximum recursion depth exceeded"), 1, "input-error"),
], ids=["cli-2", "cli-1", "value", "memory", "recursion"])
@pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
def test_one_error_exit(monkeypatch, capsys, exc, code, kind, as_json):
    def fail(args):
        raise exc
    set_handler(monkeypatch, "dual", fail)
    got, out, err = run(capsys, "dual", MULTISERIAL, *(["--json"] if as_json else []))
    assert got == code
    assert "Traceback" not in out + err
    if as_json:
        data = json.loads(out)
        assert (data["exit"], data["code"]) == (code, kind) and data["error"]
        assert not err
    else:
        assert not out and err.startswith("error: ") and err.strip() != "error:"


def test_memory_error_frees_the_presentation_before_formatting(monkeypatch, capsys):
    # the failed command's frames hold its presentation, and the presentation
    # holds reference cycles (its shared P_1 points back at it): both are
    # dropped before the error JSON is formatted, with the same bytes
    refs, alive = [], []

    def fail(args):
        pres = parse_presentation(MULTISERIAL_TEXT, QQ, 8)
        projective_module(pres, "1", 0, (0, 4))
        refs.append(weakref.ref(pres))
        raise MemoryError

    real_dumps = cli.reports.dumps

    def recording_dumps(payload):
        alive.append(refs[0]() is not None)
        return real_dumps(payload)

    monkeypatch.setattr(cli.reports, "dumps", recording_dumps)
    set_handler(monkeypatch, "dual", fail)
    code, out, err = run(capsys, "dual", MULTISERIAL, "--json")
    assert alive == [False]
    assert (code, out, err) == (1, dumps({"error": "input too large: MemoryError", "exit": 1,
                                          "code": "input-error"}), "")


def test_homology_command_roundtrip(tmp_path, capsys):
    pres = parse_presentation((presentations_dir() / "multiserial.kz").read_text(), QQ, 10)
    p = projective_module(pres, "1", 0, (0, 6))
    cx = single_module_complex(p)
    path = tmp_path / "complex.json"
    path.write_text(dumps(complex_json(cx)))
    code, out, _ = run(capsys, "homology", MULTISERIAL, "--complex", str(path))
    assert code == 0 and "H^0" in out
    # module JSON also loads back through reports
    again = complex_from_json(pres, json.loads(path.read_text()))
    assert again.module(0).same_content(p)


# a complex 0:1 -> 0:1 on kronecker.kz whose differential is no module morphism:
# (pieces, actions) of both positions, the differential, the expected error
BAD_DIFFERENTIALS = {
    "shape": ({"0:1": 1}, {}, {"0:1": [["1", "0"], ["0", "1"]]},
              "morphism shape mismatch at (0,1)"),
    "commute": ({"0:1": 1, "1:2": 1}, {"a@0": [["1"]]}, {"0:1": [["1"]]},
                "morphism does not commute with a at degree 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_DIFFERENTIALS))
@pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
def test_homology_rejects_a_differential_that_is_no_morphism(tmp_path, capsys, case, as_json):
    pieces, actions, diff, message = BAD_DIFFERENTIALS[case]
    module = {"window": [0, 1], "pieces": pieces, "actions": actions}
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"positions": {"0": module, "1": module},
                                "differentials": {"0": diff}}))
    code, out, err = run(capsys, "homology", KRONECKER, "--complex", str(path),
                         *(["--json"] if as_json else []))
    assert code == 1
    if as_json:
        data = json.loads(out)
        assert data["code"] == "input-error" and message in data["error"] and not err
    else:
        assert not out and message in err


def test_module_file_with_a_huge_window(tmp_path, capsys):
    # module checks visit the stored pieces, not every degree of the window
    module = {"window": [-10 ** 12, 10 ** 12], "pieces": {"0:1": 1}}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    code, out, _ = run(capsys, "resolve", MULTISERIAL, "--module", str(path), "-N", "3")
    assert code == 0 and "quasi-isomorphism: True" in out
    path.write_text(json.dumps({"positions": {"0": module}}))
    code, out, _ = run(capsys, "homology", MULTISERIAL, "--complex", str(path))
    assert code == 0 and out == "H^0: (0,1):1\n"


# JSON values for the loader fuzz test.  Integers stay small: a piece dimension
# has no size budget yet, and a huge one would be built, not rejected.
SMALL = st.integers(-2, 3)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | SMALL | st.sampled_from([2.5, float("nan"), float("inf")])
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=6)


def mostly(good, other=ANY_JSON):
    """Usually a well-formed value, sometimes any JSON value (or any `other`)."""
    return st.sampled_from([True] * 5 + [False]).flatmap(lambda ok: good if ok else other)


SCALAR = mostly(st.sampled_from(["0", "1", "-2", "1/2"])) | st.sampled_from(["1/0", "x", 3, 2.5])
PIECE = mostly(st.builds("{}:{}".format, st.integers(0, 2), st.sampled_from(["1", "2"])),
               st.sampled_from(["0:9", "0", "x:1", ":"]) | st.text(max_size=3))
ARROW = mostly(st.builds("{}@{}".format, st.sampled_from(["a", "b"]), st.integers(0, 1)),
               st.sampled_from(["z@0", "a", "a@x"]) | st.text(max_size=3))
MATRIX = mostly(st.lists(mostly(st.lists(SCALAR, min_size=1, max_size=2)), min_size=1,
                         max_size=2))
MODULE = mostly(st.fixed_dictionaries(
    {"window": mostly(st.lists(SMALL, min_size=2, max_size=2)),
     "pieces": mostly(st.dictionaries(PIECE, mostly(st.integers(0, 2)), max_size=3))},
    optional={"actions": mostly(st.dictionaries(ARROW, MATRIX, max_size=2))}))
POSITION = mostly(st.sampled_from(["0", "1"]), st.text(max_size=2))
COMPLEX = mostly(st.fixed_dictionaries(
    {"positions": mostly(st.dictionaries(POSITION, MODULE, min_size=1, max_size=2))},
    optional={"differentials": mostly(st.dictionaries(
        POSITION, mostly(st.dictionaries(PIECE, MATRIX, max_size=2)), max_size=1))}))


def test_json_loaders_exit_cleanly(tmp_path, capsys):
    # malformed module and complex files end in exit 1 with a message, never a traceback
    path = tmp_path / "input.json"

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.tuples(st.just("--module"), MODULE) | st.tuples(st.just("--complex"), COMPLEX))
    def check(case):
        flag, data = case
        path.write_text(json.dumps(data))
        command = "resolve" if flag == "--module" else "homology"
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, command, KRONECKER, flag, str(path), "-N", "2",
                                 "--window", "0", "2", *extra)
            assert code in (0, 1) and "Traceback" not in out + err

    check()


def test_ext_and_pairing(capsys):
    code, out, _ = run(capsys, "ext-table", MULTISERIAL, "--from", "1", "--to", "1",
                       "-N", "8")
    assert code == 0
    assert "n=8:1" in out.replace(" ", "").replace("n=8:1", "n=8:1")
    code, out, _ = run(capsys, "pairing-table", MULTISERIAL, "-N", "5")
    assert code == 0 and "True" in out
    code, _, err = run(capsys, "ext-table", MULTISERIAL, "--from", "1", "--to", "9")
    assert code == 1


def test_selfcheck(capsys):
    code, out, _ = run(capsys, "selfcheck", "--seed", "1")
    assert code == 0 and "all identities hold" in out
    # characteristic two: the sign bookkeeping degenerates but identities hold
    code, out, _ = run(capsys, "selfcheck", "--seed", "2", "--field", "2")
    assert code == 0


def test_package_reads_no_environment():
    # behaviour is set by arguments only; an environment knob is an untested option
    for path in sorted(Path(koszul.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, path.name


# attributes of matrices, modules, morphisms and complexes, and of the word
# bases of path bases and algebra pieces, which are shared between callers
# (arrow matrices, path bases and algebra pieces are memoized, Kronecker
# factors reused, and matrices share row dicts with each other and with subspaces)
FROZEN_ATTRS = {"rows", "sparse_rows", "dims", "actions", "_actions", "mats", "parts", "modules",
                "diffs", "words", "index", "candidates"}


def _subscript_base(node):
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def test_package_source_guards():
    # matrices and the containers above are built whole and never written in
    # place (no `m.sparse_rows[i][j] = ...`, `out.parts[k] = ...` or
    # `m.sparse_rows.append`), and every module-level import is used, in the
    # package (__init__ re-exports on purpose) and in the tests
    for path in sorted(Path(koszul.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
            for t in targets:
                base = _subscript_base(t) if isinstance(t, ast.Subscript) else None
                assert not (isinstance(base, ast.Attribute) and base.attr in FROZEN_ATTRS), \
                    f"{path.name}:{node.lineno} writes into .{base.attr}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                assert not (node.func.attr in ("append", "extend", "insert")
                            and isinstance(owner, ast.Attribute)
                            and owner.attr in ("rows", "sparse_rows")), \
                    f"{path.name}:{node.lineno} grows .{owner.attr} in place"
        if path.name != "__init__.py":
            _assert_imports_used(path, tree)
    for path in sorted((ROOT / "tests").glob("*.py")):
        _assert_imports_used(path, ast.parse(path.read_text(encoding="utf-8")))


def _assert_imports_used(path, tree):
    """Every module-level import of the file is named somewhere in it."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                assert name in used, f"{path.name}:{node.lineno} imports unused {name}"


# public names the package may define though nothing in it or in perfbench/
# names them:
#  - Subspace.coordinates is the dense reference that the tests compare
#    coordinates_of against;
#  - Quiver.adjacency_power_count will count paths before the pairing-table
#    oracle enumerates them (the budgets of ROADMAP item 5).
UNUSED_ALLOWED = {"Subspace.coordinates", "Quiver.adjacency_power_count"}


def test_package_defines_only_what_it_uses():
    # every public module-level function and class, and every public method of
    # a public class, is named (a Name, an Attribute or an import alias) in the
    # package or the benchmark; what only the tests run lives in tests/helpers.py
    package = sorted(Path(koszul.__file__).parent.glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    assert bench
    named, defined = set(), []
    for path in package + bench:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add((node.asname or node.name).split(".")[-1])
        if path in bench:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((node.name, node.name))
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        defined.append((f"{node.name}.{sub.name}", sub.name))
    unused = {full for full, name in defined if name not in named}
    assert unused == UNUSED_ALLOWED, sorted(unused ^ UNUSED_ALLOWED)


# the one block layout: every block matrix between direct sums is built by
# `modules.block_morphism` (and the actions of a sum by its block diagonal)
BLOCK_ALLOWED = {("modules.py", "block_morphism"), ("modules.py", "_block_diagonal_actions"),
                 ("linalg.py", "Matrix.kron")}


def test_block_matrices_have_one_layout():
    for path in sorted(Path(koszul.__file__).parent.glob("*.py")):
        for func, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            owner = getattr(call.func, "value", None)
            if getattr(call.func, "attr", None) == "block" and \
                    getattr(owner, "id", None) in ("Matrix", "cls"):
                assert (path.name, func) in BLOCK_ALLOWED, \
                    f"{path.name}:{call.lineno} {func} assembles a block matrix"


# the dense-vector methods (a list per vector, as long as its space), kept for
# output, random data and reference tests, and the functions that may call
# them; None allows a whole file.  Inside the engine vectors stay sparse rows.
DENSE_CALLS = {"dense_rows", "apply", "reduce", "coordinates", "contains", "from_vectors"}
DENSE_ALLOWED = {
    "reports.py": None, "randomgen.py": None,
    "complexes.py": {"homology_module"},        # its returned representatives
    "linalg.py": {"Subspace.contains"},         # a member reduces to zero
}


def _calls_by_function(node, func=None, prefix=""):
    """(innermost enclosing function name, as Class.method for a method, call
    node) for each call under node."""
    for child in ast.iter_child_nodes(node):
        name, inner = func, prefix
        if isinstance(child, ast.ClassDef):
            inner = child.name + "."
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, inner = prefix + child.name, ""
        if isinstance(child, ast.Call):
            yield name, child
        yield from _calls_by_function(child, name, inner)


def test_engine_keeps_vectors_sparse():
    for path in sorted(Path(koszul.__file__).parent.glob("*.py")):
        allowed = DENSE_ALLOWED.get(path.name, set())
        if allowed is None:
            continue
        for func, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            attr = getattr(call.func, "attr", None)
            assert attr not in DENSE_CALLS or func in allowed, \
                f"{path.name}:{call.lineno} {func} calls the dense .{attr}"


# the one path-action routine: a module acts by a path only to check its
# relations, and to evaluate P_x<-i> (x) V into it for projective covers, eta
# and zeta (zeta over the dual module, so the engine builds no opposite path)
PATH_ACTION_ALLOWED = {("modules.py", "GradedModule.validate"), ("modules.py", "evaluation_map")}


def test_path_actions_have_one_routine():
    for path in sorted(Path(koszul.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, call in _calls_by_function(tree):
            if getattr(call.func, "attr", None) == "path_action":
                assert (path.name, func) in PATH_ACTION_ALLOWED, \
                    f"{path.name}:{call.lineno} {func} acts by a path"
        if path.name == "engine.py":
            for node in ast.walk(tree):
                assert not (isinstance(node, ast.ImportFrom) and
                            node.module in ("quiver", "koszul.quiver")), \
                    f"engine.py:{node.lineno} imports from koszul.quiver"


# the engine reaches Lambda_n, Lambda^!_n and N_a through normal words only:
# relation pieces of kQ_n and the spaces R^(n) are the pairing table's oracle,
# and a path basis is read only in degree 2, for the relations a module checks
PATH_SPACE_CALLS = {"relation_piece", "r_upper"}


def test_engine_builds_no_path_space():
    for name in ("engine.py", "modules.py"):
        path = Path(koszul.__file__).parent / name
        for func, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            attr = getattr(call.func, "attr", None)
            assert attr not in PATH_SPACE_CALLS, f"{name}:{call.lineno} {func} calls .{attr}"
            if attr == "path_basis":
                degree = call.args[0]
                assert (name, func) == ("modules.py", "GradedModule.validate") and \
                    isinstance(degree, ast.Constant) and degree.value == 2, \
                    f"{name}:{call.lineno} {func} enumerates paths"


# the cone and the total complex read the stored dicts, never the accessors
# that synthesize a zero object on a miss
ZERO_ACCESSORS = {"module", "diff", "part", "cell", "v", "h"}
STORED_ONLY = {"mapping_cone", "total_complex", "total_chain_map"}


def test_cone_and_total_complex_call_no_zero_synthesizing_accessor():
    path = Path(koszul.__file__).parent / "complexes.py"
    seen = set()
    for func, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
        if func in STORED_ONLY:
            seen.add(func)
            assert getattr(call.func, "attr", None) not in ZERO_ACCESSORS, \
                f"complexes.py:{call.lineno} {func} calls .{call.func.attr}"
    assert seen == STORED_ONLY


# one homology routine for verdicts: the engine reads ranks through
# complexes.homology_at, and eliminates by hand only to print a witness
ELIMINATION_CALLS = {"rank", "kernel", "kernel_basis", "column_space"}
ELIMINATION_ALLOWED = {"_exactness_witness"}


def test_engine_verdicts_come_from_homology_at():
    path = Path(koszul.__file__).parent / "engine.py"
    for func, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
        attr = getattr(call.func, "attr", None)
        assert attr not in ELIMINATION_CALLS or func in ELIMINATION_ALLOWED, \
            f"engine.py:{call.lineno} {func} calls .{attr}"


def test_package_has_no_true_division():
    # over QQ an integral value is an int, and int / int is a float: exact
    # division goes through `Fraction` or a field inverse, never through `/`
    for path in sorted(Path(koszul.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.Div), f"{path.name}:{node.lineno} divides with /"


def test_parser_is_built_once_and_namespaces_keep_their_own_window(monkeypatch):
    # one parser per invoked subcommand, and one full parser
    for command in [None, *cli._SUBCOMMANDS]:
        assert cli.build_parser(command) is cli.build_parser(command)
    seen = []

    def record(args):
        seen.append(args.window)
        return 0

    set_handler(monkeypatch, "check-koszul", record)
    assert main(["check-koszul", BISERIAL, "--window", "0", "3"]) == 0
    assert main(["check-koszul", BISERIAL, "--window", "1", "5"]) == 0
    assert main(["check-koszul", BISERIAL]) == 0
    assert [list(w) for w in seen] == [[0, 3], [1, 5], [-2, 10]]
    # a namespace's window is its own list or the immutable default
    assert seen[0] is not seen[1] and isinstance(seen[2], tuple)


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _parsed(parser, argv):
    """The namespace of argv as a dict, or the usage error's text."""
    try:
        return vars(parser.parse_args(argv))
    except CliError as exc:
        return str(exc)


def test_subcommand_parser_matches_the_full_parser():
    # `main` builds only the invoked subcommand's parser; its help, its usage
    # errors and its `invalid choice` errors are the full parser's, byte for byte
    full = cli.build_parser()
    assert list(_subparsers(full)) == list(cli._SUBCOMMANDS)
    assert all(callable(handler) for handler, _, _ in cli._SUBCOMMANDS.values())
    for command in cli._SUBCOMMANDS:
        own = cli.build_parser(command)
        assert list(_subparsers(own)) == [command]
        assert _subparsers(own)[command].format_help() == _subparsers(full)[command].format_help()
        for argv in ([command], [command, "in.kz"], [command, "in.kz", "--no-such-flag"],
                     [command, "in.kz", "-N", "abc"], [command, "in.kz", "--window", "1"],
                     [command, "in.kz", "--expect", "maybe"], [command, "in.kz", "--side", "H"],
                     [command, "in.kz", "--side", "F", "--module", "simple:1", "--json"]):
            assert _parsed(own, argv) == _parsed(full, argv), argv
    errors = [_parsed(full, argv) for argv in (["check-koszul", "in.kz", "--expect", "maybe"],
                                               ["functor", "in.kz", "--side", "H"])]
    assert all("invalid choice" in e for e in errors)
    # an unknown command, or none, goes to the full parser
    assert "invalid choice: 'no-such-command'" in _parsed(full, ["no-such-command"])


KZ_TEXTS = [p.read_text() for p in sorted(presentations_dir().glob("*.kz"))]


@st.composite
def mutated_kz(draw):
    """A shipped presentation text with a few tokens deleted, duplicated or
    swapped, and stray arrows, vertices or fraction coefficients inserted."""
    text = re.sub(r"#[^\n]*", "", draw(st.sampled_from(KZ_TEXTS)))
    tokens = re.findall(r"\n|->|[:;*+/-]|\w+", text)
    names = sorted({t for t in tokens if t.isalnum()}) + ["9", "q"]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "arrow", "vertex",
                                     "coefficient"]))
        if kind == "delete":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == "arrow":
            src, tgt = draw(st.sampled_from(names)), draw(st.sampled_from(names))
            tokens[i:i] = [draw(st.sampled_from(names)), ":", src, "->", tgt]
        elif kind == "vertex":
            tokens.insert(i, draw(st.sampled_from(names)))
        else:       # in front of a relation term where there is one
            starts = [k for k in range(1, len(tokens)) if tokens[k - 1] in "\n;+-"
                      and "relations" in tokens[:k]]
            k = draw(st.sampled_from(starts)) if starts else i
            tokens[k:k] = [draw(st.sampled_from(["0", "1", "2", "3"])), "/",
                           draw(st.sampled_from(["0", "2", "3"])), "*"]
    return " ".join(tokens)


def test_kz_parser_exits_cleanly(tmp_path, capsys):
    # a mangled presentation ends in exit 0 or 1, never a traceback
    path = tmp_path / "input.kz"

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(mutated_kz(), st.sampled_from(["rationals", "2", "3"]))
    def check(text, field):
        path.write_text(text)
        for argv in (["dual", str(path)],
                     ["check-koszul", str(path), "-N", "2", "--window", "0", "3"]):
            code, out, err = run(capsys, *argv, "--field", field)
            assert code in (0, 1) and "Traceback" not in out + err

    check()
