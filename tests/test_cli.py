import hashlib
import itertools
import json
import os
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reslat.cli import _TABLE_FACTS, _table_facts_hold, main
from reslat.documents import document_to_algebra, dumps_canonical, algebra_to_document
from reslat.identities import NAMED_IDENTITIES
from reslat import ReslatError, lukasiewicz, vs_b, vs_c, vs_k_triple, with_zero


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_verify_pass_and_fail(capsys):
    code, _ = run(capsys, "verify", "VS.C", "--flags", "chain,commutative,integral")
    assert code == 0
    code, report = run_json(capsys, "verify", "VS.B", "--flags", "zero-bounded")
    assert code == 1
    assert report["checks"][0]["flag"] == "zero-bounded"


def test_verify_partial_algebra_document(tmp_path, capsys):
    from reslat import vs_k_triple

    path = tmp_path / "k.json"
    path.write_text(dumps_canonical(algebra_to_document(vs_k_triple().K)))
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0 and report["ok"]


# sha256 of json.dumps([stdout, stderr]) and the exit code of ``reslat <argv>``
# at 80 columns, as Python 3.11's argparse formats them: the top-level help and
# errors, each subcommand's help and one usage error per subcommand
_PARSER_OUTPUT = [
    ("", 2, "67ab82ff0c0cc46767d61f3a5990e8e8ed793262250ad190c74da5de496aee22"),
    ("--help", 0, "9e7dde1e01b8a33a56688daf4272a89f8233807d757396b66ba723d59c0ccb9f"),
    ("bogus", 2, "5aefe05919388d8541d331b46d8f2aab4d1cc1cc963439394ddca26ee5f10ea4"),
    ("verify --help", 0, "31d0aaaef417625445230fdf3d769c09a20c1c7e60103aa13c7812e91723cb09"),
    ("identity --help", 0, "dbc2dd08ccf2e9a68755027b4e0027bae1a25a307d4d658810e7c35754cff128"),
    ("construct --help", 0, "a99db3255f1774b8ae26d9905f12bb71dca6fc3ccca1829a5b0cfce8b18f0334"),
    ("embed --help", 0, "56b795dc8294bc72aa0f44d94ee092a99093ce18c2b600ee9e82cbe42c53682b"),
    ("filters --help", 0, "41a0eb2a86f5577854b8d35a233a1f022265e53323dfa2ffe13fdfad5f0d9acb"),
    ("quotient --help", 0, "ef8e3f6d5cc307673b87a4348d3af6c36c5967a6c2cb532e22629859b40d2a1a"),
    ("enumerate --help", 0, "f80821c89f1dd7ae4f05449fb2f4a4875e0927bd11456de826255dd00690fd8c"),
    ("amalgam --help", 0, "fd918ab9a9f2b7d768e5275845eb75ef521f3e2f5df18eb34f3c5be22d89395a"),
    ("one-amalgam --help", 0, "64f89cfca2e30e366e6e0c1e8adfc01b060887a8b6db76176f161ec95a469dd0"),
    ("obstruct --help", 0, "6c72f800258ed464ae44617b9d873301edd678129aa2f2563d4e63ce1ba54edf"),
    ("paper --help", 0, "cb9fdfd5d6e5c9fe91eda2e60a6554a1281afa40b3012b14b240cdc9e0879ceb"),
    ("verify", 2, "22e382344ceeb11fd21a5c1b523138d65c3ac1f42fab77e3518d434ac2b787e6"),
    ("identity VS.C", 2, "0a95425722e17c69c420b5c77cef50bd3af2a4224bb7be37db4a9649316995d8"),
    ("construct", 2, "6308ac6650855dc86ed5e0c2f70bd241b523d9c7d68f89ce5c3ce111cd8ee214"),
    ("embed VS.A", 2, "18cc72f93e224873b39bcb16463eee413c1668be8da32f35db98e9eca9b1bf0c"),
    ("filters", 2, "39b10e68bc5201902200febbf17c0a793b6593a13cc86365bfa738b6305da534"),
    ("quotient VS.B", 2, "cdd010ccc57fc6510016c0ad5489fefe476be5e7d006cfbaf61cd5125b190f33"),
    ("enumerate --count", 2, "e8301e1719914e3186b05a09af7e16d18597b3eb73505ee738bbd709604477c3"),
    ("amalgam --max-size 9", 2, "8613827481bafee3cfe0b7e10d91d12a44f7a426e28cb36847992f78acb66700"),
    ("one-amalgam --vf VS --bogus", 2, "fc9b398391c0757493e73a0ee43f493ec89dd006555739263f71592f5e557c79"),
    ("obstruct --vf", 2, "8d536448bdd6af64a7b09e74022a164bdc75a36b58c7458d6e3048d8f52fc886"),
    ("paper --max-size x", 2, "44572477fbd8a3bcc0e4230dd19b50b65ad13ce179bf8abebc9b538ec9a3c5bc"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests of Python 3.11's argparse output")
@pytest.mark.parametrize("argv, code, digest", _PARSER_OUTPUT, ids=[argv or "(none)" for argv, _, _ in _PARSER_OUTPUT])
def test_parser_output_is_pinned(capsys, monkeypatch, argv, code, digest):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(json.dumps([out, err]).encode()).hexdigest() == digest, out + err


def test_a_subcommand_gets_its_arguments_only_when_it_runs(capsys, monkeypatch):
    """``reslat paper`` adds arguments to the paper parser alone (each
    parser's own ``-h`` aside), and a parser set up once parses again."""
    import argparse

    from reslat.cli import build_parser

    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(parser, *args, **kwargs):
        if args != ("-h", "--help"):
            added.append(parser.prog)
        return add_argument(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    assert main(["paper", "--max-size", "10", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert set(added) == {"reslat paper"}
    parser = build_parser()
    assert [parser.parse_args(["paper", "--max-size", n]).max_size for n in ("9", "11")] == [9, 11]


def test_only_the_subcommand_that_runs_gets_a_parser(capsys, monkeypatch):
    """``reslat paper`` builds the top-level parser and the paper parser,
    ``reslat --help`` the top-level one alone, and one top-level parser
    parses a subcommand more than once."""
    import argparse

    from reslat.cli import build_parser

    built = []
    init = argparse.ArgumentParser.__init__

    def spy(parser, *args, **kwargs):
        init(parser, *args, **kwargs)
        built.append(parser.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["paper", "--max-size", "10", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert built == ["reslat", "reslat paper"]
    built.clear()
    assert main(["--help"]) == 0
    assert "paper" in capsys.readouterr().out
    assert built == ["reslat"]
    parser = build_parser()
    argv = ["paper", "--max-size", "10", "--format", "json"]
    assert [parser.parse_args(argv).max_size for _ in range(2)] == [10, 10]


def test_identity_exit_codes(capsys):
    code, report = run_json(capsys, "identity", "VS.C", "--id", "div")
    assert code == 1
    assert report["assignment"] == {"x": 3, "y": 2}
    code, _ = run(capsys, "identity", "VS.C", "--id", "prel")
    assert code == 0
    code, _ = run(capsys, "identity", "VS.B", "--id", "x*1 = x")
    assert code == 0
    code, out = run(capsys, "identity", "--help")
    named = " ".join(out.split()).split("a named one (", 1)[1].split(")", 1)[0]
    assert code == 0 and named == ", ".join([*NAMED_IDENTITIES, "potent:n"])


def test_identity_with_zero_flag(capsys):
    code, _ = run(capsys, "identity", "lukasiewicz(3)", "--id", "inv", "--zero", "0")
    assert code == 0


def test_variable_free_failure_has_no_assignment_prefix(capsys):
    argv = ("identity", "lukasiewicz(3)", "--id", "0 >= 1", "--zero", "0")
    assert run(capsys, *argv) == (1, "0 >= 1 on L3: FAILS\n  least failing assignment: values 0 , 1\n")
    code, report = run_json(capsys, *argv)
    assert code == 1 and report["assignment"] == {} and report["detail"] == "values 0 , 1"
    code, report = run_json(capsys, "identity", "VS.C", "--id", "div")
    assert report["detail"] == "x=v, y=c: values c , d , d"  # a variable keeps its prefix


def test_construct_outputs_canonical_document(capsys):
    code, report = run_json(capsys, "construct", "ordinal-sum", "--lower", "lukasiewicz(3)", "--upper", "two")
    assert code == 0
    alg = document_to_algebra(report["algebra"])
    assert alg.product == vs_b().product

    code, report = run_json(capsys, "construct", "builtin", "--name", "VS.C")
    assert code == 0
    assert document_to_algebra(report["algebra"]).ldiv == vs_c().ldiv

    code, report = run_json(capsys, "construct", "gluing", "--upper", "two")
    assert code == 0
    assert document_to_algebra(report["algebra"]).product == vs_c().product

    code, report = run_json(capsys, "construct", "rotation", "--base", "trivial", "--nucleus", "identity", "--levels", "4")
    assert code == 0
    assert document_to_algebra(report["algebra"]).product == lukasiewicz(4).product


def test_embed_and_filters(capsys):
    code, report = run_json(capsys, "embed", "VS.A", "VS.B")
    assert code == 0 and report["embeddings"] == [[0, 2, 3]]
    code, _ = run(capsys, "embed", "VS.B", "VS.A")
    assert code == 1
    code, report = run_json(capsys, "filters", "VS.B")
    assert code == 0 and report["filters"] == [[3], [2, 3], [0, 1, 2, 3]]


def test_quotient_command(capsys):
    code, report = run_json(capsys, "quotient", "VS.B", "--filter", "2,3")
    assert code == 0
    assert document_to_algebra(report["algebra"]).product == lukasiewicz(3).product
    code, _ = run(capsys, "quotient", "VS.B", "--filter", "1,3")
    assert code == 2  # not a filter
    for members in ("1,x", ",,"):
        assert main(["quotient", "VS.B", "--filter", members]) == 2
        assert capsys.readouterr().err == "error: --filter needs a comma list of member indices\n"


def test_enumerate_command(capsys):
    code, report = run_json(capsys, "enumerate", "--size", "3", "--flags", "integral,commutative", "--count")
    assert code == 0 and report["count"] == 2
    code, report = run_json(capsys, "enumerate", "--size", "3", "--flags", "integral,commutative")
    assert code == 0 and len(report["algebras"]) == 2
    code, report = run_json(capsys, "enumerate", "--size", "4", "--flags", "integral", "--limit", "3")
    assert code == 0 and len(report["algebras"]) == 3


def test_amalgam_rejects_bad_bounds(capsys):
    assert main(["amalgam", "--vf", "VS", "--max-size", "0"]) == 2


def test_amalgam_commands(capsys):
    for command in ("amalgam", "one-amalgam"):
        code, out = run(capsys, command, "--vf", "VS", "--max-size", "6", "--format", "json")
        assert code == 1 and json.loads(out)["search"]["verdict"] == "UNSAT"
        assert run(capsys, command, "--vf", "VS", "--max-size", "6", "--format", "json") == (code, out)
        code, out = run(capsys, command, "--vf", "VS", "--max-size", "7", "--flags", "commutative,integral,potent:2")
        assert code == 1 and out.startswith(f"{command} search for VS: UNSAT (bound 7, ")


def test_amalgam_with_rotation(capsys):
    code, report = run_json(capsys, "amalgam", "--vf", "VS", "--rotate", "const-1:2", "--max-size", "7")
    assert code == 1 and report["search"]["verdict"] == "UNSAT"


def test_obstruct_command(capsys):
    code, found = run_json(capsys, "obstruct", "--vf", "VS")
    assert code == 0
    assert found["witness"] == [1, 1, 2, 0, 0, "LEFT"]
    code, report = run_json(capsys, "obstruct", "--vf", "VS", "--check", "1,1,2,0,0,LEFT")
    assert code == 0 and report["accepted"]
    code, rejected = run_json(capsys, "obstruct", "--vf", "VS", "--check", "1,1,2,1,0")
    assert code == 1 and rejected["clause"] == "W2"
    # one report, whether the witness was found or given
    assert list(found) == list(report) == list(rejected)
    for r in (found, report, rejected):
        assert r["accepted"] == (r["clause"] is None)


def test_obstruct_without_a_witness_exits_1(tmp_path, capsys):
    from reslat import VFormation, trivial, vformation_to_document

    path = tmp_path / "trivial.json"
    vf = VFormation(trivial(), trivial(), trivial(), (0,), (0,))
    path.write_text(dumps_canonical(vformation_to_document(vf)))
    code, report = run_json(capsys, "obstruct", "--vf", str(path))
    assert code == 1 and report["witness"] is None
    code, out = run(capsys, "obstruct", "--vf", str(path))
    assert code == 1 and out == "no obstruction witness found (this proves nothing by itself)\n"


def test_vformation_from_file(tmp_path, capsys):
    from reslat import vs_formation, vs_k_triple
    from reslat import vformation_to_document

    doc = vformation_to_document(vs_formation())
    path = tmp_path / "vf.json"
    path.write_text(dumps_canonical(doc))
    code, report = run_json(capsys, "amalgam", "--vf", str(path), "--max-size", "5")
    assert code == 1

    # j = [0, 2, 4] sends v to c, which does not preserve the product
    not_embedding = dict(doc, j=[0, 2, 4])
    # the masked K of the triple is a partial algebra, not a chain to amalgamate
    masked_c = dict(doc, C=algebra_to_document(vs_k_triple().K), j=[0, 2, 3])
    not_a_map = dict(doc, j=[0, 3, "1"])
    # a name that is no string is refused, not echoed into the report
    names = [(f"name_{type(v).__name__}", dict(doc, name=v)) for v in (5, ["x"], None)]
    for name, bad in (("not_embedding", not_embedding), ("masked_c", masked_c), ("not_a_map", not_a_map), *names):
        bad_path = tmp_path / f"{name}.json"
        bad_path.write_text(dumps_canonical(bad))
        assert main(["amalgam", "--vf", str(bad_path), "--max-size", "7"]) == 2
        assert main(["one-amalgam", "--vf", str(bad_path), "--max-size", "6"]) == 2
        assert main(["obstruct", "--vf", str(bad_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and (not name.startswith("name_") or err == "error: V-formation name must be a string\n" * 3)

    # each fault of a map is named as what it is
    for bad, fault in (
        (dict(doc, i=[0]), "map of length 1 on 3 elements"),
        (dict(doc, i=[0, 1, 9]), "image 9 out of range 0..3"),
        ({"A": "two", "B": "two", "C": "two", "i": [1, 1], "j": [0, 1]}, "two elements share an image"),
    ):
        bad_path = tmp_path / "bad_map.json"
        bad_path.write_text(dumps_canonical(bad))
        assert main(["obstruct", "--vf", str(bad_path)]) == 2
        assert capsys.readouterr().err == f"error: invalid V-formation: i: FAIL ({fault})\n"

    # a pointed search needs the 0 of B and C at the bottom
    from reslat import VFormation, find_embeddings, godel, trivial

    zero_inside = with_zero(godel(3), 1)
    i = find_embeddings(trivial(), zero_inside)[0]
    path = tmp_path / "zero_inside.json"
    path.write_text(dumps_canonical(vformation_to_document(VFormation(trivial(), zero_inside, zero_inside, i, i))))
    assert main(["amalgam", "--vf", str(path), "--max-size", "6"]) == 0  # FOUND
    assert main(["amalgam", "--vf", str(path), "--max-size", "6", "--flags", "pointed"]) == 2


def test_index_order_arrays_in_a_vformation_document(tmp_path, capsys):
    from reslat import vformation_to_document, vs_formation

    doc = vformation_to_document(vs_formation())
    for key in ("A", "B", "C"):
        n = doc[key]["size"]
        doc[key]["order"] = [[int(x <= y) for y in range(n)] for x in range(n)]
    path = tmp_path / "vs_arrays.json"
    path.write_text(dumps_canonical(doc))
    code, report = run_json(capsys, "amalgam", "--vf", str(path), "--max-size", "9")
    vs_code, vs_report = run_json(capsys, "amalgam", "--vf", "VS", "--max-size", "9")
    assert code == vs_code == 1
    assert report["search"] == vs_report["search"]


def test_a_chain_out_of_index_order_is_refused(tmp_path, capsys):
    from reslat import (
        UnsupportedError,
        VFormation,
        bounded_amalgam_search,
        godel,
        make_algebra,
        trivial,
        vformation_to_document,
    )

    g3, perm = godel(3), (2, 0, 1)  # index x holds the element perm[x] of G3
    back = {e: x for x, e in enumerate(perm)}
    shuffled = make_algebra(
        product=[[back[g3.product[perm[x]][perm[y]]] for y in range(3)] for x in range(3)],
        unit=back[g3.unit],
        order=[[perm[x] <= perm[y] for y in range(3)] for x in range(3)],
    )
    assert shuffled.leq is not None  # a total order, but not the index order
    vf = VFormation(trivial(), shuffled, g3, (back[g3.unit],), (g3.unit,))
    with pytest.raises(UnsupportedError):
        bounded_amalgam_search(vf, 5)
    path = tmp_path / "shuffled.json"
    path.write_text(dumps_canonical(vformation_to_document(vf)))
    assert main(["amalgam", "--vf", str(path), "--max-size", "5"]) == 2


def test_builtin_vformation_names(capsys):
    assert main(["amalgam", "--vf", "VS.pointed", "--flags", "pointed", "--max-size", "9"]) == 1
    assert main(["amalgam", "--vf", "VS.nope", "--max-size", "9"]) == 2


@pytest.mark.parametrize("check", ["1,1,2,0", "9,9,9,9,9", "1,1,2,0,0,UP", "x,1,2,0,0"])
def test_malformed_obstruction_checks_exit_2(capsys, check):
    assert main(["obstruct", "--vf", "VS", "--check", check]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if check in ("1,1,2,0", "x,1,2,0,0"):  # not five or six fields, or a field that is no integer
        assert err == "error: --check needs a,b,c,u1,u2[,side]\n"


def test_verify_with_zero_and_the_triple_builtin(capsys):
    code, report = run_json(capsys, "verify", "VS.B", "--zero", "0")
    assert code == 0 and report["ok"]
    code, report = run_json(capsys, "construct", "builtin", "--name", "VS.K_triple")
    assert code == 0 and "masks" in report["triple"]["K"]


def test_builtin_option_spelling(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "VS.B", "--builtin", "VS.C"]) == 2


def test_construct_nucleus_image(capsys):
    code, report = run_json(capsys, "construct", "nucleus-image", "--base", "VS.A", "--nucleus", "const-1")
    assert code == 0
    assert document_to_algebra(report["algebra"]).size == 1


def test_usage_and_format_errors(tmp_path, capsys, monkeypatch):
    from reslat import cli, vs_k_triple

    assert main(["verify", "no-such-algebra"]) == 2
    assert main(["identity", "VS.B", "--id", "x +* y = x"]) == 2
    assert main(["identity", "VS.B", "--id", "x² = x*x"]) == 2
    assert main(["identity", "VS.B", "--id", "é = 1"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["identity", "VS.B", "--id", "inv"]) == 2  # unpointed
    assert main(["verify", "VS.K_triple"]) == 2  # a triple, not an algebra
    for argv in (
        ["construct", "builtin"],  # no --name
        ["construct", "ordinal-sum", "--lower", "two"],  # no --upper
        ["construct", "gluing"],  # no --upper
        ["construct", "rotation"],  # no --base
        ["construct", "nucleus-image"],  # no --base
        ["construct", "builtin", "--name", "VS.K_triple", "--zero", "0"],  # --zero names an algebra element
        ["enumerate", "--size", "3", "--limit", "-1"],
        ["enumerate", "--size", "3", "--flags", "potent:0"],  # k-potency needs k >= 1
        ["enumerate", "--size", "3", "--flags", "potent:-3", "--count"],
        ["paper", "--budget", "-1"],
        # terms too deep to walk: 400 parentheses, 3,000 factors, 3,000 negations, x^3001
        ["identity", "VS.B", "--id", "(" * 400 + "x" + ")" * 400 + " = x"],
        ["identity", "VS.B", "--id", " * ".join(["x"] * 3000) + " = x"],
        ["identity", "VS.B", "--zero", "0", "--id", "neg " * 3000 + "x = x"],
        ["identity", "VS.B", "--id", "potent:3000"],
    ):
        assert main(argv) == 2, argv
    for search in ("bounded_amalgam_search", "bounded_one_amalgam_search"):
        monkeypatch.setattr(cli, search, lambda *args: pytest.fail("a search ran"))
    for command, flags in itertools.product(("amalgam", "one-amalgam"), ("potent:0", "potent:x", "bogus")):
        assert main([command, "--vf", "VS", "--flags", flags]) == 2, (command, flags)
    k = tmp_path / "k.json"
    k.write_text(dumps_canonical(algebra_to_document(vs_k_triple().K)))
    assert main(["verify", str(k)]) == 0
    assert main(["verify", str(k), "--flags", "zero-bounded"]) == 2  # flags are for total algebras
    assert main(["verify", str(k), "--flags", "bogus"]) == 2
    # a 3-element order whose two atoms have no join
    v = tmp_path / "v.json"
    v.write_text(
        '{"labels":["e0","e1","e2"],"ldiv":[[1,1,1],[1,1,1],[1,1,1]],"name":"V",'
        '"order":[[1,1,1],[0,1,0],[0,0,1]],"product":[[0,0,0],[0,1,2],[0,2,2]],'
        '"rdiv":[[1,1,1],[1,1,1],[1,1,1]],"size":3,"unit":1}'
    )
    assert main(["identity", str(v), "--id", "x /\\ y = y /\\ x"]) == 2
    assert main(["filters", str(v)]) == 2
    assert main(["verify", str(v)]) == 1  # verify reports the failure itself


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identity", "VS.B", "--id", "x ="], "unexpected end of input at position 3"),
        (["identity", "VS.B", "--id", "(x = x"], "expected ')' at position 3"),
        (["identity", "VS.B", "--id", "x"], "expected '=' or '>=' at position 1"),
        (["identity", "VS.B", "--id", "potent:x"], "potent:n needs an integer at position 0"),
        (["construct", "rotation", "--base", "VS.A", "--nucleus", "foo"], "unknown nucleus name 'foo'"),
        (["construct", "builtin", "--name", "godel(0)"], "need n >= 1"),
        (["amalgam", "--vf", "{vf_with_triple}"], "builtin 'VS.K_triple' is not an algebra"),
        (["obstruct", "--vf", "VS", "--check", "0,9,2,0,0"], "witness field b or c out of range"),
        (["filters", "{k}"], "'{k}' is a partial algebra where a total one is needed"),
        (["verify", "{k}", "--zero", "0"], "--zero applies to total algebras"),
    ],
)
def test_usage_errors_name_their_fault(tmp_path, capsys, argv, message):
    from reslat import vformation_to_document, vs_formation

    paths = {"k": tmp_path / "k.json", "vf_with_triple": tmp_path / "vf.json"}
    paths["k"].write_text(dumps_canonical(algebra_to_document(vs_k_triple().K)))
    paths["vf_with_triple"].write_text(dumps_canonical(dict(vformation_to_document(vs_formation()), C="VS.K_triple")))
    assert main([arg.format_map(paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message.format_map(paths)}\n"


def test_construct_designates_a_zero(capsys):
    from reslat import ordinal_sum, two

    argv = ("construct", "ordinal-sum", "--lower", "lukasiewicz(3)", "--upper", "two", "--zero", "0")
    code, out = run(capsys, *argv)
    assert code == 0 and '"zero":0' in out
    assert out == dumps_canonical(algebra_to_document(with_zero(ordinal_sum(lukasiewicz(3), two()), 0))) + "\n"


def test_enumerate_rejects_sizes_beyond_one_byte_per_cell(capsys):
    for argv in (["enumerate", "--size", "100000", "--count"], ["enumerate", "--size", "257"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "size must be at most 256" in err and "Traceback" not in err


def test_searches_reject_bounds_beyond_one_byte_per_cell(capsys):
    for argv in (["amalgam", "--vf", "VS"], ["one-amalgam", "--vf", "VS"], ["paper"]):
        assert main(argv + ["--max-size", "257"]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "above 256" in err and "Traceback" not in err, argv


def test_an_empty_rotation_spec_is_a_usage_error(capsys):
    for argv in (["amalgam", "--vf", "VS"], ["one-amalgam", "--vf", "VS"], ["obstruct", "--vf", "VS"]):
        assert main(argv + ["--rotate", ""]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == "error: rotation spec '' must look like identity:2\n", argv


def test_budget_exit_code(capsys):
    vf = "VS"
    code = main(["enumerate", "--size", "6", "--flags", "integral", "--count"])  # big but fine
    assert code == 0
    code = main(
        ["amalgam", "--vf", "VS", "--max-size", "5", "--budget", "0"]
    )  # every order type of VS is refuted before the engine runs: UNSAT
    assert code == 1


@pytest.mark.parametrize("budget", ["0", "1", "-1"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["amalgam", "--vf", "VS", "--max-size", "10"], 1),
        (["one-amalgam", "--vf", "VS", "--max-size", "10"], 1),
        (["paper", "--max-size", "10"], 0),
    ],
)
def test_tiny_and_negative_budgets_exit_cleanly(capsys, argv, code, budget):
    # every VS order type is refuted before the engine runs, so budgets of
    # 0 and 1 still decide; a negative budget is a usage error
    assert main(argv + ["--budget", budget]) == (2 if budget == "-1" else code)
    assert "Traceback" not in capsys.readouterr().err


def test_output_file_is_atomic(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify", "VS.B", "--format", "json", "--output", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["ok"] is True
    assert not list(tmp_path.glob("*.tmp"))
    with open(tmp_path / "plain.json", "w"):
        pass
    assert os.stat(target).st_mode == os.stat(tmp_path / "plain.json").st_mode


def test_an_unwritable_output_names_the_target_not_the_temp_file(tmp_path, capsys):
    """A missing directory and an existing directory as ``--output``."""
    (tmp_path / "dir").mkdir()
    for target in (tmp_path / "missing" / "x.json", tmp_path / "dir"):
        assert main(["filters", "VS.B", "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert repr(str(target)) in err and ".tmp" not in err, err
        assert not list(tmp_path.rglob("*.tmp"))


def test_paper_command_small_bound(capsys, monkeypatch):
    small = ("paper", "--max-size", "6", "--rotations", "const-1:2", "--format", "json")
    code, out = run(capsys, *small)
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert run(capsys, *small) == (code, out)
    names = [s["step"] for s in report["steps"]]
    assert any("obstruction witness" in s for s in names)
    # the identity rotation never ran, so no conclusion speaks of it
    assert len(report["conclusions"]) == 4
    assert not [c for c in report["conclusions"] if "identity nucleus" in c]
    # the least bound is the largest B or C, refused before any step: the
    # identity:2 rotation's C has 10 elements, the const-1:2 rotation's 6
    from reslat import cli

    monkeypatch.setattr(cli, "validate", lambda *args: pytest.fail("a step ran"))
    for argv, need in ((["--max-size", "9"], 10), (["--max-size", "5", "--rotations", "const-1:2"], 6)):
        assert main(["paper", *argv]) == 2
        assert capsys.readouterr().err == f"error: the pipeline needs max-size >= {need}\n"
    assert main(["paper", "--rotations", ""]) == 2
    assert capsys.readouterr().err == "error: rotation spec '' must look like identity:2\n"


def test_paper_text_output_is_pinned(capsys):
    code, out = run(capsys, "paper", "--max-size", "10")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "15d10faf612efd38029e15423a05655de1c9d85ed31ee172696c8a5263202832"


def test_the_module_entry_point_reproduces_the_paper():
    """``python -m reslat.cli paper`` in a fresh interpreter, as a user runs it."""
    import subprocess

    import reslat

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(reslat.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "reslat.cli", "paper", "--max-size", "10", "--format", "json"]
    done = subprocess.run(argv, capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256(done.stdout).hexdigest()
    assert digest == "2cb6868b4530d081a245746fabfd73689d1af9503dbd74479e25d43e13cf2da0"


def test_paper_without_a_witness_fails_in_both_outputs(capsys, monkeypatch):
    from reslat import cli

    monkeypatch.setattr(cli, "find_obstruction", lambda vf: None)
    code, report = run_json(capsys, "paper", "--max-size", "10")
    assert code == 1 and report["ok"] is False
    failed = [s["step"] for s in report["steps"] if not s["ok"]]
    assert len(failed) == 5  # the VS, pointed and rotation witnesses and the certificate
    assert "witness certified (both orderings refuted by residuation)" in failed
    assert "obstruction trace" not in [s["step"] for s in report["steps"]]
    code, out = run(capsys, "paper", "--max-size", "10")
    assert code == 1
    lines = out.splitlines()
    assert not [line for line in lines if line.startswith("    ")]
    assert lines[-1] == "overall: FAIL"
    fail_lines = [line for line in lines if line.startswith("[FAIL] ")]
    assert len(fail_lines) == len(failed)
    for line, name in zip(fail_lines, failed):
        assert line == f"[FAIL] {name}" or line.startswith(f"[FAIL] {name}: "), (line, name)
    assert report["conclusions"] == []
    assert "  none: 5 steps failed" in lines
    assert "rules out every size" not in out


def test_paper_shows_no_trace_of_a_rejected_certificate(capsys, monkeypatch):
    from reslat import cli
    from reslat.amalgamation import ObstructionCheck

    monkeypatch.setattr(cli, "check_obstruction", lambda vf, w: ObstructionCheck("W2", ("REJECT(W2)", "  W1: ...")))
    code, report = run_json(capsys, "paper", "--max-size", "10")
    assert code == 1 and report["conclusions"] == []
    failed = {s["step"]: s["detail"] for s in report["steps"] if not s["ok"]}
    assert failed == {
        "witness certified (both orderings refuted by residuation)": "REJECT(W2)",
        "pointed variant (u designated 0): same witness": "",
        "rotation identity:2: obstruction witness exists": "(4, 5, 7, 3, 3, 'LEFT')",
        "rotation const-1:2: obstruction witness exists": "(2, 2, 3, 1, 1, 'LEFT')",
    }
    assert "obstruction trace" not in [s["step"] for s in report["steps"]]
    code, out = run(capsys, "paper", "--max-size", "10")
    assert code == 1 and not [line for line in out.splitlines() if line.startswith("    ")]
    assert "[FAIL] witness certified (both orderings refuted by residuation): REJECT(W2)" in out.splitlines()


@pytest.mark.parametrize(
    "delta_name, called, named", [("const-1", "Stone identity", "stone"), ("identity", "involution", "inv")]
)
def test_paper_rotation_step_checks_for_bounded_chains(capsys, monkeypatch, delta_name, called, named):
    """A rotated C without its 0 is no bounded chain, though it is still a
    V-formation: the components step fails, and so does the negation
    identity on C, which has no 0 to negate to."""
    from reslat import check_vformation, cli

    rotate = cli.rotated_vformation

    def without_zero_in_c(vf, name, levels):
        rvf = rotate(vf, name, levels)
        return rvf._replace(C=with_zero(rvf.C, None))

    assert check_vformation(without_zero_in_c(cli.vs_formation(), delta_name, 2)).ok
    monkeypatch.setattr(cli, "rotated_vformation", without_zero_in_c)
    tag = f"rotation {delta_name}:2"
    code, report = run_json(capsys, "paper", "--max-size", "10", "--rotations", f"{delta_name}:2")
    assert code == 1 and report["ok"] is False and report["conclusions"] == []
    assert [(s["step"], s["detail"]) for s in report["steps"] if not s["ok"]] == [
        (f"{tag}: components validate (bounded chains)", "C: zero-bounded: no zero constant"),
        (f"{tag}: {called} {NAMED_IDENTITIES[named]} on VS.C^{delta_name}:2", "negation on an unpointed algebra"),
    ]


def test_paper_refuses_a_repeated_rotation(capsys, monkeypatch):
    from reslat import PreconditionError, cli

    monkeypatch.setattr(cli, "validate", lambda *args: pytest.fail("a step ran"))
    repeats = (("identity:2,identity:2", "identity:2"), ("const-1:2,identity:3,const-1:02", "const-1:2"))
    for rotations, repeated in repeats:
        assert main(["paper", "--rotations", rotations]) == 2
        assert capsys.readouterr() == ("", f"error: rotation {repeated} is given twice\n")
    with pytest.raises(PreconditionError, match="^rotation identity:2 is given twice$"):
        cli.paper_report(10, [("identity", 2), ("const-1", 2), ("identity", 2)])


def test_paper_checks_each_rotated_component_once(monkeypatch):
    """A paper round runs the residuation check of each rotated component
    once, in its rotation's step; building the rotation checks nothing."""
    from reslat import amalgamation, cli, constructions, identities

    rotated, checked = [], []
    rotate, validate = cli.rotated_vformation, cli.validate
    monkeypatch.setattr(cli, "rotated_vformation", lambda *args: rotated.append(rotate(*args)) or rotated[-1])

    def spy(alg, *args, **kwargs):
        report = validate(alg, *args, **kwargs)
        checked.extend(alg for check in report.checks if check.flag == "residuation")
        return report

    for module in (amalgamation, cli, constructions, identities):
        monkeypatch.setattr(module, "validate", spy)
    assert cli.paper_report(10)["ok"]
    components = [alg for rvf in rotated for alg in (rvf.A, rvf.B, rvf.C)]
    assert len(components) == 6
    assert [sum(alg is seen for seen in checked) for alg in components] == [1] * 6


@pytest.mark.parametrize(
    "alg, facts, cells",
    [
        # B = u, b, v, 1: v*b, b*b, b\u, v\b, v\u
        (vs_b(), _TABLE_FACTS[0], {("product", 2, 1), ("product", 1, 1), ("ldiv", 1, 0), ("ldiv", 2, 1), ("ldiv", 2, 0)}),
        # C = u, d, c, v, 1: v*c, v*d, c*c, c\u, v\c, v\d, v\u, c\d
        (
            vs_c(),
            _TABLE_FACTS[1],
            {("product", 3, 2), ("product", 3, 1), ("product", 2, 2)}
            | {("ldiv", 2, 0), ("ldiv", 3, 2), ("ldiv", 3, 1), ("ldiv", 3, 0), ("ldiv", 2, 1)},
        ),
    ],
)
def test_paper_table_facts_read_the_cells_they_name(alg, facts, cells):
    checked = "".join(facts)
    assert _table_facts_hold(alg, checked)
    caught = set()
    for table in ("product", "ldiv"):
        for x, y in itertools.product(range(alg.size), repeat=2):
            rows = [list(row) for row in getattr(alg, table)]
            rows[x][y] = (rows[x][y] + 1) % alg.size
            if not _table_facts_hold(alg._replace(**{table: tuple(map(tuple, rows))}), checked):
                caught.add((table, x, y))
    assert caught == cells


_DOCUMENTS = (algebra_to_document(with_zero(vs_b(), 0)), algebra_to_document(vs_k_triple().K))
_FIELDS = ("name", "size", "labels", "order", "unit", "product", "ldiv", "rdiv", "zero", "masks")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 5) | st.sampled_from(["", "0", "1", "chain"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["product", "ldiv", "rdiv", "x"]), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from(range(len(_DOCUMENTS))), field=st.sampled_from(_FIELDS), value=_JSON_VALUES)
@example(base=0, field="product", value=[0, 1, 2, 3])
@example(base=0, field="labels", value=5)
@example(base=0, field="unit", value="1")
@example(base=0, field="zero", value="0")
@example(base=0, field="unit", value=True)
@example(base=1, field="masks", value={"product": 1, "ldiv": 2, "rdiv": 3})
@example(base=1, field="masks", value={"product": [1, 1, 1, 1], "ldiv": 2, "rdiv": 3})
def test_malformed_documents_exit_2_without_a_traceback(base, field, value):
    doc = dict(_DOCUMENTS[base], **{field: value})
    try:
        document_to_algebra(doc)
        loads = True
    except ReslatError:
        loads = False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alg.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        codes = (main(["verify", path]), main(["identity", path, "--id", "x = x"]))
    assert all(code in (0, 1, 2) for code in codes)
    if not loads:
        assert codes == (2, 2)
