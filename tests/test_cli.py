import argparse
import importlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from walgebras import cli, wclassical
from walgebras.cli import main
from walgebras.pva import BracketTable, LambdaPoly
from walgebras.scalars import LinearSolveError, Scalar
from walgebras.spva import SUSYBracketTable
from walgebras.superpoly import Alphabet, ExponentOverflowError, SuperPoly
from walgebras.wclassical import GeneratorError

COMMON = {"algebra", "format", "k"}
# what each subcommand reads from its parsed arguments
READS = {
    "validate": {"algebra", "format"},
    "generators": COMMON,
    "bracket": COMMON | {"i", "j", "route"},
    "bracket-table": COMMON | {"route"},
    "verify": COMMON | {"seed", "suite"},
    "brst-check": COMMON,
    "brst-generators": COMMON,
    "brst-table": COMMON,
    "susy-generators": COMMON,
    "susy-bracket": COMMON | {"i", "j"},
    "susy-verify": COMMON | {"seed", "cross_brst"},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--algebra", "sl2")
    assert code == 0
    assert "valid" in out


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{ nope\n")
    code, _out, err = run(capsys, "validate", "--algebra", str(p))
    assert code == 2
    assert "line" in err


def test_unknown_algebra(capsys):
    code, _out, err = run(capsys, "generators", "--algebra", "nope")
    assert code == 2
    assert "catalog" in err


def test_invalid_algebra_exits_1(tmp_path, capsys):
    import helpers
    from walgebras.liealg import algebra_to_obj
    g = helpers.algebra("sl2")
    obj = algebra_to_obj(g)
    obj["form"][0] = ["0", "0", "2"]  # break (E|F) = 1
    p = tmp_path / "broken_sl2.json"
    p.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", "--algebra", str(p))
    assert code == 1
    assert "violation" in out


def _sl2_obj():
    import helpers
    from walgebras.liealg import algebra_to_obj
    return algebra_to_obj(helpers.algebra("sl2"))


def _append(key, item):
    return lambda obj: obj[key].append(item)


@pytest.mark.parametrize("edit, message", [
    (_append("brackets", {"i": 99, "j": 0, "coeffs": [[0, "1"]]}),
     "bracket index (99, 0) out of range 0..2"),
    (_append("brackets", {"i": 0, "j": -1, "coeffs": [[0, "1"]]}),
     "bracket index (0, -1) out of range 0..2"),
    (lambda obj: obj["brackets"][0]["coeffs"].append([-1, "1"]),
     "coefficient index -1 out of range 0..2"),
    (lambda obj: obj["brackets"][0]["coeffs"].append([0, "1"]),
     "bracket (0, 1): index 0 is repeated"),
    (lambda obj: obj["form"][1].pop(), "form is not 3 x 3"),
    (lambda obj: obj["form"][1].append("0"), "form is not 3 x 3"),
    (lambda obj: obj["sl2"]["H"].pop(), "sl2 vector H has 2 entries, expected 3"),
    (lambda obj: obj["basis"][0].update(parity="Odd"),
     "basis element 'E': parity 'Odd' is not \"even\" or \"odd\""),
    (lambda obj: obj["brackets"][0]["coeffs"][0].__setitem__(1, "abc"),
     "bracket (0, 1): coefficient 'abc' is not a number"),
    (lambda obj: obj["form"][1].__setitem__(1, "1/0"),
     "form row 1: coefficient '1/0' is not a number"),
    (lambda obj: obj["sl2"]["H"].__setitem__(1, "2/0"),
     "sl2 vector H: coefficient '2/0' is not a number"),
], ids=["i", "j", "l", "l-repeated", "form-short-row", "form-long-row", "triple-vector", "parity",
        "bracket-coeff", "form-coeff", "triple-coeff"])
def test_malformed_indices_exit_2(tmp_path, capsys, edit, message):
    obj = _sl2_obj()
    edit(obj)
    p = tmp_path / "malformed_sl2.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", "--algebra", str(p))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj["brackets"][0].update(coeffs=[[0]]),
     "bracket (0, 1): coefficient [0] is not an [index, value] pair"),
    (lambda obj: obj["brackets"][0].update(coeffs=[[0, "1", 2]]),
     "bracket (0, 1): coefficient [0, '1', 2] is not an [index, value] pair"),
    (lambda obj: obj["sl2"].update(E="123"), "sl2 vector E is not a list: '123'"),
    (lambda obj: obj["brackets"][0]["coeffs"][0].__setitem__(0, True),
     "bracket (0, 1): coefficient index True out of range 0..2"),
    (lambda obj: obj["brackets"][0].update(i=True),
     "bracket index (True, 1) out of range 0..2"),
    (lambda obj: obj["basis"][0].update(label=5), "basis label 5 is not a string"),
    (lambda obj: obj.update(name=7), "algebra name 7 is not a string"),
    (lambda obj: obj["basis"][1].update(label="E"), "basis label 'E' is repeated"),
    (lambda obj: obj["form"][0].__setitem__(2, True),
     "form row 0: coefficient True is not a number"),
    (lambda obj: obj["brackets"][0]["coeffs"][0].__setitem__(1, False),
     "bracket (0, 1): coefficient False is not a number"),
    (lambda obj: obj["sl2"]["F"].__setitem__(2, True),
     "sl2 vector F: coefficient True is not a number"),
], ids=["coeff-pair-short", "coeff-pair-long", "vector-string", "true-coeff-index",
        "true-bracket-index", "label-int", "name-int", "label-repeated",
        "true-form-value", "false-bracket-value", "true-vector-value"])
@pytest.mark.parametrize("command", ["validate", "generators"])
def test_malformed_shapes_exit_2(tmp_path, capsys, edit, message, command):
    """Shapes the reader once let through: read character by character, as
    True for 1 (an index or a value), as an int label, or escaping as an
    internal error (exit 3)."""
    obj = _sl2_obj()
    edit(obj)
    p = tmp_path / "malformed_sl2.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, "--algebra", str(p))
    assert (code, out, err) == (2, "", "input error: %s\n" % message)


@pytest.mark.parametrize("k", [[], ["--k", "x/y"]], ids=["k", "bad-k"])
@pytest.mark.parametrize("argv, shown", [
    (["generators"], "sl2 triple"),
    (["bracket-table", "--route", "closed"], "sl2 triple"),
    (["verify"], "sl2 triple"),
    (["susy-generators", "--algebra", "sl2"], "osp(1|2) data"),
    (["brst-check", "--algebra", "sl2"], "osp(1|2) data"),
    (["susy-verify", "--algebra", "sl2"], "osp(1|2) data"),
], ids=["generators", "bracket-table", "verify", "susy-generators",
        "brst-check", "susy-verify"])
def test_missing_triple_exits_2(tmp_path, capsys, argv, shown, k):
    """A command on an algebra without its flavor's triple prints the
    engine's one-line input error and exits 2; the triple is checked before
    --k is read, so a bad level does not change the message. The even
    commands read sl2.json without its sl2 entry, the SUSY ones the catalog
    sl2, which has no osp(1|2) data."""
    if "--algebra" not in argv:
        obj = _sl2_obj()
        del obj["sl2"]
        p = tmp_path / "no_triple_sl2.json"
        p.write_text(json.dumps(obj))
        argv = argv + ["--algebra", str(p)]
    code, out, err = run(capsys, *argv, *k)
    assert (code, out, err) == (2, "", "input error: algebra sl2 carries no "
                                "%s\n" % shown)


@pytest.mark.parametrize("command", ["validate", "generators",
                                     "susy-generators"])
def test_sl2_triple_with_another_H_exits_2(tmp_path, capsys, command):
    """sl21.json with its sl2 block set to (F, -H, E), a valid sl2 triple
    whose H is not the one of the osp(1|2) data: the file is rejected when
    it is read, with one input-error line and exit 2, before any SUSY
    gradings are read."""
    import helpers
    from walgebras.liealg import algebra_to_obj
    g = helpers.algebra("sl21")
    obj = algebra_to_obj(g)
    t = obj["sl2"]
    obj["sl2"] = {"E": t["F"], "H": [str(-int(c)) for c in t["H"]],
                  "F": t["E"]}
    p = tmp_path / "flipped_sl21.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, "--algebra", str(p))
    assert (code, out, err) == (2, "", "input error: sl2 triple and osp(1|2) "
                                "data have different H\n")


def _catalog_obj(name):
    import helpers
    from walgebras.liealg import algebra_to_obj
    return algebra_to_obj(helpers.algebra(name))


def _doubled(obj, key):
    """obj with every coefficient of its form ("form") or of its bracket
    [x_0, x_1] (("brackets", 0, 1)) doubled."""
    if key == "form":
        obj["form"] = [[str(2 * Fraction(c)) for c in row]
                       for row in obj["form"]]
    for entry in obj["brackets"]:
        if key == ("brackets", entry["i"], entry["j"]):
            entry["coeffs"] = [[i, str(2 * Fraction(c))]
                               for i, c in entry["coeffs"]]
    return obj


@pytest.mark.parametrize("name, edit, argv, shown", [
    ("sl2", lambda obj: obj.update(brackets=[]) or obj, ["generators"],
     "sl2: [H,E]=2E fails"),
    ("sl2", lambda obj: obj.update(brackets=[]) or obj, ["verify"],
     "sl2: [H,E]=2E fails"),
    ("sl2", lambda obj: _doubled(obj, "form"), ["generators"],
     "sl2: (E|F)=1 fails"),
    ("osp12", lambda obj: obj["osp"].update(e=obj["osp"]["f"]) or obj,
     ["generators"], "osp: [H,e]=e fails"),
    ("osp12", lambda obj: obj["osp"].update(e=obj["osp"]["f"]) or obj,
     ["brst-check"], "osp: [H,e]=e fails"),
], ids=["no-brackets-generators", "no-brackets-verify",
        "doubled-form-generators", "e-is-f-generators", "e-is-f-brst-check"])
def test_invalid_triple_exits_2(tmp_path, capsys, name, edit, argv, shown):
    """A command on an algebra whose sl2 triple or osp(1|2) data fails its
    defining relations refuses it before --k is read: nothing on stdout,
    one input-error line naming the first failed relation, exit 2. `walg
    validate` still lists every violation and exits 1."""
    p = tmp_path / ("invalid_%s.json" % name)
    p.write_text(json.dumps(edit(_catalog_obj(name))))
    code, out, err = run(capsys, *argv, "--algebra", str(p), "--k", "x/y")
    assert (code, out, err) == (2, "", "input error: algebra %s is invalid: "
                                "%s\n" % (name, shown))
    code, out, _err = run(capsys, "validate", "--algebra", str(p))
    assert code == 1 and "  violation: %s\n" % shown in out


def test_shared_triple_is_checked_once(tmp_path, capsys):
    """osp12's sl2 triple is its osp(1|2) data's (E, H, F), so its relations
    are checked once, as sl2's: with E doubled in both, `walg validate`
    lists each failed sl2 relation once, then the osp(1|2) relations that
    read E. A command with a flavor names the first failure as before."""
    obj = _catalog_obj("osp12")
    for block in ("sl2", "osp"):
        obj[block]["E"] = [str(2 * Fraction(c)) for c in obj[block]["E"]]
    p = tmp_path / "doubled_E_osp12.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", "--algebra", str(p))
    assert (code, out, err) == (1, "osp12: INVALID\n"
                                "  violation: sl2: [E,F]=H fails\n"
                                "  violation: sl2: (E|F)=1 fails\n"
                                "  violation: osp: [e,e]=2E fails\n"
                                "  violation: osp: [E,f]=e fails\n", "")
    code, out, err = run(capsys, "generators", "--algebra", str(p))
    assert (code, out, err) == (2, "", "input error: algebra osp12 is "
                                "invalid: sl2: [E,F]=H fails\n")


@pytest.mark.parametrize("argv, internal", [
    (["generators", "--k", "1/2"], False), (["verify"], False),
    (["bracket-table", "--k", "1/2"], False), (["generators"], True)],
    ids=["generators", "verify", "bracket-table", "internal-error"])
def test_engine_failure_on_invalid_algebra_exits_2(tmp_path, capsys,
                                                   monkeypatch, argv,
                                                   internal):
    """sl3-minimal with its bracket [E12, E23] doubled keeps a valid sl2
    triple but fails Jacobi, and its generator solve is inconsistent: that
    engine failure is the input's, so the command prints one input-error
    line naming the first violation and exits 2, not 3. So is an internal
    engine error (an IndexError from the solve) on that algebra."""
    if internal:
        monkeypatch.setattr(cli, "solve_all_generators", lambda ctx: [][0])
    p = tmp_path / "doubled_sl3_minimal.json"
    p.write_text(json.dumps(_doubled(_catalog_obj("sl3-minimal"),
                                     ("brackets", 0, 1))))
    code, out, err = run(capsys, *argv, "--algebra", str(p))
    assert (code, out, err) == (2, "", "input error: algebra sl3-minimal is "
                                "invalid: Jacobi fails at (E12,E23,E21)\n")


def test_algebra_path_is_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "validate", "--algebra", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_algebra_file_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "utf16_sl2.json"
    p.write_bytes(b"\xff\xfe" + json.dumps(_sl2_obj()).encode("utf-16-le"))
    code, out, err = run(capsys, "validate", "--algebra", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot decode ") and err.count("\n") == 1


def _subparsers():
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _dests(sp):
    return {a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)}


def test_each_command_accepts_what_it_reads():
    subs = _subparsers()
    assert {name: _dests(sp) for name, sp in subs.items()} == READS
    assert sum(len(_dests(sp)) for sp in subs.values()) == 42


class RecordingNamespace(argparse.Namespace):
    def __getattribute__(self, name):
        if not name.startswith("__"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    ["validate", "--algebra", "sl2"],
    ["generators", "--algebra", "sl2"],
    ["bracket", "--algebra", "sl2", "0", "0"],
    ["bracket-table", "--algebra", "sl2"],
    ["verify", "--algebra", "sl2", "--suite", "lemma-3-4"],
    ["brst-check", "--algebra", "osp12"],
    ["brst-generators", "--algebra", "osp12"],
    ["brst-table", "--algebra", "osp12"],
    ["susy-generators", "--algebra", "osp12"],
    ["susy-bracket", "--algebra", "osp12", "0", "0"],
    ["susy-verify", "--algebra", "osp12"],
], ids=lambda argv: argv[0])
def test_each_option_is_read(capsys, argv):
    args = cli.build_parser().parse_args(argv, namespace=RecordingNamespace())
    args.__dict__.pop("_read", None)   # the parser's own lookups
    assert args.fn(args) == 0
    capsys.readouterr()
    assert _dests(_subparsers()[argv[0]]) <= args.__dict__["_read"]


@pytest.mark.parametrize("argv", [
    ["generators", "--algebra", "sl2", "--seed", "5"],
    ["generators", "--algebra", "sl2", "--max-weight", "2"],
    ["verify", "--algebra", "sl2", "--route", "both"],
])
def test_removed_options_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_all_builds_each_piece_once(monkeypatch, capsys):
    built = []

    def counting(name, kind):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            built.append((kind, out.flavor.name if kind == "context"
                          else args[0].flavor.name))
            return out
        monkeypatch.setattr(cli, name, wrapper)

    counting("ReductionContext", "context")
    counting("SUSYReductionContext", "context")
    counting("solve_all_generators", "solve")
    counting("w_bracket_table", "table")
    code, out, err = run(capsys, "verify", "--algebra", "osp12", "--suite", "all")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["PASS %s" % name for name in cli.SUITES]
    assert sorted(built) == sorted(
        (kind, flavor) for kind in ("context", "solve", "table")
        for flavor in ("lambda", "chi"))


@pytest.mark.parametrize("argv", [["verify", "--suite", "all"],
                                  ["susy-verify", "--cross-brst"]],
                         ids=["verify-all", "susy-verify-cross-brst"])
def test_verify_builds_one_brst_complex(monkeypatch, capsys, argv):
    """The d-squared and thm-5-9 suites of one run share one BRST complex
    over the run's SUSY context: the hook counts every complex built."""
    from walgebras import brst
    built = []
    init = brst.BRSTComplex.__init__

    def counting(self, ctx):
        built.append(ctx)
        init(self, ctx)

    monkeypatch.setattr(brst.BRSTComplex, "__init__", counting)
    code, out, err = run(capsys, argv[0], "--algebra", "osp12", *argv[1:],
                         "--k", "1/2")
    assert (code, err) == (0, "")
    assert "PASS d-squared" in out and "PASS thm-5-9" in out
    assert len(built) == 1


@pytest.mark.parametrize("algebra,extra,counts", [
    ("osp12", [], {"lambda": 2, "chi": 1}),
    ("sl21", ["--k", "1/2"], {"lambda": 4, "chi": 2})])
def test_verify_all_brackets_each_pair_once(monkeypatch, capsys, algebra,
                                            extra, counts):
    """thm-3-6, thm-6-5 and thm-5-9 read the run's direct W table: each
    generator pair goes through the direct route once per flavor, and each
    generator is solved once per flavor. The direct route brackets through
    the shared table routine, which wclassical calls for nothing else and
    which makes one evaluator call per row, its columns tagged as one
    family; so n generators make n evaluator calls and n solves per
    flavor, and a W table built twice would make 2n calls."""
    table, solve = wclassical.bracket_table, wclassical.solve_generator
    calls = {"lambda": 0, "chi": 0}
    solved = {"lambda": 0, "chi": 0}

    def counting(values, over, alphabet, rewrite, evaluator):
        flavor = "chi" if over.value.var.parity else "lambda"

        def evaluating(*args):
            calls[flavor] += 1
            return evaluator(*args)
        return table(values, over, alphabet, rewrite, evaluating)

    def counting_solve(ctx, j):
        solved[ctx.flavor.name] += 1
        return solve(ctx, j)

    monkeypatch.setattr(wclassical, "bracket_table", counting)
    monkeypatch.setattr(wclassical, "solve_generator", counting_solve)
    code, _, err = run(capsys, "verify", "--algebra", algebra, "--suite",
                       "all", *extra)
    assert (code, err) == (0, "")
    assert calls == counts
    assert solved == counts


@pytest.mark.parametrize("suite", ["thm-5-9", "all"])
def test_susy_suites_on_even_algebra_are_skipped(capsys, suite):
    """sl2 carries no osp(1|2) data, so the SUSY suites do not run: each
    prints SKIP, and the structured document lists it under "skipped", not
    under "results"; the exit code stays 0."""
    names = list(cli.SUITES) if suite == "all" else [suite]
    skipped = [name for name in names if name in cli.SUSY_SUITES]
    code, out, err = run(capsys, "verify", "--algebra", "sl2",
                         "--suite", suite)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        ("SKIP %s (no osp(1|2) data)" if name in skipped else "PASS %s")
        % name for name in names]
    code, out, err = run(capsys, "verify", "--algebra", "sl2",
                         "--suite", suite, "--format", "structured")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["skipped"] == skipped
    assert sorted(doc["results"]) == sorted(set(names) - set(skipped))
    assert doc["passed"] is True


def test_verify_all_equals_each_suite_alone(capsys):
    def results(suite):
        code, out, _ = run(capsys, "verify", "--algebra", "osp12",
                           "--suite", suite, "--format", "structured")
        return code, json.loads(out)["results"]

    code, together = results("all")
    assert code == 0 and sorted(together) == sorted(cli.SUITES)
    for name in cli.SUITES:
        assert results(name) == (0, {name: together[name]})


def test_susy_verify_structured_names_its_seed(capsys):
    # the jacobi suite draws its random inputs from --seed, so the document
    # that reports its result names the seed, as verify's does
    code, out, err = run(capsys, "susy-verify", "--algebra", "osp12",
                         "--seed", "9", "--format", "structured")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["command"] == "susy-verify" and doc["seed"] == 9
    assert doc["passed"] is True and "jacobi" in doc["results"]


def test_generators_text(capsys):
    code, out, _ = run(capsys, "generators", "--algebra", "sl2")
    assert code == 0
    assert "w_F = 1/4*H^2 + 1/2*k*H' + F" in out


def test_bracket_text(capsys):
    code, out, _ = run(capsys, "bracket", "--algebra", "sl2", "0", "0")
    assert code == 0
    assert "k*w_F' + 2*k*w_F*λ + (-1/2*k^3)*λ^3" in out
    code2, out2, _ = run(capsys, "bracket", "--algebra", "sl2", "0", "0",
                         "--route", "closed")
    assert out2 == out


def test_bracket_index_range(capsys):
    code, _out, err = run(capsys, "bracket", "--algebra", "sl2", "0", "5")
    assert code == 2
    assert "range" in err


@pytest.mark.parametrize("route", ["direct", "closed"])
def test_bracket_index_range_before_any_solve(monkeypatch, capsys, route):
    """An index out of range is an input error before any generator solve."""
    def no_solve(ctx):
        raise AssertionError("solved")

    monkeypatch.setattr(cli, "solve_all_generators", no_solve)
    for argv in (["bracket", "--algebra", "sl3-minimal", "4", "0"],
                 ["susy-bracket", "--algebra", "sl21", "0", "2"]):
        if argv[0] == "bracket":
            argv += ["--route", route]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "input error: generator index out of range (have %s)\n" \
            % ("4" if argv[0] == "bracket" else "2")


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_closed_route_solves_no_generators(monkeypatch, capsys, fmt):
    """The closed route reads no generator value, so bracket and
    bracket-table on it solve none, and print what the direct route
    prints."""
    direct = {}
    for argv in (["bracket", "--algebra", "sl21", "2", "3"],
                 ["bracket-table", "--algebra", "sl3-principal", "--k=1/2"]):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        direct[argv[0]] = out.replace('"route": "direct"', '"route": "closed"')

    def no_solve(ctx):
        raise AssertionError("solved")

    monkeypatch.setattr(cli, "solve_all_generators", no_solve)
    for argv in (["bracket", "--algebra", "sl21", "2", "3"],
                 ["bracket-table", "--algebra", "sl3-principal", "--k=1/2"]):
        assert run(capsys, *argv, "--format", fmt, "--route", "closed") == \
            (0, direct[argv[0]], "")


TEXT_COMMANDS = [
    ["validate", "--algebra", "sl21"],
    ["generators", "--algebra", "sl3-minimal"],
    ["bracket", "--algebra", "sl21", "1", "2"],
    ["bracket", "--algebra", "sl2", "0", "0", "--route", "closed"],
    ["bracket-table", "--algebra", "osp12"],
    ["bracket-table", "--algebra", "osp12", "--route", "closed"],
    ["brst-check", "--algebra", "osp12"],
    ["brst-generators", "--algebra", "osp12"],
    ["brst-table", "--algebra", "osp12"],
    ["susy-generators", "--algebra", "sl21"],
    ["susy-bracket", "--algebra", "sl21", "0", "1"],
    ["verify", "--algebra", "osp12", "--suite", "thm-6-5"],
]


@pytest.mark.parametrize("argv", TEXT_COMMANDS, ids=lambda a: " ".join(a[::2]))
def test_output_builds_one_form(monkeypatch, capsys, argv):
    """Text output builds no structured document (no to_obj), and the
    structured document renders no text line (no render)."""
    def refused(*args, **kwargs):
        raise AssertionError("built the other form")

    code, text, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    code, doc, err = run(capsys, *argv, "--format", "structured")
    assert (code, err) == (0, "")
    with monkeypatch.context() as m:
        for cls in (Alphabet, SuperPoly, Scalar, LambdaPoly, BracketTable):
            m.setattr(cls, "to_obj", refused)
        assert run(capsys, *argv) == (0, text, "")
    with monkeypatch.context() as m:
        for cls in (SuperPoly, LambdaPoly):
            m.setattr(cls, "render", refused)
        assert run(capsys, *argv, "--format", "structured") == (0, doc, "")
    with monkeypatch.context() as m:   # the patches reach the command
        m.setattr(SuperPoly, "to_obj", refused)
        m.setattr(SuperPoly, "render", refused)
        if "validate" not in argv and "brst-check" not in argv \
                and "verify" not in argv:
            assert run(capsys, *argv)[0] == 3


def test_numeric_k(capsys):
    code, out, _ = run(capsys, "generators", "--algebra", "sl2", "--k", "0")
    assert code == 0
    assert "w_F = 1/4*H^2 + F" in out
    code, _out, err = run(capsys, "generators", "--algebra", "sl2", "--k", "x")
    assert code == 2


def test_k_spellings(capsys):
    """Any spelling Fraction reads is a level; 1/0 is an input error."""
    want = run(capsys, "generators", "--algebra", "sl2", "--k", "1/2")
    assert want[0] == 0
    for k in ("0.5", "2/4", " 1/2", "5e-1"):
        assert run(capsys, "generators", "--algebra", "sl2", "--k", k) == want
    code, out, err = run(capsys, "generators", "--algebra", "sl2", "--k", "1/0")
    assert (code, out) == (2, "") and err.startswith("input error: bad --k")


def _parser_pair(monkeypatch):
    """walg's parser, and the same parser on argparse's stock formatter."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_help_formatter", lambda: argparse.HelpFormatter)
        stock = cli.build_parser()
    return cli.build_parser(), stock


def _all_parsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return [parser] + [action.choices[name] for name in sorted(action.choices)]


@pytest.mark.parametrize("columns", [None, "40", "120"])
def test_help_matches_stock_formatter(monkeypatch, capsys, columns):
    """The shutil-free formatter reads the width as argparse does: help,
    usage and the usage error of a bad argument are byte-identical."""
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    ours, stock = _parser_pair(monkeypatch)
    for a, b in zip(_all_parsers(ours), _all_parsers(stock), strict=True):
        assert a.prog == b.prog
        assert a.format_help() == b.format_help()
        assert a.format_usage() == b.format_usage()
    errors = []
    for parser in (ours, stock):
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(["bracket", "--algebra", "sl2", "x", "0"])
        errors.append((exit_.value.code, capsys.readouterr().err))
    assert errors[0] == errors[1] and errors[0][0] == 2
    assert errors[0][1].startswith("usage: walg bracket")


def _parsed(parser, argv):
    """vars() of argparse's namespace for argv, or None where it exits
    (a usage error, or help)."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def _spellings(flag, kind, value):
    if kind is bool:
        return [[flag], [flag + "=1"]]
    return [[flag, value], [flag + "=" + value]]


def _try_values(kind):
    """Values to spell each option with: valid and invalid ones."""
    if kind is bool:
        return [None]
    if kind is int:
        return ["7", "007", "-3", "x", "", "\u0663", "\u00b2", "1_0", "+1",
                "1x", "1 "]
    if isinstance(kind, tuple):
        return list(kind) + ["bogus", ""]
    return ["sl2", "1/2", "-1/2", "", "a=b", "a b", "--format"]


def _canonical_argvs(entry):
    """The command with every option given, in every order of the options,
    positionals at the front, split or at the end, with space or = forms."""
    name, _, _, _, options, positionals = entry
    ints = ["0", "12"][:len(positionals)]
    out = []
    for form in (0, 1):
        groups = [[flag] if kind is bool else _spellings(
            flag, kind, "sl2" if kind is str else "7" if kind is int
            else kind[-1])[form] for flag, kind, _, _ in options]
        for order in itertools.permutations(groups):
            rest = [arg for group in order for arg in group]
            out.append([name] + ints + rest)
            out.append([name] + ints[:1] + rest + ints[1:])
            out.append([name] + rest + ints)
    return out


def _command_lines(entry):
    """Command lines around one command: each option alone with each try
    value in both spellings, positionals of every kind, and the spellings
    that only argparse reads (help, abbreviations, --, repeats)."""
    name, _, _, _, options, positionals = entry
    ints = ["0", "1"][:len(positionals)]
    base = ["--algebra", "sl2"]
    out = []
    for flag, kind, _, _ in options:
        for value in _try_values(kind):
            for spelled in _spellings(flag, kind, value):
                rest = spelled if flag == "--algebra" else base + spelled
                out.append([name] + rest + ints)
                out.append([name] + ints + rest)
    for pos in ([], ["0"], ["0", "1"], ["0", "1", "2"], ["x", "0"],
                ["-1", "0"], ["0", "-1"], ["\u0663", "0"], ["00", "12"],
                ["1_0", "0"], ["+1", "0"], ["", "0"], [" 1", "0"],
                ["\u00b2", "0"], ["1x", "0"], ["0", "1 "]):
        out.append([name] + base + pos)
    for extra in (["--alg", "sl2"], ["--algebra"], ["-h"], ["--help"],
                  ["--"], ["--", "--algebra", "sl2"], ["--bogus"], ["-x"],
                  ["--algebra", "sl2"], ["--format", "text"],
                  ["--format=text", "--format", "text"], ["--k", "1/2"],
                  ["--k=-1/2"], ["--k", "-1/2"], ["--k="], ["--cross-brst"],
                  ["--cross-brst", "--cross-brst"], ["--route", "closed"],
                  ["--seed", "5"], ["--suite", "skew"], ["sl2"]):
        out.append([name] + base + ints + extra)
        out.append([name] + extra + ints)
    out.append([name] + ints)   # no --algebra
    out.append(["--algebra", "sl2", name] + ints)
    return out


@pytest.mark.parametrize("entry", cli.COMMANDS, ids=lambda e: e[0])
def test_recognizer_agrees_with_argparse(capsys, entry):
    """_recognize gives None or the namespace argparse gives, and None on
    every command line argparse refuses; every option order and both
    spellings of a command line in canonical form are recognized."""
    parser = cli.build_parser()
    canonical = _canonical_argvs(entry)
    recognized = 0
    for argv in canonical + _command_lines(entry):
        ours, theirs = cli._recognize(argv), _parsed(parser, argv)
        if argv in canonical:
            assert ours is not None, argv
        if ours is not None:
            recognized += 1
            assert vars(ours) == theirs, argv
    capsys.readouterr()
    assert recognized > len(canonical)
    for argv in ([], ["-h"], ["--help"], ["nosuch"], [entry[0].upper()]):
        assert cli._recognize(argv) is None


def test_benchmark_commands_take_the_fast_path(capsys):
    """Every command of the benchmark's cli workload, at each of its
    levels, is read without argparse, to the namespace argparse reads."""
    bench = os.path.join(ROOT, "wbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    parser = cli.build_parser()
    argvs = [argv for level in workloads.LEVELS
             for _, argv in workloads.cli_commands(level)]
    assert len(argvs) == 400
    for argv in argvs:
        ours = cli._recognize(argv)
        assert ours is not None and vars(ours) == _parsed(parser, argv), argv


def test_benchmark_trace_targets_sit_in_their_owners():
    """Every target of the benchmark's tracer sits in its owner's own
    namespace, where the tracer wraps it: a method in vars() of its class,
    a class with an __init__ of its own (which the tracer times), a
    function as an attribute of its module. The tracer finds an inherited
    method by getattr but wraps nothing, and reports no target missing, so
    its counter would read 0."""
    bench = os.path.join(ROOT, "wbench")
    sys.path.insert(0, bench)
    try:
        import tracer
    finally:
        sys.path.remove(bench)
    targets = list(tracer.SPAN_TARGETS) + [t for t, _c in tracer.COUNT_TARGETS]
    for target in targets:
        modname, _, qual = target.partition(".")
        owner = importlib.import_module("walgebras." + modname)
        *path, attr = qual.split(".")
        for part in path:
            owner = vars(owner)[part]
        assert attr in vars(owner), target
        obj = vars(owner)[attr]
        if isinstance(obj, type):
            assert "__init__" in vars(obj), target
        assert callable(obj), target


def test_main_reads_argparse_only_off_the_fast_path(monkeypatch, capsys):
    """main builds the argparse parser only for a command line that the
    recognizer does not read, and then argparse's answer stands."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    assert run(capsys, "validate", "--algebra", "sl2") == (0, "sl2: valid\n", "")
    assert built == []
    assert run(capsys, "validate", "--alg", "sl2") == (0, "sl2: valid\n", "")
    assert built == [1]
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--algebra", "sl2", "--format", "xml"])
    assert exc.value.code == 2 and built == [1, 1]
    assert "invalid choice: 'xml'" in capsys.readouterr().err


def test_byte_identical_runs(capsys):
    args = ("verify", "--algebra", "sl2", "--suite", "jacobi", "--seed", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl2",
                       "--suite", "thm-3-6")
    assert code == 0 and "PASS thm-3-6" in out
    code, out, _ = run(capsys, "verify", "--algebra", "sl2",
                       "--suite", "lemma-3-4")
    assert code == 0 and "PASS" in out
    code, _out, err = run(capsys, "verify", "--algebra", "sl2",
                          "--suite", "no-such")
    assert code == 2


def test_brst_check(capsys):
    code, out, _ = run(capsys, "brst-check", "--algebra", "osp12")
    assert code == 0
    assert "PASS {d_chi d}=0 (symbolic c)" in out
    code, _out, err = run(capsys, "brst-check", "--algebra", "sl2")
    assert code == 2  # no osp data


def test_susy_generators(capsys):
    code, out, _ = run(capsys, "susy-generators", "--algebra", "osp12")
    assert code == 0
    assert "t_F" in out and "D(f~)" in out


def test_structured_roundtrip_generators(capsys):
    code, out, _ = run(capsys, "generators", "--algebra", "sl2",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    alph = Alphabet.from_obj(doc["alphabet"])
    vals = [SuperPoly.from_obj(alph, g["value"]) for g in doc["generators"]]
    assert len(vals) == 1 and vals[0]
    # round-trip through json again
    assert json.loads(json.dumps(doc)) == doc


def test_structured_roundtrip_tables(capsys):
    code, out, _ = run(capsys, "bracket-table", "--algebra", "sl2",
                       "--format", "structured")
    doc = json.loads(out)
    table = BracketTable.from_obj(doc["table"])
    assert (0, 0) in table.entries
    code, out, _ = run(capsys, "brst-table", "--algebra", "osp12",
                       "--format", "structured")
    doc = json.loads(out)
    assert doc["table"]["flavor"] == "chi"
    st = SUSYBracketTable.from_obj(doc["table"])
    assert (0, 0) in st.entries


def test_susy_verify(capsys):
    code, out, _ = run(capsys, "susy-verify", "--algebra", "osp12",
                       "--cross-brst")
    assert code == 0
    for suite in ("thm-6-5", "d-squared", "thm-5-9", "prop-4-3"):
        assert "PASS %s" % suite in out


@pytest.mark.parametrize("error", [
    GeneratorError("no generator solution: inconsistent"),
    LinearSolveError("internal", "unreduced pivot row"),
    ExponentOverflowError("a power of a variable, k or c exceeds 127")])
def test_engine_error_exits_3(monkeypatch, capsys, error):
    """A failed solve, or a power past what the polynomial kernel packs, is
    an engine error: one stderr line and exit 3, not a traceback with exit
    1 (which reads as a verification failure)."""
    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(wclassical, "solve_ansatz", failing_solve)
    code, out, err = run(capsys, "generators", "--algebra", "sl2")
    assert code == 3
    assert out == ""
    assert err == "engine error: %s\n" % error


def test_internal_error_exits_3(monkeypatch, capsys):
    """Any other exception inside the engine is an internal engine error:
    one stderr line naming its type and exit 3, not a traceback."""
    def broken_solve(*args, **kwargs):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "solve_all_generators", broken_solve)
    code, out, err = run(capsys, "generators", "--algebra", "sl2")
    assert code == 3
    assert out == ""
    assert err == "engine error: internal: IndexError: list index out of range\n"


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# stdlib modules that importlib.resources and random pull in; a walg command
# uses none of them, so none may load at start-up
COLD_START_UNUSED = ("importlib.resources", "tempfile", "shutil", "pathlib",
                     "zipfile", "random")


def _python(code, cwd, *args):
    """Run `python -S -c code` on the source tree (no site-packages)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-S", "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def test_cold_start_imports_nothing_unused(tmp_path):
    done = _python("import sys, walgebras.cli; "
                   "print(' '.join(m for m in sys.argv[1:] if m in sys.modules))",
                   tmp_path, *COLD_START_UNUSED)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


# never loaded by a walg command: shutil (argparse's width lookup), and
# fractions with decimal (GRat is the engine's rational)
STARTUP_UNUSED = ("shutil", "fractions", "decimal")


@pytest.mark.parametrize("argv", [
    ["validate", "--algebra", "sl2"],
    ["generators", "--algebra", "sl3-minimal", "--k", "1/2"],
    ["bracket", "--algebra", "sl2", "0", "0", "--route", "closed"],
    ["susy-bracket", "--algebra", "osp12", "0", "0", "--k", "3/2"],
    ["brst-generators", "--algebra", "osp12"],
    ["verify", "--algebra", "sl21", "--suite", "skew", "--format", "structured"],
], ids=lambda argv: argv[0])
def test_commands_start_without_shutil_or_fractions(tmp_path, argv):
    done = _python("import sys; from walgebras.cli import main; "
                   "code = main(sys.argv[1:]); "
                   "sys.stdout.write(' '.join(m for m in %r if m in sys.modules)); "
                   "sys.exit(code)" % (STARTUP_UNUSED,), tmp_path, *argv)
    assert done.returncode == 0, done.stderr
    output, loaded = done.stdout.rsplit("\n", 1)
    assert output and loaded == ""


# never loaded by a text-mode command on a catalog algebra, given in
# canonical form: argparse (with gettext and locale) reads only the other
# command lines, and json (with re and enum) only files and structured output
FAST_PATH_UNUSED = ("argparse", "json", "re", "enum", "gettext", "locale")


@pytest.mark.parametrize("argv", [
    ["validate", "--algebra", "sl2"],
    ["generators", "--algebra", "sl3-minimal", "--k", "1/2"],
    ["bracket", "--algebra", "sl3-minimal", "--k=-1/2", "1", "2"],
    ["bracket-table", "--algebra", "sl2", "--route=closed"],
    ["verify", "--algebra", "sl2", "--suite", "lemma-3-4", "--seed=5"],
    ["brst-check", "--algebra", "osp12", "--k", "3/2"],
    ["brst-generators", "--algebra", "osp12"],
    ["brst-table", "--algebra", "osp12", "--k=1/2"],
    ["susy-generators", "--algebra", "sl21", "--format", "text", "--k=5/2"],
    ["susy-bracket", "--algebra", "osp12", "0", "0"],
    ["susy-verify", "--algebra", "osp12", "--cross-brst", "--k=1/2"],
], ids=lambda argv: argv[0])
def test_text_commands_start_without_argparse_or_json(tmp_path, argv):
    done = _python("import sys; from walgebras.cli import main; "
                   "code = main(sys.argv[1:]); "
                   "sys.stdout.write(' '.join(m for m in %r if m in sys.modules)); "
                   "sys.exit(code)" % (FAST_PATH_UNUSED + STARTUP_UNUSED,),
                   tmp_path, *argv)
    assert done.returncode == 0, done.stderr
    output, loaded = done.stdout.rsplit("\n", 1)
    assert output and loaded == ""


def test_module_run_imports_none_of_them(tmp_path):
    """As the benchmark runs it: python -S -m walgebras.cli, every import
    listed by -X importtime."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "walgebras.cli",
         "bracket", "--algebra", "sl3-minimal", "--k=-1/2", "1", "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.startswith("{w_"), done.stderr
    imported = {line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "walgebras.catalog" in imported
    assert imported.isdisjoint(FAST_PATH_UNUSED + STARTUP_UNUSED)


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141(tmp_path, buffered):
    """A reader that closed stdout is not an engine defect: nothing on
    stderr and exit 141 (128 + SIGPIPE), whether a write or the flush at
    the end of the command meets the closed pipe."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-S", "-m", "walgebras.cli", "generators",
             "--algebra", "sl2"], cwd=tmp_path, env=env, stdout=write_end,
            stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_catalog_lookup_does_not_depend_on_cwd(tmp_path):
    done = _python("import sys; from walgebras.cli import main; "
                   "sys.exit(main(sys.argv[1:]))", tmp_path,
                   "validate", "--algebra", "sl2")
    assert (done.returncode, done.stdout, done.stderr) == (0, "sl2: valid\n", "")
