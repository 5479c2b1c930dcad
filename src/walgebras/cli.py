"""Batch front end: algebra catalog, verification suites, table output.

Exit codes: 0 all checks passed, 1 verification failure, 2 input error,
3 the engine could not compute (a generator or linear solve failed, or an
unexpected internal error, reported as ``engine error: internal: ...``),
141 (128 + SIGPIPE) stdout was closed by its reader, with nothing printed.
Identical inputs and seed produce byte-identical output.

The command line is stated once, in the table COMMANDS. A command line in
canonical form (exact names, each option once) is read from it by
_recognize, without argparse; build_parser() hands the same table to
argparse, which is imported only for every other command line and alone
writes help, usage and usage errors.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from .catalog import CATALOG, get_algebra
from .liealg import (AlgebraError, check_tensor_identity, dual_bases_F,
                     dual_bases_f, validate_algebra)
from .scalars import LinearSolveError, Scalar, parse_rational
from .pva import check_jacobi, check_skew, random_property_suite
from .spva import reduce_to_pva
from .superpoly import ExponentOverflowError
from .wclassical import (EVEN, GeneratorError, ReductionContext,
                         compare_closed_direct, solve_all_generators,
                         w_bracket_direct, w_bracket_closed, w_bracket_table)
from .swclassical import SUSY, SUSYReductionContext
from .brst import (BRSTComplex, build_d, brst_bracket_table,
                   cohomology_generators, compare_brst_reduction)

SUITES = ("skew", "jacobi", "lemma-3-4", "lemma-6-4", "thm-3-6", "thm-6-5",
          "d-squared", "thm-5-9", "prop-4-3")
# suites of W(g, f) alone: they pass vacuously on algebras without osp(1|2)
SUSY_SUITES = ("lemma-6-4", "thm-6-5", "d-squared", "thm-5-9", "prop-4-3")


class InputError(Exception):
    pass


def _parse_k(text) -> Scalar:
    if text in (None, "symbolic", "k"):
        return Scalar.k()
    try:
        return Scalar.rational(parse_rational(text))
    except (ValueError, ZeroDivisionError):
        raise InputError("bad --k value %r (rational or 'symbolic')" % text)


def _load(args):
    """The algebra of --algebra, with the command's triple present and every
    triple valid, checked before --k is read and so reported first."""
    try:
        g = get_algebra(args.algebra)
    except (KeyError, FileNotFoundError):
        raise InputError("unknown algebra %r (catalog: %s or a file path)"
                         % (args.algebra, ", ".join(sorted(CATALOG))))
    except OSError as e:
        raise InputError("cannot read algebra file %r: %s"
                         % (args.algebra, e.strerror or e))
    except AlgebraError as e:
        raise InputError(str(e))
    if args.flavor is not None:
        g.triple(args.flavor.triple)
        bad = g.validate_triples()
        if bad:
            raise InputError(_invalid(g, bad))
    return g


def _invalid(g, report):
    return "algebra %s is invalid: %s" % (g.name, report[0])


def _emit(args, doc, lines):
    """Print the command's output: the text lines, or under --format
    structured the document. doc and lines are functions of no arguments,
    and only the one the format asks for is called, so a command builds
    its lines or its document, never both."""
    if args.format == "structured":
        import json   # structured output alone reads json
        sys.stdout.write(json.dumps(doc(), sort_keys=True, indent=1) + "\n")
    else:
        for line in lines():
            sys.stdout.write(line + "\n")


def cmd_validate(args):
    g = _load(args)
    report = validate_algebra(g)
    _emit(args, lambda: {"command": "validate", "algebra": g.name,
                         "violations": report},
          lambda: ["%s: %s" % (g.name, "valid" if not report else "INVALID")]
          + ["  violation: %s" % r for r in report])
    return 0 if not report else 1


def _context(g, flavor, k):
    """g's reduction context of the flavor at level k."""
    cls = SUSYReductionContext if flavor is SUSY else ReductionContext
    return cls(g, k=k)


def _bracket_line(ctx, prefix, i, j, value):
    return "{%s%s %s %s%s} = %s" % (prefix, ctx.gen_labels[i], ctx.flavor.name,
                                    prefix, ctx.gen_labels[j], value.render())


def _list_generators(args, g, ctx, prefix, alph, shown):
    """Print generators: shown lists (generator, its value over alph)."""
    def doc():
        return {"command": args.command, "algebra": g.name,
                "alphabet": alph.to_obj(), "generators": [
                    {"label": ctx.gen_labels[w.index], "weight": str(w.weight),
                     "value": value.to_obj()} for w, value in shown]}

    _emit(args, doc, lambda: ["%s%s = %s   (weight %s)"
                              % (prefix, ctx.gen_labels[w.index],
                                 value.render(), w.weight)
                              for w, value in shown])
    return 0


def _list_table(args, g, ctx, prefix, table, **doc):
    """Print a bracket table, one line per generator pair."""
    _emit(args, lambda: dict(doc, command=args.command, algebra=g.name,
                             table=table.to_obj()),
          lambda: [_bracket_line(ctx, prefix, i, j, table.entry(i, j))
                   for (i, j) in sorted(table.entries)])
    return 0


def cmd_generators(args):
    """generators / susy-generators: W(g, F) or W(g, f) generators."""
    g = _load(args)
    ctx = _context(g, args.flavor, _parse_k(args.k))
    return _list_generators(args, g, ctx, ctx.flavor.prefix, ctx.alph_in, [
        (w, ctx.to_input(w.value)) for w in solve_all_generators(ctx)])


def _generators_of(ctx, route):
    """The solved generators by index, which the direct route reads; the
    closed route reads none, so it solves none."""
    if route == "closed":
        return None
    return {w.index: w for w in solve_all_generators(ctx)}


def cmd_bracket(args):
    """bracket / susy-bracket: one bracket of two generators."""
    g = _load(args)
    ctx = _context(g, args.flavor, _parse_k(args.k))
    i, j, n = args.i, args.j, ctx.db.count()
    if not (0 <= i < n and 0 <= j < n):
        raise InputError("generator index out of range (have %d)" % n)
    route = getattr(args, "route", None)   # susy-bracket: direct route only
    value = (w_bracket_closed if route == "closed" else w_bracket_direct)(
        ctx, _generators_of(ctx, route), i, j)

    def doc():
        doc = {"command": args.command, "algebra": g.name, "i": i, "j": j,
               "alphabet": ctx.gen_alph.to_obj(), "value": value.to_obj()}
        if route is None:
            doc["flavor"] = ctx.flavor.name
        else:
            doc["route"] = route
        return doc

    _emit(args, doc, lambda: [_bracket_line(ctx, ctx.flavor.prefix, i, j,
                                            value)])
    return 0


def cmd_bracket_table(args):
    g = _load(args)
    ctx = _context(g, args.flavor, _parse_k(args.k))
    table = w_bracket_table(ctx, _generators_of(ctx, args.route),
                            route=args.route)
    return _list_table(args, g, ctx, ctx.flavor.prefix, table,
                       route=args.route)


def cmd_brst_check(args):
    g = _load(args)
    ctx = _context(g, args.flavor, _parse_k(args.k))
    diff = build_d(BRSTComplex(ctx), Scalar.c())
    report = diff.verify()
    ok = not report
    _emit(args, lambda: {"command": "brst-check", "algebra": g.name,
                         "passed": ok, "violations": report},
          lambda: ["%s {d_chi d}=0 (symbolic c)" % ("PASS" if ok else "FAIL")]
          + ["  %s" % r for r in report])
    return 0 if ok else 1


def cmd_brst_generators(args):
    g = _load(args)
    ctx = _context(g, args.flavor, _parse_k(args.k))
    cplx = BRSTComplex(ctx)
    gens = cohomology_generators(cplx, build_d(cplx, Scalar.imag()))
    return _list_generators(args, g, ctx, "E_", cplx.alph,
                            [(e, e.value) for e in gens])


def cmd_brst_table(args):
    g = _load(args)
    ctx = _context(g, args.flavor, _parse_k(args.k))
    cplx = BRSTComplex(ctx)
    diff = build_d(cplx, Scalar.imag())
    gens = {e.index: e for e in cohomology_generators(cplx, diff)}
    return _list_table(args, g, ctx, "E_", brst_bracket_table(cplx, diff, gens))


def _suite_results(args, g, names):
    """Run the named suites; every suite of one run reads the same context,
    generator solve and W table of each flavor, and the same BRST complex,
    each built on first use."""
    k = _parse_k(args.k)

    @functools.cache
    def context(flavor):
        return _context(g, flavor, k)

    @functools.cache
    def gens(flavor):
        return {w.index: w for w in solve_all_generators(context(flavor))}

    @functools.cache
    def table(flavor):
        return w_bracket_table(context(flavor), gens(flavor))

    @functools.cache
    def brst_complex():
        return BRSTComplex(context(SUSY))

    flavors = [EVEN] + ([SUSY] if g.osp is not None else [])
    results = {}
    for name in names:
        if name in ("skew", "jacobi"):
            check = check_skew if name == "skew" else check_jacobi
            bad = []
            for flavor in flavors:
                ctx = context(flavor)
                master = ctx.flavor.master
                bad += check(ctx.table, master) + check(table(flavor), master)
                if name == "jacobi":
                    bad += random_property_suite(ctx.table, args.seed, 2,
                                                 master, ctx.flavor.oracle)
            results[name] = (["pair %s,%s" % p for p in bad] if name == "skew"
                             else ["%s" % (b,) for b in bad])
        elif name in ("lemma-3-4", "lemma-6-4"):
            db = dual_bases_F(g) if name == "lemma-3-4" else dual_bases_f(g)
            results[name] = ["t=%s" % t for t in check_tensor_identity(db)]
        elif name in ("thm-3-6", "thm-6-5"):
            flavor = EVEN if name == "thm-3-6" else SUSY
            results[name] = ["pair %s,%s" % (a, b) for a, b, _, _ in
                             compare_closed_direct(context(flavor),
                                                   gens(flavor), table(flavor))]
        elif name == "d-squared":
            results[name] = build_d(brst_complex(), Scalar.c()).verify()
        elif name == "thm-5-9":
            results[name] = compare_brst_reduction(brst_complex(), gens(SUSY),
                                                   table(SUSY))
        elif name == "prop-4-3":
            bad = []
            for label, tab in (("affine", context(SUSY).table),
                               ("w", table(SUSY))):
                lt = reduce_to_pva(tab)
                bad += ["%s %s,%s" % (label, a, b) for (a, b) in check_skew(lt)]
                bad += ["%s %s,%s,%s" % (label, a, b, c)
                        for (a, b, c) in check_jacobi(lt)]
            results[name] = bad
        else:
            raise InputError("unknown suite %r (have: %s)"
                             % (name, ", ".join(SUITES)))
    return results


def _report_suites(args, g, names, doc):
    """Run the suites and print PASS/FAIL for each, and SKIP for a SUSY suite
    on an algebra without osp(1|2) data (listed under "skipped" in the
    structured document, not under "results"); exit code 1 on a failure."""
    skipped = [name for name in names if name in SUSY_SUITES and g.osp is None]
    results = _suite_results(args, g, [n for n in names if n not in skipped])
    lines = []
    for name in names:
        bad = results.get(name)
        if bad is None:
            lines.append("SKIP %s (no osp(1|2) data)" % name)
        elif bad:
            lines.append("FAIL %s (%d violations)" % (name, len(bad)))
            lines += ["  " + b for b in bad[:10]]
        else:
            lines.append("PASS %s" % name)
    failed = any(results.values())
    doc.update(results=results, passed=not failed)
    if skipped:
        doc["skipped"] = skipped
    _emit(args, lambda: doc, lambda: lines)
    return 1 if failed else 0


def cmd_verify(args):
    g = _load(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    return _report_suites(args, g, names, {"command": "verify", "algebra": g.name,
                                           "seed": args.seed})


def cmd_susy_verify(args):
    g = _load(args)
    names = ["thm-6-5", "skew", "jacobi", "prop-4-3", "lemma-6-4"]
    if args.cross_brst:
        names += ["d-squared", "thm-5-9"]
    return _report_suites(args, g, names, {"command": "susy-verify",
                                           "algebra": g.name,
                                           "seed": args.seed})


def _terminal_columns():
    """shutil.get_terminal_size().columns, without importing shutil: a
    positive COLUMNS, else the width of the terminal on stdout, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
    except (AttributeError, ValueError, OSError):
        columns = 0
    return columns or 80


def _options(k=True, seed=False):
    """The options of a command that every command shares, in help order."""
    options = [("--algebra", str, None, "catalog name (%s) or algebra file"
                % ", ".join(sorted(CATALOG))),
               ("--format", ("text", "structured"), "text", None)]
    if k:
        options.append(("--k", str, "symbolic",
                        "level: a rational or 'symbolic'"))
    if seed:   # the jacobi suite's random inputs
        options.append(("--seed", int, 2024, None))
    return options


_ROUTE = ("--route", ("direct", "closed"), "direct", None)

# The command line, one entry per command: (name, help, function, flavor,
# options, positionals). An option is (flag, kind, default, help); its kind
# is str (any value), int, a tuple of choices, or bool (a flag that is given
# or not), and an option without a default is required. Each positional is
# an int. build_parser() hands this table to argparse, and _recognize()
# reads its canonical spelling without argparse.
COMMANDS = (
    ("validate", "check all algebra axioms", cmd_validate, None,
     _options(k=False), ()),
    ("generators", "classical W generators", cmd_generators, EVEN,
     _options(), ()),
    ("bracket", "classical W bracket of two generators", cmd_bracket, EVEN,
     _options() + [_ROUTE], ("i", "j")),
    ("bracket-table", "full classical W table", cmd_bracket_table, EVEN,
     _options() + [_ROUTE], ()),
    ("verify", "run verification suites", cmd_verify, EVEN,
     _options(seed=True) + [("--suite", str, "all",
                             "one of %s or 'all'" % (SUITES,))], ()),
    ("brst-check", "d^2 = 0 with symbolic c", cmd_brst_check, SUSY,
     _options(), ()),
    ("brst-generators", "H^0 generators (c = i)", cmd_brst_generators, SUSY,
     _options(), ()),
    ("brst-table", "bracket table on H^0 (c = i)", cmd_brst_table, SUSY,
     _options(), ()),
    ("susy-generators", "SUSY W generators", cmd_generators, SUSY,
     _options(), ()),
    ("susy-bracket", "SUSY W bracket of two generators", cmd_bracket, SUSY,
     _options(), ("i", "j")),
    ("susy-verify", "SUSY verification suites", cmd_susy_verify, SUSY,
     _options(seed=True) + [("--cross-brst", bool, False, "also verify the "
                             "BRST route and the equivalence")], ()),
)


def _recognize(argv):
    """The namespace that build_parser() parses from argv, read without
    argparse when argv is in canonical form: an exact command name, then
    exact long options, each at most once, as --opt=value (a non-empty
    value) or --opt value (a value not starting with -), choices among
    theirs, ints and positionals in ASCII digits, positionals in their
    exact number, and every required option given. Anything else gives
    None, and argparse decides: help, usage, every error and every other
    spelling are argparse's alone."""
    entry = next((e for e in COMMANDS if argv and e[0] == argv[0]), None)
    if entry is None:
        return None
    name, _summary, fn, flavor, options, positionals = entry
    kinds = {flag: kind for flag, kind, _default, _text in options}
    given, ints = {}, []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            if not (arg.isascii() and arg.isdigit()):
                return None
            ints.append(int(arg))
            continue
        flag, eq, value = arg.partition("=")
        if flag not in kinds or flag in given:
            return None
        kind = kinds[flag]
        if kind is bool:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(rest, "")
            if not value or (not eq and value.startswith("-")):
                return None
            if kind is int:
                if not (value.isascii() and value.isdigit()):
                    return None
                value = int(value)
            elif kind is not str and value not in kind:
                return None
        given[flag] = value
    if len(ints) != len(positionals):
        return None
    args = {"command": name, "fn": fn, "flavor": flavor}
    for flag, _kind, default, _text in options:
        if default is None and flag not in given:
            return None
        args[flag[2:].replace("-", "_")] = given.get(flag, default)
    args.update(zip(positionals, ints))
    return SimpleNamespace(**args)


@functools.cache
def _help_formatter():
    """argparse's help formatter at its own default width. The stock one
    reads the width through shutil, whose import (with bz2, lzma, zlib and
    fnmatch) would cost every parser that argparse builds."""
    import argparse

    class HelpFormatter(argparse.HelpFormatter):
        def __init__(self, prog, indent_increment=2, max_help_position=24,
                     width=None):
            if width is None:
                width = _terminal_columns() - 2
            super().__init__(prog, indent_increment, max_help_position,
                             width)
    return HelpFormatter


def build_parser():
    """The argparse parser of COMMANDS: the one reader of a command line
    that _recognize() does not read."""
    import argparse   # only for a command line in no canonical form
    formatter = _help_formatter()
    p = argparse.ArgumentParser(
        prog="walg", formatter_class=formatter,
        description="Exact engine for classical and SUSY W-algebra structures")
    sub = p.add_subparsers(dest="command", required=True)
    for name, summary, fn, flavor, options, positionals in COMMANDS:
        sp = sub.add_parser(name, help=summary, formatter_class=formatter)
        sp.set_defaults(fn=fn, flavor=flavor)
        for flag, kind, default, text in options:
            if kind is bool:
                sp.add_argument(flag, action="store_true", help=text)
            else:
                sp.add_argument(
                    flag, required=default is None, default=default,
                    help=text, type=int if kind is int else None,
                    choices=kind if isinstance(kind, tuple) else None)
        for dest in positionals:
            sp.add_argument(dest, type=int)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _recognize(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: stdout goes to devnull, so that the
        # interpreter's final flush stays quiet (as the signal module's
        # documentation does)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, AlgebraError) as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2
    except Exception as e:  # the engine could not compute
        try:  # on an invalid algebra the input is at fault
            g = get_algebra(args.algebra)
            bad = validate_algebra(g)
        except Exception:  # not readable again: the engine failure stands
            bad = None
        if bad:
            sys.stderr.write("input error: %s\n" % _invalid(g, bad))
            return 2
        if not isinstance(e, (GeneratorError, LinearSolveError,
                              ExponentOverflowError)):  # a defect
            e = "internal: %s: %s" % (type(e).__name__,
                                      str(e).replace("\n", " "))
        sys.stderr.write("engine error: %s\n" % e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
