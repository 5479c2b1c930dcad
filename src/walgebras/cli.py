"""Batch front end: algebra catalog, verification suites, table output.

Exit codes: 0 all checks passed, 1 verification failure, 2 input error,
3 the engine could not compute (a generator or linear solve failed, or an
unexpected internal error, reported as ``engine error: internal: ...``),
141 (128 + SIGPIPE) stdout was closed by its reader, with nothing printed.
Identical inputs and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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


def _emit(args, doc, text_lines):
    if args.format == "structured":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def cmd_validate(args):
    g = _load(args)
    report = validate_algebra(g)
    doc = {"command": "validate", "algebra": g.name, "violations": report}
    lines = ["%s: %s" % (g.name, "valid" if not report else "INVALID")]
    lines += ["  violation: %s" % r for r in report]
    _emit(args, doc, lines)
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
    lines, objs = [], []
    for w, value in shown:
        label = ctx.gen_labels[w.index]
        lines.append("%s%s = %s   (weight %s)"
                     % (prefix, label, value.render(), w.weight))
        objs.append({"label": label, "weight": str(w.weight),
                     "value": value.to_obj()})
    doc = {"command": args.command, "algebra": g.name,
           "alphabet": alph.to_obj(), "generators": objs}
    _emit(args, doc, lines)
    return 0


def _list_table(args, g, ctx, prefix, table, **doc):
    """Print a bracket table, one line per generator pair."""
    lines = [_bracket_line(ctx, prefix, i, j, table.entry(i, j))
             for (i, j) in sorted(table.entries)]
    _emit(args, dict(doc, command=args.command, algebra=g.name,
                     table=table.to_obj()), lines)
    return 0


def cmd_generators(args):
    """generators / susy-generators: W(g, F) or W(g, f) generators."""
    g = _load(args)
    ctx = _context(g, args.flavor, _parse_k(args.k))
    return _list_generators(args, g, ctx, ctx.flavor.prefix, ctx.alph_in, [
        (w, ctx.to_input(w.value)) for w in solve_all_generators(ctx)])


def cmd_bracket(args):
    """bracket / susy-bracket: one bracket of two generators."""
    g = _load(args)
    ctx = _context(g, args.flavor, _parse_k(args.k))
    gens = {w.index: w for w in solve_all_generators(ctx)}
    i, j = args.i, args.j
    if not (0 <= i < len(gens) and 0 <= j < len(gens)):
        raise InputError("generator index out of range (have %d)" % len(gens))
    route = getattr(args, "route", None)   # susy-bracket: direct route only
    value = (w_bracket_closed if route == "closed" else w_bracket_direct)(
        ctx, gens, i, j)
    doc = {"command": args.command, "algebra": g.name, "i": i, "j": j,
           "alphabet": ctx.gen_alph.to_obj(), "value": value.to_obj()}
    if route is None:
        doc["flavor"] = ctx.flavor.name
    else:
        doc["route"] = route
    _emit(args, doc, [_bracket_line(ctx, ctx.flavor.prefix, i, j, value)])
    return 0


def cmd_bracket_table(args):
    g = _load(args)
    ctx = _context(g, args.flavor, _parse_k(args.k))
    gens = {w.index: w for w in solve_all_generators(ctx)}
    return _list_table(args, g, ctx, ctx.flavor.prefix,
                       w_bracket_table(ctx, gens, route=args.route),
                       route=args.route)


def cmd_brst_check(args):
    g = _load(args)
    ctx = _context(g, args.flavor, _parse_k(args.k))
    diff = build_d(BRSTComplex(ctx), Scalar.c())
    report = diff.verify()
    ok = not report
    lines = ["%s {d_chi d}=0 (symbolic c)" % ("PASS" if ok else "FAIL")]
    lines += ["  %s" % r for r in report]
    doc = {"command": "brst-check", "algebra": g.name, "passed": ok,
           "violations": report}
    _emit(args, doc, lines)
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
    generator solve and W table of each flavor, each built on first use."""
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
            cplx = BRSTComplex(context(SUSY))
            results[name] = build_d(cplx, Scalar.c()).verify()
        elif name == "thm-5-9":
            results[name] = compare_brst_reduction(context(SUSY), gens(SUSY),
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
    _emit(args, doc, lines)
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


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter at its own default width. The stock one
    reads the width through shutil, whose import (with bz2, lzma, zlib and
    fnmatch) every ``walg`` command would pay on its first add_argument."""

    def __init__(self, prog, indent_increment=2, max_help_position=24,
                 width=None):
        if width is None:
            width = _terminal_columns() - 2
        super().__init__(prog, indent_increment, max_help_position, width)


def build_parser():
    p = argparse.ArgumentParser(
        prog="walg", formatter_class=_HelpFormatter,
        description="Exact engine for classical and SUSY W-algebra structures")
    sub = p.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=_HelpFormatter)

    def common(sp, k=True, seed=False, flavor=EVEN):
        sp.set_defaults(flavor=flavor)
        sp.add_argument("--algebra", required=True,
                        help="catalog name (%s) or algebra file"
                        % ", ".join(sorted(CATALOG)))
        sp.add_argument("--format", choices=("text", "structured"),
                        default="text")
        if k:
            sp.add_argument("--k", default="symbolic",
                            help="level: a rational or 'symbolic'")
        if seed:   # the jacobi suite's random inputs
            sp.add_argument("--seed", type=int, default=2024)

    sp = add_parser("validate", help="check all algebra axioms")
    common(sp, k=False, flavor=None)
    sp.set_defaults(fn=cmd_validate)

    sp = add_parser("generators", help="classical W generators")
    common(sp)
    sp.set_defaults(fn=cmd_generators)

    sp = add_parser("bracket", help="classical W bracket of two generators")
    common(sp)
    sp.add_argument("i", type=int)
    sp.add_argument("j", type=int)
    sp.add_argument("--route", choices=("direct", "closed"), default="direct")
    sp.set_defaults(fn=cmd_bracket)

    sp = add_parser("bracket-table", help="full classical W table")
    common(sp)
    sp.add_argument("--route", choices=("direct", "closed"), default="direct")
    sp.set_defaults(fn=cmd_bracket_table)

    sp = add_parser("verify", help="run verification suites")
    common(sp, seed=True)
    sp.add_argument("--suite", default="all", help="one of %s or 'all'" % (SUITES,))
    sp.set_defaults(fn=cmd_verify)

    sp = add_parser("brst-check", help="d^2 = 0 with symbolic c")
    common(sp, flavor=SUSY)
    sp.set_defaults(fn=cmd_brst_check)

    sp = add_parser("brst-generators", help="H^0 generators (c = i)")
    common(sp, flavor=SUSY)
    sp.set_defaults(fn=cmd_brst_generators)

    sp = add_parser("brst-table", help="bracket table on H^0 (c = i)")
    common(sp, flavor=SUSY)
    sp.set_defaults(fn=cmd_brst_table)

    sp = add_parser("susy-generators", help="SUSY W generators")
    common(sp, flavor=SUSY)
    sp.set_defaults(fn=cmd_generators)

    sp = add_parser("susy-bracket", help="SUSY W bracket of two generators")
    common(sp, flavor=SUSY)
    sp.add_argument("i", type=int)
    sp.add_argument("j", type=int)
    sp.set_defaults(fn=cmd_bracket)

    sp = add_parser("susy-verify", help="SUSY verification suites")
    common(sp, seed=True, flavor=SUSY)
    sp.add_argument("--cross-brst", action="store_true",
                    help="also verify the BRST route and the equivalence")
    sp.set_defaults(fn=cmd_susy_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
