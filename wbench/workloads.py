"""The three workloads: their set-up, fixed operation lists and checks.

construct  W-algebra constructions at symbolic k through the library API on
           the five catalog algebras plus sl4-principal. Deterministic: the
           seed does not change it.
axioms     seeded random checks of the PVA axioms over the even affine tables
           of the five catalog algebras and the chi tables of osp12 and sl21.
cli        a fixed list of ``walg`` commands at a rational level picked by the
           seed, each in a fresh subprocess, one after another.

An operation is (name, call, check, render). ``call`` is the timed part; the
check and the rendering for the frozen digest run after the timer stops.
Operations never repeat within a pass.
"""

from __future__ import annotations

import os
import random
import subprocess
from fractions import Fraction
import sys

from common import ROOT, SL4_FILE, child_env, use_checkout_sources

CATALOG = ("sl2", "sl3-principal", "sl3-minimal", "osp12", "sl21")
SUSY = ("osp12", "sl21")
SL4 = "sl4-principal"
SL4_WEIGHTS = {2, 3, 4}

# sl2 golden values, derived by hand (Virasoro).
VIRASORO_GENERATOR = "1/4*H^2 + 1/2*k*H' + F"
VIRASORO_BRACKET = "k*w_F' + 2*k*w_F*λ + (-1/2*k^3)*λ^3"


class SetupError(RuntimeError):
    pass


class PrerequisiteError(RuntimeError):
    """An operation's input comes from an earlier operation that failed."""


class Op:
    __slots__ = ("name", "call", "check", "render")

    def __init__(self, name, call, check=None, render=None):
        self.name = name
        self.call = call
        self.check = check      # output -> None or a failure reason
        self.render = render    # output -> text for the frozen digest


def _render_table(table):
    return "\n".join("%s,%s: %s" % (i, j, table.entry(i, j).render())
                     for (i, j) in sorted(table.entries))


def _empty_report(report):
    return None if not report else "report: %s" % "; ".join(map(str, report[:3]))


def _same_as(results, other):
    def check(out):
        ref = results.get(other)
        if ref is None:
            return "reference route %s did not complete" % other
        return None if out == ref else "routes disagree with %s" % other
    return check


def _needs(results, names):
    missing = [n for n in names if n not in results]
    if missing:
        raise PrerequisiteError("prerequisite operation failed: %s" % missing[0])
    return [results[n] for n in names]


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

class Construct:
    name = "construct"
    passes = 2   # per run; a pass takes 16-22 s
    # ROADMAP item 2: w_bracket_closed indexes chain_lower[j][n+1] without a
    # bounds guard for interior chain elements; on sl4 (chains of length 3+)
    # these pairs raise IndexError in the code this benchmark was written for.
    known_defects = {"%s:w_bracket_closed:0,%d" % (SL4, j): "IndexError"
                     for j in range(3)}

    def setup(self, seed):
        use_checkout_sources()
        from walgebras.brst import BRSTComplex
        from walgebras.catalog import get_algebra
        from walgebras.liealg import load_algebra, validate_algebra
        from walgebras.swclassical import SUSYReductionContext
        from walgebras.wclassical import ReductionContext
        algebras = [(n, get_algebra(n)) for n in CATALOG]
        algebras.append((SL4, load_algebra(SL4_FILE)))
        for name, g in algebras:
            report = validate_algebra(g)
            if report:
                raise SetupError("%s does not validate: %s" % (name, report[:3]))
        ctx = {name: ReductionContext(g) for name, g in algebras}
        weights = {1 + s for s in ctx[SL4].db.spins}
        if weights != SL4_WEIGHTS:
            raise SetupError("sl4-principal generator weights %s, expected %s"
                             % (sorted(weights), sorted(SL4_WEIGHTS)))
        sctx = {name: SUSYReductionContext(g) for name, g in algebras
                if name in SUSY}
        cplx = {name: BRSTComplex(sctx[name]) for name in SUSY}
        return {"algebras": dict(algebras), "ctx": ctx, "sctx": sctx,
                "cplx": cplx}

    def ops(self, state, results):
        from walgebras.brst import (brst_bracket_table, build_d, check_thm_5_9,
                                    cohomology_generators)
        from walgebras.scalars import Scalar
        from walgebras.swclassical import (solve_susy_generator,
                                           susy_w_bracket_closed,
                                           susy_w_bracket_direct)
        from walgebras.wclassical import (solve_generator, w_bracket_closed,
                                          w_bracket_direct)
        out = []

        def gen_render(w):
            return "%s   (weight %s)" % (w.value.render(), w.weight)

        for name in CATALOG + (SL4,):
            ctx = state["ctx"][name]
            n = ctx.db.count()
            gnames = ["%s:solve_generator:%d" % (name, j) for j in range(n)]
            for j in range(n):
                check = None
                if name == "sl2":
                    def check(w, ctx=ctx):
                        got = ctx.to_input(w.value).render()
                        return None if got == VIRASORO_GENERATOR else \
                            "Virasoro generator is %s" % got
                out.append(Op(gnames[j], lambda ctx=ctx, j=j: solve_generator(ctx, j),
                              check, gen_render))

            def gens(gnames=gnames):
                return dict(enumerate(_needs(results, gnames)))

            for i in range(n):
                for j in range(n):
                    direct = "%s:w_bracket_direct:%d,%d" % (name, i, j)
                    check = None
                    if name == "sl2":
                        def check(lp):
                            got = lp.render()
                            return None if got == VIRASORO_BRACKET else \
                                "Virasoro bracket is %s" % got
                    out.append(Op(direct, lambda ctx=ctx, i=i, j=j, gens=gens:
                                  w_bracket_direct(ctx, gens(), i, j),
                                  check, lambda lp: lp.render()))
                    out.append(Op("%s:w_bracket_closed:%d,%d" % (name, i, j),
                                  lambda ctx=ctx, i=i, j=j, gens=gens:
                                  w_bracket_closed(ctx, gens(), i, j),
                                  _same_as(results, direct), lambda lp: lp.render()))
            if name not in SUSY:
                continue
            sctx = state["sctx"][name]
            m = sctx.db.count()
            snames = ["%s:solve_susy_generator:%d" % (name, j) for j in range(m)]
            for j in range(m):
                out.append(Op(snames[j],
                              lambda sctx=sctx, j=j: solve_susy_generator(sctx, j),
                              None, gen_render))

            def sgens(snames=snames):
                return dict(enumerate(_needs(results, snames)))

            for i in range(m):
                for j in range(m):
                    direct = "%s:susy_w_bracket_direct:%d,%d" % (name, i, j)
                    out.append(Op(direct, lambda sctx=sctx, i=i, j=j, sgens=sgens:
                                  susy_w_bracket_direct(sctx, sgens(), i, j),
                                  None, lambda cp: cp.render()))
                    out.append(Op("%s:susy_w_bracket_closed:%d,%d" % (name, i, j),
                                  lambda sctx=sctx, i=i, j=j, sgens=sgens:
                                  susy_w_bracket_closed(sctx, sgens(), i, j),
                                  _same_as(results, direct), lambda cp: cp.render()))
            cplx = state["cplx"][name]
            coh = "%s:cohomology_generators" % name

            def cohomology(cplx=cplx):
                diff = build_d(cplx, Scalar.imag())
                return diff, cohomology_generators(cplx, diff)

            def brst_table(cplx=cplx, coh=coh):
                diff, es = _needs(results, [coh])[0]
                return brst_bracket_table(cplx, diff, {e.index: e for e in es})

            out.append(Op("%s:brst_verify" % name,
                          lambda cplx=cplx: build_d(cplx, Scalar.c()).verify(),
                          _empty_report, str))
            out.append(Op(coh, cohomology, None, lambda r: "\n".join(
                gen_render(e) for e in r[1])))
            out.append(Op("%s:brst_bracket_table" % name, brst_table, None,
                          _render_table))
            g = state["algebras"][name]
            out.append(Op("%s:check_thm_5_9" % name, lambda g=g: check_thm_5_9(g),
                          _empty_report, str))
        return out


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

TRIPLES_PER_TABLE = 5
# The polynomials are drawn by superpoly.random_superpoly as
# random_property_suite draws them (3 terms, derivative order <= 2,
# coefficient in {-4..4}/{1..3}, times k with probability 0.4), except at
# most 2 factors per term instead of the library's 3: a 3-factor triple
# takes 8-33 s, so fewer than 100 operations would fit in a run. That draw
# comes from one fixed stream, so every seed has the same monomials, and the
# seed multiplies each term by a nonzero rational of its own. Letting the
# seed draw the monomials too made the work of a pass differ by up to 5x from
# seed to seed (see NOTES.md).
SHAPE_STREAM = "axioms"
MAX_FACTORS = 2
NONZERO = (-4, -3, -2, -1, 1, 2, 3, 4)


def reweigh(poly, rng):
    """poly with each term times a seeded nonzero rational: same monomials,
    other coefficients."""
    from walgebras.scalars import Scalar
    from walgebras.superpoly import SuperPoly
    return SuperPoly(poly.alphabet, {
        mono: c * Scalar.rational(Fraction(rng.choice(NONZERO), rng.randint(1, 3)))
        for mono, c in sorted(poly.terms.items())})


def _zero(*defects):
    bad = [d for d in defects if d]
    return None if not bad else "nonzero defect: %s" % bad[0].render()[:200]


def _render_all(*values):
    return " | ".join(v.render() for v in values)


class Axioms:
    name = "axioms"
    passes = 2   # per run; a pass takes 12-17 s
    known_defects = {}

    def setup(self, seed):
        use_checkout_sources()
        from walgebras.catalog import get_algebra
        from walgebras.liealg import validate_algebra
        from walgebras.superpoly import random_superpoly
        from walgebras.swclassical import SUSYReductionContext
        from walgebras.wclassical import ReductionContext
        tables = []
        for name in CATALOG:
            g = get_algebra(name)
            report = validate_algebra(g)
            if report:
                raise SetupError("%s does not validate: %s" % (name, report[:3]))
            tables.append((name, False, ReductionContext(g).table))
        for name in SUSY:
            tables.append((name + "/chi", True,
                           SUSYReductionContext(get_algebra(name)).table))
        # Seeded by the workload seed only: every pass of a seed does the
        # same work.
        shape = random.Random(SHAPE_STREAM)
        rng = random.Random("axioms:%d" % seed)
        inputs = []
        for name, susy, table in tables:
            for t in range(TRIPLES_PER_TABLE):
                abc = tuple(reweigh(random_superpoly(table.alphabet, shape,
                                                     max_factors=MAX_FACTORS),
                                    rng)
                            for _ in range(3))
                inputs.append((name, t, susy, table, abc))
        return {"inputs": inputs}

    def ops(self, state, results):
        from walgebras import pva, spva
        out = []
        for name, t, susy, table, (a, b, c) in state["inputs"]:
            if susy:
                skew, jac, leib, sesq, master, oracle = (
                    spva.susy_skew_defect, spva.susy_jacobi_defect,
                    spva.susy_leibniz_defects, spva.susy_sesquilinearity_defects,
                    spva.susy_master_bracket, spva.susy_bracket_oracle)
            else:
                skew, jac, leib, sesq, master, oracle = (
                    pva.skew_defect, pva.jacobi_defect, pva.leibniz_defects,
                    pva.sesquilinearity_defects, pva.master_bracket,
                    pva.bracket_oracle)
            key = "%s:%d:" % (name, t)
            out += [
                Op(key + "skew", lambda f=skew, T=table, a=a, b=b: f(a, b, T),
                   _zero, _render_all),
                Op(key + "jacobi", lambda f=jac, T=table, a=a, b=b, c=c:
                   f(a, b, c, T), _zero, _render_all),
                Op(key + "leibniz", lambda f=leib, T=table, a=a, b=b, c=c:
                   f(a, b, c, T), lambda r: _zero(*r), lambda r: _render_all(*r)),
                Op(key + "sesquilinearity", lambda f=sesq, T=table, a=a, b=b:
                   f(a, b, T), lambda r: _zero(*r), lambda r: _render_all(*r)),
                Op(key + "master_vs_oracle",
                   lambda m=master, o=oracle, T=table, a=a, b=b:
                   (m(a, b, T), o(a, b, T)),
                   lambda r: None if r[0] == r[1] else
                   "master formula disagrees with the oracle",
                   lambda r: r[0].render()),
            ]
        return out


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# The seed picks the level; the expected output of every command is frozen
# for each of these levels.
LEVELS = ("1/2", "3/2", "5/2", "-1/2")
SL4_ARG = os.path.relpath(SL4_FILE, ROOT)
SUITES = ("skew", "lemma-3-4", "lemma-6-4", "thm-3-6", "thm-6-5", "d-squared",
          "thm-5-9", "prop-4-3")   # every suite but jacobi/all (random rounds)
# Without osp(1|2) data the other suites report PASS without computing
# anything, so on the even-only algebras they would time interpreter start
# alone.
EVEN_SUITES = ("skew", "lemma-3-4", "thm-3-6")


def cli_commands(level):
    """The fixed command list, as (name, argv) pairs.

    The list is cut so that two passes fit in a run: every command on every
    algebra it applies to, single brackets on the default (direct) route
    only, every suite on osp12, and on sl21 no brst-table and only the
    suites of the even algebras (its SUSY suites and brst-table take
    0.4-2.5 s each; the construct workload covers that work).
    """
    cmds = []
    k = "--k=" + level

    def add(*argv):
        cmds.append((" ".join(argv), list(argv)))

    ngen = {"sl2": 1, "sl3-principal": 2, "sl3-minimal": 4, "osp12": 2,
            "sl21": 4}
    nsusy = {"osp12": 1, "sl21": 2}
    for alg in CATALOG:
        add("validate", "--algebra", alg)
        add("generators", "--algebra", alg, k)
        add("generators", "--algebra", alg, k, "--format", "structured")
        for route in ("direct", "closed"):
            add("bracket-table", "--algebra", alg, k, "--route", route)
        for i in range(ngen[alg]):
            for j in range(ngen[alg]):
                add("bracket", "--algebra", alg, k, str(i), str(j))
        suites = EVEN_SUITES
        if alg in SUSY:
            add("susy-generators", "--algebra", alg, k)
            for i in range(nsusy[alg]):
                for j in range(nsusy[alg]):
                    add("susy-bracket", "--algebra", alg, k, str(i), str(j))
            add("brst-check", "--algebra", alg, k)
            add("brst-generators", "--algebra", alg, k)
            if alg == "osp12":
                add("brst-table", "--algebra", alg, k)
                suites = SUITES
        for suite in suites:
            add("verify", "--algebra", alg, k, "--suite", suite)
    # On the sl4 file only the two commands of the known defect below: each
    # sl4 command loads and validates the file and solves the generators
    # (2-3.5 s), so more of them would not leave room for two passes.
    add("bracket-table", "--algebra", SL4_ARG, k, "--route", "closed")
    add("verify", "--algebra", SL4_ARG, k, "--suite", "thm-3-6")
    return cmds


# sl4 commands that reach w_bracket_closed on an interior chain element and
# die with an IndexError traceback (ROADMAP item 2). Their frozen
# expectation is the correct output, taken from the direct route.
CLI_KNOWN_DEFECTS = {
    "bracket-table --algebra %s --k={k} --route closed" % SL4_ARG,
    "verify --algebra %s --k={k} --suite thm-3-6" % SL4_ARG,
}


def cli_twin(argv):
    """The direct-route command whose stdout a known-defect command must
    reproduce, used when freezing expectations."""
    if argv[0] == "bracket-table":
        return argv[:-1] + ["direct"]
    if argv[0] == "verify":
        return None   # expected stdout is the PASS line
    raise ValueError(argv)


def run_walg(argv, env, tracer_out=None):
    """Run one command in a fresh interpreter; returns (code, stdout, stderr)."""
    # -S: walgebras needs only the standard library, so the site-packages
    # hooks of the machine's Python installation are not part of its cost.
    if tracer_out is None:
        cmd = [sys.executable, "-S", "-m", "walgebras.cli"] + argv
    else:
        env = dict(env, WBENCH_TRACE_OUT=tracer_out)
        cmd = [sys.executable, "-S", os.path.join(os.path.dirname(__file__),
                                                  "tracecli.py")] + argv
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_check(res):
    code, _out, err = res
    if code == 0:
        return None
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return "exit %d: %s" % (code, last[:200])


class Cli:
    name = "cli"
    passes = 1   # per run; a pass takes 18-30 s
    known_defects = {}   # set per level by setup()

    def __init__(self):
        self.trace_dir = None   # set by the worker for traced passes

    def level(self, seed):
        return LEVELS[seed % len(LEVELS)]

    def known_defects_for(self, level):
        return {name.format(k=level): "IndexError" for name in CLI_KNOWN_DEFECTS}

    def setup(self, seed):
        if not os.path.isfile(os.path.join(ROOT, "src", "walgebras", "cli.py")):
            raise SetupError("no src/walgebras/cli.py in the checkout")
        level = self.level(seed)
        env = child_env()
        code, out, err = run_walg(["--help"], env)
        if code != 0 or "walg" not in out:
            raise SetupError("walg does not start: %s" % err.strip()[-200:])
        self.known_defects = self.known_defects_for(level)
        return {"level": level, "env": env, "commands": cli_commands(level)}

    def ops(self, state, results):
        env = state["env"]
        out = []
        for n, (name, argv) in enumerate(state["commands"]):
            trace_file = None
            if self.trace_dir is not None:
                trace_file = os.path.join(self.trace_dir, "cmd%03d" % n)
            out.append(Op(name, lambda argv=argv, tf=trace_file:
                          run_walg(argv, env, tf), _cli_check, lambda r: r[1]))
        return out


WORKLOADS = {"construct": Construct, "axioms": Axioms, "cli": Cli}
