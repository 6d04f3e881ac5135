"""Batch front door: load descriptions, run the checks, print reports.

Every command reads an algebra file (and optionally object list files),
runs one verification suite, and prints a report.  Text output is for
reading; JSON output is the machine contract, canonical enough that
parsing and re-dumping a report reproduces it byte for byte.

The shift window (--window, or default_window) is a label: the reports
print it, and no computation reads it.  Each Hom scan walks the support
of the Hom complex, every shift where a Hom can be nonzero, so a zero
means "vanishes at every shift", never "not looked at", whatever the
window says.
yoneda-oracle has a degree bound, not a shift window: it refuses
--window (exit 2) and reports its degree bound as its window.

Exit status: 0 when every check in the job passed, 1 when a check
failed (the report carries the witness), 2 when an input file did not
parse or validate.

Only the command line loads click.  `run` and `load_corpus` are the
library's way in (the scripts, the tests and the benchmark call them),
and loading click and building seven commands would cost each such
process about 1.4 MB of peak memory (CPython 3.11, click 8).  So `main`,
the click group that the ``heartglue`` console script, ``python -m
heartglue.cli`` and click's CliRunner invoke, is built on first access
to `cli.main`.

Consecutive jobs on one algebra description share its algebra, its
objects and their memos, through the one entry `jsonio` keeps (see its
cache policy).  A command-line invocation is one job in its own
process, so only a caller that runs several jobs in one process, such
as scripts/check_all.py, gains from it.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .complexes import cohomology_dims, shift
from .derived import as_cx, dhom_space, hom_scan
from .glue import (AddGeneratedAisle, ExcError, GlueError,
                   check_dim_formula, check_sequence, glue, glue_sequence)
from .jsonio import (SchemaError, algebra_to_dict, dump_json, load_algebra,
                     load_objects, object_from_dict)
from .bondal import BondalError, bondal_check
from .reps import Rep, projective
from .yoneda import f_map, factor_image_dim, factors_through, splice_from_class

CORPUS_NAMES = ("a2", "a3", "a3rel", "commsquare", "kronecker")


@dataclass(frozen=True)
class JobSpec:
    """One batch job: a command plus its inputs and output shape."""

    command: str
    algebra_path: str | None = None
    object_paths: tuple[str, ...] = ()
    window: int | None = None
    output: str = "text"
    out_path: str | None = None


def corpus_dir() -> Path:
    env = os.environ.get("HEARTGLUE_CORPUS_DIR")
    return Path(env) if env else Path(__file__).parent / "corpus"


def corpus_path(name: str) -> Path:
    return corpus_dir() / f"{name}.json"


def load_corpus() -> dict:
    """The five bundled algebras, keyed by name."""
    return {name: load_algebra(str(corpus_path(name)))
            for name in CORPUS_NAMES}


def _objects(job: JobSpec, alg):
    if job.object_paths:
        out = []
        for p in job.object_paths:
            out.extend(load_objects(p, alg))
        return out
    return _at_vertices(alg, "projective")


def _at_vertices(alg, *kinds: str) -> list:
    """The labelled objects of each kind at every vertex, through the
    object specs that jsonio shares between jobs."""
    return [object_from_dict({"type": kind, "vertex": i}, alg)
            for kind in kinds for i in range(1, alg.vertex_count + 1)]


def default_window(algebra, count: int = 1) -> int:
    """Shift window a report quotes for a job on count objects."""
    return algebra.vertex_count + count + 2


def _window(job: JobSpec, alg, count: int) -> int:
    return (job.window if job.window is not None
            else default_window(alg, count))


def _start(job: JobSpec):
    """The labelled objects of a job on an algebra file, the fields every
    report of the job shares, and its first text line."""
    alg = load_algebra(job.algebra_path)
    objs = _objects(job, alg)
    w = _window(job, alg, len(objs))
    base = {"command": job.command, "window": w,
            "objects": [label for label, _ in objs]}
    return objs, base, [f"{job.command}  window={w}"]


def _run_ext_table(job: JobSpec):
    objs, base, lines = _start(job)
    cxs = [as_cx(v) for _, v in objs]
    entries = []
    for i, a in enumerate(cxs, 1):
        for j, b in enumerate(cxs, 1):
            entries += [{"source": i, "target": j, "shift": n, "dim": d}
                        for n, d in hom_scan(a, b)]
    report = dict(base, entries=entries, ok=True)
    lines += [f"object {i}: {label}"
              for i, (label, _) in enumerate(objs, 1)]
    lines += [f"Hom({e['source']}, {e['target']}[{e['shift']}]) = {e['dim']}"
              for e in entries]
    lines.append(f"{len(entries)} nonzero spaces; "
                 "every other scanned shift vanishes")
    return 0, report, lines


def _exc_payload(e: ExcError) -> dict:
    pos = e.position  # None, a 1-based index or an (i, j) pair
    return {"position": list(pos) if isinstance(pos, tuple) else pos,
            "shift": e.shift, "dim": e.dim, "message": str(e)}


def _run_check_exceptional(job: JobSpec):
    objs, base, lines = _start(job)
    try:
        es = check_sequence([v for _, v in objs])
    except ExcError as e:
        report = dict(base, exceptional=False, strong=False,
                      failure=_exc_payload(e), shifted_entries=[], ok=False)
        lines.append(f"not exceptional: {e}")
        return 1, report, lines
    shifted = [{"source": i, "target": j, "shift": n, "dim": d}
               for (i, j, n), d in sorted(es.hom_table.items()) if n != 0]
    report = dict(base, exceptional=True, strong=es.strong, failure=None,
                  shifted_entries=shifted, ok=es.strong)
    lines.append("exceptional: yes")
    lines.append(f"strong: {'yes' if es.strong else 'no'}")
    lines += [f"Hom({e['source']}, {e['target']}[{e['shift']}]) = "
              f"{e['dim']} breaks strongness" for e in shifted]
    return (0 if es.strong else 1), report, lines


def _run_glue_hearts(job: JobSpec):
    objs, base, lines = _start(job)
    try:
        es = check_sequence([v for _, v in objs])
        _, heart = glue_sequence(es)
    except (ExcError, GlueError) as e:
        lines.append(f"failed: {e}")
        return 1, dict(base, ok=False, error=str(e), generators=[]), lines
    gens = []
    for k, g in enumerate(heart.generators, 1):
        coh = {str(d): list(v)
               for d, v in sorted(cohomology_dims(g).items())}
        gens.append({"index": k, "cohomology": coh})
    report = dict(base, ok=True, provenance=heart.provenance,
                  generators=gens)
    lines.append(heart.provenance)
    for g in gens:
        parts = "; ".join(
            f"H^{d} dims {tuple(v)}"
            for d, v in sorted(g["cohomology"].items(),
                               key=lambda kv: int(kv[0])))
        lines.append(f"generator {g['index']}: {parts}")
    return 0, report, lines


def _run_dim_formula(job: JobSpec):
    objs, base, lines = _start(job)
    if len(objs) < 2:
        raise SchemaError("dim-formula needs at least two objects")
    try:
        es = check_sequence([v for _, v in objs])
        glued, heart = glue_sequence(es)
        rep = check_dim_formula(glued.left.heart(), glued.right.heart(),
                                heart)
    except (ExcError, GlueError) as e:
        lines.append(f"failed: {e}")
        return 1, dict(base, ok=False, error=str(e)), lines
    report = dict(base, pieces=len(es),
                  lhs=rep.lhs, rhs=rep.rhs, dim_left=rep.dim_left,
                  dim_right=rep.dim_right, rel=rep.rel,
                  witness=list(rep.witness), ok=rep.ok)
    lines.append(f"lhs={rep.lhs} rhs={rep.rhs} "
                 f"{'OK' if rep.ok else 'MISMATCH'}")
    lines.append(f"rhs = max(left={rep.dim_left}, right={rep.dim_right}, "
                 f"rel+1={rep.rel + 1})")
    i, j, s = rep.witness
    lines.append(f"witness: Hom(generator {i}, generator {j}[{s}]) "
                 "is nonzero")
    return (0 if rep.ok else 1), report, lines


def _run_yoneda_oracle(job: JobSpec):
    max_degree = 3
    if job.window is not None:
        raise SchemaError(f"yoneda-oracle has a degree bound (1..{max_degree}),"
                          " not a shift window; drop --window")
    alg = load_algebra(job.algebra_path)
    if job.object_paths:
        objs = _objects(job, alg)
        for label, v in objs:
            if not isinstance(v, Rep):
                raise SchemaError(
                    f"yoneda-oracle works on plain modules, not {label}")
    else:
        objs = _at_vertices(alg, "simple", "projective")
    entries = []
    checked = 0
    ok = True
    for i, (_, a) in enumerate(objs, 1):
        for j, (_, b) in enumerate(objs, 1):
            for n, _ in hom_scan(a, b, max_degree):
                if n < 1:
                    continue
                sp = dhom_space(a, b, n)
                good = all(
                    f_map(splice_from_class(c, a, b, n)) == c
                    for c in sp.basis())
                ok = ok and good
                checked += sp.dim
                entries.append({"source": i, "target": j, "degree": n,
                                "dim": sp.dim, "round_trip": good})
    report = {"command": "yoneda-oracle", "window": max_degree,
              "objects": [label for label, _ in objs],
              "classes_checked": checked, "entries": entries, "ok": ok}
    lines = [f"yoneda-oracle  degrees 1..{max_degree}"]
    lines += [f"object {i}: {label}"
              for i, (label, _) in enumerate(objs, 1)]
    for e in entries:
        verdict = "round trip ok" if e["round_trip"] else "ROUND TRIP FAILS"
        lines.append(f"Ext^{e['degree']}({e['source']}, {e['target']}) "
                     f"dim {e['dim']}: {verdict}")
    lines.append(f"{checked} classes spliced and read back")
    return (0 if ok else 1), report, lines


def _run_bondal_check(job: JobSpec):
    objs, base, lines = _start(job)
    try:
        es = check_sequence([v for _, v in objs], strong=True)
        r = bondal_check(es)
    except (ExcError, BondalError) as e:
        lines.append(f"failed: {e}")
        return 1, dict(base, ok=False, error=str(e)), lines
    desc = algebra_to_dict(r.presentation.algebra)
    report = dict(base, end_dim=r.end_dim,
                  algebra_dim=r.algebra_dim, vertices=desc["vertices"],
                  arrows=desc["arrows"], relations=desc["relations"],
                  products_checked=r.products_checked,
                  triples_checked=r.triples_checked,
                  eval_pairs_checked=r.eval_pairs_checked,
                  faithful_pairs=r.faithful.pairs,
                  faithful_ok=r.faithful.ok, table_ok=r.table.ok,
                  comparisons=len(r.comparisons), ok=r.ok)
    lines.append(f"endomorphism algebra dim {r.end_dim}; "
                 f"presented path algebra dim {r.algebra_dim}")
    lines += [f"arrow {a['name']}: {a['source']} -> {a['target']}"
              for a in desc["arrows"]]
    for rel in desc["relations"]:
        body = " + ".join(f"{t['coef']}*{'.'.join(t['path'])}"
                          for t in rel)
        lines.append(f"relation: {body} = 0")
    lines.append(f"unit and associativity: {r.products_checked} products, "
                 f"{r.triples_checked} triples")
    lines.append(f"path evaluation multiplicative on "
                 f"{r.eval_pairs_checked} pairs")
    lines.append(f"hom modules match projectives at {len(r.comparisons)} "
                 "positions")
    lines.append(f"faithful on {r.faithful.pairs} pairs: "
                 f"{'yes' if r.faithful.ok else 'NO'}")
    lines.append(f"shift table match: {'yes' if r.table.ok else 'NO'}")
    return (0 if r.ok else 1), report, lines


def _case_shifted_pair(alg, w: int) -> dict:
    p1, p2 = projective(alg, 1), projective(alg, 2)
    left = AddGeneratedAisle((shift(as_cx(p1), 1),))
    right = AddGeneratedAisle((as_cx(p2),))
    _, heart = glue(left, right)
    sp = dhom_space(shift(as_cx(p1), 2), as_cx(p2), 2)
    basis_factor = [factors_through(c, heart.generators)
                    for c in sp.basis()]
    zero_ok = factors_through(sp.zero(), heart.generators)
    fdim = factor_image_dim(sp.x, sp.y, 2, heart.generators)
    reproduced = (sp.dim == 2 and fdim == 0
                  and not any(basis_factor) and zero_ok)
    return {"name": "kronecker-shifted-pair", "algebra": "kronecker",
            "window": w, "space_dim": sp.dim, "factoring_dim": fdim,
            "basis_classes_factor": basis_factor,
            "zero_class_factors": zero_ok, "reproduced": reproduced}


def _case_branching(alg, w: int) -> dict:
    ps = [projective(alg, i) for i in (1, 2, 3)]
    es = check_sequence(ps, strong=True)
    _, heart = glue_sequence(es)
    sp = dhom_space(shift(as_cx(ps[0]), 2), as_cx(ps[2]), 2)
    c = sp.basis()[0]
    factors = factors_through(c, heart.generators)
    zero_ok = factors_through(sp.zero(), heart.generators)
    reproduced = sp.dim == 1 and not factors and zero_ok
    return {"name": "branching-three-term", "algebra": "branching",
            "window": w, "space_dim": sp.dim, "class_factors": factors,
            "zero_class_factors": zero_ok, "reproduced": reproduced}


def _run_remark_counterexamples(job: JobSpec):
    if job.algebra_path or job.object_paths:
        raise SchemaError(
            "remark-counterexamples runs on bundled data and takes no files")
    kron = load_algebra(str(corpus_path("kronecker")))
    branching = load_algebra(str(corpus_path("branching")))
    cases = [_case_shifted_pair(kron, _window(job, kron, 2)),
             _case_branching(branching, _window(job, branching, 3))]
    ok = all(c["reproduced"] for c in cases)
    report = {"command": "remark-counterexamples",
              "window": {c["name"]: c["window"] for c in cases},
              "cases": cases, "ok": ok}
    lines = ["remark-counterexamples"]
    c = cases[0]
    lines.append(f"{c['name']}  window={c['window']}")
    lines.append(f"  degree-2 hom space dim {c['space_dim']}; factoring "
                 f"subspace dim {c['factoring_dim']}; no nonzero class "
                 f"factors through the shifted heart: "
                 f"{'reproduced' if c['reproduced'] else 'NOT reproduced'}")
    c = cases[1]
    lines.append(f"{c['name']}  window={c['window']}")
    lines.append(f"  the branch arrow's class "
                 f"{'does not factor' if not c['class_factors'] else 'factors'} "
                 f"through the shifted glued heart: "
                 f"{'reproduced' if c['reproduced'] else 'NOT reproduced'}")
    return (0 if ok else 1), report, lines


# the seven jobs in command-line order: each one's runner and help text
_JOBS = {
    "ext-table": (
        _run_ext_table,
        "Pairwise hom dimensions of the objects at every shift."),
    "check-exceptional": (
        _run_check_exceptional,
        "Verify the objects form a (strong) exceptional sequence."),
    "glue-hearts": (
        _run_glue_hearts,
        "Glue the objects' aisles and describe the heart."),
    "dim-formula": (
        _run_dim_formula,
        "Compare the glued heart dimension with the piecewise formula."),
    "yoneda-oracle": (
        _run_yoneda_oracle,
        "Splice extensions from classes and read them back."),
    "bondal-check": (
        _run_bondal_check,
        "Present the endomorphism algebra and match hom modules with "
        "projectives."),
    "remark-counterexamples": (
        _run_remark_counterexamples,
        "Reproduce the bundled factorization counterexamples."),
}
COMMANDS = tuple(_JOBS)


def run(job: JobSpec) -> tuple[int, str]:
    """Execute one job and render its report.

    Returns (exit status, rendered report); writes the report to
    job.out_path when set.  The same JobSpec always renders the same
    bytes.
    """
    try:
        if job.command not in _JOBS:
            raise SchemaError(f"unknown command {job.command!r}")
        if job.window is not None and job.window < 1:
            raise SchemaError("window must be at least 1")
        if job.command not in ("remark-counterexamples",) \
                and not job.algebra_path:
            raise SchemaError(f"{job.command} needs an algebra file")
        code, report, lines = _JOBS[job.command][0](job)
    except SchemaError as e:
        code = 2
        report = {"command": job.command, "error": str(e), "ok": False}
        lines = [f"error: {e}"]
    rendered = (dump_json(report) if job.output == "json"
                else "\n".join(lines) + "\n")
    if job.out_path:
        Path(job.out_path).write_text(rendered, encoding="utf-8")
    return code, rendered


def _command_line():
    """Build the click group of the seven commands, once."""
    import click

    @click.group()
    def main():
        """Exact homological checks over path algebras of ordered quivers."""

    def command(name: str) -> click.Command:
        def callback(algebra=None, object_paths=(), **kw):
            job = JobSpec(name, algebra, tuple(object_paths), **kw)
            code, rendered = run(job)
            if not job.out_path:
                click.echo(rendered, nl=False)
            sys.exit(code)

        params = [] if name == "remark-counterexamples" else [
            click.Argument(["algebra"], type=click.Path()),
            click.Option(["--objects", "object_paths"], multiple=True,
                         help="Object list file (repeatable); default: "
                              "the projectives in vertex order.")]
        params += [
            click.Option(["--window"], type=click.IntRange(min=1),
                         help="Shift window the report quotes; every scan "
                              "covers all shifts where a Hom can be "
                              "nonzero."),
            click.Option(["--format", "output"], default="text",
                         type=click.Choice(["text", "json"]),
                         help="Report format."),
            click.Option(["--out", "out_path"],
                         type=click.Path(dir_okay=False),
                         help="Write the report to this file instead of "
                              "stdout."),
        ]
        return click.Command(name, params=params, callback=callback,
                             help=_JOBS[name][1])

    for name in COMMANDS:
        main.add_command(command(name))
    globals()["main"] = main
    return main


def __getattr__(name: str):
    # cli.main, the console script's entry point, is built on first use.
    if name == "main":
        return _command_line()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    _command_line()()
