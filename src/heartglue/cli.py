"""Batch front door: load descriptions, run the checks, print reports.

Every command reads an algebra file (and optionally object list files),
runs one verification suite, and prints a report.  Text output is for
reading; JSON output is the machine contract, canonical enough that
parsing and re-dumping a report reproduces it byte for byte.  Both
always state the shift window a scan used, so a zero means "vanishes
everywhere in the window", never "not looked at".

Exit status: 0 when every check in the job passed, 1 when a check
failed (the report carries the witness), 2 when an input file did not
parse or validate.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from .complexes import cohomology_dims, shift
from .derived import as_cx, dhom_space
from .glue import (AddGeneratedAisle, ExcError, GlueError, _homs,
                   check_dim_formula, check_sequence, default_window, glue,
                   glue_sequence)
from .jsonio import (SchemaError, algebra_to_dict, dump_json, load_algebra,
                     load_objects)
from .bondal import BondalError, bondal_check
from .reps import Rep, projective, simple
from .yoneda import f_map, factor_image_dim, factors_through, splice_from_class

COMMANDS = ("ext-table", "check-exceptional", "glue-hearts", "dim-formula",
            "yoneda-oracle", "bondal-check", "remark-counterexamples")

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
    return [(f"projective {i}", projective(alg, i))
            for i in range(1, alg.vertex_count + 1)]


def _window(job: JobSpec, alg, count: int) -> int:
    return (job.window if job.window is not None
            else default_window(alg, count))


def _jsonable(v):
    if isinstance(v, tuple):
        return list(v)
    return v


def _run_ext_table(job: JobSpec):
    alg = load_algebra(job.algebra_path)
    objs = [(label, as_cx(v)) for label, v in _objects(job, alg)]
    w = _window(job, alg, len(objs))
    entries = []
    for i, (_, a) in enumerate(objs, 1):
        for j, (_, b) in enumerate(objs, 1):
            entries += [{"source": i, "target": j, "shift": n, "dim": d}
                        for n, d in _homs(a, b, w)]
    report = {"command": "ext-table", "window": w,
              "objects": [label for label, _ in objs],
              "entries": entries, "ok": True}
    lines = [f"ext-table  window={w}"]
    lines += [f"object {i}: {label}"
              for i, (label, _) in enumerate(objs, 1)]
    lines += [f"Hom({e['source']}, {e['target']}[{e['shift']}]) = {e['dim']}"
              for e in entries]
    lines.append(f"{len(entries)} nonzero spaces; "
                 "every other scanned shift vanishes")
    return 0, report, lines


def _exc_payload(e: ExcError) -> dict:
    return {"position": _jsonable(getattr(e, "position", None)),
            "shift": getattr(e, "shift", None),
            "dim": getattr(e, "dim", None),
            "message": str(e)}


def _run_check_exceptional(job: JobSpec):
    alg = load_algebra(job.algebra_path)
    objs = _objects(job, alg)
    w = _window(job, alg, len(objs))
    base = {"command": "check-exceptional", "window": w,
            "objects": [label for label, _ in objs]}
    lines = [f"check-exceptional  window={w}"]
    try:
        es = check_sequence([v for _, v in objs], window=w)
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
    alg = load_algebra(job.algebra_path)
    objs = _objects(job, alg)
    w = _window(job, alg, len(objs))
    base = {"command": "glue-hearts", "window": w,
            "objects": [label for label, _ in objs]}
    lines = [f"glue-hearts  window={w}"]
    try:
        es = check_sequence([v for _, v in objs], window=w)
        _, heart = glue_sequence(es, window=w)
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
    alg = load_algebra(job.algebra_path)
    objs = _objects(job, alg)
    if len(objs) < 2:
        raise SchemaError("dim-formula needs at least two objects")
    w = _window(job, alg, len(objs))
    base = {"command": "dim-formula", "window": w,
            "objects": [label for label, _ in objs]}
    lines = [f"dim-formula  window={w}"]
    try:
        es = check_sequence([v for _, v in objs], window=w)
        glued, heart = glue_sequence(es, window=w)
        rep = check_dim_formula(glued.left.heart(), glued.right.heart(),
                                heart, window=job.window)
    except (ExcError, GlueError) as e:
        lines.append(f"failed: {e}")
        return 1, dict(base, ok=False, error=str(e)), lines
    report = dict(base, window=rep.window, pieces=len(es),
                  lhs=rep.lhs, rhs=rep.rhs, dim_left=rep.dim_left,
                  dim_right=rep.dim_right, rel=rep.rel,
                  witness=list(rep.witness), ok=rep.ok)
    lines[0] = f"dim-formula  window={rep.window}"
    lines.append(f"lhs={rep.lhs} rhs={rep.rhs} "
                 f"{'OK' if rep.ok else 'MISMATCH'}")
    lines.append(f"rhs = max(left={rep.dim_left}, right={rep.dim_right}, "
                 f"rel+1={rep.rel + 1})")
    i, j, s = rep.witness
    lines.append(f"witness: Hom(generator {i}, generator {j}[{s}]) "
                 "is nonzero")
    return (0 if rep.ok else 1), report, lines


def _run_yoneda_oracle(job: JobSpec):
    alg = load_algebra(job.algebra_path)
    if job.object_paths:
        objs = _objects(job, alg)
        for label, v in objs:
            if not isinstance(v, Rep):
                raise SchemaError(
                    f"yoneda-oracle works on plain modules, not {label}")
    else:
        objs = [(f"simple {i}", simple(alg, i))
                for i in range(1, alg.vertex_count + 1)]
        objs += [(f"projective {i}", projective(alg, i))
                 for i in range(1, alg.vertex_count + 1)]
    max_degree = 3
    entries = []
    checked = 0
    ok = True
    for i, (_, a) in enumerate(objs, 1):
        for j, (_, b) in enumerate(objs, 1):
            for n in range(1, max_degree + 1):
                sp = dhom_space(a, b, n)
                if sp.dim == 0:
                    continue
                good = all(
                    f_map(splice_from_class(c, a, b, n)).coords == c.coords
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
    alg = load_algebra(job.algebra_path)
    objs = _objects(job, alg)
    w = _window(job, alg, len(objs))
    base = {"command": "bondal-check", "window": w,
            "objects": [label for label, _ in objs]}
    lines = [f"bondal-check  window={w}"]
    try:
        es = check_sequence([v for _, v in objs], strong=True, window=w)
        r = bondal_check(es, window=job.window)
    except (ExcError, BondalError) as e:
        lines.append(f"failed: {e}")
        return 1, dict(base, ok=False, error=str(e)), lines
    desc = algebra_to_dict(r.presentation.algebra)
    report = dict(base, window=r.table.window, end_dim=r.end_dim,
                  algebra_dim=r.algebra_dim, vertices=desc["vertices"],
                  arrows=desc["arrows"], relations=desc["relations"],
                  products_checked=r.products_checked,
                  triples_checked=r.triples_checked,
                  eval_pairs_checked=r.eval_pairs_checked,
                  faithful_pairs=r.faithful.pairs,
                  faithful_ok=r.faithful.ok, table_ok=r.table.ok,
                  comparisons=len(r.comparisons), ok=r.ok)
    lines[0] = f"bondal-check  window={r.table.window}"
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


def _case_shifted_pair(alg, window: int | None) -> dict:
    w = window if window is not None else default_window(alg, 2)
    p1, p2 = projective(alg, 1), projective(alg, 2)
    left = AddGeneratedAisle((shift(as_cx(p1), 1),), window=w)
    right = AddGeneratedAisle((as_cx(p2),), window=w)
    _, heart = glue(left, right, window=w)
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


def _case_branching(alg, window: int | None) -> dict:
    w = window if window is not None else default_window(alg, 3)
    ps = [projective(alg, i) for i in (1, 2, 3)]
    es = check_sequence(ps, strong=True, window=w)
    _, heart = glue_sequence(es, window=w)
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
    cases = [_case_shifted_pair(kron, job.window),
             _case_branching(branching, job.window)]
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


_RUNNERS = {
    "ext-table": _run_ext_table,
    "check-exceptional": _run_check_exceptional,
    "glue-hearts": _run_glue_hearts,
    "dim-formula": _run_dim_formula,
    "yoneda-oracle": _run_yoneda_oracle,
    "bondal-check": _run_bondal_check,
    "remark-counterexamples": _run_remark_counterexamples,
}


def run(job: JobSpec) -> tuple[int, str]:
    """Execute one job and render its report.

    Returns (exit status, rendered report); writes the report to
    job.out_path when set.  The same JobSpec always renders the same
    bytes.
    """
    try:
        if job.command not in _RUNNERS:
            raise SchemaError(f"unknown command {job.command!r}")
        if job.window is not None and job.window < 1:
            raise SchemaError("window must be at least 1")
        if job.command not in ("remark-counterexamples",) \
                and not job.algebra_path:
            raise SchemaError(f"{job.command} needs an algebra file")
        code, report, lines = _RUNNERS[job.command](job)
    except SchemaError as e:
        code = 2
        report = {"command": job.command, "error": str(e), "ok": False}
        lines = [f"error: {e}"]
    rendered = (dump_json(report) if job.output == "json"
                else "\n".join(lines) + "\n")
    if job.out_path:
        Path(job.out_path).write_text(rendered, encoding="utf-8")
    return code, rendered


_HELP = {
    "ext-table": "Pairwise hom dimensions of the objects at every shift.",
    "check-exceptional": "Verify the objects form a (strong) exceptional "
                         "sequence.",
    "glue-hearts": "Glue the objects' aisles and describe the heart.",
    "dim-formula": "Compare the glued heart dimension with the piecewise "
                   "formula.",
    "yoneda-oracle": "Splice extensions from classes and read them back.",
    "bondal-check": "Present the endomorphism algebra and match hom "
                    "modules with projectives.",
    "remark-counterexamples": "Reproduce the bundled factorization "
                              "counterexamples.",
}


@click.group()
def main():
    """Exact homological checks over path algebras of ordered quivers."""


def _make_command(name: str) -> click.Command:
    takes_files = name != "remark-counterexamples"
    params = []
    if takes_files:
        params.append(click.Argument(["algebra"], type=click.Path()))
        params.append(click.Option(
            ["--objects", "object_paths"], multiple=True,
            help="Object list file (repeatable); default: the "
                 "projectives in vertex order."))
    params += [
        click.Option(["--window"], type=click.IntRange(min=1), default=None,
                     help="Shift radius for hom scans."),
        click.Option(["--format", "output"],
                     type=click.Choice(["text", "json"]), default="text",
                     help="Report format."),
        click.Option(["--out", "out_path"],
                     type=click.Path(dir_okay=False), default=None,
                     help="Write the report to this file instead of "
                          "stdout."),
    ]

    def callback(**kw):
        job = JobSpec(command=name,
                      algebra_path=kw.get("algebra"),
                      object_paths=tuple(kw.get("object_paths", ())),
                      window=kw["window"], output=kw["output"],
                      out_path=kw["out_path"])
        code, rendered = run(job)
        if not job.out_path:
            click.echo(rendered, nl=False)
        sys.exit(code)

    return click.Command(name, params=params, callback=callback,
                         help=_HELP[name])


for _name in COMMANDS:
    main.add_command(_make_command(_name))


if __name__ == "__main__":
    main()
