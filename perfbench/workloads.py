"""The workloads: fixed, seeded lists of operations, and their checks.

An operation is one CLI job, one glued truncation with its certificate
checks, or one Baer-sum or Yoneda-product comparison.  Every operation
has a known verdict.  A CLI job must exit with the recorded status and
render the recorded report byte for byte (golden/<workload>.json); an
ext-table job must also match the Euler form computed here from the path
counts of the algebra; the other operations must return True.

Why these three workloads:

- hom-scan runs ext-table and check-exceptional over the bundled corpus
  and the scaled families.  Only dimensions are needed, every (X, Y, n)
  is built once and most scanned shifts vanish, so it stresses derived
  Hom-space builds and the reps/linalg object construction while rref is
  a small share.  Rank-only Hom dimensions and bounded scans should show
  here; a content-keyed cache has nothing to hit.
- ext-calculus runs yoneda-oracle and bondal-check and compares Baer
  sums and Yoneda products with derived class addition and composition.
  It uses the derived layer for coordinates (class_of, solve_lift,
  compose_classes) and reps kernels and cokernels.  A gain that helps
  dimension-only work should leave it unchanged.
- glue-truncate runs glue-hearts, dim-formula and remark-counterexamples
  and glued truncations of X = (P + Q[k])[j], where cones nest and grow.
  Minimal models, a content-keyed cache and integer rref should move it.

The seed picks the shift j of each truncated object and the coefficients
of the compared classes; hom-scan has nothing random.  It does not pick
which algebras, objects or spaces are used, nor the order of the
operations, so every seed does the same work in the same order and the
figures of different seeds can be compared.  The order matters beyond
the work: the first operation to use a Hom space pays for building it,
and a full garbage collection lands in whichever operation allocates at
that moment.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from heartglue import cli, complexes, derived, glue, jsonio, reps, yoneda

WORKLOADS = ("hom-scan", "ext-calculus", "glue-truncate")

CORPUS = ("a2", "a3", "a3rel", "branching", "commsquare", "kronecker")

HOM_SCAN_ALGEBRAS = CORPUS + ("A4-rad2", "A6", "K4", "K12")
YONEDA_ORACLE_ALGEBRAS = CORPUS + ("A5-rad2", "A6", "K4", "K5", "K6")
BONDAL_ALGEBRAS = CORPUS + ("A5-rad2", "K4", "K5", "K6")
EXT_CLASS_ALGEBRAS = CORPUS + ("A5-rad2",)
CLASS_OPS = 24          # Baer-sum and Yoneda-product comparisons, each
TRUNCATE_ALGEBRAS = ("commsquare", "A4", "A4-rad2", "A5-rad2")
# Two jobs that take milliseconds and call into the yoneda and bondal
# layers, so that every layer's self time is measured on every workload.
LAYER_PROBES = [("yoneda-oracle", "a2", None), ("bondal-check", "a2", None)]


def truncate_slots(n: int) -> list[tuple[str, str, int]]:
    """(P, Q, k) for X = (P + Q[k])[j] on an algebra with n vertices."""
    return [("P1", f"S{n}", 1), (f"P{n}", "S2", -1)]


def family(name: str) -> dict:
    """JSON description of A<n>, A<n>-rad2 (every length-2 path zero) or
    the Kronecker quiver K<m> with m arrows."""
    if name.startswith("K"):
        m = int(name[1:])
        return {"vertices": 2, "relations": [],
                "arrows": [{"name": f"x{i}", "source": 1, "target": 2}
                           for i in range(1, m + 1)]}
    rad2 = name.endswith("-rad2")
    n = int(name[1:].removesuffix("-rad2"))
    arrows = [{"name": f"a{i}", "source": i, "target": i + 1}
              for i in range(1, n)]
    rels = ([[{"coef": "1", "path": [f"a{i}", f"a{i + 1}"]}]
             for i in range(1, n - 1)] if rad2 else [])
    return {"vertices": n, "arrows": arrows, "relations": rels}


def object_specs(kind: str, n: int) -> list[dict]:
    """Object lists: the projectives (the CLI default), simples then
    projectives, or the projectives in reverse order."""
    proj = [{"type": "projective", "vertex": i} for i in range(1, n + 1)]
    if kind == "proj":
        return proj
    if kind == "sp":
        return [{"type": "simple", "vertex": i}
                for i in range(1, n + 1)] + proj
    if kind == "rev":
        return proj[::-1]
    raise ValueError(kind)


class Inputs:
    """Input files of one pass: generated families and object lists in
    workdir, bundled algebras from the package corpus."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.specs: dict[tuple[str, str], list[dict]] = {}
        self.algebras: dict[str, object] = {}

    def algebra_path(self, name: str) -> str:
        if name in CORPUS:
            return str(cli.corpus_path(name))
        path = self.workdir / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps(family(name)), encoding="utf-8")
        return str(path)

    def load(self, name: str):
        if name not in self.algebras:
            self.algebras[name] = jsonio.load_algebra(self.algebra_path(name))
        return self.algebras[name]

    def objects_path(self, alg: str, kind: str) -> str:
        if kind == "s1s2":
            path = cli.corpus_path("s1s2")
            self.specs[(alg, kind)] = json.loads(
                path.read_text(encoding="utf-8"))["objects"]
            return str(path)
        n = self.load(alg).vertex_count
        specs = object_specs(kind, n)
        self.specs[(alg, kind)] = specs
        path = self.workdir / f"{alg}.{kind}.json"
        path.write_text(json.dumps({"objects": specs}), encoding="utf-8")
        return str(path)


# Independent reference for ext-table: the Euler form.

def _inverse(m: list[list[int]]) -> list[list[Fraction]]:
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                       for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def _class_vector(spec: dict, cartan: list[list[int]]) -> list[int]:
    """Dimension vector in K_0 of an object spec.  P_i has dimension
    C[j][i] at vertex j, where C[i][j] counts basis paths from i to j."""
    n = len(cartan)
    kind = spec["type"]
    if kind == "simple":
        return [int(v == spec["vertex"] - 1) for v in range(n)]
    if kind == "projective":
        return [cartan[v][spec["vertex"] - 1] for v in range(n)]
    if kind == "module":
        return list(spec["dims"])
    if kind == "shift":
        sign = -1 if spec["by"] % 2 else 1
        return [sign * x for x in _class_vector(spec["of"], cartan)]
    raise ValueError(kind)


def euler_form_mismatch(report: dict, alg,
                        specs: list[dict]) -> str | None:
    """Check sum_n (-1)^n dim Hom(X, Y[n]) = x^T C^-T y for every pair."""
    n = alg.vertex_count
    cartan = [[len(alg.paths_between(i, j)) for j in range(1, n + 1)]
              for i in range(1, n + 1)]
    inv = _inverse(cartan)
    vecs = [_class_vector(s, cartan) for s in specs]
    chi: dict[tuple[int, int], int] = {}
    for e in report["entries"]:
        key = (e["source"], e["target"])
        chi[key] = chi.get(key, 0) + (-1) ** (e["shift"] % 2) * e["dim"]
    for i, x in enumerate(vecs, 1):
        for j, y in enumerate(vecs, 1):
            # x^T C^-T y = sum_ab x_a inv[b][a] y_b
            want = sum(x[a] * inv[b][a] * y[b]
                       for a in range(n) for b in range(n))
            if chi.get((i, j), 0) != want:
                return (f"Euler form of objects {i}, {j}: report gives "
                        f"{chi.get((i, j), 0)}, path counts give {want}")
    return None


# Operations.

class CliOp:
    """One CLI job with JSON output."""

    def __init__(self, inputs: Inputs, command: str, alg: str | None,
                 objects: str | None):
        self.inputs, self.command, self.alg = inputs, command, alg
        self.objects = objects
        self.id = " ".join(x for x in (command, alg, objects) if x)
        self.job = cli.JobSpec(
            command=command,
            algebra_path=inputs.algebra_path(alg) if alg else None,
            object_paths=((inputs.objects_path(alg, objects),)
                          if objects else ()),
            output="json")
        if command == "ext-table":
            inputs.load(alg)

    def run(self):
        return cli.run(self.job)

    def check(self, outcome, golden: dict) -> str | None:
        want = golden["reports"].get(self.id)
        if want is None:
            return "no recorded report"
        code, rendered = outcome
        if code != want["exit"]:
            return f"exit status {code}, known verdict {want['exit']}"
        if rendered != want["report"]:
            return "report differs from the recorded bytes"
        return self.euler_mismatch(rendered)

    def euler_mismatch(self, rendered: str) -> str | None:
        """For ext-table, compare the report with the Euler form."""
        if self.command != "ext-table":
            return None
        alg = self.inputs.algebras[self.alg]
        specs = (self.inputs.specs[(self.alg, self.objects)] if self.objects
                 else object_specs("proj", alg.vertex_count))
        return euler_form_mismatch(json.loads(rendered), alg, specs)


def _pool(alg) -> dict[str, object]:
    n = alg.vertex_count
    out = {}
    for i in range(1, n + 1):
        out[f"S{i}"] = reps.simple(alg, i)
        out[f"P{i}"] = reps.projective(alg, i)
    return out


class BaerOp:
    """f_map(baer_sum(x, y)) equals the sum of the classes spliced."""

    def __init__(self, pool, space, u, v):
        self.pool, (self.alg, self.a, self.b, self.n, self.dim) = pool, space
        self.u, self.v = u, v
        self.id = f"baer {self.alg} {self.a} {self.b} {self.n}"

    def run(self):
        a, b = self.pool[self.a], self.pool[self.b]
        sp = derived.dhom_space(a, b, self.n)
        if sp.dim != self.dim:
            return f"Hom space dim {sp.dim}, recorded {self.dim}"
        cu = derived.DHomClass(sp, self.u)
        cv = derived.DHomClass(sp, self.v)
        x = yoneda.splice_from_class(cu, a, b, self.n)
        y = yoneda.splice_from_class(cv, a, b, self.n)
        return yoneda.f_map(yoneda.baer_sum(x, y)).coords == (cu + cv).coords

    def check(self, outcome, golden) -> str | None:
        return None if outcome is True else f"verdict {outcome!r}"


class YonedaOp:
    """f_map(yoneda_product(y, x)) equals compose_classes of the classes."""

    def __init__(self, pool, inner, outer, ci, co):
        self.pool, self.inner, self.outer = pool, inner, outer
        self.ci, self.co = ci, co
        self.id = (f"yoneda {inner[0]} {outer[1]}->{inner[1]}->{inner[2]} "
                   f"{outer[3]}+{inner[3]}")

    def run(self):
        _, a1, b1, n1, d1 = self.inner
        _, a2, _, n2, d2 = self.outer
        pa1, pb1, pa2 = self.pool[a1], self.pool[b1], self.pool[a2]
        sp1 = derived.dhom_space(pa1, pb1, n1)
        sp2 = derived.dhom_space(pa2, pa1, n2)
        if (sp1.dim, sp2.dim) != (d1, d2):
            return f"Hom space dims {(sp1.dim, sp2.dim)}, recorded {(d1, d2)}"
        ci = derived.DHomClass(sp1, self.ci)
        co = derived.DHomClass(sp2, self.co)
        x = yoneda.splice_from_class(ci, pa1, pb1, n1)
        y = yoneda.splice_from_class(co, pa2, pa1, n2)
        prod = yoneda.yoneda_product(y, x)
        return (yoneda.f_map(prod).coords
                == derived.compose_classes(ci, co).coords)

    def check(self, outcome, golden) -> str | None:
        return None if outcome is True else f"verdict {outcome!r}"


def euler_char(x) -> tuple[int, ...]:
    out = [0] * x.algebra.vertex_count
    for i, dims in complexes.cohomology_dims(x).items():
        sign = -1 if i % 2 else 1
        for v, d in enumerate(dims):
            out[v] += sign * d
    return tuple(out)


class TruncateOp:
    """Glued truncation A -> X -> B of X = (P + Q[k])[j]: the triangle is
    certified, A lies in the aisle, and chi(A) + chi(B) = chi(X)."""

    def __init__(self, alg_name, aisle, pool, p, q, k, j):
        self.aisle, self.pool = aisle, pool
        self.p, self.q, self.k, self.j = p, q, k, j
        self.id = f"truncate {alg_name} ({p} + {q}[{k}])[{j}]"

    def run(self):
        cx = derived.as_cx
        x = complexes.cx_direct_sum(
            [cx(self.pool[self.p]),
             complexes.shift(cx(self.pool[self.q]), self.k)]).cx
        x = complexes.shift(x, self.j)
        a, b, tri = self.aisle.truncate(x)
        chi = tuple(u + v for u, v in zip(euler_char(a), euler_char(b)))
        return {"certified": tri.certified(),
                "member": self.aisle.member(a),
                "chi": chi == euler_char(x)}

    def check(self, outcome, golden) -> str | None:
        bad = [k for k, ok in outcome.items() if ok is not True]
        return f"failed: {', '.join(bad)}" if bad else None


# Operation lists.

def cli_jobs(workload: str) -> list[tuple[str, str | None, str | None]]:
    """Every CLI job of a workload as (command, algebra, object list)."""
    jobs = []
    if workload == "hom-scan":
        for alg in HOM_SCAN_ALGEBRAS:
            for objects in (None, "sp"):
                for command in ("ext-table", "check-exceptional"):
                    jobs.append((command, alg, objects))
        for alg in CORPUS:
            jobs.append(("check-exceptional", alg, "rev"))
        jobs += [("ext-table", "a2", "s1s2"),
                 ("check-exceptional", "a2", "s1s2")]
        jobs += LAYER_PROBES
    elif workload == "ext-calculus":
        for alg in YONEDA_ORACLE_ALGEBRAS:
            jobs.append(("yoneda-oracle", alg, None))
        for alg in BONDAL_ALGEBRAS:
            jobs.append(("bondal-check", alg, None))
        for alg in CORPUS:
            jobs.append(("bondal-check", alg, "sp"))
    elif workload == "glue-truncate":
        for alg in CORPUS:
            for objects in (None, "rev"):
                jobs.append(("glue-hearts", alg, objects))
                jobs.append(("dim-formula", alg, objects))
        jobs.append(("remark-counterexamples", None, None))
        jobs += LAYER_PROBES
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def _coords(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))


def _spread(items: list, count: int) -> list:
    """count items taken evenly across the list, in order."""
    return [items[(k * len(items)) // count] for k in range(count)]


def class_ops(rng, inputs: Inputs, spaces: list) -> list:
    pools = {name: _pool(inputs.load(name)) for name in EXT_CLASS_ALGEBRAS}
    spaces = [tuple(s) for s in spaces if s[0] in pools]
    ops = [BaerOp(pools[s[0]], s, _coords(rng, s[4]), _coords(rng, s[4]))
           for s in _spread(spaces, CLASS_OPS)]
    combos = [(inner, outer) for inner in spaces for outer in spaces
              if outer[0] == inner[0] and outer[2] == inner[1]
              and inner[3] + outer[3] <= 3]
    for inner, outer in _spread(combos, CLASS_OPS):
        ops.append(YonedaOp(pools[inner[0]], inner, outer,
                            _coords(rng, inner[4]), _coords(rng, outer[4])))
    return ops


def truncate_ops(rng, inputs: Inputs) -> list:
    ops = []
    for name in TRUNCATE_ALGEBRAS:
        alg = inputs.load(name)
        n = alg.vertex_count
        pool = _pool(alg)
        es = glue.check_sequence([pool[f"P{i}"] for i in range(1, n + 1)],
                                 strong=True)
        aisle, _ = glue.glue_sequence(es)
        for p, q, k in truncate_slots(n):
            ops.append(TruncateOp(name, aisle, pool, p, q, k,
                                  rng.randint(-1, 1)))
    return ops


def build(workload: str, seed: int, workdir: Path, golden: dict) -> list:
    """Set up a workload and return its operations in run order."""
    rng = random.Random(seed)
    inputs = Inputs(workdir)
    ops = [CliOp(inputs, *job) for job in cli_jobs(workload)]
    if workload == "ext-calculus":
        ops += class_ops(rng, inputs, golden["spaces"])
    if workload == "glue-truncate":
        ops += truncate_ops(rng, inputs)
    return ops


def record_spaces(inputs: Inputs) -> list:
    """Every nonzero Ext^n(a, b), n = 1..3, between simples and
    projectives of the class-comparison algebras, as
    [algebra, a, b, n, dim]."""
    out = []
    for name in EXT_CLASS_ALGEBRAS:
        pool = _pool(inputs.load(name))
        for a in pool:
            for b in pool:
                for n in (1, 2, 3):
                    d = derived.derived_hom(pool[a], pool[b], n)
                    if d:
                        out.append([name, a, b, n, d])
    return out
