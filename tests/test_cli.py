"""Command line front end: reports, exit codes, determinism."""

import gc
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from conftest import counting_calls
from heartglue import cli, derived, jsonio
from heartglue.cli import (COMMANDS, CORPUS_NAMES, JobSpec, corpus_path,
                           default_window, load_corpus, main, run)
from heartglue.derived import as_cx
from heartglue.glue import check_sequence
from heartglue.jsonio import dump_json, load_algebra
from heartglue.reps import projective


SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def runner():
    return CliRunner()


def corpus(name):
    return str(corpus_path(name))


def objects_file(tmp_path, specs, name="objs.json"):
    p = tmp_path / name
    p.write_text(dump_json({"objects": specs}), encoding="utf-8")
    return str(p)


def run_on_dicts(tmp_path, command, algebra, objects):
    """Run command as JSON on an algebra description (None: the bundled
    a2) and an object spec list (None: the default projectives)."""
    alg = corpus("a2")
    if algebra is not None:
        alg = str(tmp_path / "alg.json")
        (tmp_path / "alg.json").write_text(dump_json(algebra),
                                           encoding="utf-8")
    paths = ()
    if objects is not None:
        p = tmp_path / "objs.json"
        p.write_text(dump_json({"objects": objects}), encoding="utf-8")
        paths = (str(p),)
    return run(JobSpec(command=command, algebra_path=alg,
                       object_paths=paths, output="json"))


# (algebra, module) pairs the input checks must reject with exit 2; a
# module is an object spec without its "type"
MALFORMED = [
    (None, {"dims": [1, 1], "arrows": []}),
    (None, {"dims": [1, 1], "arrows": {"a": 5}}),
    (None, {"dims": [1, 1], "arrows": {"a": [5]}}),
    (None, {"dims": [2, 2], "arrows": {"a": [[1], [2, 3]]}}),
    (None, {"dims": [1, 1], "arrows": {"a": [[1, 2]]}}),
    ({"vertices": 2, "arrows": 5}, None),
    ({"vertices": 2, "arrows": [], "relations": 5}, None),
    ({"vertices": 2, "arrows": [{"name": "a", "source": 1, "target": 2}],
      "relations": [[{"coef": 1, "path": ["b", "a"]}]]}, None),
    ({"vertices": 2, "arrows": [{"name": None, "source": 1, "target": 2}]},
     None),
    ({"vertices": 2, "arrows": [{"name": 5, "source": 1, "target": 2}]},
     None),
]
MALFORMED_IDS = ["module-arrows-list", "matrix-int", "matrix-row-int",
                 "ragged-rows", "row-width", "algebra-arrows-int",
                 "relations-int", "relation-unknown-arrow", "arrow-name-null",
                 "arrow-name-int"]


def malformed_examples(test):
    """Run every MALFORMED input through an ext-table fuzz test first."""
    for algebra, module in MALFORMED:
        objects = None if module is None else [dict(module, type="module")]
        test = example(command="ext-table", algebra=algebra,
                       objects=objects)(test)
    return test


# the fuzzer's seeds: the bundled a2 algebra, and an object file with a
# shifted projective and a module over it
A2 = {"vertices": 2, "arrows": [{"name": "a", "source": 1, "target": 2}],
      "relations": []}
OBJECTS = [{"type": "shift", "by": 1, "of": {"type": "projective",
                                             "vertex": 2}},
           {"type": "module", "dims": [1, 1], "arrows": {"a": [["1"]]}}]

NAMES = st.sampled_from(["a", "b", "z", ""])
SCALARS = (st.integers(-3, 3) | st.sampled_from(["1/2", "-2", "x", "1/0"])
           | st.none() | st.booleans() | st.floats(-2, 2))
MATRICES = st.lists(st.lists(SCALARS, max_size=4), max_size=4)
JUNK = (st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 2)
        | NAMES | st.just([]) | st.just({}) | MATRICES)
# extra entries a list or dict may grow: arrows with any names and
# vertices, relation terms on any path, matrices under any arrow name
GROWTH = (st.fixed_dictionaries({"name": NAMES, "source": st.integers(-1, 4),
                                 "target": st.integers(-1, 4)})
          | st.lists(st.fixed_dictionaries(
              {"coef": SCALARS, "path": st.lists(NAMES, max_size=3)}),
              max_size=2)
          | MATRICES | JUNK)


def _positions(value, at=()):
    """Every position in a JSON value, as a path of keys and indices."""
    yield at
    if isinstance(value, (dict, list)):
        keys = value if isinstance(value, dict) else range(len(value))
        for k in keys:
            yield from _positions(value[k], at + (k,))


def _mutate_at(draw, value, at):
    """value with one point mutation at the position at."""
    if at:
        out = dict(value) if isinstance(value, dict) else list(value)
        out[at[0]] = _mutate_at(draw, out[at[0]], at[1:])
        return out
    if isinstance(value, (dict, list)):
        out = dict(value) if isinstance(value, dict) else list(value)
        how = draw(st.sampled_from(["drop", "grow", "junk"]))
        if how == "drop" and out:
            del out[draw(st.sampled_from(list(out) if isinstance(out, dict)
                                         else range(len(out))))]
        elif how == "grow" and isinstance(out, dict):
            out[draw(NAMES)] = draw(GROWTH)
        elif how == "grow":
            out.append(draw(GROWTH))
        else:
            return draw(JUNK)
        return out
    if isinstance(value, int) and not isinstance(value, bool):
        return draw(st.integers(-1, 4) | JUNK)
    if isinstance(value, str):
        return draw(NAMES | SCALARS)
    return draw(JUNK)


@st.composite
def mutated(draw, value):
    """value after one or two point mutations: a key or entry dropped,
    added or given a wrong type, a name or number replaced."""
    for _ in range(draw(st.integers(1, 2))):
        value = _mutate_at(draw, value,
                           draw(st.sampled_from(list(_positions(value)))))
    return value


class TestExtTable:
    def test_kronecker_projectives(self, runner):
        r = runner.invoke(main, ["ext-table", corpus("kronecker"),
                                 "--window", "4"])
        assert r.exit_code == 0
        assert "Hom(1, 2[0]) = 2" in r.output
        assert "window=4" in r.output

    def test_json_report(self, runner):
        r = runner.invoke(main, ["ext-table", corpus("kronecker"),
                                 "--window", "4", "--format", "json"])
        assert r.exit_code == 0
        rep = json.loads(r.output)
        assert rep["window"] == 4
        assert rep["ok"] is True
        assert {"source": 1, "target": 2, "shift": 0, "dim": 2} \
            in rep["entries"]

    def test_custom_objects(self, runner, tmp_path):
        objs = objects_file(tmp_path, [{"type": "simple", "vertex": 2},
                                       {"type": "simple", "vertex": 1}])
        r = runner.invoke(main, ["ext-table", corpus("a2"),
                                 "--objects", objs, "--format", "json"])
        assert r.exit_code == 0
        rep = json.loads(r.output)
        assert rep["objects"] == ["simple 2", "simple 1"]
        assert {"source": 1, "target": 2, "shift": 1, "dim": 1} \
            in rep["entries"]


class TestCheckExceptional:
    def test_projectives_are_strong(self, runner):
        r = runner.invoke(main, ["check-exceptional", corpus("a3rel")])
        assert r.exit_code == 0
        assert "strong: yes" in r.output

    def test_simple_pair_fails_strongness(self, runner):
        r = runner.invoke(main, ["check-exceptional", corpus("a2"),
                                 "--objects", corpus("s1s2")])
        assert r.exit_code == 1
        assert "exceptional: yes" in r.output
        assert "strong: no" in r.output
        assert "Hom(1, 2[1]) = 1 breaks strongness" in r.output

    def test_strongness_witness_in_json(self, runner):
        r = runner.invoke(main, ["check-exceptional", corpus("a2"),
                                 "--objects", corpus("s1s2"),
                                 "--format", "json"])
        assert r.exit_code == 1
        rep = json.loads(r.output)
        assert rep["exceptional"] is True
        assert rep["strong"] is False
        assert rep["ok"] is False
        assert rep["shifted_entries"] == [{"source": 1, "target": 2,
                                           "shift": 1, "dim": 1}]

    def test_wrong_order_not_exceptional(self, runner, tmp_path):
        objs = objects_file(tmp_path, [{"type": "simple", "vertex": 1},
                                       {"type": "simple", "vertex": 2}])
        r = runner.invoke(main, ["check-exceptional", corpus("a2"),
                                 "--objects", objs, "--format", "json"])
        assert r.exit_code == 1
        rep = json.loads(r.output)
        assert rep["exceptional"] is False
        assert rep["failure"]["position"] == [2, 1]
        assert rep["failure"]["dim"] == 1


class TestBoundedScans:
    """Only shifts where the degree supports overlap are computed, so a
    huge shift costs no more than a small one."""

    BIG = 10_000_000

    def _report(self, tmp_path, command):
        objs = objects_file(tmp_path, [
            {"type": "simple", "vertex": 2},
            {"type": "shift", "by": self.BIG,
             "of": {"type": "simple", "vertex": 1}}])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "heartglue.cli", command, corpus("a3"),
             "--objects", objs, "--format", "json"],
            env=env, capture_output=True, text=True, timeout=60)
        return done.returncode, json.loads(done.stdout)

    def test_ext_table(self, tmp_path):
        code, rep = self._report(tmp_path, "ext-table")
        assert code == 0
        assert rep["window"] == 7
        assert rep["entries"] == [
            {"source": 1, "target": 1, "shift": 0, "dim": 1},
            {"source": 1, "target": 2, "shift": 1 - self.BIG, "dim": 1},
            {"source": 2, "target": 2, "shift": 0, "dim": 1}]

    def test_check_exceptional(self, tmp_path):
        code, rep = self._report(tmp_path, "check-exceptional")
        assert code == 1
        assert rep["exceptional"] is True
        assert rep["strong"] is False
        assert rep["shifted_entries"] == [
            {"source": 1, "target": 2, "shift": 1 - self.BIG, "dim": 1}]


class TestWindowIsALabel:
    """The window only labels a report: every scan covers each shift
    where a Hom can be nonzero, whatever window the report quotes."""

    COMMANDS = ("ext-table", "check-exceptional", "glue-hearts",
                "dim-formula", "bondal-check")
    # the projectives (the default), the bundled s1s2 list, and the
    # simples in vertex order, which have Homs at shift 2 on a3rel
    OBJECTS = (None, "s1s2", "simples")

    @staticmethod
    def _json(command, window, alg=None, objects=()):
        code, rendered = run(JobSpec(
            command=command, algebra_path=alg and corpus(alg),
            object_paths=objects, window=window, output="json"))
        return code, json.loads(rendered)

    @staticmethod
    def _objects(tmp_path, alg, name):
        if name is None:
            return ()
        if name == "s1s2":
            return (corpus(name),)
        n = load_algebra(corpus(alg)).vertex_count
        return (objects_file(tmp_path, [{"type": "simple", "vertex": i}
                                        for i in range(1, n + 1)]),)

    @pytest.mark.parametrize("objects", OBJECTS)
    @pytest.mark.parametrize("alg", ["a3rel", "kronecker"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_the_window_differs(self, tmp_path, command, alg, objects):
        paths = self._objects(tmp_path, alg, objects)
        (c1, narrow), (c40, wide) = (self._json(command, w, alg, paths)
                                     for w in (1, 40))
        assert (narrow.pop("window"), wide.pop("window")) == (1, 40)
        assert (c1, narrow) == (c40, wide)

    @pytest.mark.parametrize("objects", OBJECTS)
    @pytest.mark.parametrize("alg", ["a3rel", "kronecker"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_window(self, tmp_path, command, alg, objects):
        paths = self._objects(tmp_path, alg, objects)
        _, rep = self._json(command, None, alg, paths)
        want = default_window(load_algebra(corpus(alg)), len(rep["objects"]))
        assert rep["window"] == want

    def test_remark_counterexamples(self):
        reports = {w: self._json("remark-counterexamples", w)
                   for w in (None, 1, 40)}
        kron, branching = (load_algebra(corpus(name))
                           for name in ("kronecker", "branching"))
        assert reports[None][1]["window"] == {
            "kronecker-shifted-pair": default_window(kron, 2),
            "branching-three-term": default_window(branching, 3)}
        for w in (1, 40):
            assert set(reports[w][1]["window"].values()) == {w}
        for _, rep in reports.values():
            del rep["window"]
            for case in rep["cases"]:
                del case["window"]
        assert reports[None] == reports[1] == reports[40]


class TestGlueHearts:
    def test_tilted_staircase(self, runner):
        r = runner.invoke(main, ["glue-hearts", corpus("a3rel"),
                                 "--format", "json"])
        assert r.exit_code == 0
        rep = json.loads(r.output)
        cohs = [g["cohomology"] for g in rep["generators"]]
        assert cohs == [{"0": [0, 1, 1]},
                        {"-1": [1, 1, 0]},
                        {"-2": [1, 0, 0]}]

    def test_incompatible_objects_fail(self, runner, tmp_path):
        # reversed order is not exceptional, so gluing is refused
        objs = objects_file(tmp_path, [{"type": "simple", "vertex": 1},
                                       {"type": "simple", "vertex": 2}])
        r = runner.invoke(main, ["glue-hearts", corpus("a2"),
                                 "--objects", objs])
        assert r.exit_code == 1
        assert "failed:" in r.output


class TestDimFormula:
    def test_kronecker_headline(self, runner):
        r = runner.invoke(main, ["dim-formula", corpus("kronecker")])
        assert r.exit_code == 0
        assert "lhs=1 rhs=1 OK" in r.output
        assert "rhs = max(left=0, right=0, rel+1=1)" in r.output

    def test_three_term_chain(self, runner):
        r = runner.invoke(main, ["dim-formula", corpus("a3rel"),
                                 "--format", "json"])
        assert r.exit_code == 0
        rep = json.loads(r.output)
        assert rep["pieces"] == 3
        assert rep["lhs"] == rep["rhs"]

    def test_needs_two_objects(self, runner, tmp_path):
        objs = objects_file(tmp_path, [{"type": "projective", "vertex": 1}])
        r = runner.invoke(main, ["dim-formula", corpus("kronecker"),
                                 "--objects", objs])
        assert r.exit_code == 2
        assert "at least two objects" in r.output


class TestYonedaOracle:
    def test_default_objects(self, runner):
        r = runner.invoke(main, ["yoneda-oracle", corpus("a3rel"),
                                 "--format", "json"])
        assert r.exit_code == 0
        rep = json.loads(r.output)
        assert rep["ok"] is True
        assert rep["classes_checked"] == 5
        assert all(e["round_trip"] for e in rep["entries"])

    def test_rejects_shifted_objects(self, runner, tmp_path):
        objs = objects_file(tmp_path, [
            {"type": "shift", "by": 1, "of": {"type": "simple",
                                              "vertex": 1}},
            {"type": "simple", "vertex": 2}])
        r = runner.invoke(main, ["yoneda-oracle", corpus("a2"),
                                 "--objects", objs])
        assert r.exit_code == 2
        assert "plain modules" in r.output

    def test_refuses_a_window(self, runner):
        # the degree bound is not a shift window, so --window is an error
        r = runner.invoke(main, ["yoneda-oracle", corpus("a2"),
                                 "--window", "3", "--format", "json"])
        assert r.exit_code == 2
        rep = json.loads(r.output)
        assert rep["ok"] is False
        assert "degree bound" in rep["error"]
        code, _ = run(JobSpec(command="yoneda-oracle",
                              algebra_path=corpus("a2"), window=7))
        assert code == 2


class TestBondalCheck:
    def test_kronecker(self, runner):
        r = runner.invoke(main, ["bondal-check", corpus("kronecker"),
                                 "--format", "json"])
        assert r.exit_code == 0
        rep = json.loads(r.output)
        assert rep["end_dim"] == 4
        assert rep["algebra_dim"] == 4
        assert len(rep["arrows"]) == 2
        assert rep["relations"] == []
        assert rep["faithful_ok"] and rep["table_ok"] and rep["ok"]

    def test_commsquare_relation_recovered(self, runner):
        r = runner.invoke(main, ["bondal-check", corpus("commsquare")])
        assert r.exit_code == 0
        assert "relation: -1*x1.x3 + 1*x2.x4 = 0" in r.output

    def test_non_strong_sequence_refused(self, runner):
        r = runner.invoke(main, ["bondal-check", corpus("a2"),
                                 "--objects", corpus("s1s2")])
        assert r.exit_code == 1
        assert "failed:" in r.output


class TestRemarkCounterexamples:
    def test_both_cases_reproduce(self, runner):
        r = runner.invoke(main, ["remark-counterexamples",
                                 "--format", "json"])
        assert r.exit_code == 0
        rep = json.loads(r.output)
        assert rep["ok"] is True
        names = [c["name"] for c in rep["cases"]]
        assert names == ["kronecker-shifted-pair", "branching-three-term"]
        first, second = rep["cases"]
        assert first["space_dim"] == 2
        assert first["factoring_dim"] == 0
        assert first["basis_classes_factor"] == [False, False]
        assert first["zero_class_factors"] is True
        assert second["space_dim"] == 1
        assert second["class_factors"] is False

    def test_text_says_reproduced(self, runner):
        r = runner.invoke(main, ["remark-counterexamples"])
        assert r.exit_code == 0
        assert r.output.count("reproduced") == 2
        assert "NOT reproduced" not in r.output


class TestPlumbing:
    def test_parse_error_is_line_anchored(self, runner, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"vertices": 2,\n "arrows": }\n', encoding="utf-8")
        r = runner.invoke(main, ["ext-table", str(p)])
        assert r.exit_code == 2
        assert "broken.json:2" in r.output

    def test_missing_file(self, runner):
        r = runner.invoke(main, ["ext-table", "/no/such/file.json"])
        assert r.exit_code == 2

    def test_reports_are_deterministic(self, runner):
        args = ["glue-hearts", corpus("a3rel"), "--format", "json"]
        assert runner.invoke(main, args).output \
            == runner.invoke(main, args).output
        args = ["bondal-check", corpus("a3"), "--format", "text"]
        assert runner.invoke(main, args).output \
            == runner.invoke(main, args).output

    def test_json_reports_round_trip(self, runner):
        for cmd in ("ext-table", "check-exceptional", "glue-hearts",
                    "dim-formula", "yoneda-oracle", "bondal-check"):
            r = runner.invoke(main, [cmd, corpus("a3rel"),
                                     "--format", "json"])
            assert dump_json(json.loads(r.output)) == r.output, cmd

    def test_out_writes_file_and_quiets_stdout(self, runner, tmp_path):
        out = tmp_path / "report.json"
        r = runner.invoke(main, ["dim-formula", corpus("kronecker"),
                                 "--format", "json", "--out", str(out)])
        assert r.exit_code == 0
        assert r.output == ""
        rep = json.loads(out.read_text(encoding="utf-8"))
        assert rep["lhs"] == rep["rhs"] == 1

    def test_run_api_matches_cli(self, runner):
        job = JobSpec(command="dim-formula",
                      algebra_path=corpus("kronecker"), output="text")
        code, rendered = run(job)
        assert code == 0
        assert rendered == runner.invoke(
            main, ["dim-formula", corpus("kronecker")]).output

    def test_unknown_command_via_run(self):
        code, rendered = run(JobSpec(command="make-coffee"))
        assert code == 2
        assert "unknown command" in rendered

    @pytest.mark.parametrize("algebra, module", MALFORMED,
                             ids=MALFORMED_IDS)
    def test_malformed_input_exits_2(self, tmp_path, algebra, module):
        objects = None if module is None else [dict(module, type="module")]
        code, rendered = run_on_dicts(tmp_path, "ext-table", algebra, objects)
        assert code == 2
        assert json.loads(rendered)["ok"] is False

    @settings(max_examples=500, deadline=None)
    @given(command=st.sampled_from(["ext-table", "check-exceptional"]),
           algebra=st.none() | mutated(A2),
           objects=st.none() | mutated(OBJECTS))
    @malformed_examples
    def test_fuzzed_input_never_raises(self, tmp_path_factory, command,
                                       algebra, objects):
        code, rendered = run_on_dicts(tmp_path_factory.mktemp("fuzz"),
                                      command, algebra, objects)
        assert code in (0, 1, 2)
        report = json.loads(rendered)
        if code == 2:
            assert report["ok"] is False

    # json.load recurses once per nesting level
    @pytest.mark.parametrize("which", ["algebra", "objects"])
    def test_deeply_nested_file_exits_2(self, tmp_path, which):
        p = tmp_path / "deep.json"
        deep = "[" * 100_000 + "]" * 100_000
        if which == "algebra":
            p.write_text(deep, encoding="utf-8")
            job = JobSpec(command="ext-table", algebra_path=str(p),
                          output="json")
        else:
            p.write_text('{"objects": [' + deep + "]}", encoding="utf-8")
            job = JobSpec(command="ext-table", algebra_path=corpus("a2"),
                          object_paths=(str(p),), output="json")
        code, rendered = run(job)
        assert code == 2
        assert json.loads(rendered)["error"] == (
            f"{p}: nested too deeply to parse")

    def test_window_must_be_positive(self):
        code, rendered = run(JobSpec(command="ext-table",
                                     algebra_path=corpus("a2"), window=0))
        assert code == 2


class TestScaledReportsArePinned:
    """ext-table reports on scaled families, simples then projectives,
    pinned by the sha-256 of their JSON rendering: a change to how Hom
    dimensions are computed must leave every byte as it was."""

    PINNED = {
        "K32":
            "8984be0349731e0168fb7ccdd4991806417e73670ea9f91c0989ef04ee850d4b",
        "A20":
            "0c342fd3cf4bbbac44056151a0c4f9b2a1b82780fc401af557b3871badee6991",
        "A12-rad2":
            "d16dec0c2c3eaa327869ddb94d837e49c0106e569a297981b450fa3c78f1a4de",
    }

    @staticmethod
    def _algebra(name):
        """K<m>: two vertices, m arrows; A<n>[-rad2]: the linear quiver,
        with every length-two path zero under -rad2."""
        if name.startswith("K"):
            return {"vertices": 2, "relations": [],
                    "arrows": [{"name": f"x{i}", "source": 1, "target": 2}
                               for i in range(1, int(name[1:]) + 1)]}
        n = int(name[1:].removesuffix("-rad2"))
        rels = ([[{"coef": "1", "path": [f"a{i}", f"a{i + 1}"]}]
                 for i in range(1, n - 1)] if name.endswith("-rad2") else [])
        return {"vertices": n, "relations": rels,
                "arrows": [{"name": f"a{i}", "source": i, "target": i + 1}
                           for i in range(1, n)]}

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_ext_table_report_is_pinned(self, tmp_path, name):
        alg = self._algebra(name)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(alg), encoding="utf-8")
        n = alg["vertices"]
        objs = objects_file(tmp_path, [
            {"type": kind, "vertex": i}
            for kind in ("simple", "projective") for i in range(1, n + 1)])
        code, rendered = run(JobSpec(command="ext-table",
                                     algebra_path=str(path),
                                     object_paths=(objs,), output="json"))
        assert code == 0
        digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        assert digest == self.PINNED[name]

    # yoneda-oracle on simples then projectives: every class of Ext^1..3
    # spliced and read back; a change to the Yoneda calculus must leave
    # every byte as it was
    YONEDA_PINNED = {
        "K12":
            "c9c9e12b49542f6df9c5bf06ed08e1c77abe7be66b203e277842423eebcf9dc0",
        "K32":
            "14a2594b913cccc25c8c067eaea6df24ddfd8cf66f66097be6905a021881bae9",
        "A6":
            "27d046ab79bb39d20eabc01e2001673217d018f8727bca37e2c0eb14d22ac4c7",
    }

    @pytest.mark.parametrize("name", sorted(YONEDA_PINNED))
    def test_yoneda_oracle_report_is_pinned(self, tmp_path, name):
        alg = self._algebra(name)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(alg), encoding="utf-8")
        n = alg["vertices"]
        objs = objects_file(tmp_path, [
            {"type": kind, "vertex": i}
            for kind in ("simple", "projective") for i in range(1, n + 1)])
        code, rendered = run(JobSpec(command="yoneda-oracle",
                                     algebra_path=str(path),
                                     object_paths=(objs,), output="json"))
        assert code == 0
        digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        assert digest == self.YONEDA_PINNED[name]


class TestCorpus:
    def test_exactly_five_algebras(self):
        algs = load_corpus()
        assert sorted(algs) == sorted(CORPUS_NAMES)
        assert len(algs) == 5
        assert {n: a.dim for n, a in algs.items()} == {
            "a2": 3, "a3": 6, "a3rel": 5, "commsquare": 9, "kronecker": 4}

    def test_projectives_are_strong_everywhere(self):
        for name, alg in load_corpus().items():
            ps = [projective(alg, i)
                  for i in range(1, alg.vertex_count + 1)]
            es = check_sequence(ps, strong=True)
            assert es.strong, name

    def test_directory_override(self, runner, tmp_path, monkeypatch):
        for name in CORPUS_NAMES:
            shutil.copy(corpus_path(name), tmp_path)
        monkeypatch.setenv("HEARTGLUE_CORPUS_DIR", str(tmp_path))
        algs = load_corpus()
        assert sorted(algs) == sorted(CORPUS_NAMES)
        assert str(corpus_path("a2")).startswith(str(tmp_path))
        # remark-counterexamples reads the extra branching quiver too
        shutil.copy(_bundled("branching.json"), tmp_path)
        r = runner.invoke(main, ["remark-counterexamples"])
        assert r.exit_code == 0


def spec_text(kind, vertex):
    """The key of a base object spec in jsonio's entry."""
    return json.dumps({"type": kind, "vertex": vertex}, sort_keys=True)


def _bundled(filename):
    import heartglue.cli as cli
    return str(cli.Path(cli.__file__).parent / "corpus" / filename)


class TestConsecutiveJobs:
    """Jobs on one description share its algebra and objects through
    jsonio's one entry, and render what a cold run renders."""

    @staticmethod
    def cold(job, monkeypatch):
        monkeypatch.setattr(jsonio, "_last", None)
        return run(job)

    def test_rewritten_description_is_not_stale(self, tmp_path, monkeypatch):
        p = tmp_path / "alg.json"
        shutil.copy(corpus_path("a2"), p)
        job = JobSpec(command="ext-table", algebra_path=str(p),
                      output="json")
        first = run(job)
        shutil.copy(corpus_path("kronecker"), p)
        second = run(job)
        assert second != first
        assert second == self.cold(job, monkeypatch)

    def test_second_ext_table_builds_nothing(self, tmp_path, monkeypatch):
        job = JobSpec(command="ext-table", algebra_path=corpus("commsquare"),
                      object_paths=(objects_file(tmp_path, [
                          {"type": kind, "vertex": i}
                          for kind in ("simple", "projective")
                          for i in range(1, 5)]),), output="json")
        first = run(job)
        resolutions = counting_calls(monkeypatch, derived, "_resolve")
        systems = counting_calls(monkeypatch, derived.HomCx, "_system")
        assert run(job) == first
        assert resolutions == [] and systems == []
        assert self.cold(job, monkeypatch) == first
        assert resolutions and systems

    def test_default_and_explicit_lists_share_objects(self, tmp_path):
        alg = load_algebra(corpus("commsquare"))
        default = cli._objects(JobSpec("ext-table", corpus("commsquare")),
                               alg)
        explicit = jsonio.load_objects(objects_file(tmp_path, [
            {"type": "projective", "vertex": i} for i in (4, 3, 2, 1)]), alg)
        assert [v for _, v in default] == [v for _, v in explicit[::-1]]
        assert all(a is b for (_, a), (_, b) in zip(default, explicit[::-1]))
        # and the yoneda-oracle default list holds the same projectives
        both = cli._at_vertices(alg, "simple", "projective")
        assert all(a is b for (_, a), (_, b) in zip(default, both[4:]))

    def test_failures_are_never_cached(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(dump_json({"vertices": 2, "arrows": [
            {"name": "a", "source": 2, "target": 1}]}), encoding="utf-8")
        job = JobSpec(command="ext-table", algebra_path=str(bad),
                      output="json")
        assert run(job)[0] == run(job)[0] == 2
        good = JobSpec(command="ext-table", algebra_path=corpus("a3"),
                       output="json")
        before = run(good)
        entry = jsonio._last
        spec = objects_file(tmp_path, [{"type": "projective", "vertex": 1},
                                       {"type": "simple", "vertex": 4}])
        failing = JobSpec(command="ext-table", algebra_path=corpus("a3"),
                          object_paths=(spec,), output="json")
        assert run(failing)[0] == run(failing)[0] == 2
        assert jsonio._last is entry
        assert sorted(entry[2]) == [spec_text("projective", i)
                                    for i in (1, 2, 3)]
        assert run(good) == before

    @pytest.mark.parametrize("command", [
        c for c in COMMANDS if c != "remark-counterexamples"])
    def test_a_repeated_job_keeps_nothing_more(self, command):
        # what a job keeps goes in memos keyed by lasting objects, not by
        # one job's (a hom module lives in its job's presentation)
        def kept():
            return [(len(x.memo), len(as_cx(x).memo))
                    for _, x in jsonio._last[2].values()]

        job = JobSpec(command=command, algebra_path=corpus("commsquare"),
                      output="json")
        first = run(job)
        once = kept()
        assert run(job) == first
        assert kept() == once

    def test_entry_keeps_one_description(self):
        run(JobSpec(command="glue-hearts", algebra_path=corpus("a3"),
                    output="json"))
        alg = weakref.ref(jsonio._last[1])
        obj = weakref.ref(jsonio._last[2][spec_text("projective", 1)][1])
        run(JobSpec(command="ext-table", algebra_path=corpus("kronecker"),
                    output="json"))
        gc.collect()
        assert alg() is None and obj() is None

    def test_check_all_script_shares_one_build(self, monkeypatch, capsys):
        # scripts/check_all.py runs six jobs on one description in one
        # process: one algebra build, and each base object built once
        spec = importlib.util.spec_from_file_location(
            "check_all", Path(SRC).parent / "scripts" / "check_all.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        algebras = counting_calls(monkeypatch, jsonio, "algebra_from_dict")
        objects = counting_calls(monkeypatch, jsonio, "_base_object")
        assert script.main([corpus("commsquare")]) == 0
        assert len(algebras) == 1
        assert sorted(kind for _, kind, _, _ in objects) == (
            ["projective"] * 4 + ["simple"] * 4)
        out = capsys.readouterr().out
        assert out.count("\nexit 0  ") == len(script.COMMANDS)

    def test_warm_equals_cold(self, tmp_path, monkeypatch):
        lists = {
            name: objects_file(tmp_path, [
                {"type": kind, "vertex": i} for kind in ("simple", "projective")
                for i in range(1, load_algebra(corpus(name)).vertex_count + 1)],
                name=f"{name}.sp.json")
            for name in ("a3rel", "kronecker")}
        shifted = objects_file(tmp_path, [
            {"type": "shift", "by": 1, "of": {"type": "projective",
                                             "vertex": 1}},
            {"type": "projective", "vertex": 2}], name="shifted.json")
        jobs = [JobSpec(command, corpus(name), objects, output=output)
                for name in ("a3rel", "kronecker")
                for objects in ((), (lists[name],), (shifted,))
                for command in COMMANDS if command != "remark-counterexamples"
                for output in ("text", "json")]
        warm = [run(job) for job in jobs]
        assert warm == [self.cold(job, monkeypatch) for job in jobs]
        assert {code for code, _ in warm} == {0, 1, 2}
