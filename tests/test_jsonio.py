"""JSON descriptions: parsing, validation diagnostics, canonical dumps."""

import json
from fractions import Fraction

import pytest

from heartglue.cli import load_corpus
from heartglue.complexes import Cx, cohomology_dims, shift
from heartglue.derived import as_cx
from heartglue.jsonio import (SchemaError, algebra_from_dict, algebra_to_dict,
                              dump_json, fraction_str, load_algebra,
                              load_objects, module_from_dict, module_to_dict,
                              object_from_dict, objects_from_dict,
                              parse_fraction)
from heartglue.reps import Rep, projective


KRON_DICT = {"vertices": 2,
             "arrows": [{"name": "a", "source": 1, "target": 2},
                        {"name": "b", "source": 1, "target": 2}]}


class TestFractions:
    def test_int_and_string_forms(self):
        assert parse_fraction(3, "x") == Fraction(3)
        assert parse_fraction("2/3", "x") == Fraction(2, 3)
        assert parse_fraction("-7/2", "x") == Fraction(-7, 2)
        assert parse_fraction("4", "x") == Fraction(4)

    def test_bool_is_not_a_number(self):
        # bool is an int subclass; JSON true must still be rejected
        with pytest.raises(SchemaError):
            parse_fraction(True, "x")

    def test_float_rejected(self):
        with pytest.raises(SchemaError):
            parse_fraction(1.5, "x")

    def test_garbage_names_its_location(self):
        with pytest.raises(SchemaError, match="entry 3 of row 1"):
            parse_fraction("sqrt2", "entry 3 of row 1")

    def test_round_trip(self):
        for f in (Fraction(-5, 3), Fraction(0), Fraction(7)):
            assert parse_fraction(fraction_str(f), "x") == f


class TestAlgebraIO:
    def test_kronecker_dict(self):
        alg = algebra_from_dict(KRON_DICT)
        assert alg.dim == 4
        assert alg.vertex_count == 2
        assert tuple(a.name for a in alg.quiver.arrows) == ("a", "b")

    def test_round_trip_over_the_corpus(self):
        for name, alg in load_corpus().items():
            d = algebra_to_dict(alg)
            back = algebra_from_dict(d)
            assert back.dim == alg.dim, name
            assert back.basis == alg.basis, name
            assert algebra_to_dict(back) == d, name

    def test_missing_key_names_it(self):
        with pytest.raises(SchemaError, match="arrows"):
            algebra_from_dict({"vertices": 2})

    def test_vertex_out_of_range(self):
        bad = {"vertices": 2,
               "arrows": [{"name": "a", "source": 1, "target": 5}]}
        with pytest.raises(SchemaError):
            algebra_from_dict(bad)

    def test_bad_relation_coefficient(self):
        bad = dict(KRON_DICT,
                   relations=[[{"coef": "one", "path": ["a"]}]])
        with pytest.raises(SchemaError):
            algebra_from_dict(bad)

    def test_algebra_level_errors_become_schema_errors(self):
        bad = {"vertices": 2,
               "arrows": [{"name": "a", "source": 1, "target": 2},
                          {"name": "a", "source": 1, "target": 2}]}
        with pytest.raises(SchemaError):
            algebra_from_dict(bad)


class TestModuleIO:
    def test_kronecker_projective(self, kron):
        d = {"dims": [2, 1],
             "arrows": {"a": [[1], [0]], "b": [[0], [1]]}}
        m = module_from_dict(d, kron)
        assert m.dims == (2, 1)
        assert module_to_dict(m) == module_to_dict(projective(kron, 2))

    def test_fraction_entries(self, kron):
        d = {"dims": [1, 1], "arrows": {"a": [["1/2"]], "b": [["0"]]}}
        m = module_from_dict(d, kron)
        assert m.arrow_maps["a"][0, 0] == Fraction(1, 2)

    def test_round_trip(self, a3rel):
        m = projective(a3rel, 1)
        again = module_from_dict(module_to_dict(m), a3rel)
        assert again.dims == m.dims
        assert module_to_dict(again) == module_to_dict(m)

    def test_wrong_shape_rejected(self, kron):
        d = {"dims": [2, 1], "arrows": {"a": [[1]], "b": [[0], [0]]}}
        with pytest.raises(SchemaError):
            module_from_dict(d, kron)

    def test_relation_violation_rejected(self, a3rel):
        d = {"dims": [1, 1, 1], "arrows": {"a": [[1]], "b": [[1]]}}
        with pytest.raises(SchemaError):
            module_from_dict(d, a3rel)


class TestObjectSpecs:
    def test_projective_and_simple(self, kron):
        label, v = object_from_dict({"type": "projective", "vertex": 2},
                                    kron)
        assert label == "projective 2"
        assert isinstance(v, Rep) and v.dims == (2, 1)
        label, v = object_from_dict({"type": "simple", "vertex": 1}, kron)
        assert label == "simple 1"
        assert v.dims == (1, 0)

    def test_explicit_module(self, kron):
        spec = {"type": "module", "dims": [1, 1],
                "arrows": {"a": [[1]], "b": [[0]]}}
        label, v = object_from_dict(spec, kron)
        assert label == "module (1, 1)"
        assert v.dims == (1, 1)

    def test_shift_wraps_and_labels(self, kron):
        spec = {"type": "shift", "by": 1,
                "of": {"type": "simple", "vertex": 2}}
        label, v = object_from_dict(spec, kron)
        assert label == "shift 1 of simple 2"
        assert isinstance(v, Cx)
        assert cohomology_dims(v) == {-1: (0, 1)}

    def test_nested_shift(self, kron):
        spec = {"type": "shift", "by": 2,
                "of": {"type": "shift", "by": -1,
                       "of": {"type": "projective", "vertex": 1}}}
        label, v = object_from_dict(spec, kron)
        assert label == "shift 2 of shift -1 of projective 1"
        assert cohomology_dims(v) == {-1: (1, 0)}

    def test_deep_shift_chain_unwinds(self, kron):
        depth = 3000
        spec = bad = {"type": "projective", "vertex": 1}
        for _ in range(depth):
            spec = {"type": "shift", "by": 1, "of": spec}
        label, v = object_from_dict(spec, kron)
        assert label == "shift 1 of " * depth + "projective 1"
        assert cohomology_dims(v) == {-depth: (1, 0)}
        bad["vertex"] = 3
        with pytest.raises(SchemaError, match="vertex must be an integer"):
            object_from_dict(spec, kron)

    def test_unknown_type(self, kron):
        with pytest.raises(SchemaError, match="type"):
            object_from_dict({"type": "injective", "vertex": 1}, kron)

    def test_list_keeps_order_and_rejects_empty(self, kron):
        d = {"objects": [{"type": "simple", "vertex": 2},
                         {"type": "simple", "vertex": 1}]}
        out = objects_from_dict(d, kron)
        assert [label for label, _ in out] == ["simple 2", "simple 1"]
        with pytest.raises(SchemaError):
            objects_from_dict({"objects": []}, kron)


class TestFilesAndDumps:
    def test_dump_is_canonical(self):
        d = {"b": [1, 2], "a": {"z": "1/2", "y": None}}
        s = dump_json(d)
        assert s.endswith("\n")
        assert s.index('"a"') < s.index('"b"')
        assert dump_json(json.loads(s)) == s

    def test_load_algebra_from_file(self, tmp_path):
        p = tmp_path / "alg.json"
        p.write_text(dump_json(KRON_DICT), encoding="utf-8")
        assert load_algebra(str(p)).dim == 4

    def test_parse_error_is_line_anchored(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "vertices": ,\n}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match=r"broken\.json:2"):
            load_algebra(str(p))

    def test_load_objects(self, tmp_path, kron):
        p = tmp_path / "objs.json"
        p.write_text(dump_json(
            {"objects": [{"type": "projective", "vertex": 1},
                         {"type": "shift", "by": 3,
                          "of": {"type": "projective", "vertex": 2}}]}),
            encoding="utf-8")
        out = load_objects(str(p), kron)
        assert [label for label, _ in out] == ["projective 1",
                                               "shift 3 of projective 2"]
        assert cohomology_dims(out[1][1]) == {-3: (2, 1)}


class TestEntry:
    """load_algebra keeps the description loaded last, with the objects
    its specs built; see the module's cache policy."""

    @staticmethod
    def write(tmp_path, name, d):
        p = tmp_path / name
        p.write_text(json.dumps(d), encoding="utf-8")
        return str(p)

    def test_equal_texts_share_one_algebra(self, tmp_path):
        d = {"vertices": 3,
             "arrows": [{"name": "a", "source": 1, "target": 2},
                        {"name": "b", "source": 2, "target": 3}],
             "relations": [[{"coef": 1, "path": ["a", "b"]}]]}
        alg = load_algebra(self.write(tmp_path, "one.json", d))
        # the same JSON with its keys in another order and other spacing
        p = tmp_path / "two.json"
        p.write_text(json.dumps(dict(reversed(d.items())), indent=3),
                     encoding="utf-8")
        assert load_algebra(str(p)) is alg
        # an equal algebra spelled with other text is built afresh
        d["relations"][0][0]["coef"] = "2/2"
        again = load_algebra(self.write(tmp_path, "two.json", d))
        assert again is not alg
        assert algebra_to_dict(again) == algebra_to_dict(alg)
        d["relations"] = []
        other = load_algebra(self.write(tmp_path, "two.json", d))
        assert other is not again and other.dim == 6

    def test_specs_share_objects_of_the_entry_only(self, tmp_path, kron):
        alg = load_algebra(self.write(tmp_path, "kron.json", KRON_DICT))
        m = {"type": "module", "dims": [1, 1],
             "arrows": {"a": [[1]], "b": [[0]]}}
        specs = [{"type": "projective", "vertex": 1},
                 {"type": "simple", "vertex": 2}, m,
                 {"type": "shift", "by": 2, "of": {"type": "projective",
                                                   "vertex": 1}}]
        first = objects_from_dict({"objects": specs}, alg)
        again = objects_from_dict({"objects": specs}, alg)
        assert first == again
        assert all(x is y for (_, x), (_, y) in zip(first, again))
        assert first[3][1] is shift(as_cx(first[0][1]), 2)
        reordered = dict(reversed(m.items()))
        assert object_from_dict(reordered, alg)[1] is first[2][1]
        # other text, or a spec no description file holds, builds a new
        # equal object; only the former is kept
        spelled = dict(m, arrows={"a": [["2/2"]], "b": [["0"]]})
        odd = dict(m, note=object())
        looped = dict(m)
        looped["again"] = looped
        for spec in (spelled, odd, looped):
            label, x = object_from_dict(spec, alg)
            assert x is not first[2][1]
            assert label == first[2][0]
            assert x.arrow_maps == first[2][1].arrow_maps
        assert object_from_dict(spelled, alg)[1] is object_from_dict(
            spelled, alg)[1]
        for spec in (odd, looped):
            assert object_from_dict(spec, alg)[1] is not object_from_dict(
                spec, alg)[1]
        fresh = objects_from_dict({"objects": specs}, kron)
        assert not any(x is y for (_, x), (_, y) in zip(first, fresh))
        assert [(label, x.arrow_maps) for label, x in fresh[:3]] == [
            (label, x.arrow_maps) for label, x in first[:3]]
