"""Wire formats and the command-line surface."""
import json
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tenscale as ts
from tenscale import cli, io
from conftest import (
    ghz_tensor,
    hwv_spec_to_obj,
    random_integer_tensor,
    save_spectrum,
    save_tensor,
    spectrum_to_obj,
    w_tensor,
)

# a CLI run decides values past the float range by its breakdown rules, so
# no NumPy warning may reach stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _round_floats(node):
    """The two-step writer's rounding walk, kept as the reference."""
    if isinstance(node, bool):
        return node
    if isinstance(node, float):
        return float(format(node, ".12g"))
    if isinstance(node, (int, str)) or node is None:
        return node
    if isinstance(node, dict):
        return {k: _round_floats(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_round_floats(v) for v in node]
    if isinstance(node, (np.integer,)):
        return int(node)
    if isinstance(node, (np.floating,)):
        return float(format(float(node), ".12g"))
    raise TypeError(f"cannot serialize {type(node)!r}")


def reference_dumps(obj) -> str:
    """Canonical text as rounding every float, then json.dumps(indent=2)."""
    return json.dumps(_round_floats(obj), indent=2, sort_keys=False) + "\n"


def walked_tensor_obj(x: ts.Tensor) -> dict:
    """tensor_to_obj as a walk over every index, kept as the reference."""
    entries = []
    for idx in np.ndindex(*x.shape):
        v = x.data[idx]
        if v != 0:
            entries.append({"idx": [int(i) for i in idx],
                            "re": int(v.real), "im": int(v.imag)})
    return {"dims": [int(n) for n in x.shape], "entries": entries}


def witness_distance(payload, p):
    """Largest trace distance to p of the marginals of the report's group
    applied to its sample."""
    group = [np.array([[complex(v["re"], v["im"]) for v in row] for row in mat])
             for mat in payload["group"]]
    y = ts.apply_group(group, io.tensor_from_obj(payload["sample"]))
    return max(ts.trace_distance(ts.marginal(y, i), np.diag(p.ascending(i)))
               for i in range(1, p.num_factors + 1))


@pytest.fixture
def ghz_path(tmp_path):
    path = tmp_path / "ghz.json"
    save_tensor(ghz_tensor(), str(path))
    return str(path)


@pytest.fixture
def uniform_path(tmp_path):
    path = tmp_path / "uniform.json"
    save_spectrum(ts.TargetSpectrum.uniform((2, 2, 2)), str(path))
    return str(path)


class TestTensorJson:
    def test_sparse_round_trip(self, rng, tmp_path):
        x = random_integer_tensor((2, 2, 3), rng)
        path = tmp_path / "x.json"
        save_tensor(x, str(path))
        with open(path) as fh:
            assert np.array_equal(io.tensor_from_obj(json.load(fh)).data, x.data)

    def test_dense_and_entries_together_are_refused(self):
        # the dense form used to win and the entries were dropped unread
        with pytest.raises(io.SchemaError,
                           match=r"^tensor: give 'dense' or 'entries', not both$"):
            io.tensor_from_obj({"dims": [1, 2, 2], "dense": [[[1, 0], [0, 1]]],
                                "entries": [{"idx": [0, 0, 1], "re": 5}]})

    def test_sparse_and_dense_agree(self):
        sparse = io.tensor_from_obj({
            "dims": [1, 2, 2],
            "entries": [{"idx": [0, 0, 0], "re": 1, "im": 0},
                        {"idx": [0, 1, 1], "re": 0, "im": -2}],
        })
        dense = io.tensor_from_obj({
            "dims": [1, 2, 2],
            "dense": [[[1, [0, 0]], [0, 0]], [[0, 0], [[0, -2], 0]]][:1],
        })
        # rebuild dense form explicitly for clarity
        dense = io.tensor_from_obj({
            "dims": [1, 2, 2],
            "dense": [[[1, 0], [0, [0, -2]]]],
        })
        assert np.array_equal(sparse.data, dense.data)

    def test_save_is_canonical(self, rng, tmp_path):
        x = random_integer_tensor((1, 2, 2), rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_tensor(x, str(p1))
        with open(p1) as fh:
            save_tensor(io.tensor_from_obj(json.load(fh)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sparse_form_matches_index_walk(self, rng, order):
        for shape in [(1, 2, 2), (2, 3, 2, 4), (3, 1, 5), (1, 4, 4, 4)]:
            values = rng.integers(-9, 10, shape) + 1j * rng.integers(-9, 10, shape)
            values[rng.random(shape) < 0.7] = 0
            # a Tensor stores either input order row-major
            x = ts.Tensor(np.asarray(values, order=order))
            assert x.data.flags.c_contiguous
            assert io.dumps_canonical(io.tensor_to_obj(x)) \
                == io.dumps_canonical(walked_tensor_obj(x))

    def test_sparse_form_keeps_large_integers_exact(self):
        data = np.zeros((1, 2, 2), dtype=complex)
        data[0, 1, 0] = 2.0 ** 70 - 2.0 ** 20 + 1j * -(2.0 ** 64)
        obj = io.tensor_to_obj(ts.Tensor(data))
        assert obj == walked_tensor_obj(ts.Tensor(data))
        assert obj["entries"] == [{"idx": [0, 1, 0], "re": 2 ** 70 - 2 ** 20,
                                   "im": -(2 ** 64)}]

    def test_positional_error_messages(self):
        with pytest.raises(io.SchemaError, match=r"entries\[1\]"):
            io.tensor_from_obj({"dims": [1, 2],
                                "entries": [{"idx": [0, 0], "re": 1, "im": 0},
                                            {"idx": [0, 9], "re": 1, "im": 0}]})
        with pytest.raises(io.SchemaError, match="dims"):
            io.tensor_from_obj({"dims": [1]})
        # an index listed twice: tensor_to_obj never writes one
        with pytest.raises(io.SchemaError,
                           match=r"^tensor\.entries\[1\]\.idx: index \[0, 0, 0\] listed twice$"):
            io.tensor_from_obj({"dims": [1, 1, 1],
                                "entries": [{"idx": [0, 0, 0], "re": 1},
                                            {"idx": [0, 0, 0], "re": 5}]})
        with pytest.raises(io.SchemaError):
            io.tensor_from_obj({"dims": [1, 2],
                                "entries": [{"idx": [0, 0], "re": 1.5, "im": 0}]})
        # JSON true and false are not integers, though Python reads them so
        with pytest.raises(io.SchemaError, match=r"entries\[0\]\.idx"):
            io.tensor_from_obj({"dims": [1, 2, 2],
                                "entries": [{"idx": [False, 1, 1], "re": 1}]})
        with pytest.raises(io.SchemaError, match="dims"):
            io.tensor_from_obj({"dims": [True, 2, 2], "entries": []})
        # numbers a float cannot hold
        with pytest.raises(io.SchemaError, match=r"dense\[0\]\[0\]"):
            io.tensor_from_obj({"dims": [1, 2],
                                "dense": [[[float("inf"), 0], 0]]})
        with pytest.raises(io.SchemaError, match=r"entries\[0\]"):
            io.tensor_from_obj({"dims": [1, 2],
                                "entries": [{"idx": [0, 0], "re": 10**400}]})

    @pytest.mark.parametrize("bad,good", [(2.0, 2), ([1, 2.0], [1, 2]),
                                          (True, 1)])
    @pytest.mark.parametrize("form", ["sparse", "dense"])
    def test_one_entry_rule_for_both_forms(self, form, bad, good):
        # an entry, and each part of an [re, im] pair, is a JSON integer that
        # a float holds: not 2.0 and not true, in either form
        def document(value):
            if form == "dense":
                return {"dims": [1, 2], "dense": [[1, value]]}
            parts = value if isinstance(value, list) else [value]
            return {"dims": [1, 2],
                    "entries": [{"idx": [0, 0], "re": 1},
                                {"idx": [0, 1], **dict(zip(("re", "im"), parts))}]}

        where = "tensor.dense[0][1]" if form == "dense" else "tensor.entries[1]"
        with pytest.raises(io.SchemaError, match=rf"^{re.escape(where)}: "):
            io.tensor_from_obj(document(bad))
        parts = good if isinstance(good, list) else [good, 0]
        assert np.array_equal(io.tensor_from_obj(document(good)).data,
                              [[1, complex(*parts)]])


class TestSpectrumJson:
    def test_fraction_strings_normalize(self):
        p = io.spectrum_from_obj({"parts": [["4/6", "2/6"]]})
        assert p.parts[0] == (F(2, 3), F(1, 3))
        assert p.denominator_lcm == 3

    def test_non_monotone_rejected(self):
        with pytest.raises(io.SchemaError):
            io.spectrum_from_obj({"parts": [["1/3", "2/3"]]})

    def test_non_numbers_rejected(self):
        for row in ([float("inf"), 0], [10**400, 0], [True, False]):
            with pytest.raises(io.SchemaError, match=r"parts\[0\]\[0\]"):
                io.spectrum_from_obj({"parts": [row, [0.5, 0.5]]})

    def test_decimal_entries_rationalized(self):
        p = io.spectrum_from_obj({"parts": [[0.75, 0.25]]})
        assert p.parts[0] == (F(3, 4), F(1, 4))

    def test_tied_top_entries_rationalized(self):
        # the sum's rounding residual, once added to the first entry, took it
        # below the tied second one: "spectrum must be nonincreasing"
        row = [0.3663616901554831, 0.3663616901554831, 0.24900027194215868,
               0.018276347746875202]
        vec = io.spectrum_from_obj({"parts": [row]}).parts[0]
        assert vec[0] == vec[1] and sum(vec) == 1
        assert max(abs(float(v) - x) for v, x in zip(vec, row)) <= 1e-6

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 3)),
                    min_size=1, max_size=4))
    def test_float_spectra_keep_order_and_ties(self, blocks):
        # nonincreasing probability vectors with repeated entries
        row = sorted((v for v, k in blocks for _ in range(k)), reverse=True)
        assume(sum(row) > 0)
        row = [v / sum(row) for v in row]
        if any(F(v).limit_denominator(10**6) == 0 and v > 1e-12 for v in row):
            with pytest.raises(io.SchemaError, match="rationalizes to 0"):
                io.spectrum_from_obj({"parts": [row]})
            return
        vec = io.spectrum_from_obj({"parts": [row]}).parts[0]
        assert sum(vec) == 1
        assert all(vec[k] == vec[k + 1] for k in range(len(row) - 1) if row[k] == row[k + 1])
        assert max(abs(float(v) - x) for v, x in zip(vec, row)) <= 1e-5

    def test_round_trip(self, tmp_path):
        p = ts.TargetSpectrum(((F(2, 3), F(1, 3)), (F(1, 2), F(1, 2))))
        path = tmp_path / "p.json"
        save_spectrum(p, str(path))
        with open(path) as fh:
            assert io.spectrum_from_obj(json.load(fh)).parts == p.parts

    @pytest.mark.parametrize("row,total", [([0.9, 0.9], "1.8"),
                                           ([0.5, 0.3], "0.8")])
    def test_float_rows_far_from_one_are_refused(self, row, total):
        # from_floats would rescale them to (1/2, 1/2) and (5/8, 3/8)
        with pytest.raises(io.SchemaError,
                           match=rf"^spectrum\.parts\[1\]: entries sum to {total},"):
            io.spectrum_from_obj({"parts": [[0.5, 0.5], row]})

    def test_float_row_past_the_float_range_is_refused(self):
        # its float sum used to raise OverflowError: a numeric failure, exit 3
        with pytest.raises(io.SchemaError, match=r"^spectrum\.parts\[0\]: "
                                                 "an entry lies past the float range$"):
            io.spectrum_from_obj({"parts": [["1e400", 0], [0.5, 0.5]]})
        # an exact row takes no float sum and keeps TargetSpectrum's message
        with pytest.raises(io.SchemaError, match=r"^spectrum\.parts\[0\]: "
                                                 r"entries must lie in \[0, 1\]"):
            io.spectrum_from_obj({"parts": [["1e400", "0"], [0.5, 0.5]]})

    @pytest.mark.parametrize("row,message", [
        ([1.0000001, -1e-7], "entry -1e-07 is negative"),
        ([0.9999999, 1e-7], "entry 1e-07 is positive but rationalizes to 0")])
    def test_float_rows_keep_each_entrys_sign(self, row, message):
        with pytest.raises(io.SchemaError,
                           match=rf"^spectrum\.parts\[1\]: {message}$"):
            io.spectrum_from_obj({"parts": [[0.5, 0.5], row]})

    @pytest.mark.parametrize("row,value", [([0.1] * 10, F(1, 10)),
                                           ([1 / 3] * 3, F(1, 3))])
    def test_float_rows_within_rounding_of_one_load(self, row, value):
        assert io.spectrum_from_obj({"parts": [row]}).parts == ((value,) * len(row),)

    def test_fraction_rows_stay_exact_beside_float_rows(self):
        # rationalizing this row would give (666667/666669, 2/666669)
        p = io.spectrum_from_obj({"parts": [["1000000/1000003", "3/1000003"],
                                            [0.5, 0.5]]})
        assert p.parts == ((F(1000000, 1000003), F(3, 1000003)), (F(1, 2), F(1, 2)))


class TestHwvSpecJson:
    def test_round_trip(self, tmp_path):
        spec = ts.HWVSpec(weight=((1, 1), (1, 1)), index_seq=(0, 0),
                          perms=((0, 1), (1, 0)))
        obj = hwv_spec_to_obj(spec)
        assert io.hwv_spec_from_obj(obj) == spec

    def test_bad_permutation(self):
        with pytest.raises(io.SchemaError):
            io.hwv_spec_from_obj({"weight": [[1, 1]], "indexSeq": [0, 0],
                                  "perms": [[0, 0]]})

    @pytest.mark.parametrize("field,value,where", [
        ("weight", [[1.7, 1.2], [1, 1]], "weight[0]"),
        ("weight", [[1, 1], [True, 1]], "weight[1]"),
        ("weight", ["11", [1, 1]], "weight[0]"),
        ("indexSeq", [0.9, 0], "indexSeq"),
        ("indexSeq", [False, 0], "indexSeq"),
        ("perms", [[0, True], [1, 0]], "perms[0]"),
        ("perms", [[0, 1], [1.0, 0]], "perms[1]"),
    ])
    def test_non_integers_rejected(self, field, value, where):
        obj = {"weight": [[1, 1], [1, 1]], "indexSeq": [0, 0],
               "perms": [[0, 1], [1, 0]], field: value}
        with pytest.raises(io.SchemaError, match=rf"hwv\.{re.escape(where)}:"):
            io.hwv_spec_from_obj(obj)


class TestNumberArray:
    def test_nested_numbers_become_floats(self):
        out = io.number_array([[[1, 0.5], [0, -2]], [[3, 0], [0, 1e300]]], "m")
        assert out.dtype == float and out.shape == (2, 2, 2)
        assert out[0, 0, 1] == 0.5 and out[1, 1, 1] == 1e300
        assert io.number_array(7, "m").shape == ()

    @pytest.mark.parametrize("node,where", [
        ([[1, "2"], [3, 4]], "m[0][1]"),
        ([[1, 2], [None, 4]], "m[1][0]"),
        ([[1, 2], [3, True]], "m[1][1]"),
        ([[1, 2], [3, 10 ** 400]], "m[1][1]"),
        ([[1, 2], [3, float("nan")]], "m[1][1]"),
        ([[1, 2], []], "m[1]"),
        ([[1, 2], [3]], "m"),
        ([[1, 2], 3], "m"),
        ({"rows": [[1]]}, "m"),
        ([], "m"),
    ])
    def test_other_entries_fail_at_their_path(self, node, where):
        with pytest.raises(io.SchemaError, match=rf"^{re.escape(where)}:"):
            io.number_array(node, "m")


class TestFloatFormatting:
    def test_twelve_significant_digits(self):
        text = io.dumps_canonical({"v": 1 / 3, "w": 2 / 3e12})
        assert '"v": 0.333333333333' in text
        assert "6666666666667" not in text

    def test_report_floats_rounded(self):
        rep = ts.run_scaling(ghz_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                             ts.ScalingConfig(epsilon=0.1, seed=0))
        text = io.dumps_canonical(io.report_to_obj(rep))
        for token in text.replace(",", " ").split():
            token = token.strip('"')
            try:
                value = float(token)
            except ValueError:
                continue
            # every emitted number is exactly representable with 12
            # significant digits
            assert value == float(format(value, ".12g"))


# JSON scalars plus the NumPy scalars reports may carry; the extra float
# ranges are the ones where the writer leaves its fast path: subnormals
# and [1e12, 1e16), where %g and repr choose different notations
_SCALARS = st.one_of(
    st.floats(),
    st.floats(min_value=1e12, max_value=1e16),
    st.floats(min_value=-1e16, max_value=-1e12),
    st.floats(min_value=-1e-306, max_value=1e-306),
    st.integers(), st.booleans(), st.none(), st.text(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=24)


class TestCanonicalWriter:
    """dumps_canonical is one pass that writes exactly the bytes of the
    rounding walk plus json.dumps(indent=2)."""

    def test_reports_and_verdicts_match_reference(self):
        rep = ts.run_scaling(ghz_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                             ts.ScalingConfig(epsilon=0.1, seed=0))
        verdict = ts.membership(w_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                                1e-3, cfg=ts.ScalingConfig(epsilon=1e-3, seed=3,
                                                           max_iters=60),
                                repeats=2)
        assert verdict.witness is None
        for obj in (io.report_to_obj(rep), io.verdict_to_obj(verdict),
                    io.report_to_obj(verdict.evidence)):
            assert io.dumps_canonical(obj) == reference_dumps(obj)

    def test_saved_tensor_and_spectrum_match_reference(self, rng, tmp_path):
        x = random_integer_tensor((2, 3, 2), rng)
        p = ts.TargetSpectrum(((F(2, 3), F(1, 3)), (F(1, 2), F(1, 3), F(1, 6)),
                               (F(1, 2), F(1, 2))))
        save_tensor(x, str(tmp_path / "x.json"))
        save_spectrum(p, str(tmp_path / "p.json"))
        assert (tmp_path / "x.json").read_text() \
            == reference_dumps(io.tensor_to_obj(x))
        assert (tmp_path / "p.json").read_text() \
            == reference_dumps(spectrum_to_obj(p))

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 1.0, -3.0, 1e-5, 0.0001, 123456789012.0, 999999999999.5,
        1e12, 1.5e15, 1e16, 2.0 ** 53, 5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, float("nan"), float("inf"), float("-inf")])
    def test_float_edges_match_reference(self, value):
        for obj in (value, -value, [value], {"v": value}):
            assert io.dumps_canonical(obj) == reference_dumps(obj)

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENTS)
    def test_documents_match_reference(self, doc):
        assert io.dumps_canonical(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("obj", [
        1 + 2j, {"v": [np.complex128(1)]}, np.zeros(2), [np.ones((2, 2))],
        {1: "a"}, {"a": {None: 1}}, {(0, 1): 2}, [{1.5: 0}], {"v": {1, 2}},
        np.bool_(True)])
    def test_unsupported_values_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            io.dumps_canonical(obj)

    def test_subclasses_of_json_types_write_their_plain_bytes(self):
        class Text(str):
            pass

        class Mapping(dict):
            pass

        class Items(list):
            pass

        plain = {"a": ["x", {"b": [1.5, "y"]}], "c": {}}
        doc = Mapping(a=Items([Text("x"), Mapping(b=Items([1.5, Text("y")]))]),
                      c=Mapping())
        assert io.dumps_canonical(doc) == io.dumps_canonical(plain) \
            == reference_dumps(plain)

    def test_report_note_is_written(self):
        # range 1 draws all-ones factors, a singular basis change
        rep = ts.run_scaling(ghz_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                             ts.ScalingConfig(epsilon=0.1, rand_range=1))
        obj = io.report_to_obj(rep)
        assert rep.verdict == ts.BUDGET_EXHAUSTED
        assert obj["note"] == "basis change factor 1 is singular"
        assert io.dumps_canonical(obj) == reference_dumps(obj)

    def test_never_enters_pure_python_encoder(self, monkeypatch):
        # a far-sized membership verdict: two capped runs' traces and groups
        verdict = ts.membership(w_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                                1e-3, cfg=ts.ScalingConfig(epsilon=1e-3, seed=1,
                                                           max_iters=60),
                                repeats=2)
        obj = io.verdict_to_obj(verdict)
        assert len(obj["evidence"]["trace"]) == 60
        calls = []
        make_iterencode = json.encoder._make_iterencode

        def counting(*args, **kwargs):
            calls.append(1)
            return make_iterencode(*args, **kwargs)

        monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
        text = io.dumps_canonical(obj)
        assert calls == []
        # the counter sees the indented json.dumps the writer replaces
        assert reference_dumps(obj) == text and calls


class TestCli:
    def run(self, *argv, capsys=None):
        code = cli.main(list(argv))
        out = capsys.readouterr().out if capsys else ""
        return code, out

    def test_scale_success(self, ghz_path, uniform_path, capsys):
        code, out = self.run("scale", "--tensor", ghz_path, "--target",
                             uniform_path, "--epsilon", "1e-3", "--seed", "7",
                             capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "SCALED"
        assert report["iterations"] < 50

    def test_target_uniform_shorthand(self, ghz_path, capsys):
        code, out = self.run("scale", "--tensor", ghz_path, "--target",
                             "uniform", "--epsilon", "1e-2", capsys=capsys)
        assert code == 0 and json.loads(out)["verdict"] == "SCALED"

    def test_validation_exit_code(self, ghz_path, uniform_path):
        code, _ = self.run("scale", "--tensor", ghz_path, "--target",
                           uniform_path, "--epsilon", "-1")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--epsilon", "nan"),
                                             ("--epsilon", "0"),
                                             ("--rand-range", "0")])
    def test_config_rejects_bad_values(self, ghz_path, capsys, flag, value):
        # ScalingConfig is the one check of these values
        argv = {"--epsilon": "0.1", flag: value}
        code = cli.main(["scale", "--tensor", ghz_path, "--target", "uniform",
                         *(item for pair in argv.items() for item in pair)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize("eps", ["1e-157", "1e-170"])
    def test_capped_run_at_a_tiny_epsilon_ends_at_its_cap(self, ghz_path,
                                                          capsys, eps):
        # the budget overflows the float range at these tolerances, and
        # --max-iters still ends the run after 5 steps
        code, out = self.run("scale", "--tensor", ghz_path, "--target",
                             "uniform", "--epsilon", eps, "--max-iters", "5",
                             capsys=capsys)
        report = json.loads(out)
        assert code == 1 and report["verdict"] == "BUDGET_EXHAUSTED"
        assert report["iterations"] == 5
        code, out = self.run("qmp", "--dims", "2,2,2", "--target", "uniform",
                             "--epsilon", eps, "--max-iters", "5",
                             "--repeats", "1", capsys=capsys)
        evidence = json.loads(out)["evidence"]
        assert code == 1 and evidence["verdict"] == "BUDGET_EXHAUSTED"
        assert evidence["iterations"] == 5

    def test_unknown_flag_is_error(self, ghz_path):
        assert cli.main(["scale", "--tensor", ghz_path, "--target", "uniform",
                         "--epsilon", "0.1", "--frobulate"]) == 2

    def test_qmp_far_point(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"parts": [["1/2", "1/2"], ["1", "0"], ["1", "0"]]}))
        code, out = self.run("qmp", "--dims", "2,2,2", "--target", str(bad),
                             "--epsilon", "0.05", "--max-iters", "300",
                             capsys=capsys)
        assert code == 1
        assert json.loads(out)["answer"] == "EPS_FAR"

    def test_qmp_uniform_in(self, capsys):
        code, out = self.run("qmp", "--dims", "2,2,2", "--target", "uniform",
                             "--epsilon", "0.01", capsys=capsys)
        assert code == 0 and json.loads(out)["answer"] == "IN"

    def test_deterministic_reports(self, ghz_path, uniform_path, tmp_path):
        argv = ["scale", "--tensor", ghz_path, "--target", uniform_path,
                "--epsilon", "1e-3", "--seed", "3"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_kronecker_command(self, capsys):
        code, out = self.run("kronecker", "--lam", "2", "--mu", "1,1",
                             "--nu", "1,1", "--epsilon", "0.05", capsys=capsys)
        assert code == 0 and json.loads(out)["answer"] == "IN"

    def test_reduce_command(self, tmp_path, capsys):
        x = ts.Tensor(np.arange(1, 5, dtype=complex).reshape(1, 2, 2))
        path = tmp_path / "x.json"
        save_tensor(x, str(path))
        code, out = self.run("reduce", "--tensor", str(path), "--lambdas",
                             "[[2,1],[2,1]]", capsys=capsys)
        assert code == 0
        reduced = io.tensor_from_obj(json.loads(out)["tensor"])
        assert reduced.shape == (4, 3, 3)

    def test_verify_hwv_command(self, tmp_path, capsys):
        x = ts.Tensor(np.eye(2, dtype=complex).reshape(1, 2, 2))
        xpath = tmp_path / "x.json"
        save_tensor(x, str(xpath))
        spec = ts.HWVSpec(weight=((1, 1), (1, 1)), index_seq=(0, 0),
                          perms=((0, 1), (0, 1)))
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(hwv_spec_to_obj(spec)))
        code, out = self.run("verify-hwv", "--tensor", str(xpath), "--spec",
                             str(spath), capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["boundOk"] and payload["transformOk"]
        assert payload["abs"] == pytest.approx(2.0)

    def test_sinkhorn_command(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        mpath.write_text("[[1.0, 1.0], [0.0, 1.0]]")
        code, out = self.run("sinkhorn", "--matrix", str(mpath), "--rows",
                             "1,1", "--cols", "1,1", "--epsilon", "1e-3",
                             capsys=capsys)
        assert code == 0 and json.loads(out)["converged"]

    def test_sinkhorn_nan_entry_is_a_usage_error(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        mpath.write_text("[[NaN, 1], [1, 1]]")
        code = cli.main(["sinkhorn", "--matrix", str(mpath), "--rows", "1,1",
                         "--cols", "1,1", "--epsilon", "1e-3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_general_scale_mps(self, tmp_path, capsys):
        mpath = tmp_path / "mps.json"
        mpath.write_text(json.dumps({"n": 2, "bond": 2, "sites": 3}))
        code, out = self.run("general-scale", "--mps", str(mpath), "--target",
                             "uniform", "--epsilon", "0.05", "--seed", "2",
                             "--max-iters", "2000", capsys=capsys)
        assert code in (0, 1)
        assert json.loads(out)["verdict"] in ("SCALED", "NOT_IN_POLYTOPE",
                                              "BUDGET_EXHAUSTED")

    @pytest.mark.parametrize("obj,flags,key", [
        ({"n": 2, "bond": 2, "sites": 2.7}, [], "sites"),
        ({"n": 2, "bond": 1.9, "sites": 2}, [], "bond"),
        ({"n": True, "bond": 2, "sites": 2}, [], "n"),
        ({"n": 2, "bond": 2, "sites": 2}, ["--sites", "0"], "sites"),
    ])
    def test_general_scale_mps_counts_must_be_positive_integers(
            self, tmp_path, capsys, obj, flags, key):
        mpath = tmp_path / "mps.json"
        mpath.write_text(json.dumps(obj))
        code = cli.main(["general-scale", "--mps", str(mpath), "--target",
                         "uniform", "--epsilon", "0.1", "--max-iters", "10",
                         *flags])
        assert code == 2
        assert f"--mps {key} must be a positive integer" \
            in capsys.readouterr().err

    def test_general_scale_mps_explicit_matrices(self, tmp_path, capsys):
        # diagonal site matrices build the unit-diagonal tensor, which has
        # exactly uniform marginals
        mpath = tmp_path / "mps_fixed.json"
        mpath.write_text(json.dumps(
            {"matrices": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "sites": 3}))
        code, out = self.run("general-scale", "--mps", str(mpath), "--target",
                             "uniform", "--epsilon", "0.01", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "SCALED"
        assert witness_distance(payload, ts.TargetSpectrum.uniform((2, 2, 2))) \
            <= 0.01

    def test_general_scale_site_matrices_scale_as_scale_does(self, tmp_path,
                                                              capsys):
        # they define [[[8,4],[4,0]],[[4,0],[0,0]]], a member whose start
        # fails the rank gate unless a random basis change comes first
        mpath, ppath = tmp_path / "mps.json", tmp_path / "p.json"
        mpath.write_text(json.dumps(
            {"matrices": [[[0, 0], [1, 2]], [[-2, -2], [2, 2]]], "sites": 3}))
        p = ts.TargetSpectrum(((F(1), F(0)),) + ((F(1, 2), F(1, 2)),) * 2)
        save_spectrum(p, str(ppath))
        code, out = self.run("general-scale", "--mps", str(mpath), "--target",
                             str(ppath), "--epsilon", "0.05", capsys=capsys)
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "SCALED"
        sample = io.tensor_from_obj(payload["sample"])
        assert np.array_equal(sample.data.real.ravel(), [8, 4, 4, 0, 4, 0, 0, 0])
        assert witness_distance(payload, p) <= 0.05

    @pytest.mark.parametrize("argv", [
        ["membership", "--tensor", "GHZ", "--target", "uniform"],
        ["qmp", "--dims", "2,2,2", "--target", "uniform"],
        ["kronecker", "--lam", "2", "--mu", "1,1", "--nu", "1,1"],
        ["general-scale", "--dims", "2,2,2", "--target", "uniform"],
    ], ids=["membership", "qmp", "kronecker", "general-scale"])
    def test_no_randomize_only_where_a_run_reads_it(self, ghz_path, capsys,
                                                    argv):
        # the last three sample their start and never read the flag, and a
        # decision from an unrandomized start would prove nothing
        argv = [ghz_path if arg == "GHZ" else arg for arg in argv]
        assert cli.main(argv + ["--epsilon", "0.1", "--no-randomize"]) == 2
        assert "--no-randomize" in capsys.readouterr().err

    def test_scale_no_randomize_scales_the_input_itself(self, ghz_path,
                                                         capsys):
        # GHZ has uniform marginals, so its own start halts at step 0, and
        # the witness only normalizes it
        code, out = self.run("scale", "--tensor", ghz_path, "--target",
                             "uniform", "--epsilon", "1e-3", "--no-randomize",
                             capsys=capsys)
        report = json.loads(out)
        assert code == 0 and report["iterations"] == 0
        zero = {"re": 0.0, "im": 0.0}
        assert all(mat[0][1] == mat[1][0] == zero for mat in report["group"])

    def test_mode_flag_is_retired(self, capsys):
        # every run takes the Borel step, so there is no mode to select
        assert cli.main(["qmp", "--dims", "2,2", "--target", "uniform",
                         "--epsilon", "0.1", "--mode", "parabolic"]) == 2
        assert "--mode" in capsys.readouterr().err

    def test_orbit_tensor_flag_is_retired(self, ghz_path, capsys):
        # a given tensor is scaled by `scale`; general-scale has no second path
        assert cli.main(["general-scale", "--dims", "2,2,2", "--orbit-tensor",
                         ghz_path, "--target", "uniform",
                         "--epsilon", "0.1"]) == 2
        assert "unrecognized arguments: --orbit-tensor" \
            in capsys.readouterr().err

    def test_sites_without_mps_is_a_usage_error(self, capsys):
        code = cli.main(["general-scale", "--dims", "2,2", "--sites", "5",
                         "--target", "uniform", "--epsilon", "0.05"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: --sites applies only to --mps\n"

    @pytest.mark.parametrize("content,argv", [
        ({"matrices": 5, "sites": 2}, ["general-scale", "--mps"]),
        ({"matrices": [], "sites": 2}, ["general-scale", "--mps"]),
        ({"matrices": [1, 2], "sites": 2}, ["general-scale", "--mps"]),
        ({"rows": [[1, 1], [1, 1]]}, ["sinkhorn", "--matrix"]),
        (None, ["reduce", "--lambdas", "5", "--tensor"]),
        (None, ["reduce", "--lambdas", "[5, 3]", "--tensor"]),
    ], ids=["mps-number", "mps-empty", "mps-flat", "sinkhorn-object",
            "lambdas-number", "lambdas-flat"])
    def test_malformed_input_exits_two(self, tmp_path, capsys, content, argv):
        # each used to escape main as a TypeError or IndexError (exit 1)
        path = tmp_path / "in.json"
        if content is None:
            save_tensor(ts.Tensor(np.ones((1, 2, 2))), str(path))
        else:
            path.write_text(json.dumps(content))
        rest = {"general-scale": ["--target", "uniform", "--epsilon", "0.1"],
                "sinkhorn": ["--rows", "1,1", "--cols", "1,1",
                             "--epsilon", "0.1"],
                "reduce": []}[argv[0]]
        assert cli.main(argv + [str(path)] + rest) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flag,content,message", [
        ("--target", {"parts": [[0.5, 0.3], ["1/2", "1/2"], [0.5, 0.5]]},
         ".parts[0]: entries sum to 0.8, not 1 within 1e-6"),
        ("--tensor", {"dims": [2, 2, 2], "dense": [[[1, 0], [0, 0]]] * 2,
                      "entries": []},
         ": give 'dense' or 'entries', not both"),
        ("--target", {"parts": [[0.5, 0.5], [1.0000001, -1e-7], [0.5, 0.5]]},
         ".parts[1]: entry -1e-07 is negative"),
        ("--target", {"parts": [[0.5, 0.5], [0.9999999, 1e-7], [0.5, 0.5]]},
         ".parts[1]: entry 1e-07 is positive but rationalizes to 0"),
        ("--target", {"parts": [["1e400", 0], [0.5, 0.5], [0.5, 0.5]]},
         ".parts[0]: an entry lies past the float range"),
    ], ids=["target-row-sum", "tensor-both-forms", "target-negative",
            "target-positive-to-zero", "target-past-float-range"])
    def test_ambiguous_input_exits_two(self, ghz_path, tmp_path, capsys, flag,
                                       content, message):
        # each used to load silently: a rescaled target, a dropped form, a
        # target row read as (1, 0); the last exited 3 on OverflowError
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        files = {"--tensor": ghz_path, "--target": "uniform", flag: str(path)}
        assert cli.main(["scale", *[v for kv in files.items() for v in kv],
                         "--epsilon", "0.1"]) == 2
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    def test_missing_file_exit_two(self):
        assert cli.main(["scale", "--tensor", "/nonexistent.json", "--target",
                         "uniform", "--epsilon", "0.1"]) == 2

    @pytest.mark.parametrize("flag", ["--tensor", "--out"])
    def test_directory_as_a_file_exits_two(self, ghz_path, tmp_path, capsys,
                                           flag):
        # an OSError other than a missing file used to escape main (exit 1,
        # the negative-verdict code), for --out after the whole run
        tensor = str(tmp_path) if flag == "--tensor" else ghz_path
        out = ["--out", str(tmp_path)] if flag == "--out" else []
        code = cli.main(["scale", "--tensor", tensor, "--target", "uniform",
                         "--epsilon", "0.1", *out])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_exhausted_memory_exits_three(self, ghz_path, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(cli, "run_scaling", exhausted)
        code = cli.main(["scale", "--tensor", ghz_path, "--target", "uniform",
                         "--epsilon", "0.1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "out of memory: Unable to allocate 8.00 GiB\n"

    @pytest.mark.parametrize("content,argv,where", [
        ({"sites": 3, "matrices": [[["1", True], [0, 1]], [[1, 0], [0, 1]]]},
         ["general-scale", "--target", "uniform", "--epsilon", "0.1", "--mps"],
         ".matrices[0][0][0]"),
        ({"sites": 3, "matrices": [[[1, True], [0, 1]], [[1, 0], [0, 1]]]},
         ["general-scale", "--target", "uniform", "--epsilon", "0.1", "--mps"],
         ".matrices[0][0][1]"),
        ([["1", True], [2, 3]],
         ["sinkhorn", "--rows", "1,1", "--cols", "1,1", "--epsilon", "1e-3",
          "--matrix"], "[0][0]"),
        ([[1, 1], [2, False]],
         ["sinkhorn", "--rows", "1,1", "--cols", "1,1", "--epsilon", "1e-3",
          "--matrix"], "[1][1]"),
    ], ids=["mps-string", "mps-bool", "sinkhorn-string", "sinkhorn-bool"])
    def test_matrix_entries_must_be_numbers(self, tmp_path, capsys, content,
                                            argv, where):
        # strings and booleans used to be read as numbers: the --mps run
        # answered, and sinkhorn scaled [[1, 1], [2, 3]]
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        assert cli.main(argv + [str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}{where}:")

    def test_overflowing_site_matrices_are_a_breakdown(self, tmp_path, capsys):
        # every given number is finite, only the trace products overflow:
        # a numeric failure like an overflowing sample, not a usage error
        path = tmp_path / "mps.json"
        path.write_text(json.dumps(
            {"sites": 3,
             "matrices": [[[1e200, 0], [0, 1]], [[1, 0], [0, 1]]]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["general-scale", "--mps", str(path), "--target",
                             "uniform", "--epsilon", "0.1"])
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("numeric failure:")
        assert captured.err.count("\n") == 1

    def test_malformed_number_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [1, 2], "dense": [[[Infinity, 0], 1]]}')
        assert cli.main(["scale", "--tensor", str(bad), "--target", "uniform",
                         "--epsilon", "0.1"]) == 2
        assert "dense[0][0]" in capsys.readouterr().err

    def test_non_integer_spec_exit_two(self, tmp_path, capsys):
        xpath = tmp_path / "x.json"
        save_tensor(ts.Tensor(np.eye(2, dtype=complex).reshape(1, 2, 2)),
                    str(xpath))
        spath = tmp_path / "spec.json"
        spath.write_text('{"weight": [[1.7, 1.2], [1, 1]], "indexSeq": [0.9, 0],'
                         ' "perms": [[0, true], [1, 0]]}')
        assert cli.main(["verify-hwv", "--tensor", str(xpath), "--spec",
                         str(spath)]) == 2
        assert "weight[0]" in capsys.readouterr().err

    def test_numeric_failure_exit_three(self, tmp_path, rng):
        # a weight vector whose plan exceeds the term budget: 8 * 40,320**2
        # terms on (1;8,8)
        x = ts.Tensor(rng.integers(0, 2, size=(1, 8, 8)).astype(complex))
        xpath = tmp_path / "x.json"
        save_tensor(x, str(xpath))
        spec = ts.HWVSpec(weight=((1,) * 8,) * 2, index_seq=(0,) * 8,
                          perms=(tuple(range(8)),) * 2)
        spath = tmp_path / "big.json"
        spath.write_text(json.dumps(hwv_spec_to_obj(spec)))
        assert cli.main(["verify-hwv", "--tensor", str(xpath), "--spec",
                         str(spath)]) == 3

    def test_numeric_breakdown_exit_three(self, tmp_path, capsys):
        x = ts.Tensor(np.array([[[[1, 2], [2, 2]], [[2, 2], [3, 2]]]],
                               dtype=complex))
        xpath = tmp_path / "x.json"
        save_tensor(x, str(xpath))
        ppath = tmp_path / "p.json"
        save_spectrum(ts.TargetSpectrum(((F(2, 3), F(1, 3)),) * 3),
                      str(ppath))
        code = cli.main(["scale", "--tensor", str(xpath), "--target",
                         str(ppath), "--epsilon", "0.05", "--seed", "0",
                         "--no-randomize", "--max-iters", "1500"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numeric failure:") and err.count("\n") == 1

    def test_linalg_error_is_a_numeric_failure(self, ghz_path, capsys,
                                               monkeypatch):
        # np.linalg.LinAlgError is a ValueError, yet a numeric failure
        def broken(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "run_scaling", broken)
        assert cli.main(["scale", "--tensor", ghz_path, "--target", "uniform",
                         "--epsilon", "0.1"]) == 3
        assert capsys.readouterr().err == "numeric failure: Singular matrix\n"

    def test_overflowing_witness_exits_three(self, ghz_path, capsys,
                                             monkeypatch):
        # a finite witness group whose image of the input overflows in
        # apply_group itself: a numeric failure, with no NumPy warning
        def huge(g, h):
            return tuple(1e200 * m for m in ts.compose_group(g, h))

        monkeypatch.setattr(ts.scaling, "compose_group", huge)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["scale", "--tensor", ghz_path, "--target",
                             "uniform", "--epsilon", "0.1"])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert code == 3 and err.count("\n") == 1
        assert err == "numeric failure: a group's image left the " \
                      "floating-point range\n"

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_overflowing_theoretical_start_exits_three(self, tmp_path, capsys,
                                                        n):
        # n = 4, 5: the randomized start of the diagonal tensor with entries
        # 2**300 overflows; n = 6: the (6,6,6,6) qmp sample does.  Each is a
        # numeric failure, never a verdict or a usage error
        if n == 6:
            argv = ["qmp", "--dims", "6,6,6,6", "--repeats", "1"]
        else:
            data = np.zeros((1, n, n, n), dtype=complex)
            data[0, range(n), range(n), range(n)] = 2.0 ** 300
            save_tensor(ts.Tensor(data), str(tmp_path / "x.json"))
            argv = ["scale", "--tensor", str(tmp_path / "x.json")]
        code = cli.main(argv + ["--target", "uniform", "--epsilon", "0.01",
                                "--rand-range", "theoretical",
                                "--max-iters", "50"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("numeric failure:")

    @pytest.mark.parametrize("case", ["unit4", "unit5", "qmp6", "mps5"])
    def test_overflowing_theoretical_start_prints_one_line(self, tmp_path,
                                                           capsys, case):
        # the breakdown rule decides an overflowing start or sample, so
        # NumPy's overflow warnings stay silent: stderr is the one message
        if case.startswith("unit"):
            n = int(case[-1])
            data = np.zeros((1, n, n, n), dtype=complex)
            data[0, range(n), range(n), range(n)] = 2.0 ** 300
            save_tensor(ts.Tensor(data), str(tmp_path / "x.json"))
            argv = ["scale", "--tensor", str(tmp_path / "x.json")]
        elif case == "qmp6":
            argv = ["qmp", "--dims", "6,6,6,6", "--repeats", "1"]
        else:
            (tmp_path / "mps.json").write_text('{"n": 3, "bond": 2}')
            argv = ["general-scale", "--mps", str(tmp_path / "mps.json"),
                    "--sites", "5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv + ["--target", "uniform", "--epsilon", "0.1",
                                    "--rand-range", "theoretical",
                                    "--max-iters", "50"])
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("numeric failure:")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_input_past_the_root_of_the_float_range_scales(self, tmp_path,
                                                           capsys):
        # entries 10**200: the sum of squares overflows, the norm does not,
        # so the run scales with no NumPy warning and an empty stderr
        big = str(10 ** 200)
        (tmp_path / "x.json").write_text(
            '{"dims": [1, 2, 2], "entries": ['
            f'{{"idx": [0, 0, 0], "re": {big}, "im": 0}}, '
            f'{{"idx": [0, 1, 1], "re": {big}, "im": 0}}]}}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["scale", "--tensor", str(tmp_path / "x.json"),
                             "--target", "uniform", "--epsilon", "0.01"])
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["verdict"] == "SCALED"

    def test_membership_in(self, ghz_path, capsys):
        code, out = self.run("membership", "--tensor", ghz_path, "--target",
                             "uniform", "--epsilon", "0.05", capsys=capsys)
        assert code == 0 and json.loads(out)["answer"] == "IN"

    @pytest.mark.parametrize("rand_range", ["65536", "theoretical"])
    def test_general_scale_dims_carries_its_sample(self, capsys, rand_range):
        code, out = self.run("general-scale", "--dims", "2,2,2", "--target",
                             "uniform", "--epsilon", "0.05", "--rand-range",
                             rand_range, "--max-iters", "200", capsys=capsys)
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "SCALED"
        sample = io.tensor_from_obj(payload["sample"])
        assert sample.shape == (1, 2, 2, 2)
        # the identity map has degree 1: the theoretical range is 2K
        k, _ = ts.randomization_bounds(2, 3, (2, 2, 2))
        top = 2 * k if rand_range == "theoretical" else 65536
        assert all(1 <= v <= top for v in sample.data.real.ravel())

    @pytest.mark.parametrize("argv,message", [
        (["qmp", "--dims", "2,x"], "--dims expects comma-separated integers"),
        (["qmp", "--dims", "2,-1"], "--dims expects nonnegative integers"),
        (["scale", "--tensor", None, "--rand-range", "huge"],
         "--rand-range must be an integer or 'theoretical'"),
        (["reduce", "--tensor", None, "--lambdas", "[[2,1]"],
         "--lambdas is not valid JSON"),
    ], ids=["dims-not-integer", "dims-negative", "rand-range", "lambdas-json"])
    def test_malformed_flag_exits_two(self, ghz_path, capsys, argv, message):
        argv = [ghz_path if a is None else a for a in argv]
        rest = [] if argv[0] == "reduce" else ["--target", "uniform",
                                               "--epsilon", "0.1"]
        assert cli.main(argv + rest) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_zero_repeats_is_a_usage_error(self, capsys):
        code = cli.main(["qmp", "--dims", "2,2,2", "--target", "uniform",
                         "--epsilon", "0.05", "--repeats", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", [
        ["membership", "--tensor", "x.json", "--target", "uniform"],
        ["qmp", "--dims", "2,2,2", "--target", "uniform"],
        ["kronecker", "--lam", "2", "--mu", "1,1", "--nu", "1,1"],
    ])
    def test_gap_constant_flag_is_gone(self, capsys, command):
        assert cli.main(command + ["--epsilon", "0.05",
                                   "--gap-constant-c", "1.0"]) == 2
        assert "--gap-constant-c" in capsys.readouterr().err
