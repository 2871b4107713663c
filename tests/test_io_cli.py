"""Wire formats and the command-line surface."""
import json
from fractions import Fraction as F

import numpy as np
import pytest

import tenscale as ts
from tenscale import cli, io
from conftest import ghz_tensor, random_integer_tensor


@pytest.fixture
def ghz_path(tmp_path):
    path = tmp_path / "ghz.json"
    io.save_tensor(ghz_tensor(), str(path))
    return str(path)


@pytest.fixture
def uniform_path(tmp_path):
    path = tmp_path / "uniform.json"
    io.save_spectrum(ts.TargetSpectrum.uniform((2, 2, 2)), str(path))
    return str(path)


class TestTensorJson:
    def test_sparse_round_trip(self, rng, tmp_path):
        x = random_integer_tensor((2, 2, 3), rng)
        path = tmp_path / "x.json"
        io.save_tensor(x, str(path))
        assert np.array_equal(io.load_tensor(str(path)).data, x.data)

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
        io.save_tensor(x, str(p1))
        io.save_tensor(io.load_tensor(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_positional_error_messages(self):
        with pytest.raises(io.SchemaError, match=r"entries\[1\]"):
            io.tensor_from_obj({"dims": [1, 2],
                                "entries": [{"idx": [0, 0], "re": 1, "im": 0},
                                            {"idx": [0, 9], "re": 1, "im": 0}]})
        with pytest.raises(io.SchemaError, match="dims"):
            io.tensor_from_obj({"dims": [1]})
        with pytest.raises(io.SchemaError):
            io.tensor_from_obj({"dims": [1, 2],
                                "entries": [{"idx": [0, 0], "re": 1.5, "im": 0}]})


class TestSpectrumJson:
    def test_fraction_strings_normalize(self):
        p = io.spectrum_from_obj({"parts": [["4/6", "2/6"]]})
        assert p.parts[0] == (F(2, 3), F(1, 3))
        assert p.denominator_lcm == 3

    def test_non_monotone_rejected(self):
        with pytest.raises(io.SchemaError):
            io.spectrum_from_obj({"parts": [["1/3", "2/3"]]})

    def test_decimal_entries_rationalized(self):
        p = io.spectrum_from_obj({"parts": [[0.75, 0.25]]})
        assert p.parts[0] == (F(3, 4), F(1, 4))

    def test_round_trip(self, tmp_path):
        p = ts.TargetSpectrum(((F(2, 3), F(1, 3)), (F(1, 2), F(1, 2))))
        path = tmp_path / "p.json"
        io.save_spectrum(p, str(path))
        assert io.load_spectrum(str(path)).parts == p.parts


class TestHwvSpecJson:
    def test_round_trip(self, tmp_path):
        spec = ts.HWVSpec(weight=((1, 1), (1, 1)), index_seq=(0, 0),
                          perms=((0, 1), (1, 0)))
        obj = io.hwv_spec_to_obj(spec)
        assert io.hwv_spec_from_obj(obj) == spec

    def test_bad_permutation(self):
        with pytest.raises(io.SchemaError):
            io.hwv_spec_from_obj({"weight": [[1, 1]], "indexSeq": [0, 0],
                                  "perms": [[0, 0]]})


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
        io.save_tensor(x, str(path))
        code, out = self.run("reduce", "--tensor", str(path), "--lambdas",
                             "[[2,1],[2,1]]", capsys=capsys)
        assert code == 0
        reduced = io.tensor_from_obj(json.loads(out)["tensor"])
        assert reduced.shape == (4, 3, 3)

    def test_verify_hwv_command(self, tmp_path, capsys):
        x = ts.Tensor(np.eye(2, dtype=complex).reshape(1, 2, 2))
        xpath = tmp_path / "x.json"
        io.save_tensor(x, str(xpath))
        spec = ts.HWVSpec(weight=((1, 1), (1, 1)), index_seq=(0, 0),
                          perms=((0, 1), (0, 1)))
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(io.hwv_spec_to_obj(spec)))
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

    def test_general_scale_orbit(self, ghz_path, capsys):
        code, out = self.run("general-scale", "--orbit-tensor", ghz_path,
                             "--target", "uniform", "--epsilon", "0.02",
                             "--seed", "1", "--max-iters", "2000",
                             capsys=capsys)
        assert code == 0 and json.loads(out)["verdict"] == "SCALED"

    def test_general_scale_mps(self, tmp_path, capsys):
        mpath = tmp_path / "mps.json"
        mpath.write_text(json.dumps({"n": 2, "bond": 2, "sites": 3}))
        code, out = self.run("general-scale", "--mps", str(mpath), "--target",
                             "uniform", "--epsilon", "0.05", "--seed", "2",
                             "--max-iters", "2000", capsys=capsys)
        assert code in (0, 1)
        assert json.loads(out)["verdict"] in ("SCALED", "NOT_IN_POLYTOPE",
                                              "BUDGET_EXHAUSTED")

    def test_general_scale_mps_explicit_matrices(self, tmp_path, capsys):
        # diagonal site matrices build the unit-diagonal tensor, which has
        # exactly uniform marginals
        mpath = tmp_path / "mps_fixed.json"
        mpath.write_text(json.dumps(
            {"matrices": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "sites": 3}))
        code, out = self.run("general-scale", "--mps", str(mpath), "--target",
                             "uniform", "--epsilon", "0.01", "--mode",
                             "parabolic", "--rand-range", "1", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "SCALED" and payload["iterations"] == 0

    def test_missing_file_exit_two(self):
        assert cli.main(["scale", "--tensor", "/nonexistent.json", "--target",
                         "uniform", "--epsilon", "0.1"]) == 2

    def test_numeric_failure_exit_three(self, tmp_path, rng):
        # a weight vector whose naive evaluation exceeds the term budget
        x = ts.Tensor(rng.integers(0, 2, size=(1, 4, 4)).astype(complex))
        xpath = tmp_path / "x.json"
        io.save_tensor(x, str(xpath))
        spec = ts.HWVSpec(weight=((2, 2, 2, 2), (8,)), index_seq=(0,) * 8,
                          perms=(tuple(range(8)),) * 2)
        spath = tmp_path / "big.json"
        spath.write_text(json.dumps(io.hwv_spec_to_obj(spec)))
        assert cli.main(["verify-hwv", "--tensor", str(xpath), "--spec",
                         str(spath)]) == 3

    def test_numeric_breakdown_exit_three(self, tmp_path, capsys):
        x = ts.Tensor(np.array([[[[1, 2], [2, 2]], [[2, 2], [3, 2]]]],
                               dtype=complex))
        xpath = tmp_path / "x.json"
        io.save_tensor(x, str(xpath))
        ppath = tmp_path / "p.json"
        io.save_spectrum(ts.TargetSpectrum(((F(2, 3), F(1, 3)),) * 3),
                         str(ppath))
        with np.errstate(all="ignore"):
            code = cli.main(["scale", "--tensor", str(xpath), "--target",
                             str(ppath), "--epsilon", "0.05", "--seed", "0",
                             "--no-randomize", "--max-iters", "800"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric failure:")

    def test_gap_constant_field(self, capsys):
        code = cli.main(["qmp", "--dims", "2,2,2", "--target", "uniform",
                         "--epsilon", "0.05", "--gap-constant-c", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["gapConstant"] == pytest.approx(
            ts.gap_constant((2, 2, 2), 2, 1.0))
