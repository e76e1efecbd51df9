import ast
import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from renewal_arma import acvf_renewal
from renewal_arma import cli
from renewal_arma.cli import _series_blocks, main
from renewal_arma.lifetime import make_rational_pgf

from conftest import lifetime_sums


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    with resources.files("renewal_arma").joinpath(f"schemas/{name}").open() as fh:
        return json.load(fh)


def validate(obj, schema_name):
    jsonschema.validate(obj, load_schema(schema_name))


class TestFactorize:
    def test_white_noise(self, capsys):
        code, out, _ = run(capsys, "factorize", "--head", "0.5", "--r", "0.5", "--M", "1")
        assert code == 0
        obj = json.loads(out)
        validate(obj, "factorize.schema.json")
        assert obj["model"]["phi"] == []
        assert obj["model"]["theta"] == []
        assert obj["model"]["k"] == pytest.approx(0.5)
        assert obj["acvf"][1] == pytest.approx(0.0, abs=1e-12)

    def test_p2_example(self, capsys):
        code, out, _ = run(capsys, "factorize", "--head", "0.2,0.3", "--r", "0.6", "--M", "5")
        assert code == 0
        obj = json.loads(out)
        validate(obj, "factorize.schema.json")
        assert obj["model"]["phi"] == pytest.approx([-0.2, -0.02])
        assert obj["k_routes"]["constant_term"] == pytest.approx(obj["k_routes"]["variance_formula"])
        assert obj["mu"] == pytest.approx(3.05)
        assert all(m > 1 for m in obj["ar_root_moduli"] + obj["ma_root_moduli"])

    def test_two_point_support_is_valid(self, capsys):
        code, out, _ = run(capsys, "factorize", "--head", "0.4,0.6", "--r", "0")
        assert code == 0
        assert json.loads(out)["model"]["M"] == 1

    def test_lattice_exit_code(self, capsys):
        code, _, err = run(capsys, "factorize", "--head", "0,1", "--r", "0", "--allow-zero-f1")
        assert code == 3
        assert "sublattice" in err

    @pytest.mark.parametrize("command", ["factorize", "verify"])
    def test_shifted_lattice_exit_code(self, capsys, command):
        # support {1, 3}: gcd 1, but its difference 2 puts it on 1 + 2Z
        code, out, err = run(capsys, command, "--head", "0.4,0,0.6", "--r", "0")
        assert code == 3
        assert "sublattice" in err and not out

    def test_mass_violation_exit_code(self, capsys):
        code, _, err = run(capsys, "factorize", "--head", "0.9,0.8", "--r", "0.1")
        assert code == 3
        assert err

    def test_nearly_cancelling_pole_exit_code(self, capsys):
        # a tail mass of 1e-13 leaves an AR root within 4e-13 of an MA root
        code, _, err = run(capsys, "factorize", "--head", "0.5,0.4999999999999", "--r", "0.5")
        assert code == 4
        assert "share the root" in err

    def test_raw_pgf_input(self, capsys):
        code, out, _ = run(capsys, "factorize", "--pgf-num", "0,0.5", "--pgf-den", "1,-0.5")
        assert code == 0
        assert json.loads(out)["model"]["k"] == pytest.approx(0.5)

    def test_raw_pgf_pole_in_disk_exit_code(self, capsys):
        # pole at 2/3: the series reads 0, 2, 0.5, 0.75, ..., so P(L = 1) would be 2
        code, _, err = run(capsys, "factorize", "--pgf-num", "0,2,-2.5", "--pgf-den", "1,-1.5")
        assert code == 3
        assert "pole in the closed unit disk" in err

    def test_raw_pgf_lifetime_sum(self, capsys):
        # a sum of four lifetimes: numerator degree up to 12 over denominator degree 4
        for num, den in lifetime_sums(4, 4, 50):
            code, out, _ = run(capsys, "factorize", "--pgf-num", ",".join(map(repr, num.coeffs)),
                               "--pgf-den", ",".join(map(repr, den.coeffs)), "--M", "5")
            assert code == 0
            want = acvf_renewal(make_rational_pgf(num, den), 5, 10)
            assert np.max(np.abs(np.array(json.loads(out)["acvf"]) - want)) <= 1e-8

    @pytest.mark.parametrize("num,den", [("nan", "1"), ("0,0.5", "0,inf"), ("0,-inf", "1")])
    def test_non_finite_pgf_exit_code(self, capsys, num, den):
        code, _, err = run(capsys, "factorize", "--pgf-num", num, "--pgf-den", den)
        assert code == 3
        assert err == "error: pgf coefficients must be finite\n"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "factorize", "--head", "0.2,0.3", "--r", "0.6", "--M", "5")
        _, out2, _ = run(capsys, "factorize", "--head", "0.2,0.3", "--r", "0.6", "--M", "5")
        assert out1 == out2

    def test_missing_args(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factorize", "--r", "0.5"])
        assert exc.value.code == 2


class TestSimulate:
    def test_deterministic_checksum(self, capsys, tmp_path):
        args = ["simulate", "--head", "0.2,0.3", "--r", "0.6", "--M", "5",
                "--steps", "5000", "--seed", "42"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == hashlib.sha256(p2.read_bytes()).hexdigest()

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "series.csv"
        code, _, _ = run(capsys, "simulate", "--head", "0.5", "--r", "0.5", "--M", "2",
                         "--steps", "10", "--seed", "1", "--out", str(out))
        assert code == 0
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0].startswith("# meta: ")
        meta = json.loads(lines[0][len("# meta: "):])
        assert meta["config"]["seed"] == 1
        assert lines[1] == "t,y"
        assert lines[2].startswith("0,")
        assert len(lines) == 13  # meta + header + 10 rows + trailing newline
        assert "\r" not in text

    def test_json_format_and_schema(self, capsys, tmp_path):
        out = tmp_path / "series.json"
        code, _, _ = run(capsys, "simulate", "--head", "0.2,0.3", "--r", "0.6", "--M", "3",
                         "--steps", "50", "--seed", "9", "--format", "json", "--out", str(out))
        assert code == 0
        obj = json.loads(out.read_text())
        validate(obj, "series.schema.json")
        assert len(obj["values"]) == 50
        assert max(obj["values"]) <= 3

    def test_manifest_sidecar(self, capsys, tmp_path):
        out = tmp_path / "series.csv"
        code, _, _ = run(capsys, "simulate", "--head", "0.5", "--r", "0.5", "--M", "1",
                         "--steps", "20", "--seed", "5", "--out", str(out))
        assert code == 0
        manifest = json.loads((tmp_path / "series.csv.manifest.json").read_text())
        validate(manifest, "manifest.schema.json")
        assert manifest["outputs"][0]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["outputs"][0]["bytes"] == out.stat().st_size
        assert manifest["seed"] == 5
        assert manifest["params"]["steps"] == 20

    # M = 12 takes the counts to two digits and 1001 steps take t to four
    @pytest.mark.parametrize("fmt,sha256", [
        ("csv", "6a0f2743c53d21fbfe84e50e82d532cf1bc636a08cf0838a9c0ce6345d54ce33"),
        ("json", "f68ada9052349c7bc41f3d74ceb50ffdb8060b99d158d9f406a1a0590a83712e"),
    ])
    def test_output_bytes_pinned(self, capsys, tmp_path, fmt, sha256):
        out = tmp_path / f"series.{fmt}"
        code, _, _ = run(capsys, "simulate", "--head", "0.8,0.1", "--r", "0.5", "--M", "12",
                         "--steps", "1001", "--seed", "4", "--format", fmt, "--out", str(out))
        assert code == 0
        blob = out.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == sha256
        manifest = json.loads((tmp_path / f"series.{fmt}.manifest.json").read_text())
        validate(manifest, "manifest.schema.json")
        assert manifest["outputs"] == [{"path": out.name, "sha256": sha256, "bytes": len(blob)}]

    # 123457 steps take t across five decade boundaries, in several output blocks
    @pytest.mark.parametrize("fmt,sha256", [
        ("csv", "08f253c39d670efd67848a8e17a3b6b29515e467c4e21bc2dffeef0881075597"),
        ("json", "4d84b6c9b68a69edadcd83440c4dfe18e9cc104c37ac8e1841a7d7acdf65e1f2"),
    ])
    def test_output_bytes_pinned_multiblock(self, capsys, tmp_path, fmt, sha256):
        out = tmp_path / f"series.{fmt}"
        code, _, _ = run(capsys, "simulate", "--head", "0.8,0.1", "--r", "0.5", "--M", "12",
                         "--steps", "123457", "--seed", "4", "--format", fmt, "--out", str(out))
        assert code == 0
        blob = out.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == sha256
        manifest = json.loads((tmp_path / f"series.{fmt}.manifest.json").read_text())
        validate(manifest, "manifest.schema.json")
        assert manifest["outputs"] == [{"path": out.name, "sha256": sha256, "bytes": len(blob)}]

    def test_thread_variable_is_ignored(self, capsys, tmp_path, monkeypatch):
        # simulation runs on one thread and reads no environment variable
        monkeypatch.setenv("RENEWAL_ARMA_THREADS", "abc")
        code, _, err = run(capsys, "simulate", "--head", "0.5", "--r", "0.5", "--M", "2",
                           "--steps", "10", "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 0, err

    def test_zero_steps_is_argument_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--head", "0.5", "--r", "0.5", "--M", "1",
                  "--steps", "0", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "simulate", "--head", "0.5", "--r", "0.5", "--M", "1",
                           "--steps", "10", "--seed", "1", "--out", "/nonexistent-dir/x.csv")
        assert code == 2
        assert err.startswith("error: ")

    def test_unallocatable_series_is_argument_error(self, capsys, tmp_path):
        # 10**18 int64 counts are 6.9 EiB, past any user address space (at most
        # 128 PiB, with five-level paging), so the allocation is refused at once,
        # before any file is opened
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "simulate", "--head", "0.2,0.3", "--r", "0.6", "--M", "5",
                           "--steps", str(10 ** 18), "--seed", "1", "--out", str(out))
        assert code == 2
        assert err.startswith("error: out of memory: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unkeyable_M_is_argument_error(self, capsys, tmp_path, monkeypatch):
        # a chain index from 2**32 on needs a second spawn-key word; such an M
        # is refused before anything is allocated or drawn
        monkeypatch.setattr(cli, "simulate_counts", None)
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--head", "0.2,0.3", "--r", "0.6", "--M", str(10 ** 15),
                  "--steps", "10", "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "error: --M must be at most 2**32" in capsys.readouterr().err
        assert not out.exists()


SIM_META = {"command": "simulate", "version": "0.1.0", "config": {
    "spec": {"head": [0.2, 0.3], "r": 0.6}, "M": 5, "steps": 3, "seed": 0}}


def text_series(values, meta, fmt):
    """The output file as the row-by-row text formatter wrote it."""
    if fmt == "csv":
        lines = ["# meta: " + json.dumps(meta, separators=(",", ":"), sort_keys=True), "t,y"]
        lines.extend(f"{t},{v}" for t, v in enumerate(values.tolist()))
        return "\n".join(lines) + "\n"
    return json.dumps({"schema_version": 1, "meta": meta, "values": values.tolist()},
                      separators=(",", ":"), sort_keys=True) + "\n"


@given(st.lists(st.integers(0, 12) | st.integers(0, 2 ** 63 - 1), min_size=1, max_size=300))
@example([0])
@example([0, 9, 10, 99, 100, 10 ** 9 - 1, 10 ** 9, 2 ** 63 - 1])
def test_series_bytes_match_text_formatter(values):
    values = np.array(values, dtype=np.int64)
    for fmt in ("csv", "json"):
        assert b"".join(_series_blocks(values, SIM_META, fmt)) == text_series(values, SIM_META, fmt).encode()


@pytest.mark.parametrize("length", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001,
                                    10 ** 4, 10 ** 4 + 1, 123457])
@pytest.mark.parametrize("top", [0, 1, 9, 10, 11, 1000, 2 ** 63 - 1])
def test_long_series_bytes_match_text_formatter(length, top):
    # counts of every width up to top's, in blocks that reach a 6-digit t
    rng = np.random.default_rng([length, top % 1000])
    values = rng.integers(0, top, length, endpoint=True) // 10 ** rng.integers(0, len(str(top)), length)
    values[rng.integers(length)] = top
    for fmt in ("csv", "json"):
        assert b"".join(_series_blocks(values, SIM_META, fmt)) == text_series(values, SIM_META, fmt).encode()


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--head", "0.2,0.3", "--r", "0.6", "--M", "5")
        assert code == 0
        assert "VERIFY" in out
        assert "[FAIL]" not in out

    def test_full_level_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--head", "0.2,0.3", "--r", "0.6",
                           "--M", "5", "--level", "full")
        assert code == 0
        assert "mc_binomial_marginal" in out
        assert "[FAIL]" not in out

    def test_json_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--head", "0.2,0.3", "--r", "0.6",
                         "--json-out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        validate(report, "verify.schema.json")
        assert report["passed"] is True
        assert any(g["name"] == "generating_function_identity" for g in report["gates"])

    def test_corrupted_model_fails_causality(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "phi": [1.5], "theta": [], "k": 1.0, "M": 1, "mu": 2.0, "sigma2": 0.5}))
        code, out, _ = run(capsys, "verify", "--model", str(model_path))
        assert code == 5
        assert "[FAIL] causal_invertible" in out

    def test_valid_model_file_passes(self, capsys, tmp_path):
        _, out, _ = run(capsys, "factorize", "--head", "0.2,0.3", "--r", "0.6", "--M", "5")
        model_path = tmp_path / "model.json"
        model_path.write_text(out)
        code, out2, _ = run(capsys, "verify", "--model", str(model_path),
                            "--head", "0.2,0.3", "--r", "0.6")
        assert code == 0
        assert "acvf_identity" in out2

    @staticmethod
    def _model_file(capsys, tmp_path, M):
        _, out, _ = run(capsys, "factorize", "--head", "0.2,0.3", "--r", "0.6", "--M", str(M))
        model_path = tmp_path / "model.json"
        model_path.write_text(out)
        return str(model_path)

    @pytest.mark.parametrize("extra", [["--level", "full"], ["--M", "7"]])
    def test_model_rejects_level_full_and_M(self, capsys, tmp_path, extra):
        # a model file is gated by its own M and only by the model gates
        model_path = self._model_file(capsys, tmp_path, 2)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", model_path, *extra])
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err

    def test_model_rejects_seed(self, capsys, tmp_path):
        # the model gates draw nothing, so a seed would be recorded but never used
        model_path = self._model_file(capsys, tmp_path, 2)
        report_path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", model_path, "--seed", "99", "--json-out", str(report_path)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not report_path.exists()

    def test_model_manifest_records_model_M(self, capsys, tmp_path):
        model_path = self._model_file(capsys, tmp_path, 2)
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--model", model_path, "--level", "quick",
                         "--json-out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        validate(report, "verify.schema.json")
        assert report["level"] == "quick"
        assert report["manifest"]["params"]["M"] == 2
        assert report["manifest"]["params"]["seed"] is None

    def test_string_sigma2_is_gated_as_number(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "phi": [0.5], "theta": [], "k": 1.0, "M": 1, "mu": 2.0, "sigma2": "0.5"}))
        code, out, _ = run(capsys, "verify", "--model", str(model_path))
        assert code == 0
        assert "[PASS] sigma2_consistency" in out

    @pytest.mark.parametrize("sigma2", [{}, {"sigma2": 1.0}])
    def test_zero_mu_is_malformed(self, capsys, tmp_path, sigma2):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"phi": [0.5], "theta": [], "k": 1.0, "M": 1, "mu": 0, **sigma2}))
        code, _, err = run(capsys, "verify", "--model", str(model_path))
        assert code == 3
        assert err.startswith("error: malformed model JSON: ")

    @pytest.mark.parametrize("key,text", [
        ("phi", "[NaN]"), ("phi", "[1e400]"), ("theta", "[-Infinity]"), ("k", "Infinity"),
        ("mu", "NaN"), ("sigma2", "NaN"), ("sigma2", "1e400"), ("M", "1.5"),
        pytest.param("M", "1" + "0" * 400, id="M-int-1e400"),
        # wrong types: a string is not a list of numbers, and a bool is not a number
        ("phi", '"12"'), ("theta", '"5"'), ("phi", "[true]"), ("theta", '{"0": 0.5}'),
        ("M", "true"), ("M", '"1"'),
    ])
    def test_non_finite_or_fractional_number_is_malformed(self, capsys, tmp_path, key, text):
        fields = {"phi": "[0.5]", "theta": "[]", "k": "1.0", "M": "1", "mu": "2.0", key: text}
        model_path = tmp_path / "model.json"
        model_path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        code, _, err = run(capsys, "verify", "--model", str(model_path))
        assert code == 3
        assert err.startswith("error: malformed model JSON: ")

    def test_near_unit_tail_rate_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--head", "0.2,0.3", "--r", "0.99")
        assert code == 0
        assert "VERIFY: 16/16 gates passed" in out

    def test_malformed_model_file(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text("not json")
        code, _, err = run(capsys, "verify", "--model", str(model_path))
        assert code == 3
        assert err.startswith("error: malformed model JSON")

    @pytest.mark.parametrize("flag", ["--model", "--json-out"])
    def test_path_errors_exit_2(self, capsys, flag):
        args = ["verify", "--head", "0.5", "--r", "0.5", flag, "/nonexistent-dir/x.json"]
        code, _, err = run(capsys, *args)
        assert code == 2
        assert err.startswith("error: ")

    def test_requires_some_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_full_level_refuses_unkeyable_M(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_spec", None)  # refused before any gate runs
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--head", "0.2,0.3", "--r", "0.6", "--M", str(10 ** 15), "--level", "full"])
        assert exc.value.code == 2
        assert "at most 2**32" in capsys.readouterr().err

    def test_quick_level_takes_any_M(self, capsys):
        # the quick gates simulate nothing, so no bound on M applies
        code, out, _ = run(capsys, "verify", "--head", "0.2,0.3", "--r", "0.6", "--M", str(10 ** 15))
        assert code != 2
        assert "VERIFY:" in out

    def test_quick_gates_pass_at_large_M(self, capsys):
        # both autocovariances scale with M, and acvf_identity's bound with them
        code, out, _ = run(capsys, "verify", "--head", "0.2,0.3", "--r", "0.6", "--M", str(10 ** 15),
                           "--level", "quick")
        assert code == 0, out

    def test_quick_gates_pass_near_unit_tail_rate(self, capsys):
        # E[L] is about 5e5 at r = 0.999999, and its two routes differ by
        # about 2 ulp of it, past an absolute 1e-10
        code, out, _ = run(capsys, "verify", "--head", "0.2,0.3", "--r", "0.999999", "--M", "5")
        assert code == 0, out

    def test_model_gates_pass_at_large_M(self, capsys, tmp_path):
        model_path = self._model_file(capsys, tmp_path, 10 ** 15)
        code, out, _ = run(capsys, "verify", "--model", model_path, "--head", "0.2,0.3", "--r", "0.6")
        assert code == 0, out
        assert "acvf_identity" in out

    @pytest.mark.parametrize("level", ["quick", "full"])
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range(self, capsys, level, seed):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--head", "0.2,0.3", "--r", "0.6", "--level", level, "--seed", str(seed)])
        assert exc.value.code == 2
        assert "error: --seed" in capsys.readouterr().err


class TestMarkov:
    def test_tables(self, capsys):
        code, out, _ = run(capsys, "markov", "--head", "0.2,0.3", "--r", "0.6",
                           "--M", "5", "--mgf", "0,0,0", "--mgf", "0.1,0.2,0.3")
        assert code == 0
        obj = json.loads(out)
        validate(obj, "markov.schema.json")
        assert obj["conditional"]["p1g00"] == pytest.approx(0.4)
        assert obj["mgf"][0]["value"] == pytest.approx(1.0)
        assert obj["mgf"][1]["value"] > 1.0

    def test_wrong_head_length(self, capsys):
        code, _, err = run(capsys, "markov", "--head", "0.1,0.2,0.3", "--r", "0.5")
        assert code == 3
        assert "two-term" in err

    def test_bad_mgf_triplet(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["markov", "--head", "0.2,0.3", "--r", "0.6", "--mgf", "0,0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("triplet", ["nan,0,0", "0,inf,0", "0,0,-inf"])
    def test_non_finite_mgf_exponent(self, capsys, triplet):
        with pytest.raises(SystemExit) as exc:
            main(["markov", "--head", "0.2,0.3", "--r", "0.6", "--mgf", triplet])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("triplet", ["1000,1000,1000", "100,100,100"])
    def test_overflowing_mgf(self, capsys, triplet):
        # exp(1000) overflows in numpy; exp(300)**5 overflows in the M-th power
        code, out, err = run(capsys, "markov", "--head", "0.2,0.3", "--r", "0.6", "--M", "5",
                             "--mgf", triplet)
        assert code == 3
        assert out == ""
        assert err.startswith("error: the MGF at exponents") and "overflows" in err


class TestConfigFile:
    def test_config_provides_defaults(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"head": [0.2, 0.3], "r": 0.6, "M": 5}))
        code, out, _ = run(capsys, "factorize", "--config", str(conf))
        assert code == 0
        assert json.loads(out)["model"]["M"] == 5

    def test_cli_overrides_config(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"head": [0.2, 0.3], "r": 0.6, "M": 5}))
        code, out, _ = run(capsys, "factorize", "--config", str(conf), "--M", "2")
        assert code == 0
        assert json.loads(out)["model"]["M"] == 2

    def test_values_typed_like_flags(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"head": "0.2,0.3", "r": "0.6", "M": "5"}))
        code, out, _ = run(capsys, "factorize", "--config", str(conf))
        assert code == 0
        assert json.loads(out)["model"]["M"] == 5

    @pytest.mark.parametrize("bad", [{"M": "x"}, {"M": 5.5}, {"r": "x"}, {"head": "0.2;0.3"},
                                     {"allow-zero-f1": "yes"}])
    def test_bad_value_rejected(self, capsys, tmp_path, bad):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"head": [0.2, 0.3], "r": 0.6, **bad}))
        with pytest.raises(SystemExit) as exc:
            main(["factorize", "--config", str(conf)])
        assert exc.value.code == 2

    def test_unknown_key_rejected(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["factorize", "--config", str(conf)])
        assert exc.value.code == 2


def test_numerical_factorization_exit_code(capsys, tmp_path):
    # a lattice-supported pgf given raw reaches the spectral stage and must
    # exit with the factorization code
    code = main(["factorize", "--pgf-num", "0,0,0.5,0,0.5", "--pgf-den", "1"])
    err = capsys.readouterr().err
    assert code == 4
    assert "error" in err


SRC = Path(__file__).resolve().parents[1] / "src"
LOADED_SCIPY = """
import contextlib, io, json, sys
from renewal_arma import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def loaded_scipy(*argv):
    """Exit code and the scipy modules in ``sys.modules`` after one command in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LOADED_SCIPY, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


class TestStartup:
    def test_simulate_loads_no_scipy(self, tmp_path):
        assert loaded_scipy("simulate", "--head", "0.2,0.3", "--r", "0.6", "--M", "5", "--steps", "1000",
                            "--seed", "1", "--out", str(tmp_path / "x.csv")) == (0, [])

    def test_markov_loads_no_scipy(self):
        assert loaded_scipy("markov", "--head", "0.2,0.3", "--r", "0.6", "--mgf", "0.1,0.2,0.3") == (0, [])

    @pytest.mark.parametrize("argv", [
        ("verify", "--head", "0.2,0.3", "--r", "0.6", "--level", "quick"),
        ("factorize", "--head", "0.2,0.3", "--r", "0.6", "--M", "5"),
        ("verify", "--head", "0.2,0.3", "--r", "0.6", "--level", "full"),
    ])
    def test_analytic_commands_load_no_scipy(self, argv):
        # the rational series these commands expand is numpy's; scipy is a test dependency only
        assert loaded_scipy(*argv) == (0, [])

    def test_no_source_imports_scipy(self):
        # every import in the package names no scipy module: import statements anywhere,
        # lazy ones inside functions included, and __import__ / importlib.import_module of a literal name
        found = []
        for path in sorted((SRC / "renewal_arma").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                elif (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
                      and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("__import__", "import_module")):
                    names = [str(node.args[0].value)]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
        assert found == []
