import hashlib
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from renewal_arma.cli import _series_bytes, main


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
        assert _series_bytes(values, SIM_META, fmt) == text_series(values, SIM_META, fmt).encode()


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
