"""Command line driver: config handling, suite artifacts, exit codes."""

import csv
import hashlib
import json

import numpy as np
import pytest

import paleyscope as ps
from paleyscope import cli
from paleyscope.cli import ConfigError, build_symbol, load_config, main


class TestNamespace:
    def test_every_advertised_name_resolves(self):
        for name in ps.__all__:
            assert getattr(ps, name, None) is not None, name


class TestConfig:
    def test_defaults(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(
            {"symbol": {"family": "fractional", "gamma": 2.0, "a": 1.0,
                        "nu": 0.5}}))
        cfg = load_config(path)
        assert cfg.grid.n == 128 and cfg.grid.d == 1 and cfg.grid.L == 20.0
        assert cfg.nt == 128
        assert cfg.p_list == (2.0,)
        assert cfg.corpus["count"] == 20
        assert cfg.corpus["seed"] == ps.DEFAULT_SEED
        assert cfg.eta == pytest.approx(1.0)  # half the symbol order
        assert cfg.mc["M"] == 4096
        assert len(cfg.sha256) == 64

    def test_symbol_block_required_fields(self):
        with pytest.raises(ConfigError):
            build_symbol({"family": "nosuch"})
        with pytest.raises(ConfigError):
            build_symbol({"gamma": 1.0})

    def test_all_families_build(self):
        frac = build_symbol(
            {"family": "fractional", "gamma": 1.5, "a": 1.0, "nu": 0.5})
        assert frac.order == 1.5
        poly = build_symbol(
            {"family": "polyform", "m": 2, "nu": 0.5,
             "coeffs": [{"alpha": [2], "beta": [2], "values": 1.0}]})
        assert poly.order == 4
        levy = build_symbol(
            {"family": "levy", "k": 0, "gamma": 0.5, "d": 1,
             "density": {"breakpoints": [0.0], "table": [[1.0, 1.0]]}})
        assert levy.order == pytest.approx(0.5)

    def test_complex_coefficients_as_pairs(self):
        sym = build_symbol(
            {"family": "fractional", "gamma": 2.0, "a": [1.0, 0.3],
             "nu": 0.5})
        assert ps.eval_symbol(sym, 0.0, 1.0) == pytest.approx(-1.0 - 0.3j)

    @pytest.mark.parametrize("block", [
        {"grid": {"nt": "abc"}},
        {"corpus": {"count": "x"}},
        {"mc": {"M": 1}},
        {"corpus": {"seed": -1}},
        {"corpus": {"count": 0}},
        {"mc": {"entry": -1}},
    ])
    def test_bad_values_are_usage_errors(self, tmp_path, capsys, block):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"symbol": {"family": "fractional", "gamma": 2.0}, **block}))
        rc = main(["spde", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["lp-ratio", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err != ""


class TestSuites:
    def test_lp_ratio_artifact(self, tmp_path, cli_config):
        rc = main(["lp-ratio", "--config", str(cli_config),
                   "--out", str(tmp_path), "--threads", "2"])
        assert rc == 0
        with open(tmp_path / "lp-ratio.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["family", "gamma_or_m", "p", "n", "nt", "ratio",
                           "C0_bound", "pass"]
        body = rows[1:]
        assert len(body) == 4 * 2  # four corpus entries, two p values
        p2 = [r for r in body if r[2] == "2"]
        assert all(r[7] == "true" for r in p2)
        assert all(float(r[5]) <= float(r[6]) for r in p2)

    def test_lp_ratio_computes_g_once_per_entry(self, tmp_path, cli_config,
                                                monkeypatch):
        real = ps.squarefn.square_function
        seen = []

        def counting(sym, eta, f):
            seen.append(id(f))
            return real(sym, eta, f)

        monkeypatch.setattr("paleyscope.squarefn.square_function", counting)
        monkeypatch.setattr("paleyscope.cli.square_function", counting)
        rc = main(["lp-ratio", "--config", str(cli_config),
                   "--out", str(tmp_path), "--threads", "1"])
        assert rc == 0
        # four corpus entries, two p values, one G each
        assert len(seen) == 4 and len(set(seen)) == 4

    def test_stale_temp_directory_does_not_block_the_report(self, tmp_path,
                                                           cli_config):
        stale = tmp_path / "lp-ratio.csv.tmp"
        stale.mkdir()
        rc = main(["lp-ratio", "--config", str(cli_config),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "lp-ratio.csv").is_file() and stale.is_dir()
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == [stale]

    def test_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "r.csv"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            cli._atomic_write(str(target), "\udc80")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_sharp_bound_artifact(self, tmp_path, cli_config):
        rc = main(["sharp-bound", "--config", str(cli_config),
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "sharp-bound.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["family", "gamma", "n", "nt", "sup_ratio_sharp",
                           "fs_ratio"]
        for row in rows[1:]:
            assert np.isfinite(float(row[4]))
            assert np.isfinite(float(row[5]))

    def test_sharp_bound_in_two_dimensions(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(
            {"symbol": {"family": "fractional", "gamma": 2.0},
             "grid": {"d": 2, "n": 16, "nt": 16}, "corpus": {"count": 1}}))
        rc = main(["sharp-bound", "--config", str(path), "--out", str(tmp_path)])
        assert rc in (0, 1)
        with open(tmp_path / "sharp-bound.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 2

    def test_assumptions_artifact_and_alias(self, tmp_path, cli_config):
        rc = main(["verify-assumptions", "--config", str(cli_config),
                   "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "assumptions.json").read_text())
        assert payload["suite"] == "assumptions"
        assert payload["checks"]["ellipticity_a1"] is True
        assert float(payload["C0"]) == pytest.approx(0.5, abs=1e-6)
        assert payload["exponents"]["delta0"] == "1/2"
        # the moment ladder cannot reach its tolerance on a 64-point grid,
        # which the exit code reports honestly
        assert rc == (0 if all(payload["checks"].values()) else 1)

    def test_spde_artifact(self, tmp_path, cli_config):
        main(["spde", "--config", str(cli_config), "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "spde.json").read_text())
        assert payload["suite"] == "spde"
        assert float(payload["isometry_rel_error"]) < 0.05
        assert payload["checks"]["isometry"] is True

    def test_exponents_without_config(self, tmp_path):
        rc = main(["exponents", "--gamma", "1/2", "--gamma", "2",
                   "--dim", "1", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "exponents.json").read_text())
        gammas = [r["gamma"] for r in payload["results"]]
        assert gammas == ["1/2", "2"]
        row = payload["results"][1]
        assert row["delta0"] == "1/2"
        assert row["mu"] == ["7/2", "7/2", "7/2"]
        assert row["valid"]["delta0_gamma"] is True

    def test_kernel_dump_hash_matches_file(self, tmp_path, cli_config):
        rc = main(["kernel-dump", "--config", str(cli_config),
                   "--out", str(tmp_path)])
        assert rc == 0
        meta = json.loads((tmp_path / "kernel-dump.json").read_text())
        digest = hashlib.sha256(
            (tmp_path / "kernel.plsf").read_bytes()).hexdigest()
        assert meta["payload_sha256"] == digest
        fld = ps.load_field(tmp_path / "kernel.plsf")
        assert fld.grid.n == 64

    def test_no_suite_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])
