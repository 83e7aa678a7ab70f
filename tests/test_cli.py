"""Command line driver: config handling, suite artifacts, exit codes."""

import csv
import hashlib
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

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
        assert sym.eval(0.0, 1.0) == pytest.approx(-1.0 - 0.3j)

    @pytest.mark.parametrize("block", [
        {"grid": {"nt": "abc"}},
        {"corpus": {"count": "x"}},
        {"mc": {"M": 1}},
        {"corpus": {"seed": -1}},
        {"corpus": {"count": 0}},
        {"mc": {"entry": -1}},
        {"grid": {"nt": 64.7}},
        {"mc": {"M": 100.99}},
        {"grid": {"d": True}},
        {"grid": {"nt": "64"}},
        {"symbol": {"family": "polyform", "m": 2.5,
                    "coeffs": [{"alpha": [2], "beta": [2], "values": 1.0}]}},
        {"symbol": {"family": "levy", "k": 0.9, "gamma": 0.5, "d": 1,
                    "density": {"breakpoints": [0.0], "table": [[1.0, 1.0]]}}},
        {"symbol": {"family": "levy", "k": 0, "gamma": 1.0, "d": 1, "c2": 2.0,
                    "density": {"breakpoints": [0.0], "table": [[1.0, 1.0]]}}},
        {"symbol": {"family": "levy", "k": 0, "gamma": 0.5, "d": 2, "nodes": 4,
                    "density": {"breakpoints": [0.0], "table": [[1.0] * 16]}}},
        {"p_list": []},
        {"eta": -1},
        {"kernel": {"eta": -1}},
        {"nu": 0},
        {"mc": {"K": 0}},
        {"mc": {"entry": 0, "K": 3}},
        {"grid": {"N": 64}},
        {"grid.nt": 64},
        {"symbol": {"family": "fractional", "gamma": 2.0, "nnu": 0.5}},
        {"symbol": {"family": [], "gamma": 2.0}},
        {"corpus": {"seed": 2 ** 64}},
        {"mc": {"seed": 2 ** 64}},
        {"mc": {"entry": 2 ** 64}},
        # a symbol whose dimension is not grid.d (1 by default)
        {"symbol": {"family": "levy", "k": 0, "gamma": 0.5, "d": 2, "nodes": 16,
                    "density": {"breakpoints": [0.0], "table": [[1.0] * 16]}}},
        {"symbol": {"family": "polyform", "m": 1, "coeffs": [
            {"alpha": a, "beta": a, "values": 1.0}
            for a in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]}},
    ])
    def test_bad_values_are_usage_errors(self, tmp_path, capsys, block):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"symbol": {"family": "fractional", "gamma": 2.0}, **block}))
        rc = main(["spde", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "spde.json").exists()

    def test_philox_key_words_stop_at_2_64(self, tmp_path, capsys):
        # the seeds and the entry index are uint64 words of a Philox key
        base = {"symbol": {"family": "fractional", "gamma": 2.0},
                "grid": {"n": 16, "nt": 16}}
        path = tmp_path / "seed.json"
        for block, key in (("corpus", "seed"), ("mc", "seed"), ("mc", "entry")):
            path.write_text(json.dumps({**base, block: {key: 2 ** 64}}))
            assert main(["spde", "--config", str(path), "--out", str(tmp_path)]) == 2
            assert f"{block}.{key} must be below 2**64" in capsys.readouterr().err
        top = 2 ** 64 - 1
        path.write_text(json.dumps({**base, "corpus": {"seed": top},
                                    "mc": {"M": 8, "seed": top, "entry": top}}))
        rc = main(["spde", "--config", str(path), "--out", str(tmp_path)])
        assert rc in (0, 1)  # eight paths may miss the isometry tolerance
        assert json.loads((tmp_path / "spde.json").read_text())["seed"] == top

    @pytest.mark.parametrize("suite", ["lp-ratio", "sharp-bound", "spde"])
    def test_corpus_suites_reject_a_grid_that_aliases_the_band(self, tmp_path,
                                                               capsys, suite):
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps({"symbol": {"family": "fractional", "gamma": 2.0},
                                    "grid": {"n": 8, "nt": 16}}))
        out = tmp_path / "out"
        assert main([suite, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "grid.n" in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("suite", ["lp-ratio", "sharp-bound", "spde"])
    def test_corpus_suites_reject_a_window_of_two_slices(self, tmp_path, capsys,
                                                        suite):
        # both window ends vanish, so nt = 2 leaves every entry zero
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"symbol": {"family": "fractional", "gamma": 2.0},
                                    "grid": {"n": 16, "nt": 2}}))
        out = tmp_path / "out"
        assert main([suite, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nt must be at least 3" in err
        assert not any(out.iterdir())

    def test_bad_thread_settings_are_usage_errors(self, tmp_path, capsys, cli_config):
        rc = main(["lp-ratio", "--config", str(cli_config),
                   "--out", str(tmp_path), "--threads", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "lp-ratio.csv").exists()

    def test_readme_config_block_lists_every_key_and_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Experiment configuration", 1)[1]
        doc = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        shown = {}
        for name, value in doc.items():
            if isinstance(value, dict) and name != "symbol":
                shown.update((f"{name}.{k}", v) for k, v in value.items())
            elif name != "symbol":
                shown[name] = tuple(value) if isinstance(value, list) else value
        # eta and nu default to values of the symbol, and mc.K to the channel
        # count of its corpus entry, documented in prose
        assert shown == {k: default for k, (_, default, _, _) in cli._KEYS.items()
                         if default is not None and not callable(default)}
        for key in ("eta", "nu", "mc.K"):
            assert f"`{key}`" in section

    @pytest.mark.parametrize("suite, block", [
        ("lp-ratio", {"p_list": [float("nan")]}),
        ("lp-ratio", {"p_list": [float("inf")]}),
        ("lp-ratio", {"eta": float("nan")}),
        ("assumptions", {"nu": float("nan")}),
        ("kernel-dump", {"kernel": {"s": float("nan")}}),
        ("kernel-dump", {"kernel": {"t": float("nan")}}),
        ("kernel-dump", {"kernel": {"eta": float("nan")}}),
        ("spde", {"tolerances": {"isometry": float("nan")}}),
        ("lp-ratio", {"symbol": {"family": "levy", "k": 0, "gamma": 0.5, "d": 1,
                                 "c1": float("nan"),
                                 "density": {"breakpoints": [0.0],
                                             "table": [[1.0, 1.0]]}}}),
    ])
    def test_non_finite_numbers_are_usage_errors(self, tmp_path, capsys, suite,
                                                 block):
        # json.dumps writes NaN and Infinity, which json.loads accepts
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(
            {"symbol": {"family": "fractional", "gamma": 2.0}, **block}))
        out = tmp_path / "out"
        rc = main([suite, "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_levy_density_below_the_n0_margin_is_a_usage_error(self, tmp_path,
                                                              capsys):
        # Re psi = -(0.02 + 0.03) on |xi| = 1, short of the default N0 = 0.1
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(
            {"symbol": {"family": "levy", "k": 0, "gamma": 0.5, "d": 1,
                        "density": {"breakpoints": [0.0, 0.5],
                                    "table": [[1.0, 1.0], [0.02, 0.03]]}}}))
        rc = main(["lp-ratio", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "N0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "lp-ratio.csv").exists()

    @pytest.mark.parametrize("block, key", [
        ({"family": "fractional"}, "symbol.gamma"),
        ({"family": "polyform", "m": 2}, "symbol.coeffs"),
        ({"family": "levy", "k": 0, "gamma": 0.5, "d": 1}, "symbol.density"),
    ])
    def test_missing_symbol_key_is_named(self, tmp_path, capsys, block, key):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"symbol": block}))
        rc = main(["spde", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "__init__" not in err and "Traceback" not in err

    @pytest.mark.parametrize("out", ["taken", "taken/below"])
    def test_unusable_out_is_a_usage_error(self, tmp_path, capsys, cli_config, out):
        # an existing file, and a path under one
        (tmp_path / "taken").write_text("keep")
        rc = main(["lp-ratio", "--config", str(cli_config),
                   "--out", str(tmp_path / out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and "Traceback" not in err
        assert (tmp_path / "taken").read_text() == "keep"

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["lp-ratio", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err != ""


class TestEmitJson:
    def test_encodes_each_number_kind_once(self, tmp_path):
        path = tmp_path / "r.json"
        cli.emit_json(path, {"b": {"x": [0.1, Fraction(1, 3), (2, None)], "ok": True},
                             "a": np.float64(2 / 3), "n": 7, "s": "text"})
        assert path.read_text() == (
            '{\n  "a": "0.66666666666666663",\n  "b": {\n    "ok": true,\n'
            '    "x": [\n      "0.10000000000000001",\n      "1/3",\n      [\n'
            '        2,\n        null\n      ]\n    ]\n  },\n  "n": 7,\n'
            '  "s": "text"\n}\n')


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
        # p = 4 rows are not gated: no bound and no verdict
        p4 = [r for r in body if r[2] == "4"]
        assert len(p4) == 4 and all(r[6:] == ["", ""] for r in p4)

    def test_lp_ratio_gates_against_the_sup_over_start_times(self, tmp_path):
        # the density halves at t = 0.5, so C0 peaks at s = 0.5, not s = 0
        path = tmp_path / "b.json"
        path.write_text(json.dumps(
            {"symbol": {"family": "levy", "k": 0, "gamma": 0.5, "d": 2, "nodes": 8,
                        "density": {"breakpoints": [0.0, 0.5],
                                    "table": [[1] * 8, [0.5] * 8]}},
             "grid": {"d": 2, "n": 32, "L": 20.0, "nt": 32}, "corpus": {"count": 8}}))
        rc = main(["lp-ratio", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "lp-ratio.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        sym = load_config(path).symbol
        c0 = ps.verify_assumption1(sym, sym.order / 2, cli._xi_samples(2), s=0.5)
        assert len(rows) == 8
        for r in rows:
            assert float(r["C0_bound"]) == np.sqrt(c0) + 1e-3
            # the s = 0 constant alone would fail every row
            assert float(r["ratio"]) > np.sqrt(ps.assumption1_profile(
                sym, sym.order / 2, cli._xi_samples(2)).max()) + 1e-3

    def test_lp_ratio_computes_g_once_per_entry(self, tmp_path, cli_config,
                                                monkeypatch):
        real_prop, real_values = cli.Propagator, ps.squarefn._square_values
        built, formed = [], []

        def building(sym, f):
            built.append(id(f))
            return real_prop(sym, f)

        def forming(prop, eta):
            formed.append(prop)
            return real_values(prop, eta)

        monkeypatch.setattr("paleyscope.cli.Propagator", building)
        monkeypatch.setattr("paleyscope.squarefn._square_values", forming)
        rc = main(["lp-ratio", "--config", str(cli_config),
                   "--out", str(tmp_path), "--threads", "1"])
        assert rc == 0
        # four corpus entries, two p values: one propagator and one G each,
        # G formed from the entry's own propagator
        assert len(built) == 4 and len(set(built)) == 4
        assert len(formed) == 4 and len({id(p) for p in formed}) == 4

    def test_lp_ratio_p2_alone_never_forms_g(self, tmp_path, cli_config,
                                            monkeypatch):
        rc = main(["lp-ratio", "--config", str(cli_config),
                   "--out", str(tmp_path / "both"), "--threads", "1"])
        assert rc == 0
        with open(tmp_path / "both" / "lp-ratio.csv", newline="") as fh:
            both = [r for r in csv.DictReader(fh) if r["p"] == "2"]
        cfg = json.loads(cli_config.read_text())
        cfg["p_list"] = [2.0]
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(cfg))
        real = ps.squarefn.square_function
        seen = []
        with monkeypatch.context() as m:
            m.setattr("paleyscope.squarefn.square_function", lambda *a: seen.append(a))
            m.setattr("paleyscope.squarefn._square_values", lambda *a: seen.append(a))
            rc = main(["lp-ratio", "--config", str(path),
                       "--out", str(tmp_path), "--threads", "1"])
        assert rc == 0 and seen == []
        with open(tmp_path / "lp-ratio.csv", newline="") as fh:
            alone = list(csv.DictReader(fh))
        assert [(r["C0_bound"], r["pass"]) for r in alone] == [
            (r["C0_bound"], r["pass"]) for r in both]
        # each ratio against the pointwise G route (eta defaults to order/2)
        c = load_config(path)
        fields = ps.make_corpus(c.grid, c.nt, count=4, seed=c.corpus["seed"])
        for row, f in zip(alone, fields):
            want = (ps.lp_space_time_norm(real(c.symbol, c.eta, f), 2.0)
                    / ps.lp_space_time_norm(f, 2.0))
            assert float(row["ratio"]) == pytest.approx(want, rel=1e-12)

    def test_lp_ratio_rows_are_the_library_ratios(self, tmp_path, cli_config):
        cfg = json.loads(cli_config.read_text())
        cfg["p_list"] = [2, 3]
        path = tmp_path / "p23.json"
        path.write_text(json.dumps(cfg))
        assert main(["lp-ratio", "--config", str(path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "lp-ratio.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        c = load_config(path)
        fields = ps.make_corpus(c.grid, c.nt, count=4, seed=c.corpus["seed"])
        want = [format(ps.lp_ratio(c.symbol, c.eta, f, p).ratio, ".17g")
                for f in fields for p in c.p_list]
        assert [r["ratio"] for r in rows] == want

    def test_lp_ratio_fails_when_c0_is_infinite(self, tmp_path, cli_config):
        # |xi|^400 overflows, so C0 and the bound are infinite
        cfg = json.loads(cli_config.read_text())
        cfg["eta"] = 400
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(cfg))
        with pytest.warns(RuntimeWarning) as caught:
            rc = main(["lp-ratio", "--config", str(path), "--out", str(tmp_path)])
        assert any("overflow" in str(w.message) for w in caught)
        assert rc == 1
        with open(tmp_path / "lp-ratio.csv", newline="") as fh:
            p2 = [r for r in csv.DictReader(fh) if r["p"] == "2"]
        assert len(p2) == 4
        assert all(r["C0_bound"] == "inf" and r["pass"] == "false" for r in p2)

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
        assert rows[0] == ["family", "gamma_or_m", "n", "nt", "sup_ratio_sharp",
                           "fs_ratio"]
        for row in rows[1:]:
            assert np.isfinite(float(row[4]))
            assert np.isfinite(float(row[5]))

    def test_sharp_bound_takes_one_sharp_function_per_entry(
            self, tmp_path, cli_config, monkeypatch):
        real = ps.maximal._sharp_core
        seen = []

        def counting(arr, *args):
            seen.append(arr.shape)
            return real(arr, *args)

        monkeypatch.setattr("paleyscope.maximal._sharp_core", counting)
        rc = main(["sharp-bound", "--config", str(cli_config),
                   "--out", str(tmp_path), "--threads", "1"])
        assert rc == 0
        # four corpus entries, one sharp function each for both ratios
        assert len(seen) == 4

    def test_sharp_bound_builds_each_entry_in_its_task(self, tmp_path, cli_config,
                                                       monkeypatch):
        built = []
        monkeypatch.setattr(cli, "make_corpus", lambda *a, **kw: built.append(a))
        rc = main(["sharp-bound", "--config", str(cli_config),
                   "--out", str(tmp_path), "--threads", "2"])
        assert rc == 0 and built == []
        cfg = load_config(cli_config)
        want = [[cli._fmt(v) for v in ps.verify_sharp_bound(
                    cfg.symbol, cfg.eta,
                    ps.corpus_entry(cfg.grid, cfg.nt, i, t_window=cfg.t_window,
                                    seed=cfg.corpus["seed"]),
                    cfg.p_list[0])]
                for i in range(cfg.corpus["count"])]
        with open(tmp_path / "sharp-bound.csv", newline="") as fh:
            assert [row[4:] for row in list(csv.reader(fh))[1:]] == want

    @pytest.mark.parametrize("suite", ["sharp-bound", "lp-ratio"])
    def test_report_bytes_do_not_depend_on_threads(self, tmp_path, cli_config,
                                                   suite):
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            rc = main([suite, "--config", str(cli_config), "--out", str(out),
                       "--threads", threads])
            assert rc == 0
            reports.append((out / f"{suite}.csv").read_bytes())
        assert reports[0] == reports[1]

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

    def test_spde_reports_the_kurtosis_standard_error(self, tmp_path, cli_config):
        # the standard error of the sample excess kurtosis of a Gaussian
        main(["spde", "--config", str(cli_config), "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "spde.json").read_text())
        M = payload["M"]
        assert payload["kurtosis_std_error"] == format(math.sqrt(24 / M), ".17g")

    def test_spde_channel_count_defaults_to_the_entry(self, tmp_path):
        # corpus entry 0 has one channel; mc.K is not given
        path = tmp_path / "entry0.json"
        path.write_text(json.dumps(
            {"symbol": {"family": "fractional", "gamma": 2.0},
             "grid": {"n": 64, "nt": 64}, "mc": {"entry": 0}}))
        assert load_config(path).mc["K"] is None
        rc = main(["spde", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "spde.json").read_text())["K"] == 1

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

    @pytest.mark.parametrize("flags", [["--dim", "x"], ["--dim", "0"],
                                       ["--gamma", "0"]])
    def test_bad_exponents_flags_are_usage_errors(self, tmp_path, capsys,
                                                  flags):
        rc = main(["exponents", *flags, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "exponents.json").exists()

    def test_spde_builds_one_propagator(self, tmp_path, cli_config,
                                        monkeypatch):
        real = ps.spde.Propagator
        built = []

        def counting(sym, f):
            built.append(f)
            return real(sym, f)

        monkeypatch.setattr("paleyscope.spde.Propagator", counting)
        rc = main(["spde", "--config", str(cli_config), "--out", str(tmp_path)])
        assert rc == 0
        assert len(built) == 1

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

    def test_kernel_dump_reports_its_nyquist_ratio(self, tmp_path, cli_config):
        assert main(["kernel-dump", "--config", str(cli_config),
                     "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "kernel-dump.json").read_text())
        cfg = load_config(cli_config)
        k = np.abs(ps.kernel_hat(cfg.symbol, 0.0, 0.1, 1.0, cfg.grid))
        want = k[cfg.grid.n // 2] / k.max()  # the one n/2 mode at d = 1
        assert float(meta["nyquist_ratio"]) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(3.0262e-4, rel=1e-4)

    def test_kernel_dump_fails_on_a_non_finite_multiplier(self, tmp_path, cli_config):
        cfg = json.loads(cli_config.read_text())
        cfg["kernel"]["eta"] = 400
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(cfg))
        with pytest.warns(RuntimeWarning) as caught:
            rc = main(["kernel-dump", "--config", str(path), "--out", str(tmp_path)])
        assert any("overflow" in str(w.message) for w in caught)
        assert rc == 1
        # the report is still written, as for every failed check
        meta = json.loads((tmp_path / "kernel-dump.json").read_text())
        assert meta["eta"] == "400" and (tmp_path / "kernel.plsf").is_file()

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_suites_run_silent(self, tmp_path, cli_config, capfd, suite):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            main([suite, "--config", str(cli_config), "--out", str(tmp_path)])
        assert [str(w.message) for w in caught] == []
        assert capfd.readouterr().err == ""

    def test_no_suite_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])
