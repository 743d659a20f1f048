import json
import os

import numpy as np
import pytest

from mtlab import cli, crb
from mtlab.experiments import (
    ConfigError,
    load_config,
    report_to_csv,
    run,
)


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].strip().partition("=")
            meta[k.strip()] = v
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


class TestConfig:
    def test_overrides(self):
        cfg = load_config(text="[experiment]\nkind = fig4\n",
                          overrides=["sweep.n=0:4:5", "seed=7"])
        assert cfg.kind == "fig4"
        assert cfg.seed == 7
        assert cfg.get("sweep", "n") == "0:4:5"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            load_config(text="[experiment]\nkind = bogus\n")

    def test_missing_kind(self):
        with pytest.raises(ConfigError):
            load_config(text="[state]\nfamily = fock\n")

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            load_config(text="[experiment]\nkind = fig4\n[output]\nformat = xml\n")


class TestExperiments:
    def test_crb_single_state(self):
        cfg = load_config(text="[experiment]\nkind = crb\n[state]\nfamily = fock\nn = 1\n")
        rep = run(cfg)
        row = rep.rows[0]
        assert row["h2_hom"] == pytest.approx(15.0)
        assert row["gamma2"] == pytest.approx(16.0 / 15.0)

    def test_crb_sweep(self):
        cfg = load_config(
            text="[experiment]\nkind = gamma-sweep\n[state]\nfamily = fock\nn = 0\n"
                 "[sweep]\nn = 0:3:4\n")
        rep = run(cfg)
        assert [r["n"] for r in rep.rows] == [0, 1, 2, 3]

    def test_gamma_sweep_requires_sweep(self):
        cfg = load_config(text="[experiment]\nkind = gamma-sweep\n"
                               "[state]\nfamily = fock\nn = 0\n")
        with pytest.raises(ConfigError):
            run(cfg)

    def test_empty_sweep_is_config_error(self, tmp_path):
        out = tmp_path / "never.csv"
        cfg = load_config(
            text=f"[experiment]\nkind = crb\n[state]\nfamily = fock\nn = 0\n"
                 f"[sweep]\nn = 0:3:0\n[output]\npath = {out}\n")
        with pytest.raises(ConfigError):
            run(cfg)
        assert not out.exists()

    def test_fig4_monotone(self):
        cfg = load_config(text="[experiment]\nkind = fig4\n",
                          overrides=["sweep.n=0:30:31"])
        rep = run(cfg)
        g2 = [r["gamma2"] for r in rep.rows]
        assert g2[0] == pytest.approx(1.2)
        assert g2[1] == pytest.approx(16.0 / 15.0)
        assert np.all(np.diff(g2) < 0)
        assert g2[-1] > 0.4

    def test_fig6_displaced_monotone(self):
        cfg = load_config(text="[experiment]\nkind = fig6\n",
                          overrides=["sweep.m=0:6:7",
                                     "families=displaced_fock"])
        rep = run(cfg)
        vals = [r["gamma2_min"] for r in rep.rows]
        assert np.all(np.diff(vals) < 0)
        assert vals[0] == pytest.approx(0.8504545830, abs=1e-6)

    def test_fig2_grid(self):
        cfg = load_config(text="[experiment]\nkind = fig2\n",
                          overrides=["sweep.alpha0=0:0.6:3", "sweep.mu=1:3:5",
                                     "sweep.lam=1:3:5"])
        rep = run(cfg)
        assert len(rep.rows) == 3 * 5 * 5
        tip = next(r for r in rep.rows
                   if r["alpha0"] == 0.0 and r["mu"] == 1.0 and r["lam"] == 1.0)
        assert tip["gamma2"] == pytest.approx(1.2)
        # beyond the critical displacement sqrt(5/32) the ratio is subunit
        # for every temperature and squeezing
        beyond = [r["gamma2"] for r in rep.rows if r["alpha0"] == 0.6]
        assert max(beyond) < 1.0

    def test_fig3_grid(self):
        cfg = load_config(text="[experiment]\nkind = fig3\n",
                          overrides=["sweep.mu=1:1:1", "sweep.x0=-1:1:3",
                                     "sweep.p0=-1:1:3"])
        rep = run(cfg)
        assert len(rep.rows) == 9
        center = next(r for r in rep.rows if r["x0"] == 0.0 and r["p0"] == 0.0)
        assert center["gamma2"] == pytest.approx(1.2)

    @pytest.mark.parametrize("kind, overrides", [
        ("fig2", ["sweep.alpha0=0:0.6:3", "sweep.mu=1:3:5", "sweep.lam=1:3:30"]),
        ("fig3", ["sweep.mu=1:2:2", "sweep.x0=-1:1:7", "sweep.p0=-1:1:7"]),
        ("fig4", ["sweep.n=0:80:81"]),
        ("fig5", ["sweep.alpha0=0.05:3:60"]),
    ])
    def test_figure_grid_is_one_array_call(self, monkeypatch, kind, overrides):
        # every state of the grid goes through one crb_grid call, none through
        # a per-state bound
        calls = []
        grid = crb.crb_grid

        def counted(states):
            calls.append(len(states))
            return grid(states)

        def per_state(state):
            raise AssertionError("per-state bound called")

        monkeypatch.setattr(crb, "crb_grid", counted)
        for name in ("fisher_hom_second", "crb_report", "gamma2",
                     "scrb_hom_second", "scrb_het_second"):
            monkeypatch.setattr(crb, name, per_state)
        rep = run(load_config(text=f"[experiment]\nkind = {kind}\n", overrides=overrides))
        assert len(calls) == 1
        assert calls[0] == len(rep.rows) * (2 if kind == "fig5" else 1)
        assert calls[0] > crb._BLOCK

    def test_fig5_columns(self):
        cfg = load_config(text="[experiment]\nkind = fig5\n",
                          overrides=["sweep.alpha0=0.3:1.5:5"])
        rep = run(cfg)
        assert set(rep.rows[0]) == {"alpha0", "gamma2_even", "gamma2_odd"}

    def test_crossover_row(self):
        cfg = load_config(text="[experiment]\nkind = crossover\n"
                               "[search]\nfamily = coherent\n")
        rep = run(cfg)
        assert rep.rows[0]["alpha0_star"] == pytest.approx((5 / 32) ** 0.5, abs=1e-6)

    def test_mc_verify_row(self):
        cfg = load_config(
            text="[experiment]\nkind = mc-verify\nseed = 3\n"
                 "[state]\nfamily = fock\nn = 0\n"
                 "[mc]\nscheme = het\norder = first\nN = 20000\ntrials = 100\n")
        rep = run(cfg)
        row = rep.rows[0]
        assert row["scrb"] == pytest.approx(2.0)
        assert 0.9 <= row["ratio"] <= 1.1

    def test_mc_verify_vacuum_het_second(self):
        cfg = load_config(
            text="[experiment]\nkind = mc-verify\nseed = 5\n"
                 "[state]\nfamily = gaussian\ngxx = 0.5\ngpp = 0.5\n"
                 "[mc]\nscheme = het\norder = second\nN = 100000\ntrials = 100\n")
        row = run(cfg).rows[0]
        assert row["scrb"] == pytest.approx(6.0)
        assert 0.9 <= row["ratio"] <= 1.1


class TestCliEndToEnd:
    def run_cli(self, args):
        return cli.main(args)

    def test_fig4_to_file(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code = self.run_cli(["fig4", "--set", "sweep.n=0:5:6", "--out", str(out)])
        assert code == 0
        meta, header, rows = parse_csv(out.read_text())
        assert meta["schema_version"] == "2"
        assert header[0] == "n"
        assert len(rows) == 6
        assert float(rows[0]["gamma2"]) == pytest.approx(1.2)

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = self.run_cli([
                "mc-verify", "--seed", "11", "--out", str(out),
                "--set", "state.family=fock", "--set", "state.n=1",
                "--set", "mc.scheme=het", "--set", "mc.order=second",
                "--set", "mc.N=5000", "--set", "mc.trials=20",
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_different_seed_changes_output(self, tmp_path):
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            self.run_cli(["mc-verify", "--seed", seed, "--out", str(out),
                          "--set", "state.family=fock", "--set", "state.n=0",
                          "--set", "mc.scheme=het", "--set", "mc.order=first",
                          "--set", "mc.N=2000", "--set", "mc.trials=10"])
            texts.append(out.read_text())
        assert texts[0] != texts[1]

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        code = self.run_cli(["crossover", "--format", "json", "--out", str(out),
                             "--set", "search.family=even_coherent"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["experiment"] == "crossover"
        assert payload["rows"][0]["alpha0_star"] == pytest.approx(0.693885, abs=1e-4)

    def test_config_error_exit_code(self, capsys):
        assert self.run_cli(["crb", "--config", "/does/not/exist.cfg"]) == 2
        assert self.run_cli(["crossover"]) == 2  # missing search section

    def test_bad_mc_scheme_exit_code(self, capsys):
        code = self.run_cli(["mc-verify", "--set", "state.family=fock",
                             "--set", "state.n=1", "--set", "mc.scheme=bogus"])
        assert code == 2
        assert "scheme" in capsys.readouterr().err

    def test_crossover_missing_m_exit_code(self, capsys):
        code = self.run_cli(["crossover", "--set", "search.family=photon_added"])
        assert code == 2
        assert "requires" in capsys.readouterr().err

    def test_crb_bad_state_value_exit_code(self, capsys):
        code = self.run_cli(["crb", "--set", "state.family=fock", "--set", "state.n=x"])
        assert code == 2
        assert "[state]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, says", [
        (["fig2", "--set", "sweep.mu=0.1:0.5:2"], "mu >= 1"),
        (["fig3", "--set", "sweep.mu=0.5:1:2"], "mu >= 1"),
        (["fig4", "--set", "sweep.n=-2:2:5"], "non-negative"),
        (["fig5", "--set", "sweep.alpha0=nan:1:2"], "finite"),
        (["fig6", "--set", "experiment.families=bogus"], "unknown family"),
        (["fig6", "--set", "sweep.m=-2:0:3"], "non-negative"),
    ])
    def test_bad_figure_sweep_exit_code(self, capsys, argv, says):
        assert self.run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and says in err

    def test_numerical_error_exit_code(self):
        code = self.run_cli(["crossover", "--set", "search.family=coherent",
                             "--set", "search.bracket_hi=0.1"])
        assert code == 3

    def test_sampling_envelope_violation_exit_code(self, capsys):
        code = self.run_cli(["mc-verify", "--set", "state.family=even_coherent",
                             "--set", "state.alpha0=10", "--set", "mc.scheme=het",
                             "--set", "mc.order=first", "--set", "mc.N=1000",
                             "--set", "mc.trials=2"])
        assert code == 3
        assert "rejection envelope" in capsys.readouterr().err

    def test_stdout_when_no_path(self, capsys):
        code = self.run_cli(["crb", "--set", "state.family=fock", "--set", "state.n=2"])
        assert code == 0
        meta, header, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["h2_het"]) == 30.0

    def test_twelve_significant_digits(self, capsys):
        self.run_cli(["crb", "--set", "state.family=fock", "--set", "state.n=1"])
        text = capsys.readouterr().out
        # 16/15 printed with 12 significant digits
        assert "1.06666666667" in text
