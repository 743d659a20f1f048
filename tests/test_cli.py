import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mtlab import (
    CovarianceMatrix,
    FirstMoments,
    Fock,
    Gaussian,
    PhotonAddedCoherent,
    cli,
    crb,
    crb_report,
    gaussian_cov_from_shape,
    GaussianShape,
    state_to_kv,
)
from mtlab.experiments import (
    ConfigError,
    ExperimentReport,
    _fmt,
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


# a small, valid mc-verify run; a later --set overrides its entries
_MC_FOCK = ["mc-verify", "--set", "state.family=fock", "--set", "state.n=1",
            "--set", "mc.N=100", "--set", "mc.trials=2"]


def _src_env():
    """The environment of a subprocess that imports mtlab from this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestConfig:
    def test_overrides(self):
        cfg = load_config(text="[experiment]\nkind = fig4\n",
                          overrides=["sweep.n=0:4:5", "seed=7"])
        assert cfg.kind == "fig4"
        assert cfg.seed == 7
        assert cfg.section("sweep")["n"] == "0:4:5"

    def test_loaded_config_is_frozen(self):
        cfg = load_config(text="[experiment]\nkind = fig4\n")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 5

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            load_config(text="[experiment]\nkind = bogus\n")

    def test_kind_that_contradicts_the_experiment(self):
        with pytest.raises(ConfigError, match="contradicts"):
            load_config(text="[experiment]\nkind = fig5\n", kind="fig4")
        with pytest.raises(ConfigError, match="contradicts"):
            load_config(overrides=["experiment.kind=fig5"], kind="fig4")
        for text in ("[experiment]\nkind = fig4\n", "[experiment]\nseed = 3\n"):
            assert load_config(text=text, kind="fig4").kind == "fig4"

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

    def test_gamma_sweep_rows_equal_crb_report(self):
        cfg = load_config(
            text="[experiment]\nkind = gamma-sweep\n[state]\nfamily = fock\nn = 0\n"
                 "[sweep]\nn = 0:30:31\n")
        assert run(cfg).rows == [{"n": n, **vars(crb.crb_report(Fock(n)))}
                                 for n in range(31)]

    def test_crb_sweep_bad_value_before_any_bound(self, monkeypatch):
        # the last value, mu = 0.5, makes no state
        def never(states):
            raise AssertionError("bound computed before every state was built")

        monkeypatch.setattr(crb, "crb_grid", never)
        cfg = load_config(
            text="[experiment]\nkind = gamma-sweep\n[state]\nfamily = gaussian\n"
                 "mu = 2\nlam = 1.5\n[sweep]\nmu = 1.5:0.5:3\n")
        with pytest.raises(ConfigError, match="mu"):
            run(cfg)

    def test_gamma2_min_m_sweep_rows_equal_single_searches(self):
        cfg = load_config(text="[experiment]\nkind = gamma2-min\n",
                          overrides=["search.family=displaced_fock", "search.m=0:4:5"])
        expect = []
        for m in range(5):
            a0, g2 = crb.minimize_gamma2("displaced_fock", m)
            expect.append({"family": "displaced_fock", "m": m,
                           "alpha0_min": a0, "gamma2_min": g2})
        assert run(cfg).rows == expect

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
        ("fig3", ["sweep.mu=1:2:2", "sweep.x0=-1:1:12", "sweep.p0=-1:1:12"]),
        ("fig4", ["sweep.n=0:299:300"]),
        ("fig5", ["sweep.alpha0=0.05:3:130"]),
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
        monkeypatch.setattr(crb, "crb_report", per_state)
        rep = run(load_config(text=f"[experiment]\nkind = {kind}\n", overrides=overrides))
        assert len(calls) == 1
        assert calls[0] == len(rep.rows) * (2 if kind == "fig5" else 1)
        assert calls[0] > crb._BLOCK

    def test_gaussian_grids_build_no_state_per_point(self, monkeypatch):
        # fig2 and fig3 hand crb_grid arrays; a Gaussian built per grid point
        # would raise here
        def per_point(state):
            raise AssertionError("a Gaussian built per grid point")

        monkeypatch.setattr(Gaussian, "__post_init__", per_point)
        for kind, overrides, size in (
                ("fig2", ["sweep.alpha0=0:0.6:3", "sweep.mu=1:3:5", "sweep.lam=1:3:5"], 75),
                ("fig3", ["sweep.mu=1:2:2", "sweep.x0=-1:1:3", "sweep.p0=-1:1:3"], 18)):
            rep = run(load_config(text=f"[experiment]\nkind = {kind}\n", overrides=overrides))
            assert len(rep.rows) == size

    def test_gaussian_grid_rows_equal_state_bounds(self):
        # the array grid gives every point the bound of its own Gaussian state
        rep = run(load_config(text="[experiment]\nkind = fig2\n",
                              overrides=["sweep.alpha0=0:0.6:3", "sweep.mu=1:3:5",
                                         "sweep.lam=1:3:7"]))
        for r in rep.rows:
            state = Gaussian(FirstMoments(math.sqrt(2.0) * r["alpha0"], 0.0),
                             gaussian_cov_from_shape(GaussianShape(r["mu"], r["lam"])))
            assert r["gamma2"] == crb_report(state).gamma2, r
        rep = run(load_config(text="[experiment]\nkind = fig3\n",
                              overrides=["sweep.mu=1:8:4", "sweep.x0=-3:3:5", "sweep.p0=-3:3:5"]))
        for r in rep.rows:
            state = Gaussian(FirstMoments(r["x0"], r["p0"]),
                             gaussian_cov_from_shape(GaussianShape(r["mu"], r["lam"])))
            assert r["gamma2"] == crb_report(state).gamma2, r

    def test_fig6_builds_no_photon_added_vector_per_state(self, monkeypatch):
        # the searches' photon-added states get their rows from stacks; the
        # per-state Fock vector would raise here
        def per_state(state):
            raise AssertionError("a photon-added vector built for one state")

        monkeypatch.setattr(PhotonAddedCoherent, "_vector", property(per_state))
        rep = run(load_config(text="[experiment]\nkind = fig6\n",
                              overrides=["sweep.m=0:12:13", "families=photon_added"]))
        assert [r["m"] for r in rep.rows] == list(range(13))

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


    def test_mc_verify_draws_once_per_trial_and_scheme(self, monkeypatch):
        # every order asked for reads the same draw of a trial
        from mtlab import sampling

        draws = {"hom": 0, "het": 0}

        def counted(scheme, sampler):
            def draw(*args):
                draws[scheme] += 1
                return sampler(*args)
            return draw

        monkeypatch.setattr(sampling, "sample_homodyne",
                            counted("hom", sampling.sample_homodyne))
        monkeypatch.setattr(sampling, "sample_heterodyne",
                            counted("het", sampling.sample_heterodyne))
        cfg = load_config(
            text="[experiment]\nkind = mc-verify\nseed = 2\n"
                 "[state]\nfamily = fock\nn = 1\n"
                 "[mc]\nscheme = both\norder = both\nN = 600\ntrials = 7\nn_theta = 6\n")
        rows = run(cfg).rows
        assert [(r["scheme"], r["order"]) for r in rows] == [
            ("hom", "first"), ("hom", "second"), ("het", "first"), ("het", "second")]
        assert draws == {"hom": 7, "het": 7}


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

    def test_contradicting_kind_exit_code(self, capsys, monkeypatch):
        def never(states):
            raise AssertionError("evaluated before the config was checked")

        monkeypatch.setattr(crb, "crb_grid", never)
        code = self.run_cli(["fig4", "--set", "experiment.kind=fig5", "--set", "sweep.n=0:1:2"])
        assert code == 2
        assert "contradicts" in capsys.readouterr().err

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
        (["fig2", "--set", "sweep.lam=0.5:2:4"], "lam >= 1"),
        (["fig2", "--set", "sweep.alpha0=nan:0.5:3"], "finite"),
        (["fig3", "--set", "sweep.p0=nan:1:2"], "finite"),
        (["fig2", "--set", "sweep.alpha0=0:inf:3"], "finite"),
    ])
    def test_bad_figure_sweep_exit_code(self, capsys, argv, says):
        assert self.run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and says in err

    @pytest.mark.parametrize("argv, section", [
        (["fig2", "--set", "sweep.alpha=0:1:3"], "[sweep]"),
        (["fig3", "--set", "sweep.lam=1:2:2"], "[sweep]"),
        (["fig4", "--set", "sweep.N=0:3:4"], "[sweep]"),
        (["fig5", "--set", "sweep.alpha=0.3:1:3"], "[sweep]"),
        (["fig6", "--set", "sweep.n=0:2:3"], "[sweep]"),
        (["fig6", "--set", "experiment.family=photon_added"], "[experiment]"),
        (["fig5", "--set", "experiment.families=displaced_fock"], "[experiment]"),
        (_MC_FOCK + ["--set", "trials=5"], "[experiment]"),
        (["fig4", "--set", "output.fromat=json"], "[output]"),
        (["fig4", "--set", "state.family=bogus"], "[state]"),
        (_MC_FOCK + ["--set", "mc.N=600", "--set", "mc.trials=2", "--set", "mc.n_theta=6",
                     "--set", "mc.scheme=het", "--set", "m.N=5"], "[m]"),
        (["crossover", "--set", "search.family=coherent", "--set", "serach.m=3"], "[serach]"),
    ])
    def test_unknown_figure_or_experiment_key_exit_code(self, capsys, argv, section):
        assert self.run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"unknown {section} keys" in err

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_both_orders_rows_equal_single_order_run(self, tmp_path, order):
        # the rows of an order = first or order = second run read the draws
        # of that order's rows of an order = both run with the same seed
        rows = {}
        for asked in ("both", order):
            out = tmp_path / f"{asked}.csv"
            assert self.run_cli([*_MC_FOCK, "--seed", "9", "--out", str(out),
                                 "--set", "mc.N=3000", "--set", "mc.trials=5",
                                 "--set", "mc.n_theta=6", "--set", f"mc.order={asked}"]) == 0
            rows[asked] = [line for line in out.read_text().splitlines()
                           if not line.startswith("#")]
        header, *both = rows["both"]
        index = ("first", "second").index(order)
        assert rows[order] == [header, both[index], both[index + 2]]
        assert [line.split(",")[2] for line in both] == ["first", "second"] * 2

    @pytest.mark.parametrize("argv", [
        ["fig4", "--set", "sweep.n=0:3:4"],
        [*_MC_FOCK, "--set", "mc.N=600", "--set", "mc.n_theta=6"],
    ], ids=["fig4", "mc-verify"])
    def test_report_depends_only_on_what_decides_its_numbers(self, tmp_path, argv):
        # the same settings via flags, via --set and via a config file, written
        # to different paths, give the same bytes
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[experiment]\nseed = 3\nworkers = 2\n[output]\n"
                       f"path = {tmp_path / 'c.csv'}\nformat = csv\n")
        runs = {
            "a.csv": ["--seed", "3", "--workers", "2", "--format", "csv"],
            "b.csv": ["--set", "experiment.seed=3", "--set", "experiment.workers=2",
                      "--set", "output.format=csv"],
            "c.csv": ["--config", str(cfg)],
            "d.csv": ["--config", str(cfg), "--workers", "1"],
        }
        for name, flags in runs.items():
            assert self.run_cli([*argv, *flags, "--set", f"output.path={tmp_path / name}"]) == 0
        texts = {(tmp_path / name).read_bytes() for name in runs}
        assert len(texts) == 1
        assert b"# seed=3\n" in texts.pop()

    def test_seed_flag_leaves_no_contradicting_echo(self, tmp_path):
        out = tmp_path / "r.csv"
        assert self.run_cli(["fig4", "--set", "sweep.n=0:2:3", "--set", "experiment.seed=7",
                             "--seed", "5", "--out", str(out)]) == 0
        meta, _, _ = parse_csv(out.read_text())
        assert meta["seed"] == "5"
        assert "seed" not in meta["config"]

    @pytest.mark.parametrize("argv", [
        ["crossover", "--set", "search.family=coherent", "--set", "search.m=3"],
        ["gamma2-min", "--set", "search.family=even_coherent", "--set", "search.m=0:2:3"],
        ["fig6", "--set", "experiment.families=odd_coherent", "--set", "sweep.m=0:2:3"],
    ])
    def test_m_for_family_without_one_exit_code(self, capsys, argv):
        assert self.run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "takes no parameter m" in err

    def test_failed_fisher_check_exit_code(self, monkeypatch, capsys):
        # a Fisher matrix that is not positive definite names its state, exit 3
        base = crb._trapezoid
        monkeypatch.setattr(crb, "_trapezoid", lambda states, c: -base(states, c))
        code = self.run_cli(["crb", "--set", "state.family=fock", "--set", "state.n=1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "family=fock n=1" in err

    def test_unconverged_phase_quadrature_exit_code(self, monkeypatch, capsys):
        # with the node cap at the first level, no two levels can agree
        monkeypatch.setattr(crb, "_MAX_NODES", 32)
        code = self.run_cli(["crb", "--set", "state.family=photon_added",
                             "--set", "state.alpha0=0.5", "--set", "state.m=1"])
        assert code == 3
        err = capsys.readouterr().err
        assert ("numerical failure" in err and "phase quadrature did not converge" in err
                and state_to_kv(PhotonAddedCoherent(0.5, 1)) in err)

    def test_gaussian_grid_failure_names_its_point(self, monkeypatch, capsys):
        # a failure at a point of fig2's array grid, in its second block,
        # names the point's state; exit code 3
        a, mu, lam = 0.6, 2.5, float(np.linspace(1.0, 3.0, 30)[7])
        bad = Gaussian(FirstMoments(math.sqrt(2.0) * a, 0.0),
                       CovarianceMatrix(mu / (2.0 * lam), 0.0, mu * lam / 2.0))
        target = bad._moments.harmonics[0]
        base = crb._x2_variance

        def patched(h, th):
            out = base(h, th)
            rows = np.all(h == target, axis=(1, 2))
            out[rows] = -out[rows]
            return out

        monkeypatch.setattr(crb, "_x2_variance", patched)
        code = self.run_cli(["fig2", "--set", "sweep.alpha0=0:0.6:3", "--set", "sweep.mu=1:3:5",
                             "--set", "sweep.lam=1:3:30"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and state_to_kv(bad) in err

    def test_numerical_error_exit_code(self):
        code = self.run_cli(["crossover", "--set", "search.family=coherent",
                             "--set", "search.bracket_hi=0.1"])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        *(["crossover", "--set", "search.family=coherent", "--set", f"search.bracket_hi={hi}"]
          for hi in ("-1", "0", "nan", "inf")),
        *(["gamma2-min", "--set", "search.family=even_coherent",
           "--set", f"search.bracket_hi={hi}"] for hi in ("0", "nan")),
        ["crossover", "--set", "search.family=coherent", "--set", "search.tol=1e-9"],
        *(_MC_FOCK + ["--set", item]
          for item in ("mc.trials=1", "mc.N=0", "mc.N=10", "mc.n_theta=2", "mc.n=1000",
                       "experiment.workers=0")),
        _MC_FOCK + ["--workers", "0"],
        _MC_FOCK + ["--workers", "-3"],
        ["fig4", "--workers", "-1"],
    ], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
    def test_bad_search_or_mc_value_exit_code(self, capsys, argv):
        assert self.run_cli(argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_mc_value_error_exits_without_traceback(self):
        # the in-process main cannot see a leaked exception's exit code 1
        proc = subprocess.run([sys.executable, "-m", "mtlab.cli", *_MC_FOCK,
                               "--set", "mc.trials=1"],
                              env=_src_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_import_leaves_out_the_oracle(self):
        # oracle failures are ArithmeticErrors, so the CLI needs no import of the oracle
        probe = "import sys, mtlab.cli; sys.exit('mtlab.oracle' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                              timeout=60).returncode == 0

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

    def test_cell_format(self):
        assert [_fmt(v) for v in (True, False, 7, np.int64(-3), 0.1 + 0.2, 1.0, 1e-300,
                                  np.float64(2.0 / 3.0), "", "even_coherent")] == [
            "true", "false", "7", "-3", "0.3", "1", "1e-300", "0.666666666667",
            "", "even_coherent"]

    def test_csv_cells_are_fmt_cells(self):
        # columns of one plain type, of mixed types and of numpy scalars all
        # read as _fmt writes each cell
        rows = [{"a": 0.1 * k, "b": k, "c": f"s{k}", "d": (k > 1, "", 2.5, np.int64(k))[k],
                 "e": np.float64(k / 3.0), "f": ""} for k in range(4)]
        text = report_to_csv(ExperimentReport({"seed": 1}, rows))
        want = ["# seed=1", "a,b,c,d,e,f"] + [",".join(_fmt(r[c]) for c in r) for r in rows]
        assert text == "\n".join(want) + "\n"

    def test_twelve_significant_digits(self, capsys):
        self.run_cli(["crb", "--set", "state.family=fock", "--set", "state.n=1"])
        text = capsys.readouterr().out
        # 16/15 printed with 12 significant digits
        assert "1.06666666667" in text
