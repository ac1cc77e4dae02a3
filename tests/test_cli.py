import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dnls
from dnls.cli import SCHEMA, main, parse_overrides, resolve
from dnls.lattice import load_field

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args) -> int:
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestConfigHandling:
    def test_overrides_nest(self):
        out = parse_overrides(["--dynamics.dt", "1e-3", "--lattice.L", "8"])
        assert out == {"dynamics": {"dt": 1e-3}, "lattice": {"L": 8}}

    def test_override_missing_value(self):
        from dnls.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_overrides(["--dynamics.dt"])

    def test_unknown_experiment_exit_2(self, tmp_path, capsys):
        assert run_cli("--experiment", "simulate", "--out", str(tmp_path / "r")) == 0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "nope", "out": str(tmp_path / "x")}))
        assert run_cli("--config", str(cfg)) == 2

    def test_missing_out_exit_2(self):
        assert run_cli("--experiment", "simulate") == 2

    def test_config_error_leaves_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "probe" / "sweep"
        assert run_cli("--experiment", "sweep-L", "--out", str(out)) == 2
        assert "sweep.L_list" in capsys.readouterr().err
        assert not (tmp_path / "probe").exists()

    def test_inconsistent_grid_exit_2(self, tmp_path):
        code = run_cli(
            "--experiment", "simulate", "--out", str(tmp_path / "r"),
            "--lattice.L", "4", "--dynamics.dt", "0.001", "--dynamics.t_end", "0.0105",
        )
        assert code == 2

    def test_bad_config_file_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert run_cli("--config", str(cfg), "--out", str(tmp_path / "r")) == 2
        assert run_cli("--config", str(tmp_path / "missing.json"), "--out", "x") == 2

    def test_missing_kernel_file_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "--experiment", "simulate", "--out", str(tmp_path / "r"),
            "--kernel.file", str(tmp_path / "missing.txt"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    def test_asymmetric_kernel_file_exit_2(self, tmp_path, capsys):
        kernel = tmp_path / "kernel.txt"
        kernel.write_text("1 1\n0 1.0\n1 -0.5\n-1 -0.25\n")
        code = run_cli(
            "--experiment", "simulate", "--out", str(tmp_path / "r"), "--kernel.file", str(kernel),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "not symmetric" in err
        assert not (tmp_path / "r").exists()

    # headers beyond 2^57 bytes: numpy refuses such an allocation at once on
    # 64-bit Linux, so a loader that allocates first would touch no memory
    def test_oversized_kernel_header_exit_2(self, tmp_path, capsys):
        kernel = tmp_path / "kernel.txt"
        kernel.write_text("1 36028797018963968\n0 1.0\n")
        code = run_cli(
            "--experiment", "simulate", "--out", str(tmp_path / "r"), "--kernel.file", str(kernel),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("experiment, flags", [
        ("simulate", ["--initial.type", "file", "--initial.path", "{dir}/a.txt"]),
        ("stats", ["--stats.fields_dir", "{dir}"]),
    ])
    def test_oversized_field_header_exit_2(self, tmp_path, capsys, experiment, flags):
        for name in ("a.txt", "b.txt"):
            (tmp_path / name).write_text("3 300000\n0 0 0 1.0 0.0\n")
        flags = [f.format(dir=tmp_path) for f in flags]
        code = run_cli("--experiment", experiment, "--out", str(tmp_path / "r"), *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    def test_file_initial_without_path_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "--experiment", "simulate", "--out", str(tmp_path / "r"), "--initial.type", "file",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("experiment, flags, key", [
        ("simulate", ["--lattice", "5"], "lattice"),
        ("simulate", ["--kernel", "3"], "kernel"),
        ("sweep-L", ["--sweep.L_list", "5"], "sweep.L_list"),
        ("uniqueness", ["--uniqueness.dt_list", "0.002"], "uniqueness.dt_list"),
        ("bound-check", ["--observables.centers", "5"], "observables.centers"),
        ("bound-check", ["--observables.weight", "3"], "observables.weight"),
        ("stats", ["--stats.fields_dir", "5"], "stats.fields_dir"),
        ("bound-check", ["--observables.weight", '{"kind": "power"}'], "observables.weight"),
        ("bound-check", ["--observables.weight", '{"parameter": 0.5}'], "observables.weight"),
        ("simulate", ["--dynamics.dtt", "0.5"], "dynamics.dtt"),
        ("simulate", ["--dump_feilds", "true"], "dump_feilds"),
        ("simulate", ["--lattice.L", "3.7"], "lattice.L"),
        ("simulate", ["--lattice.L", '"16"'], "lattice.L"),
        ("simulate", ["--lattice.L", "true"], "lattice.L"),
        ("simulate", ["--dynamics.dt", '"1e-3"'], "dynamics.dt"),
        ("simulate", ["--dump_fields", "1"], "dump_fields"),
        ("conserve", ["--conserve.h_tol", "null"], "conserve.h_tol"),
        ("simulate", ["--initial.type", "peak", "--initial.amplitude", '"1+1j"'],
         "initial.amplitude"),
        ("sample-gaussian", ["--sampling.n_samples", "-3"], "sampling.n_samples"),
        ("sample-gibbs", ["--sampling.n_samples", "1"], "sampling.n_samples"),
        ("uniqueness", ["--dynamics.t_end", "0"], "dynamics.t_end"),
        *(("sample-gibbs", [f"--{key}", value, "--sampling.n_samples", "3",
                            "--sampling.burn_in", "2"], key)
          for key, value in (("sampling.mu", "NaN"), ("sampling.proposal_sigma", "Infinity"),
                             ("sampling.beta", "Infinity"), ("sampling.mu", "Infinity"))),
        ("simulate", ["--dynamics.lambda", "NaN"], "dynamics.lambda"),
        ("simulate", ["--dynamics.dt", "Infinity"], "dynamics.dt"),
        ("sweep-L", ["--sweep.L_list", "[6, 8]", "--dynamics.scheme", "strang"],
         "dynamics.scheme"),
        ("simulate", ["--initial.type", "hashed", "--initial.p", "-0.5"], "exponent"),
        # L = 2^55 asks for more than 2^57 bytes, which numpy refuses at once
        ("simulate", ["--lattice.L", "36028797018963968"], "memory"),
        ("simulate", ["--lattice.L", "36028797018963968", "--initial.type", "hashed"], "memory"),
        ("sample-gibbs", ["--lattice.L", "36028797018963968"], "memory"),
        ("nope", [], "experiment"),
        # a center is checked against the configured lattice even where the
        # experiment does not read it: a 2-d center on the default d = 1 box,
        # or one outside the box
        *((experiment, [*flags, "--observables.centers", centers], "observables.centers")
          for experiment in ("simulate", "conserve")
          for flags, centers in (([], "[[0,0]]"), (["--lattice.L", "2"], "[[5]]"),
                                 (["--observables.eps", "0.1"], "[[0,0]]"))),
        ("bound-check", ["--lattice.L", "2", "--observables.centers", "[[0], [-3]]"],
         "observables.centers"),
        ("uniqueness", ["--observables.centers", "[[0,0]]"], "observables.centers"),
        ("sample-gaussian", ["--lattice.L", "2", "--observables.centers", "[[5]]"],
         "observables.centers"),
        ("sample-gibbs", ["--observables.centers", "[[0,0]]"], "observables.centers"),
        ("uniqueness", ["--uniqueness.dt_list", "[1e-3, 0.0]"], "uniqueness.dt_list"),
        ("uniqueness", ["--uniqueness.dt_list", "[2e-3, -1e-3]"], "uniqueness.dt_list"),
        ("sample-gaussian", ["--lattice.L", "2", "--sampling.a", "0"], "sampling.a"),
        ("sample-gibbs", ["--lattice.L", "0", "--sampling.a", "-1.5"], "sampling.a"),
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, experiment, flags, key):
        code = run_cli("--experiment", experiment, "--out", str(tmp_path / "r"), *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert not (tmp_path / "r").exists()
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("cfg, scheme", [
        ({"experiment": "sweep-L"}, "rk4"),
        ({"experiment": "simulate"}, "strang"),
        ({"experiment": "sweep-L", "dynamics": {"scheme": "strang"}}, "strang"),
        ({"experiment": "conserve", "dynamics": {"scheme": "rk4"}}, "rk4"),
    ])
    def test_scheme_default_depends_on_experiment(self, cfg, scheme):
        assert resolve(cfg)["dynamics"]["scheme"] == scheme

    def test_readme_table_lists_every_key(self):
        text = (REPO / "README.md").read_text()
        rows = dict(re.findall(r"^\| `?([\w ]+)`? \| (.*) \|$", text, re.MULTILINE))
        sections = {"top level": {k: s for k, s in SCHEMA.items() if not isinstance(s, dict)}}
        sections.update((k, s) for k, s in SCHEMA.items() if isinstance(s, dict))
        for name, section in sections.items():
            keys = [*section, *(k for s in section.values() if isinstance(s, dict) for k in s)]
            missing = [k for k in keys if f"`{k}`" not in rows[name]]
            assert not missing, f"README config row {name!r} lacks {missing}"

    def test_python_m_runs_the_cli(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(dnls.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dnls.cli", "--experiment", "simulate",
             "--out", str(tmp_path / "r"), "--lattice.L", "2", "--dynamics.t_end", "0.0",
             "--dynamics.stride", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "r" / "manifest.json").exists()


class TestSimulate:
    def test_zero_time_single_snapshot(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "--experiment", "simulate", "--out", str(out), "--seed", "1",
            "--lattice.L", "8", "--dynamics.t_end", "0.0", "--dynamics.stride", "1",
            "--dump_fields", "true",
        )
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["results"]["snapshots"] == 1
        series = (out / "series.csv").read_text().splitlines()
        assert series[0].startswith("t,N_L,H_L")
        assert len(series) == 2
        assert (out / "fields" / "snapshot_000000.txt").exists()

    def test_manifest_hashes_artifacts(self, tmp_path):
        import hashlib

        out = tmp_path / "run"
        run_cli(
            "--experiment", "simulate", "--out", str(out), "--seed", "3",
            "--lattice.L", "4", "--dynamics.t_end", "0.1", "--dynamics.dt", "0.01",
            "--dynamics.stride", "10", "--dump_fields", "true",
        )
        manifest = read_json(out / "manifest.json")
        digest = hashlib.sha256((out / "series.csv").read_bytes()).hexdigest()
        assert manifest["artifacts"]["series.csv"] == digest
        # the writer hashes the bytes it wrote; they are the files' bytes
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert set(manifest["artifacts"]) == files - {"manifest.json"}
        assert "fields/snapshot_000001.txt" in files
        for relpath, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / relpath).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("experiment", ["simulate", "conserve"])
    def test_centers_in_the_box_exit_0(self, tmp_path, experiment):
        # the far corners of the box pass the check, with or without eps
        for eps in ([], ["--observables.eps", "0.1"]):
            out = tmp_path / f"r{len(eps)}"
            code = run_cli("--experiment", experiment, "--out", str(out), "--lattice.L", "2",
                           "--observables.centers", "[[2], [-2], [0]]", *eps,
                           "--dynamics.t_end", "0.1", "--dynamics.dt", "0.01")
            assert code == 0
            header = (out / "series.csv").read_text().splitlines()[0]
            assert header.count("Q_") == (3 if eps else 0)

    def test_field_dump_loadable(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "--experiment", "simulate", "--out", str(out), "--seed", "4",
            "--lattice.L", "4", "--dynamics.t_end", "0.0", "--dynamics.stride", "1",
            "--dump_fields", "true",
        )
        field = load_field(out / "fields" / "snapshot_000000.txt")
        assert field.shape.L == 4


class TestConserve:
    def test_onsite_exact_case_passes(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "--experiment", "conserve", "--out", str(out), "--seed", "5",
            "--lattice.L", "8", "--kernel.type", "zero",
            "--dynamics.t_end", "1.0", "--dynamics.dt", "0.001", "--dynamics.stride", "100",
        )
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["checks"]["particle_number_conserved"]
        assert manifest["checks"]["onsite_exact_solution"]

    def test_norm_losing_scheme_fails(self, tmp_path):
        # coarse RK4 loses enough norm to trip the conservation check
        out = tmp_path / "run"
        code = run_cli(
            "--experiment", "conserve", "--out", str(out), "--seed", "6",
            "--lattice.L", "8", "--dynamics.scheme", "rk4",
            "--dynamics.dt", "0.2", "--dynamics.t_end", "20.0", "--dynamics.stride", "10",
        )
        assert code == 1
        manifest = read_json(out / "manifest.json")
        assert manifest["checks"]["particle_number_conserved"] is False

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_exit_3(self, tmp_path):
        code = run_cli(
            "--experiment", "conserve", "--out", str(tmp_path / "run"), "--seed", "7",
            "--lattice.L", "4", "--dynamics.scheme", "rk4",
            "--dynamics.dt", "10.0", "--dynamics.t_end", "100.0", "--dynamics.stride", "1",
            "--initial.sigma2", "100.0",
        )
        assert code == 3


class TestBoundCheck:
    def test_growth_bound_passes(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "--experiment", "bound-check", "--out", str(out), "--seed", "8",
            "--lattice.L", "16", "--dynamics.t_end", "1.0", "--dynamics.dt", "0.005",
            "--dynamics.stride", "20", "--observables.eps", "0.1",
            "--observables.weight", '{"kind": "power", "parameter": 0.5}',
        )
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["checks"]["growth_bound_x0"]
        assert manifest["checks"]["weighted_bound"]
        series = (out / "series.csv").read_text().splitlines()
        assert "ratio_eps0.1_x0" in series[0]


class TestSweep:
    def test_window_too_large_exit_2(self, tmp_path):
        code = run_cli(
            "--experiment", "sweep-L", "--out", str(tmp_path / "run"),
            "--sweep.L_list", "[6, 8]", "--sweep.k", "7",
        )
        assert code == 2

    def test_small_sweep_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "--experiment", "sweep-L", "--out", str(out), "--seed", "9",
            "--initial.type", "hashed", "--initial.p", "0.45",
            "--sweep.L_list", "[6, 8, 10, 12]", "--sweep.k", "3",
            "--dynamics.scheme", "rk4", "--dynamics.dt", "0.005",
            "--dynamics.t_end", "0.5", "--dynamics.stride", "1",
        )
        assert code == 0
        report = read_json(out / "sweep.json")
        assert [e["L"] for e in report["entries"]] == [6, 8, 10, 12]
        csv_lines = (out / "sweep.csv").read_text().splitlines()
        assert csv_lines[0] == "L,delta_bar"
        assert len(csv_lines) == 5

    def test_gaussian_initial_rejected(self, tmp_path):
        code = run_cli(
            "--experiment", "sweep-L", "--out", str(tmp_path / "run"),
            "--initial.type", "gaussian", "--sweep.L_list", "[6, 8]", "--sweep.k", "3",
        )
        assert code == 2


class TestUniqueness:
    def test_order_check_passes(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "--experiment", "uniqueness", "--out", str(out), "--seed", "10",
            "--lattice.L", "10", "--dynamics.t_end", "0.5", "--dynamics.dt", "0.005",
            "--dynamics.stride", "10",
            "--uniqueness.dt_list", "[0.005, 0.0025, 0.00125]",
        )
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["checks"]["refinement_order"]
        assert manifest["results"]["fitted_order"] >= 1.8

    @pytest.mark.parametrize("dt_list", ["[0.002, 0.002]", "[0.004, 0.002, 0.002]"])
    def test_repeated_dt_exit_2(self, tmp_path, dt_list):
        code = run_cli(
            "--experiment", "uniqueness", "--out", str(tmp_path / "run"),
            "--lattice.L", "6", "--dynamics.t_end", "0.02", "--uniqueness.dt_list", dt_list,
        )
        assert code == 2


class TestSampling:
    def test_gaussian_stats_artifact(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "--experiment", "sample-gaussian", "--out", str(out), "--seed", "11",
            "--lattice.L", "8", "--sampling.n_samples", "50",
        )
        assert code == 0
        stats = read_json(out / "stats.json")
        assert set(stats) >= {"per_site_moments", "max_moment", "violations_by_radius"}
        assert len(stats["per_site_moments"]) == 17

    def test_gibbs_stats_artifact(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "--experiment", "sample-gibbs", "--out", str(out), "--seed", "12",
            "--lattice.L", "4", "--sampling.n_samples", "20",
            "--sampling.burn_in", "20", "--sampling.thinning", "2",
        )
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert 0.0 < manifest["results"]["acceptance"] < 1.0
        assert (out / "stats.json").exists()

    def test_gibbs_focusing_exit_2(self, tmp_path):
        code = run_cli(
            "--experiment", "sample-gibbs", "--out", str(tmp_path / "r"),
            "--sampling.lambda", "-1.0",
        )
        assert code == 2

    def test_stats_on_dumped_fields(self, tmp_path):
        sample_dir = tmp_path / "samples"
        code = run_cli(
            "--experiment", "sample-gaussian", "--out", str(sample_dir), "--seed", "13",
            "--lattice.L", "4", "--sampling.n_samples", "10", "--dump_fields", "true",
        )
        assert code == 0
        out = tmp_path / "stats"
        code = run_cli(
            "--experiment", "stats", "--out", str(out),
            "--stats.fields_dir", str(sample_dir / "fields"),
        )
        assert code == 0
        assert (out / "stats.json").exists()

    def test_stats_on_dump_with_lines_past_the_box_exit_2(self, tmp_path, capsys):
        sample_dir = tmp_path / "samples"
        code = run_cli(
            "--experiment", "sample-gaussian", "--out", str(sample_dir), "--seed", "13",
            "--lattice.L", "2", "--sampling.n_samples", "3", "--dump_fields", "true",
        )
        assert code == 0
        with open(sample_dir / "fields" / "sample_000001.txt", "a") as fh:
            fh.write("3 9.0 9.0\n-7 1.0 1.0\n")
        code = run_cli(
            "--experiment", "stats", "--out", str(tmp_path / "stats"),
            "--stats.fields_dir", str(sample_dir / "fields"),
        )
        assert code == 2
        assert "expected 5 sites, found 7" in capsys.readouterr().err

    def test_stats_on_dump_with_a_bad_number_exit_2(self, tmp_path, capsys):
        sample_dir = tmp_path / "samples"
        code = run_cli(
            "--experiment", "sample-gaussian", "--out", str(sample_dir), "--seed", "13",
            "--lattice.L", "2", "--sampling.n_samples", "3", "--dump_fields", "true",
        )
        assert code == 0
        path = sample_dir / "fields" / "sample_000002.txt"
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "0 0.5 abc\n"
        path.write_text("".join(lines))
        code = run_cli(
            "--experiment", "stats", "--out", str(tmp_path / "stats"),
            "--stats.fields_dir", str(sample_dir / "fields"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "configuration error: field dump line 4 does not parse: '0 0.5 abc\\n'\n"

    def test_stats_on_dump_with_a_bad_header_exit_2(self, tmp_path, capsys):
        fields = tmp_path / "fields"
        fields.mkdir()
        (fields / "sample_000002.txt").write_text("1 0\n0 1.0 0.0\n")
        path = fields / "sample_000001.txt"
        path.write_text("1 a\n0 0.0 0.0\n")
        code = run_cli("--experiment", "stats", "--out", str(tmp_path / "stats"),
                       "--stats.fields_dir", str(fields))
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"configuration error: bad field dump header in {path}: "
                       "invalid literal for int() with base 10: 'a'\n")

    def test_stats_missing_dir_exit_2(self, tmp_path):
        assert run_cli("--experiment", "stats", "--out", str(tmp_path / "s")) == 2


class TestReproducibility:
    def _run(self, out, extra=()):
        args = [
            "--experiment", "conserve", "--out", str(out), "--seed", "17",
            "--lattice.L", "8", "--dynamics.t_end", "0.5", "--dynamics.dt", "0.005",
            "--dynamics.stride", "10", "--observables.eps", "0.1",
        ]
        return run_cli(*args, *extra)

    def test_byte_identical_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._run(a) == 0
        assert self._run(b) == 0
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        ma, mb = read_json(a / "manifest.json"), read_json(b / "manifest.json")
        for m in (ma, mb):
            m.pop("wall_clock_s")
            m["config"].pop("out")
        assert ma == mb

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._run(a)
        args = [
            "--experiment", "conserve", "--out", str(b), "--seed", "18",
            "--lattice.L", "8", "--dynamics.t_end", "0.5", "--dynamics.dt", "0.005",
            "--dynamics.stride", "10", "--observables.eps", "0.1",
        ]
        run_cli(*args)
        assert (a / "series.csv").read_bytes() != (b / "series.csv").read_bytes()

    def test_dotted_override_effective(self, tmp_path):
        out = tmp_path / "r"
        self._run(out, extra=("--dynamics.dt", "0.01",))
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["dynamics"]["dt"] == 0.01
