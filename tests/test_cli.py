import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gausslab import cli, dump_channel, errors, fock
from gausslab import husimi as hu
from gausslab import majorization as mj
from gausslab.channels import (
    amplifier_channel,
    attenuator_channel,
    classical_noise_channel,
    identity_channel,
)
from gausslab.states import tensor_channel


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, ch in [("identity", identity_channel(1)),
                     ("amp_sqrt2", amplifier_channel(np.sqrt(2))),
                     ("amp15", amplifier_channel(1.5)),
                     ("att07", attenuator_channel(0.7)),
                     ("noise05", classical_noise_channel(0.5)),
                     ("pair", tensor_channel(attenuator_channel(0.6),
                                             amplifier_channel(1.2)))]:
        p = tmp_path / f"{name}.json"
        dump_channel(ch, p)
        paths[name] = str(p)
    bad = tmp_path / "bad.json"
    bad.write_text('{"modes": 1, "K": [[{"re": 2.0, "im": 0.0}]], '
                   '"mu": [[{"re": 0.5, "im": 0.0}]]}')
    paths["invalid"] = str(bad)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    paths["garbled"] = str(garbled)
    return paths


def run_to_file(tmp_path, argv):
    out = tmp_path / "report.json"
    code = cli.run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


class TestValidate:
    def test_identity(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["validate", files["identity"]])
        assert code == 0
        assert report["results"]["class"] == "Identity"
        assert report["pass"] is True

    def test_invalid_noise_exits_two(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["validate", files["invalid"]])
        assert code == 2
        assert report["results"]["valid"] is False
        assert "eigenvalue" in report["results"]["reason"]

    def test_garbled_file_exits_one(self, files):
        assert cli.run(["validate", files["garbled"]]) == 1

    def test_missing_file_exits_one(self):
        assert cli.run(["validate", "/nonexistent/ch.json"]) == 1


def _error_classes(cls=errors.GaussLabError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


# The exit code of every library error, stated here so that a change to
# cli.EXIT_CODES fails a test: usage and IO errors exit 1, the rest 2.
ERROR_EXIT_CODES = {
    "GaussLabError": 2, "DimensionMismatch": 2, "ValidityError": 2, "NotHermitian": 2,
    "InvalidNoise": 2, "InvalidState": 2, "NotQuantumLimited": 2,
    "NotQuantumLimitedAmplifier": 2, "DimensionTooLarge": 1, "NotDiagonal": 2,
    "InvalidOrder": 2, "AmplitudeTooLarge": 2, "ParameterOutOfRange": 2,
    "TruncationLeakage": 2, "ConditionNotMet": 2, "TailMassTooLarge": 2,
    "QuadratureError": 2, "UsageError": 1, "FileFormatError": 1,
}


class TestExitCodes:
    def test_every_error_class_has_a_stated_code(self):
        assert sorted(c.__name__ for c in _error_classes()) == sorted(ERROR_EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(ERROR_EXIT_CODES))
    def test_error_exits_with_its_code(self, monkeypatch, capsys, files, name):
        def fail(args):
            raise getattr(errors, name)("boom")

        monkeypatch.setitem(cli._HANDLERS, "classify", fail)
        assert cli.run(["classify", files["identity"]]) == ERROR_EXIT_CODES[name]
        err = capsys.readouterr().err
        assert err == ("error: boom\n" if ERROR_EXIT_CODES[name] == 1
                       else f"error: {name}: boom\n")

    @pytest.mark.parametrize("error", [FileNotFoundError, IsADirectoryError])
    def test_io_errors_exit_one(self, monkeypatch, files, error):
        def fail(args):
            raise error("boom")

        monkeypatch.setitem(cli._HANDLERS, "classify", fail)
        assert cli.run(["classify", files["identity"]]) == 1

    @pytest.mark.parametrize("command", [["majorize", "--samples", "1", "--seed", "1"],
                                         ["strictgap"]])
    def test_invalid_noise_in_a_sweep_exits_two(self, tmp_path, capsys, files, command):
        # mu = 0 with K = 0.6 violates the validity inequality
        bad = tmp_path / "mu0.json"
        bad.write_text('{"modes": 1, "K": [[{"re": 0.6, "im": 0.0}]], '
                       '"mu": [[{"re": 0.0, "im": 0.0}]]}')
        assert cli.run([command[0], str(bad), *command[1:]]) == 2
        assert "InvalidNoise" in capsys.readouterr().err


class TestReports:
    def test_purity_prints_both_conventions(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["purity", files["amp_sqrt2"], "--p", "2"])
        assert code == 0
        assert report["results"]["nu_p"] == pytest.approx(1 / 3, abs=1e-9)
        assert report["results"]["det_value"] == pytest.approx(3.0, abs=1e-9)

    def test_entropy_bits_flag(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["entropy", files["amp_sqrt2"],
                                              "--p", "2", "--bits"])
        assert code == 0
        # thermal N=1: von Neumann entropy 2 ln 2 nats = 2 bits
        assert report["results"]["von_neumann"] == pytest.approx(2.0, abs=1e-9)
        assert report["results"]["unit"] == "bits"

    def test_classify_includes_strictness(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["classify", files["noise05"]])
        assert code == 0
        # K = I sits on the attenuator/amplifier boundary; precedence picks
        # the attenuator branch
        assert report["results"]["class"] == "Attenuator"
        assert report["results"]["condition_a"] is True

    def test_decompose_roundtrip_in_report(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["decompose", files["noise05"]])
        assert code == 0
        assert report["results"]["roundtrip_error"] <= 1e-10
        amp_k = report["results"]["amplifier"]["K"][0][0]["re"]
        assert amp_k == pytest.approx(np.sqrt(1.5), abs=1e-9)

    def test_report_embeds_version_and_config(self, tmp_path, files):
        _, report = run_to_file(tmp_path, ["purity", files["amp_sqrt2"], "--p", "2"])
        assert report["version"]
        assert report["config"]["command"] == "purity"

    def test_reports_carry_no_constant_fields(self, tmp_path, files):
        # no report echoes an output format nothing can set, and the Wehrl
        # sweep, which never redraws an input, reports no redraw count
        reports = [run_to_file(tmp_path, argv) for argv in (
            ["purity", files["amp_sqrt2"], "--p", "2"],
            ["majorize", files["att07"], "--samples", "2", "--seed", "1"],
            ["wehrl", "--samples", "1", "--seed", "1", "--grid-step", "0.2"])]
        assert [code for code, _ in reports] == [0, 0, 0]
        assert all("format" not in report["config"] for _, report in reports)
        assert set(reports[-1][1]["leakage"]) == {"max_tail_mass"}


# Every option of every subcommand set, with the configuration echo it must
# give: the parsed options under their report names, less the output paths
# (--csv, --field-csv) and print formats (--quiet, --bits).  "output" is
# added by run_to_file.
FULL_ARGV = {
    "validate": (["validate", "{amp15}", "--tol", "1e-9"],
                 {"channels": ["{amp15}"], "tolerance": 1e-9}),
    "classify": (["classify", "{amp15}", "--tol", "1e-9"],
                 {"channels": ["{amp15}"], "tolerance": 1e-9}),
    "decompose": (["decompose", "{amp15}", "--tol", "1e-9"],
                  {"channels": ["{amp15}"], "tolerance": 1e-9}),
    "entropy": (["entropy", "{amp15}", "--p", "3", "--bits"],
                {"channels": ["{amp15}"], "p": 3.0}),
    "purity": (["purity", "{amp15}", "--p", "3"], {"channels": ["{amp15}"], "p": 3.0}),
    "majorize": (["majorize", "{att07}", "--samples", "1", "--seed", "2", "--cutoff", "20",
                  "--support", "2", "--threads", "1", "--csv", "{tmp}/rows.csv"],
                 {"channels": ["{att07}"], "samples": 1, "seed": 2, "cutoff": 20,
                  "threads": 1, "extra": [["sample_support", 2]]}),
    "additivity": (["additivity", "{att07}", "{amp_sqrt2}", "--p", "3", "--samples", "1",
                    "--seed", "2", "--cutoff", "30", "--threads", "1",
                    "--csv", "{tmp}/rows.csv"],
                   {"channels": ["{att07}", "{amp_sqrt2}"], "p": 3.0, "samples": 1,
                    "seed": 2, "cutoff": 30, "threads": 1}),
    "strictgap": (["strictgap", "{amp15}", "--f", "renyi", "--p", "3", "--cutoff", "30"],
                  {"channels": ["{amp15}"], "p": 3.0, "cutoff": 30,
                   "extra": [["functional", "renyi"]]}),
    "wehrl": (["wehrl", "--a0", "0.5", "--samples", "1", "--seed", "2", "--grid-radius", "6",
               "--grid-step", "0.3", "--f", "renyi", "--p", "3", "--probe-dim", "4",
               "--threads", "1", "--csv", "{tmp}/rows.csv"],
              {"samples": 1, "seed": 2, "grid_radius": 6.0, "grid_step": 0.3, "p": 3.0,
               "threads": 1, "extra": [["a0", 0.5], ["functional", "renyi"],
                                       ["probe_dim", 4]]}),
    "berezinlieb": (["berezinlieb", "--c", "2", "--a0", "0.5", "--a0p", "1.0",
                     "--probe", "fock1", "--f", "renyi", "--p", "3", "--cutoff", "128",
                     "--grid-radius", "12", "--grid-step", "0.3",
                     "--field-csv", "{tmp}/field.csv"],
                    {"p": 3.0, "cutoff": 128, "grid_radius": 12.0, "grid_step": 0.3,
                     "extra": [["c", 2.0], ["a0", 0.5], ["a0p", 1.0], ["probe", "fock1"],
                               ["functional", "renyi"]]}),
    "selftest": (["selftest", "--scale", "0.05", "--quiet"], {"extra": [["scale", 0.05]]}),
}

# The minimal command line of each subcommand that has no --threads option.
NO_THREADS_ARGV = {
    "validate": ["validate", "{amp15}"],
    "classify": ["classify", "{amp15}"],
    "decompose": ["decompose", "{amp15}"],
    "entropy": ["entropy", "{amp15}"],
    "purity": ["purity", "{amp15}", "--p", "2"],
    "strictgap": ["strictgap", "{amp15}"],
    "berezinlieb": ["berezinlieb", "--c", "2", "--grid-step", "0.3"],
    "selftest": ["selftest", "--scale", "0.05", "--quiet"],
}

# The commands whose concave functional is --f vn or --f renyi with order --p.
FUNCTIONAL_ARGV = {
    "strictgap": ["strictgap", "{amp15}"],
    "wehrl": ["wehrl", "--samples", "1", "--seed", "1", "--grid-step", "0.3"],
    "berezinlieb": ["berezinlieb", "--c", "2", "--grid-step", "0.3"],
}


def _filled(value, paths):
    if isinstance(value, str):
        return value.format(**paths)
    if isinstance(value, (list, tuple)):
        return [_filled(v, paths) for v in value]
    if isinstance(value, dict):
        return {k: _filled(v, paths) for k, v in value.items()}
    return value


class TestConfigEcho:
    @pytest.mark.parametrize("command", sorted(FULL_ARGV))
    def test_echo_is_the_parsed_options(self, tmp_path, files, command):
        paths = dict(files, tmp=str(tmp_path))
        argv, expected = _filled(FULL_ARGV[command], paths)
        code, report = run_to_file(tmp_path, argv)
        assert code in (0, 2) and report is not None
        assert report["config"] == dict(expected, command=command,
                                        output=str(tmp_path / "report.json"))

    def test_every_subcommand_is_covered(self):
        assert set(FULL_ARGV) == set(cli._HANDLERS)

    @pytest.mark.parametrize("command", sorted(FUNCTIONAL_ARGV))
    def test_renyi_order_is_echoed(self, tmp_path, files, command):
        argv = _filled(FUNCTIONAL_ARGV[command], files) + ["--f", "renyi"]
        configs = [run_to_file(tmp_path, argv + ["--p", p])[1]["config"] for p in ("2", "3")]
        assert [config["p"] for config in configs] == [2.0, 3.0]

    @pytest.mark.parametrize("command", sorted(FUNCTIONAL_ARGV))
    def test_von_neumann_echoes_no_order(self, tmp_path, files, command):
        argv = _filled(FUNCTIONAL_ARGV[command], files) + ["--f", "vn", "--p", "3"]
        config = run_to_file(tmp_path, argv)[1]["config"]
        assert "p" not in config
        assert ["functional", "vn"] in config["extra"]

    @pytest.mark.parametrize("command", sorted(NO_THREADS_ARGV))
    def test_no_thread_count_without_threads_option(self, monkeypatch, tmp_path, files,
                                                    command):
        monkeypatch.setenv("GAUSSLAB_THREADS", "3")
        code, report = run_to_file(tmp_path, _filled(NO_THREADS_ARGV[command], files))
        assert code == 0
        assert "threads" not in report["config"]


class TestSweepCommands:
    def test_majorize_passes_and_is_deterministic(self, tmp_path, files):
        argv = ["majorize", files["amp15"], "--samples", "12", "--seed", "7",
                "--cutoff", "40"]
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert cli.run(argv + ["--out", str(out1)]) == 0
        assert cli.run(argv + ["--out", str(out2)]) == 0
        a = out1.read_bytes().replace(b"r1.json", b"X")
        b = out2.read_bytes().replace(b"r2.json", b"X")
        assert a == b

    def test_majorize_csv_rows(self, tmp_path, files):
        csv_path = tmp_path / "rows.csv"
        code = cli.run(["majorize", files["att07"], "--samples", "6", "--seed", "3",
                        "--csv", str(csv_path), "--out", str(tmp_path / "r.json")])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "seed,input,functional,value,gap,leakage"
        assert len(lines) > 6

    def test_additivity(self, tmp_path, files):
        code, report = run_to_file(tmp_path, [
            "additivity", files["amp_sqrt2"], files["amp_sqrt2"],
            "--p", "2", "--samples", "6", "--seed", "11"])
        assert code == 0
        assert report["results"]["bound"] == pytest.approx(1 / 9, abs=1e-9)

    def test_strictgap(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["strictgap", files["amp15"]])
        assert code == 0
        assert report["results"]["condition_b"] is True
        assert report["results"]["min_gap"] > 1e-4

    def test_wehrl_coarse_grid(self, tmp_path, files):
        code, report = run_to_file(tmp_path, [
            "wehrl", "--samples", "6", "--seed", "4",
            "--grid-step", "0.1", "--probe-dim", "10"])
        assert code == 0
        assert report["results"]["coherent_value"] == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("a0,radius", [("0.5", 6.0), ("1.0", 6.0 * np.sqrt(1.5))])
    def test_wehrl_default_radius_meets_the_tail_budget(self, tmp_path, a0, radius):
        # R = 6 sqrt(a0 + 1/2) gives every a0 the tail margin of R = 6 at a0 = 1/2;
        # at a0 = 1 and R = 6, probe-dim 16 is over budget (TailMassTooLarge)
        argv = ["wehrl", "--a0", a0, "--samples", "2", "--seed", "1", "--grid-step", "0.1"]
        code, report = run_to_file(tmp_path, argv)
        assert code == 0
        assert report["config"]["grid_radius"] == radius
        assert report["leakage"]["max_tail_mass"] <= 1e-4
        assert run_to_file(tmp_path, argv + ["--grid-radius", "6"])[0] == (0 if a0 == "0.5" else 2)

    def test_berezinlieb(self, tmp_path, files):
        code, report = run_to_file(tmp_path, [
            "berezinlieb", "--c", "1.5", "--probe", "fock1",
            "--grid-step", "0.1", "--cutoff", "96"])
        assert code == 0
        res = report["results"]
        assert res["lower"] <= res["middle"] + 1e-3
        assert res["middle"] <= res["upper"] + 1e-3
        assert res["convolution_deviation"] <= 2e-3

    def test_berezinlieb_field_csv_on_default_grid(self, tmp_path):
        # the CSV is the upper symbol the sandwich integrated, at its nodes
        # c z; for the vacuum probe sigma is thermal with N = c^2, whose
        # vacuum-reference density is exp(-|w|^2 / (N + 1)) / (N + 1)
        c, csv_path = 1.5, tmp_path / "field.csv"
        code, report = run_to_file(tmp_path, ["berezinlieb", "--c", str(c), "--probe", "vacuum",
                                              "--grid-step", "0.1", "--field-csv", str(csv_path)])
        assert code == 0 and report["pass"] is True
        x, y, p = np.loadtxt(csv_path, delimiter=",", skiprows=1).T
        assert np.abs(x).max() == pytest.approx(6.0 * c)
        assert np.abs(p - np.exp(-(x ** 2 + y ** 2) / (c ** 2 + 1)) / (c ** 2 + 1)).max() < 1e-12

    def test_seed_is_mandatory(self, files):
        assert cli.run(["majorize", files["att07"], "--samples", "4"]) == 1

    def test_majorize_counts_retries_once(self, tmp_path, files):
        # at cutoff 35 some support-4 samples leave amplifier(1.5) outputs
        # above the leakage budget, so the sweep redraws them
        code, report = run_to_file(tmp_path, ["majorize", files["amp15"], "--samples", "6",
                                              "--seed", "1", "--cutoff", "35"])
        assert code == 0
        sweep = mj.majorization_sweep(amplifier_channel(1.5), n_samples=6, seed=1, cutoff=35)
        assert sweep.rejected >= 1
        assert report["leakage"]["rejected"] == sweep.rejected

    def test_majorize_computes_each_output_spectrum_once(self, monkeypatch, tmp_path, files):
        # the vacuum, the four probes and the six draws go through the channel
        # as one batch: one apply and one stacked spectrum; each redraw round
        # is one more batch, of the draws still over the leakage budget; the
        # functionals and the partial sums both reduce those same spectra
        applies, spectra = [], []
        apply, spectrum = fock.FockChannel.apply, fock.spectrum

        def counted_apply(self, states):
            applies.append(len(states))
            return apply(self, states)

        def counted_spectrum(rho):
            out = spectrum(rho)
            spectra.append(len(out))
            return out

        monkeypatch.setattr(fock.FockChannel, "apply", counted_apply)
        monkeypatch.setattr(fock, "spectrum", counted_spectrum)
        rows = tmp_path / "rows.csv"
        code, report = run_to_file(tmp_path, ["majorize", files["amp15"], "--samples", "6",
                                              "--seed", "1", "--cutoff", "35",
                                              "--csv", str(rows)])
        assert code == 0
        # a redrawn label is haar[seed,index,retry]
        labels = {row["input"] for row in csv.DictReader(rows.read_text().splitlines())
                  if row["input"].startswith("haar[")}
        retries = [int(label[:-1].split(",")[2]) if label.count(",") == 2 else 0
                   for label in labels]
        assert len(retries) == 6 and max(retries) >= 2
        assert applies == spectra
        assert len(applies) == 1 + max(retries)
        assert applies[0] == 1 + 4 + 6
        assert applies[1:] == [sum(r >= k for r in retries) for k in range(1, max(retries) + 1)]
        assert sum(applies[1:]) == report["leakage"]["rejected"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_majorize_exits_two_when_a_sample_exhausts_its_retries(self, tmp_path, capsys,
                                                                   files, threads):
        # at cutoff 10 every draw of sample 0 through amplifier(1.5) leaks
        code, report = run_to_file(tmp_path, ["majorize", files["amp15"], "--samples", "3",
                                              "--seed", "1", "--cutoff", "10",
                                              "--threads", threads])
        assert code == 2 and report is None
        assert ("TruncationLeakage: sample (1, 0) exceeded leakage budget 1.0e-06 after 8 "
                "retries") in capsys.readouterr().err

    def test_berezinlieb_applies_the_channel_and_evaluates_rescaled_nodes_once(
            self, monkeypatch, tmp_path):
        # the sandwich and the convolution identity reduce one set of fields:
        # one measure-reprepare application and one evaluation of its output
        # (the only mixed state of the verdict) at the rescaled nodes
        applies, output_evals = [], []
        apply, values = fock.FockChannel.apply, hu.husimi_values

        def counted_apply(self, rho):
            applies.append(1)
            return apply(self, rho)

        def counted_values(state, ref, z_nodes):
            if isinstance(state, fock.FockOperator):
                output_evals.append(1)
            return values(state, ref, z_nodes)

        monkeypatch.setattr(fock.FockChannel, "apply", counted_apply)
        monkeypatch.setattr(hu, "husimi_values", counted_values)
        code, _ = run_to_file(tmp_path, ["berezinlieb", "--c", "2", "--probe", "fock1",
                                         "--grid-step", "0.2", "--cutoff", "96"])
        assert code == 0
        assert (len(applies), len(output_evals)) == (1, 1)

    def test_berezinlieb_eigensolves_its_output_once(self, monkeypatch, tmp_path):
        # the output sigma is eigensolved once, for its spectrum; its density
        # at the rescaled nodes takes none.  Building the channel checks its
        # one-mode (K, mu) algebra by 1 x 1 eigvalsh calls, left out here.
        shapes = {"eigh": [], "eigvalsh": []}
        for name, seen in shapes.items():
            def counted(a, *args, _solver=getattr(np.linalg, name), _seen=seen, **kwargs):
                _seen.append(np.shape(a))
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        code, _ = run_to_file(tmp_path, ["berezinlieb", "--c", "2", "--probe", "coherent:0.7",
                                         "--grid-step", "0.2"])
        assert code == 0
        fock_space = {name: len([s for s in seen if s != (1, 1)]) for name, seen in shapes.items()}
        assert fock_space == {"eigh": 0, "eigvalsh": 1}

    def test_wehrl_evaluates_all_inputs_in_one_call(self, monkeypatch, tmp_path):
        # the vacuum, two Fock probes and three samples form one group: one
        # evaluation, and one column build per chunk of the default grid's
        # wedge 0 <= y <= x, whose 7381 nodes fit in one chunk
        values_calls, column_nodes = [], []
        values, columns = hu.husimi_values, hu._coherent_columns

        def counted_values(state, ref, z_nodes):
            values_calls.append(1)
            return values(state, ref, z_nodes)

        def counted_columns(z_flat, dim):
            column_nodes.append(z_flat.size)
            return columns(z_flat, dim)

        monkeypatch.setattr(hu, "husimi_values", counted_values)
        monkeypatch.setattr(hu, "_coherent_columns", counted_columns)
        code, _ = run_to_file(tmp_path, ["wehrl", "--a0", "0.5", "--samples", "3",
                                         "--seed", "1"])
        assert code == 0
        wedge = 121 * 122 // 2  # offsets 0 <= b <= a <= 120 from the centre
        assert wedge == 7381 <= hu.NODE_CHUNK
        assert (len(values_calls), column_nodes) == (1, [wedge])

    def test_wehrl_results_do_not_depend_on_threads(self, tmp_path):
        # 3 + 9 inputs are two chunks, evaluated concurrently on two threads
        reports = [run_to_file(tmp_path, ["wehrl", "--a0", "0.5", "--samples", "9",
                                          "--seed", "4", "--grid-step", "0.1",
                                          "--threads", threads])
                   for threads in ("1", "2")]
        assert [code for code, _ in reports] == [0, 0]
        assert reports[0][1]["results"] == reports[1][1]["results"]
        assert reports[0][1]["leakage"] == reports[1][1]["leakage"]

    def test_threads_env_fallback(self, monkeypatch, tmp_path, files):
        monkeypatch.setenv("GAUSSLAB_THREADS", "3")
        code, report = run_to_file(tmp_path, ["majorize", files["att07"],
                                              "--samples", "4", "--seed", "2"])
        assert code == 0
        assert report["config"]["threads"] == 3


    @pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
    def test_threads_env_must_be_a_positive_integer(self, monkeypatch, tmp_path, files, value):
        monkeypatch.setenv("GAUSSLAB_THREADS", value)
        code, report = run_to_file(tmp_path, ["majorize", files["att07"],
                                              "--samples", "2", "--seed", "1"])
        assert (code, report) == (1, None)

    def test_empty_threads_env_means_one(self, monkeypatch, tmp_path, files):
        monkeypatch.setenv("GAUSSLAB_THREADS", "")
        code, report = run_to_file(tmp_path, ["majorize", files["att07"],
                                              "--samples", "2", "--seed", "1"])
        assert (code, report["config"]["threads"]) == (0, 1)


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys, tmp_path, files):
        monkeypatch.delenv("GAUSSLAB_THREADS", raising=False)
        cli._build_parser.cache_clear()
        try:
            assert run_to_file(tmp_path, ["majorize", files["att07"], "--samples", "2",
                                          "--seed", "1"])[1]["config"]["threads"] == 1
            # the environment is read when a command runs, not when the parser is built
            monkeypatch.setenv("GAUSSLAB_THREADS", "3")
            assert run_to_file(tmp_path, ["majorize", files["att07"], "--samples", "2",
                                          "--seed", "1"])[1]["config"]["threads"] == 3
            assert run_to_file(tmp_path, ["majorize", files["att07"], "--samples", "2",
                                          "--seed", "1", "--threads", "2"]
                               )[1]["config"]["threads"] == 2
            capsys.readouterr()
            assert cli.run(["majorize", files["att07"], "--seed", "1"]) == 1
            assert capsys.readouterr().out == ""  # a parse error writes no report
            assert cli.run(["--help"]) == 0
            info = cli._build_parser.cache_info()
            assert (info.misses, info.hits) == (1, 4)  # five runs, one build
        finally:
            cli._build_parser.cache_clear()


class TestArgumentBounds:
    """Out-of-range sizes are usage errors (exit 1) and write no report."""

    def test_majorize_negative_samples(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["majorize", files["att07"], "--samples", "-3",
                                              "--seed", "1"])
        assert (code, report) == (1, None)

    def test_additivity_zero_samples(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["additivity", files["amp_sqrt2"],
                                              files["amp_sqrt2"], "--samples", "0",
                                              "--seed", "1"])
        assert (code, report) == (1, None)

    def test_wehrl_zero_samples(self, tmp_path):
        code, report = run_to_file(tmp_path, ["wehrl", "--samples", "0", "--seed", "1"])
        assert (code, report) == (1, None)

    def test_majorize_cutoff_one(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["majorize", files["att07"], "--samples", "2",
                                              "--seed", "1", "--cutoff", "1"])
        assert (code, report) == (1, None)

    # a one-mode sweep's probes set its smallest cutoff: fock(2) for majorize,
    # a coherent(0.7) state that keeps its norm for strictgap

    @pytest.mark.parametrize("command,low", [("majorize", 3), ("strictgap", 9)])
    def test_one_mode_cutoff_below_the_probes(self, tmp_path, capsys, files, command, low):
        argv = [command, files["att07"], "--cutoff", str(low - 1)]
        if command == "majorize":
            argv += ["--samples", "1", "--seed", "1"]
        code, report = run_to_file(tmp_path, argv)
        assert (code, report) == (1, None)
        assert f"{command} needs --cutoff >= {low} for a one-mode channel" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command,low", [("majorize", 3), ("strictgap", 9)])
    def test_one_mode_cutoff_at_the_probes(self, tmp_path, files, command, low):
        argv = [command, files["att07"], "--cutoff", str(low)]
        if command == "majorize":
            argv += ["--samples", "1", "--seed", "1", "--support", "1"]
        code, report = run_to_file(tmp_path, argv)
        assert code == 0 and report["pass"] is True
        assert report["config"]["cutoff"] == low

    def test_majorize_zero_support(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["majorize", files["att07"], "--samples", "2",
                                              "--seed", "1", "--support", "0"])
        assert (code, report) == (1, None)

    # a --cutoff whose Fock dimension (cutoff ** modes) exceeds fock.DIM_GUARD

    def test_majorize_cutoff_above_dimension_guard(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["majorize", files["att07"], "--samples", "2",
                                              "--seed", "1", "--cutoff", "5000"])
        assert (code, report) == (1, None)

    def test_two_mode_majorize_cutoff_above_dimension_guard(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["majorize", files["pair"], "--samples", "1",
                                              "--seed", "1", "--cutoff", "65"])
        assert (code, report) == (1, None)

    def test_additivity_cutoff_above_dimension_guard(self, tmp_path, files):
        code, report = run_to_file(tmp_path, ["additivity", files["amp_sqrt2"],
                                              files["amp_sqrt2"], "--samples", "1",
                                              "--seed", "1", "--cutoff", "70"])
        assert (code, report) == (1, None)


    # phase-space arguments: out of range, not finite or not a number

    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_wehrl_probe_dim(self, tmp_path, value):
        code, report = run_to_file(tmp_path, ["wehrl", "--samples", "1", "--seed", "1",
                                              "--probe-dim", value])
        assert (code, report) == (1, None)

    @pytest.mark.parametrize("value", ["nan", "0.3", "inf"])
    def test_wehrl_a0(self, tmp_path, value):
        code, report = run_to_file(tmp_path, ["wehrl", "--samples", "1", "--seed", "1",
                                              "--a0", value])
        assert (code, report) == (1, None)

    @pytest.mark.parametrize("value", ["nan", "0", "-2", "inf"])
    def test_berezinlieb_c(self, tmp_path, value):
        code, report = run_to_file(tmp_path, ["berezinlieb", "--c", value])
        assert (code, report) == (1, None)

    @pytest.mark.parametrize("value", ["0.49", "nan"])
    def test_berezinlieb_a0p(self, tmp_path, value):
        code, report = run_to_file(tmp_path, ["berezinlieb", "--c", "2", "--a0p", value])
        assert (code, report) == (1, None)

    @pytest.mark.parametrize("command", ["wehrl", "berezinlieb"])
    @pytest.mark.parametrize("value", ["0", "-0.1", "nan"])
    def test_grid_step(self, tmp_path, command, value):
        argv = [command, "--samples", "1", "--seed", "1"] if command == "wehrl" else [
            command, "--c", "2"]
        code, report = run_to_file(tmp_path, argv + ["--grid-step", value])
        assert (code, report) == (1, None)

    @pytest.mark.parametrize("command", ["wehrl", "berezinlieb"])
    @pytest.mark.parametrize("value", ["0", "-6", "inf"])
    def test_grid_radius(self, tmp_path, command, value):
        argv = [command, "--samples", "1", "--seed", "1"] if command == "wehrl" else [
            command, "--c", "2"]
        code, report = run_to_file(tmp_path, argv + ["--grid-radius", value])
        assert (code, report) == (1, None)

    @pytest.mark.parametrize("probe", ["coherent:abc", "coherent:30", "coherent:nan",
                                       "squeezed"])
    def test_berezinlieb_probe(self, tmp_path, probe):
        code, report = run_to_file(tmp_path, ["berezinlieb", "--c", "2", "--probe", probe,
                                              "--grid-step", "0.2"])
        assert (code, report) == (1, None)

    # tolerances, Renyi orders, thread counts and the selftest scale

    @pytest.mark.parametrize("value", ["nan", "-1e-3", "inf"])
    @pytest.mark.parametrize("command", ["validate", "classify", "decompose"])
    def test_tolerance(self, tmp_path, files, command, value):
        # the channel is invalid; every comparison with a NaN tolerance is false
        code, report = run_to_file(tmp_path, [command, files["invalid"], f"--tol={value}"])
        assert (code, report) == (1, None)

    @pytest.mark.parametrize("value", ["1", "0.5", "nan", "inf"])
    @pytest.mark.parametrize("command", ["purity", "entropy", "additivity", "strictgap",
                                         "wehrl", "berezinlieb"])
    def test_renyi_order(self, tmp_path, files, command, value):
        argv = {
            "purity": ["purity", files["amp15"]],
            "entropy": ["entropy", files["amp15"]],
            "additivity": ["additivity", files["amp_sqrt2"], files["amp_sqrt2"],
                           "--samples", "1", "--seed", "1"],
            "strictgap": ["strictgap", files["amp15"], "--f", "renyi"],
            "wehrl": ["wehrl", "--samples", "1", "--seed", "1", "--f", "renyi"],
            "berezinlieb": ["berezinlieb", "--c", "2", "--f", "renyi"],
        }[command]
        code, report = run_to_file(tmp_path, argv + ["--p", value])
        assert (code, report) == (1, None)

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("command", ["majorize", "additivity", "wehrl"])
    def test_threads(self, tmp_path, files, command, value):
        argv = {
            "majorize": ["majorize", files["att07"]],
            "additivity": ["additivity", files["amp_sqrt2"], files["amp_sqrt2"]],
            "wehrl": ["wehrl"],
        }[command]
        code, report = run_to_file(tmp_path, argv + ["--samples", "1", "--seed", "1",
                                                     "--threads", value])
        assert (code, report) == (1, None)

    @pytest.mark.parametrize("value", ["-1", "-7", "1.5"])
    @pytest.mark.parametrize("command", ["majorize", "additivity", "wehrl"])
    def test_seed(self, tmp_path, files, command, value):
        # NumPy takes non-negative seeds only
        argv = {
            "majorize": ["majorize", files["att07"]],
            "additivity": ["additivity", files["amp_sqrt2"], files["amp_sqrt2"]],
            "wehrl": ["wehrl"],
        }[command]
        code, report = run_to_file(tmp_path, argv + ["--samples", "1", "--seed", value])
        assert (code, report) == (1, None)

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_selftest_scale(self, tmp_path, value):
        code, report = run_to_file(tmp_path, ["selftest", "--quiet", "--scale", value])
        assert (code, report) == (1, None)


class TestImport:
    def test_cli_does_not_import_scipy(self):
        # the runtime needs NumPy only; importing SciPy would about triple the
        # start-up time of every process
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import sys, gausslab.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestSelftest:
    def test_reduced_selftest_passes_and_repeats_identically(self, tmp_path):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        assert cli.run(["selftest", "--scale", "0.05", "--quiet",
                        "--out", str(out1)]) == 0
        assert cli.run(["selftest", "--scale", "0.05", "--quiet",
                        "--out", str(out2)]) == 0
        a = out1.read_bytes().replace(b"s1.json", b"X")
        b = out2.read_bytes().replace(b"s2.json", b"X")
        assert a == b
        report = json.loads(out1.read_text())
        assert report["results"]["all_pass"] is True
        assert len(report["results"]["criteria"]) == 11
