"""End-to-end command-line tests: every subcommand, the full file-based
chain, determinism, and exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flavourasym.analysis import read_counts, read_spectrum
from flavourasym.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                             fixture_path, main)


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    assert main(["init-config", "--out", str(path), "--seed", "3"]) == EXIT_OK
    # shrink the response sample so the chain stays fast
    text = path.read_text().replace("n_response_mc = 400000",
                                    "n_response_mc = 60000")
    path.write_text(text)
    return path


class TestInitConfig:
    def test_seed_zero_is_kept(self, tmp_path):
        path = tmp_path / "run.cfg"
        assert main(["init-config", "--out", str(path),
                     "--seed", "0"]) == EXIT_OK
        assert "\nseed = 0\n" in path.read_text()
        text = path.read_text().replace("n_signal = 7815", "n_signal = 2000")
        path.write_text(text)
        events = tmp_path / "events.csv"
        assert main(["generate", "--config", str(path),
                     "--out", str(events)]) == EXIT_OK
        log = json.loads((tmp_path / "events.csv.log").read_text())
        assert log["inputs"]["seed"] == 0

    def test_flags_a_command_does_not_read_are_rejected(self, tmp_path):
        assert main(["reproduce", "--out",
                     str(tmp_path / "x")]) == EXIT_VALIDATION
        assert main(["analyze", "--seed", "3", "events.csv"]) == EXIT_VALIDATION


class TestCurves:
    def test_writes_rows_and_log(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["curves", "--out", str(out), "--step", "0.5"]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "dt,A_QM,A_SD,PS_min,PS_max"
        assert len(lines) == 1 + 41
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(1.0)          # A_QM(0)
        assert first[2] == pytest.approx(0.8122, abs=1e-3)
        log = json.loads((tmp_path / "c.csv.log").read_text())
        assert log["inputs"]["dm"] == 0.507

    def test_no_sidecar_next_to_a_device(self, tmp_path):
        sink = tmp_path / "sink"
        sink.symlink_to(os.devnull)
        assert main(["curves", "--out", str(sink)]) == EXIT_OK
        assert not (tmp_path / "sink.log").exists()

    def test_bad_step_is_validation_error(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["curves", "--out", str(out),
                     "--step", "-1"]) == EXIT_VALIDATION


class TestGenerate:
    def test_deterministic(self, tmp_path, cfg_path, assert_same_lines):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["generate", "--config", str(cfg_path),
                         "--out", str(out)]) == EXIT_OK
        assert_same_lines(a.read_bytes(), b.read_bytes())

    def test_seed_override_changes_events(self, tmp_path, cfg_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(a)]) == EXIT_OK
        assert main(["generate", "--config", str(cfg_path), "--seed", "99",
                     "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() != b.read_bytes()

    def test_missing_config(self):
        assert main(["generate"]) == EXIT_VALIDATION

    def test_multi_stream_config_is_exit_2(self, tmp_path, cfg_path):
        text = cfg_path.read_text().replace("seed = 3\n",
                                            "seed = 3\nstreams = 2\n")
        cfg_path.write_text(text)
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "events.csv")]) == EXIT_VALIDATION


class TestChain:
    def test_generate_analyze_unfold_fit(self, tmp_path, cfg_path):
        events = tmp_path / "events.csv"
        spectrum = tmp_path / "spectrum.csv"
        unfolded = tmp_path / "unfolded.csv"
        report = tmp_path / "fit.txt"
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(events)]) == EXIT_OK
        assert main(["analyze", "--config", str(cfg_path), str(events),
                     "--out", str(spectrum)]) == EXIT_OK
        counts_file = tmp_path / "spectrum.counts.csv"
        assert counts_file.is_file()
        counts = read_counts(counts_file)
        assert counts.n_of.sum() + counts.n_sf.sum() == pytest.approx(
            7815.0, rel=0.05)
        assert main(["unfold", "--config", str(cfg_path), str(counts_file),
                     "--out", str(unfolded)]) == EXIT_OK
        spec = read_spectrum(unfolded)
        assert np.all(np.isfinite(spec.a))
        assert np.all(spec.stat_err > 0)
        # trained responses are persisted next to the output
        assert (tmp_path / "unfolded.resp_of.csv").is_file()
        assert (tmp_path / "unfolded.resp_sf.csv").is_file()
        assert main(["fit", str(unfolded), "--config", str(cfg_path),
                     "--out", str(report)]) == EXIT_OK
        text = report.read_text()
        assert "QM" in text and "significance matrix" in text

    def test_unfold_with_saved_responses(self, tmp_path, cfg_path):
        events = tmp_path / "events.csv"
        spectrum = tmp_path / "spectrum.csv"
        main(["generate", "--config", str(cfg_path), "--out", str(events)])
        main(["analyze", "--config", str(cfg_path), str(events),
              "--out", str(spectrum)])
        counts_file = tmp_path / "spectrum.counts.csv"
        first = tmp_path / "u1.csv"
        main(["unfold", "--config", str(cfg_path), str(counts_file),
              "--out", str(first)])
        second = tmp_path / "u2.csv"
        assert main(["unfold", "--config", str(cfg_path), str(counts_file),
                     "--response-of", str(tmp_path / "u1.resp_of.csv"),
                     "--response-sf", str(tmp_path / "u1.resp_sf.csv"),
                     "--out", str(second)]) == EXIT_OK
        # the response files hold integer counts written exactly, so the
        # saved responses reproduce the trained ones bit for bit
        assert second.read_bytes() == first.read_bytes()

    def test_analyze_missing_events_file(self, tmp_path, cfg_path):
        assert main(["analyze", "--config", str(cfg_path),
                     str(tmp_path / "nope.csv")]) == EXIT_VALIDATION

    def test_unfold_rank_beyond_bins(self, tmp_path, cfg_path):
        text = cfg_path.read_text().replace("rank_of = 5", "rank_of = 40")
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        events = tmp_path / "events.csv"
        spectrum = tmp_path / "spectrum.csv"
        main(["generate", "--config", str(cfg_path), "--out", str(events)])
        main(["analyze", "--config", str(cfg_path), str(events),
              "--out", str(spectrum)])
        assert main(["unfold", "--config", str(bad),
                     str(tmp_path / "spectrum.counts.csv")]) == EXIT_VALIDATION


def chain_files(tmp_path, cfg_path):
    """Run generate and analyze; return the events, counts and spectrum."""
    events = tmp_path / "events.csv"
    spectrum = tmp_path / "spectrum.csv"
    assert main(["generate", "--config", str(cfg_path),
                 "--out", str(events)]) == EXIT_OK
    assert main(["analyze", "--config", str(cfg_path), str(events),
                 "--out", str(spectrum)]) == EXIT_OK
    return events, tmp_path / "spectrum.counts.csv", spectrum


class TestMalformedInputs:
    """Malformed input files end in exit code 2, not a traceback or a
    result computed from bad numbers."""

    def test_truncated_counts_row(self, tmp_path, cfg_path):
        _, counts, _ = chain_files(tmp_path, cfg_path)
        lines = counts.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 2)[0]
        counts.write_text("\n".join(lines) + "\n")
        assert main(["unfold", "--config", str(cfg_path),
                     str(counts)]) == EXIT_VALIDATION

    def test_nan_in_spectrum(self, tmp_path, capsys):
        lines = fixture_path().read_text().splitlines()
        fields = lines[3].split(",")
        fields[3] = "nan"
        lines[3] = ",".join(fields)
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(spectrum)]) == EXIT_VALIDATION
        assert "nan" not in capsys.readouterr().out.lower()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_error_in_spectrum(self, tmp_path, capsys):
        # a finite stat error whose square overflows makes the total error
        # inf; the fit must reject it, without an overflow warning, not
        # divide by it and report chi2
        lines = fixture_path().read_text().splitlines()
        fields = lines[1].split(",")
        fields[4] = "1e300"                               # bin 1 stat
        lines[1] = ",".join(fields)
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(spectrum)]) == EXIT_VALIDATION
        assert "chi2" not in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    def test_overflowing_asymmetry_in_spectrum(self, tmp_path, capsys):
        # a finite asymmetry whose squared pull overflows is a numerical
        # failure, without an overflow warning
        lines = fixture_path().read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = "1e200"                               # bin 1 a
        lines[1] = ",".join(fields)
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(spectrum)]) == EXIT_NUMERICAL
        assert "chi2" not in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column", [4, 6], ids=["var_of", "var_sf"])
    def test_negative_variance_in_counts(self, small_chain, column, capsys):
        # read as given, the variance reached a sqrt in unfold
        d, files = small_chain
        lines = files["counts"].read_text().splitlines()
        fields = lines[3].split(",")
        fields[column] = "-16465.0"
        lines[3] = ",".join(fields)
        bad = d / "negative_variance.counts.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(_command(d, "counts", str(bad))) == EXIT_VALIDATION
        assert "negative variance" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("total", ["1e300", "4.09e103"])
    def test_huge_response_total(self, small_chain, total, capsys):
        # a finite truth total that overflows the unfolding is a numerical
        # failure, without an overflow warning; at 4.09e103 only the debias
        # term overflows, which used to exit 0 with that term dropped
        d, files = small_chain
        lines = files["response"].read_text().splitlines()
        head, values = lines[1].split("=")
        totals = values.split(",")
        totals[3] = total
        lines[1] = head + "=" + ",".join(totals)
        bad = d / "huge_total.resp_of.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(_command(d, "response", str(bad))) == EXIT_NUMERICAL
        assert "overflow" in capsys.readouterr().err

    def test_unknown_event_class(self, tmp_path, cfg_path):
        events, _, _ = chain_files(tmp_path, cfg_path)
        lines = events.read_text().splitlines()
        fields = lines[1].split(",")
        fields[6] = "XX"                                  # cls_assigned
        lines[1] = ",".join(fields)
        events.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--config", str(cfg_path), str(events),
                     "--out", str(tmp_path / "s.csv")]) == EXIT_VALIDATION


@pytest.fixture(scope="module")
def small_chain(tmp_path_factory):
    """A valid config, event, counts, spectrum and response file set."""
    d = tmp_path_factory.mktemp("chain")
    cfg = d / "run.cfg"
    assert main(["init-config", "--out", str(cfg), "--seed", "5"]) == EXIT_OK
    cfg.write_text(cfg.read_text()
                   .replace("n_signal = 7815", "n_signal = 3000")
                   .replace("n_response_mc = 400000", "n_response_mc = 20000"))
    events, counts, spectrum = chain_files(d, cfg)
    assert main(["unfold", "--config", str(cfg), str(counts),
                 "--out", str(d / "unfolded.csv")]) == EXIT_OK
    return d, {"events": events, "counts": counts, "spectrum": spectrum,
               "response": d / "unfolded.resp_of.csv"}


def _command(d, kind, bad):
    cfg, files = str(d / "run.cfg"), str(d / "out.csv")
    if kind == "events":
        return ["analyze", "--config", cfg, bad, "--out", files]
    if kind == "counts":
        return ["unfold", "--config", cfg, bad, "--out", files,
                "--response-of", str(d / "unfolded.resp_of.csv"),
                "--response-sf", str(d / "unfolded.resp_sf.csv")]
    if kind == "response":
        return ["unfold", "--config", cfg, str(d / "spectrum.counts.csv"),
                "--out", files, "--response-of", bad,
                "--response-sf", str(d / "unfolded.resp_sf.csv")]
    return ["fit", bad, "--config", cfg, "--models", "QM,SD"]


BAD_FIELDS = st.sampled_from(["", "nan", "inf", "-1e999", "x", "-1", "0",
                              "1e300", "OF", "SF", "XX", "signal", "1.5",
                              "# class=OF"]) | st.floats().map(repr)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_corrupted_files_exit_cleanly(small_chain, data):
    d, files = small_chain
    kind = data.draw(st.sampled_from(sorted(files)))
    text = files[kind].read_text()
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text)))]
    else:
        lines = text.split("\n")
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(lines) - 1))
            fields = lines[i].split(",")
            fields[data.draw(st.integers(0, len(fields) - 1))] = \
                data.draw(BAD_FIELDS)
            lines[i] = ",".join(fields)
        text = "\n".join(lines)
    bad = d / f"corrupt.{kind}.csv"
    bad.write_text(text)
    assert main(_command(d, kind, str(bad))) in (
        EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)


class TestFit:
    def test_fixture_fit_report(self, tmp_path, capsys):
        assert main(["fit", str(fixture_path()),
                     "--models", "QM,DECOHERED"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "QM: dm =" in out
        assert "DECOHERED: zeta =" in out

    def test_unknown_model(self, tmp_path):
        assert main(["fit", str(fixture_path()),
                     "--models", "QM,XX"]) == EXIT_VALIDATION


class TestReproduce:
    def test_report(self, capsys):
        assert main(["reproduce"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.endswith(("PASS", "FAIL"))]
        assert len(lines) == 11
        assert sum(l.endswith("PASS") for l in lines) >= 10


class TestExitCodes:
    def test_numerical_failure_is_exit_3(self, tmp_path, cfg_path,
                                         monkeypatch):
        import flavourasym.cli as cli

        def boom(*a, **k):
            raise ArithmeticError("singular")

        monkeypatch.setattr(cli, "dsvd_unfold", boom)
        events = tmp_path / "events.csv"
        spectrum = tmp_path / "spectrum.csv"
        main(["generate", "--config", str(cfg_path), "--out", str(events)])
        main(["analyze", "--config", str(cfg_path), str(events),
              "--out", str(spectrum)])
        assert main(["unfold", "--config", str(cfg_path),
                     str(tmp_path / "spectrum.counts.csv")]) == EXIT_NUMERICAL

    def test_usage_errors_are_returned_not_raised(self, capsys):
        assert main(["fit"]) == EXIT_VALIDATION
        assert "usage:" in capsys.readouterr().err
        assert main(["--help"]) == EXIT_OK
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.skipif(shutil.which("flavourasym") is None,
                        reason="flavourasym console script not on PATH; "
                               "install with `pip install -e . "
                               "--no-build-isolation`")
    def test_console_script_installed(self, tmp_path):
        exe = shutil.which("flavourasym")
        assert exe, "console script not on PATH"
        res = subprocess.run([exe, "curves", "--out",
                              str(tmp_path / "curves.csv")],
                             capture_output=True, text=True)
        assert res.returncode == EXIT_OK

    def test_console_script_entry_point(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["flavourasym"]
        assert target == "flavourasym.cli:main"
        module, func = target.split(":")
        # what the installed wrapper does: sys.exit(main()) on sys.argv
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        res = subprocess.run([sys.executable, "-c", code, "curves", "--out",
                              str(tmp_path / "curves.csv")],
                             capture_output=True, text=True, env=env)
        assert res.returncode == EXIT_OK, res.stderr
