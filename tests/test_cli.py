"""End-to-end command-line tests: every subcommand, the full file-based
chain, determinism, and exit codes."""

import hashlib
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

from flavourasym.analysis import (AsymmetrySpectrum, Binning, read_counts,
                                  read_spectrum, write_spectrum)
from flavourasym.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                             fixture_path, main)
from flavourasym.fitkit import BinPredictor
from flavourasym.pipeline import PipelineConfig
from flavourasym.toygen import (CLASS_NAMES, CLS_OF, EVENT_DTYPE,
                                EventCategory, read_events, write_events)
from flavourasym.unfold import _digest


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

    def test_negative_seed_refused(self, tmp_path, capsys):
        # the config it would write is one every later command refuses
        path = tmp_path / "run.cfg"
        assert main(["init-config", "--out", str(path),
                     "--seed", "-1"]) == EXIT_VALIDATION
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not path.exists()

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

    @pytest.mark.parametrize("flag", ["--tau", "--dm"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_parameter_is_exit_2(self, tmp_path, capsys, flag,
                                            value):
        out = tmp_path / "c.csv"
        assert main(["curves", "--out", str(out), flag,
                     value]) == EXIT_VALIDATION
        assert (f"{flag[2:]} must be positive and finite, got {value}"
                in capsys.readouterr().err)
        assert not out.exists()

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

    def test_negative_seed_flag_refused(self, tmp_path, cfg_path, capsys):
        out = tmp_path / "events.csv"
        assert main(["generate", "--config", str(cfg_path), "--seed", "-2",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "seed must be non-negative, got -2" in capsys.readouterr().err
        assert not out.exists()

    def test_multi_stream_config_is_exit_2(self, tmp_path, cfg_path, capsys):
        text = cfg_path.read_text().replace("seed = 3\n",
                                            "seed = 3\nstreams = 2\n")
        cfg_path.write_text(text)
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "events.csv")]) == EXIT_VALIDATION
        assert "[run] streams: unknown key" in capsys.readouterr().err

    def test_misspelt_key_is_exit_2(self, tmp_path, cfg_path, capsys):
        # a misspelt key used to load, leaving rank_of at its default
        text = cfg_path.read_text()
        assert "rank_of = 5\n" in text
        cfg_path.write_text(text.replace("rank_of = 5\n", "rank_off = 3\n"))
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "events.csv")]) == EXIT_VALIDATION
        assert "[unfold] rank_off: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "events.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (("edges = 0 0.5 1", "edges = 0 nan 1"), "[binning] edges"),
        (("9 13 20", "9 13 inf"), "[binning] edges"),
        (("126 54 6 4 exp", "126 54 6 4 exp fast"),
         "[backgrounds] dstar_fake: could not convert"),
        (("126 54 6 4 exp", "126 54 6 4 gauss"),
         "[backgrounds] dstar_fake: unknown shape kind"),
        # dm = inf used to write a file in which every signal event was SF
        (("dm = 0.507", "dm = inf"), "dm must be positive and finite"),
        (("constraint_mean = 0.496", "constraint_mean = nan"),
         "constraint mean must be finite"),
        # an inf yield error used to load and fail only in analyze (exit 3)
        (("126 54 6 4 exp", "126 54 inf 4 exp"),
         "[backgrounds] dstar_fake: n_of_err must be finite"),
    ], ids=["nan_edge", "inf_edge", "tau_eff", "shape_kind", "inf_dm",
            "nan_constraint_mean", "inf_yield_error"])
    def test_bad_config_is_exit_2_naming_the_line(self, tmp_path, cfg_path,
                                                  edit, message, capsys):
        text = cfg_path.read_text()
        assert edit[0] in text
        cfg_path.write_text(text.replace(*edit))
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "events.csv")]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "events.csv").exists()


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
        assert counts.n[0].sum() + counts.n[1].sum() == pytest.approx(
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

    @pytest.mark.filterwarnings("error")
    def test_decohered_generate_repeats_and_chain_runs(self, tmp_path,
                                                       cfg_path):
        # DECOHERED draws more than the other models: its events too
        # repeat to the byte, and analyze and unfold take them
        text = cfg_path.read_text()
        assert "name = QM\n" in text and "zeta = 0\n" in text
        cfg_path.write_text(text.replace("name = QM\n", "name = DECOHERED\n")
                            .replace("zeta = 0\n", "zeta = 0.3\n"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["generate", "--config", str(cfg_path),
                         "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert main(["analyze", "--config", str(cfg_path), str(a),
                     "--out", str(tmp_path / "spectrum.csv")]) == EXIT_OK
        assert main(["unfold", "--config", str(cfg_path),
                     str(tmp_path / "spectrum.counts.csv"),
                     "--out", str(tmp_path / "unfolded.csv")]) == EXIT_OK

    def test_events_match_numpy_savetxt(self, tmp_path, cfg_path):
        # the table writer's cells against numpy's savetxt, which formats
        # each cell with Python's `%`, on the events read back
        events, again = tmp_path / "events.csv", tmp_path / "savetxt.csv"
        assert main(["generate", "--config", str(cfg_path),
                     "--out", str(events)]) == EXIT_OK
        ev = read_events(events)
        names = {"cls_true": CLASS_NAMES, "cls_assigned": CLASS_NAMES,
                 "category": [c.value for c in EventCategory]}
        cols = EVENT_DTYPE.names
        np.savetxt(again, np.rec.fromarrays(
            [np.array(names[c])[ev[c]] if c in names else ev[c]
             for c in cols], names=cols), delimiter=",",
            header=",".join(cols), comments="",
            fmt=["%s" if c in names else "%.9g" if EVENT_DTYPE[c].kind == "f"
                 else "%d" for c in cols])
        assert events.read_bytes() == again.read_bytes()

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

    def test_analyze_log_reports_overflow_and_negative_bins(self, tmp_path,
                                                            cfg_path):
        events = tmp_path / "events.csv"
        spectrum = tmp_path / "spectrum.csv"
        main(["generate", "--config", str(cfg_path), "--out", str(events)])
        ev = read_events(events)
        ev["dt_rec_ps"][0] = 25.0       # one event beyond the 20 ps window
        write_events(ev, events)
        assert main(["analyze", "--config", str(cfg_path), str(events),
                     "--out", str(spectrum)]) == EXIT_OK
        log = json.loads((tmp_path / "spectrum.csv.log").read_text())
        beyond = ev["dt_rec_ps"] > 20.0
        is_of = ev["cls_assigned"] == CLS_OF
        assert type(log["overflow_of"]) is int
        assert type(log["overflow_sf"]) is int
        assert log["overflow_of"] == np.count_nonzero(beyond & is_of)
        assert log["overflow_sf"] == np.count_nonzero(beyond & ~is_of)
        assert log["overflow_of"] + log["overflow_sf"] >= 1
        # numbered as the `bin` column of the counts file
        counts = read_counts(tmp_path / "spectrum.counts.csv")
        assert log["negative_bins"] == [
            k + 1 for k in range(counts.binning.n_bins)
            if counts.n[0, k] < 0 or counts.n[1, k] < 0]

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


@pytest.mark.parametrize("seed", [6, 11, 13, 25])
def test_paper_scale_chain_runs_past_a_degenerate_bin(tmp_path, seed):
    # at these seeds of the config init-config writes, bin 11's corrected
    # OF + SF total is <= 0: analyze reads it as 0 +- 1 and lists it in its
    # sidecar, and the chain runs on to the fits
    cfg = tmp_path / "run.cfg"
    assert main(["init-config", "--out", str(cfg),
                 "--seed", str(seed)]) == EXIT_OK
    _, counts, spectrum = chain_files(tmp_path, cfg)
    assert read_counts(counts).n[:, 10].sum() <= 0
    log = json.loads((tmp_path / "spectrum.csv.log").read_text())
    assert log["degenerate_bins"] == [11]
    spec = read_spectrum(spectrum)
    assert spec.a[10] == 0.0 and spec.stat_err[10] == 1.0
    unfolded = tmp_path / "unfolded.csv"
    assert main(["unfold", "--config", str(cfg), str(counts),
                 "--out", str(unfolded)]) == EXIT_OK
    assert main(["fit", str(unfolded), "--config", str(cfg), "--models",
                 "QM,SD,PS,DECOHERED",
                 "--out", str(tmp_path / "fit.txt")]) == EXIT_OK


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

    def test_zero_error_in_spectrum(self, tmp_path, capsys):
        # a bin whose stat and systematic errors are all zero: the fit
        # refuses it with exit code 2, for each model it is asked for
        lines = fixture_path().read_text().splitlines()
        fields = lines[2].split(",")
        fields[4:] = ["0"] * len(fields[4:])
        lines[2] = ",".join(fields)
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("\n".join(lines) + "\n")
        for models in ("QM", "PS", "QM,SD,PS,DECOHERED"):
            assert main(["fit", str(spectrum),
                         "--models", models]) == EXIT_VALIDATION
        assert "chi2" not in capsys.readouterr().out

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

    @pytest.mark.parametrize("kind", ["events", "spectrum", "counts",
                                      "response"])
    def test_non_utf8_file_named(self, small_chain, kind, capsys):
        d, files = small_chain
        bad = d / f"latin.{kind}.csv"
        bad.write_bytes(b"\xff" + files[kind].read_bytes())
        assert main(_command(d, kind, str(bad))) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff" in err

    @staticmethod
    def _analyze_edited(tmp_path, cfg_path, column, value):
        """Exit code of `analyze` on events whose first row has `value` in
        `column`."""
        events, _, _ = chain_files(tmp_path, cfg_path)
        lines = events.read_text().splitlines()
        fields = lines[1].split(",")
        fields[lines[0].split(",").index(column)] = value
        lines[1] = ",".join(fields)
        events.write_text("\n".join(lines) + "\n")
        return main(["analyze", "--config", str(cfg_path), str(events),
                     "--out", str(tmp_path / "s.csv")])

    @pytest.mark.parametrize("column", ["cls_true", "cls_assigned",
                                        "category"])
    @pytest.mark.parametrize("value", ["XX", "OFX", "signalX",
                                       "wrong_combinationX"])
    def test_unknown_event_class(self, tmp_path, cfg_path, column, value):
        # a value that extends a valid name must not be cut to that name
        assert self._analyze_edited(tmp_path, cfg_path, column,
                                    value) == EXIT_VALIDATION

    @pytest.mark.parametrize("column", ["stream", "index"])
    def test_event_integer_out_of_range(self, tmp_path, cfg_path, column):
        # 4294967297 used to wrap into int32, read back as 1 and exit 0
        assert self._analyze_edited(tmp_path, cfg_path, column,
                                    "4294967297") == EXIT_VALIDATION


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


class TestSavedResponses:
    """`unfold` refuses saved responses it would misuse (exit 2)."""

    def _unfold(self, d, resp_of, resp_sf):
        argv = ["unfold", "--config", str(d / "run.cfg"),
                str(d / "spectrum.counts.csv"), "--out", str(d / "out.csv")]
        if resp_of:
            argv += ["--response-of", str(resp_of)]
        if resp_sf:
            argv += ["--response-sf", str(resp_sf)]
        return main(argv)

    @pytest.mark.parametrize("which", ["of", "sf"])
    def test_one_flag_alone(self, small_chain, which, capsys):
        d, _ = small_chain
        path = d / f"unfolded.resp_{which}.csv"
        args = (path, None) if which == "of" else (None, path)
        assert self._unfold(d, *args) == EXIT_VALIDATION
        assert "go together" in capsys.readouterr().err

    def test_swapped_classes(self, small_chain, capsys):
        d, _ = small_chain
        assert self._unfold(d, d / "unfolded.resp_sf.csv",
                            d / "unfolded.resp_of.csv") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "class=SF response" in err and "as --response-of" in err

    def test_edges_differ_from_the_counts(self, small_chain, capsys):
        d, _ = small_chain
        lines = (d / "unfolded.resp_sf.csv").read_text().splitlines()
        assert ",0.5,1," in lines[0]
        lines[0] = lines[0].replace(",0.5,1,", ",0.6,1,")
        bad = d / "other_edges.resp_sf.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert self._unfold(d, d / "unfolded.resp_of.csv",
                            bad) == EXIT_VALIDATION
        assert "edges 0,0.6,1," in capsys.readouterr().err

    def test_one_truth_total(self, small_chain, capsys):
        # read as given, the one total was broadcast to every truth bin
        d, _ = small_chain
        lines = (d / "unfolded.resp_sf.csv").read_text().splitlines()
        assert lines[1].startswith("# truth_totals=")
        lines[1] = "# truth_totals=1e9"
        bad = d / "one_total.resp_sf.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert self._unfold(d, d / "unfolded.resp_of.csv",
                            bad) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "one_total.resp_sf.csv: truth totals of shape (1,)" in err

    @staticmethod
    def _sf_lines(d):
        return (d / "unfolded.resp_sf.csv").read_text().splitlines()

    @staticmethod
    def _written(d, name, lines):
        bad = d / name
        bad.write_text("\n".join(lines) + "\n")
        return bad

    def test_negative_entry(self, small_chain, capsys):
        d, _ = small_chain
        lines = self._sf_lines(d)
        lines[2] = "-1" + lines[2][lines[2].index(","):]
        bad = self._written(d, "negative.resp_sf.csv", lines)
        assert self._unfold(d, d / "unfolded.resp_of.csv",
                            bad) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "negative.resp_sf.csv: response entries must be" in err

    def test_efficiency_above_one(self, small_chain, capsys):
        # a truth total below the migrations of its column
        d, _ = small_chain
        lines = self._sf_lines(d)
        totals = lines[1].split(",")
        totals[3] = "1"
        lines[1] = ",".join(totals)
        bad = self._written(d, "efficiency.resp_sf.csv", lines)
        assert self._unfold(d, d / "unfolded.resp_of.csv",
                            bad) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "efficiency.resp_sf.csv: column sums exceed" in err

    def test_edges_not_increasing(self, small_chain, capsys):
        # recorded edges out of order, under the digest of those edges
        d, _ = small_chain
        lines = self._sf_lines(d)
        edges = lines[0].split("edges=")[1].replace("0,0.5,1,", "0,1,0.5,")
        digest = _digest(np.array(edges.split(","), float))
        lines[0] = f"# class=SF binning={digest} edges={edges}"
        bad = self._written(d, "unordered.resp_sf.csv", lines)
        assert self._unfold(d, d / "unfolded.resp_of.csv",
                            bad) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "unordered.resp_sf.csv: bin edges must be strictly" in err

    def test_digest_differs_from_the_edges(self, small_chain, capsys):
        d, _ = small_chain
        lines = (d / "unfolded.resp_of.csv").read_text().splitlines()
        digest = lines[0].split("binning=")[1].split()[0]
        lines[0] = lines[0].replace(digest, "0" * len(digest))
        bad = d / "other_digest.resp_of.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert self._unfold(d, bad,
                            d / "unfolded.resp_sf.csv") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "other_digest.resp_of.csv" in err
        assert "binning digest does not match the recorded edges 0,0.5," in err

    def test_config_edges_differ_from_the_counts(self, small_chain, tmp_path,
                                                 capsys):
        # responses trained on the config's edges would unfold counts
        # binned on other edges; refused before any training
        d, _ = small_chain
        cfg = tmp_path / "other_edges.cfg"
        text = (d / "run.cfg").read_text()
        assert "edges = 0 0.5 1 " in text
        cfg.write_text(text.replace("edges = 0 0.5 1 ", "edges = 0 0.6 1 "))
        out = tmp_path / "unfolded.csv"
        assert main(["unfold", "--config", str(cfg),
                     str(d / "spectrum.counts.csv"),
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "trained on edges 0,0.6,1," in err
        assert "counts on edges 0,0.5,1," in err
        assert sorted(tmp_path.iterdir()) == [cfg]


class TestFit:
    def test_log_records_config_models_and_flags(self, tmp_path, cfg_path):
        out = tmp_path / "fit.txt"
        assert main(["fit", str(fixture_path()), "--config", str(cfg_path),
                     "--models", "QM,DECOHERED", "--out", str(out)]) == EXIT_OK
        log = json.loads((tmp_path / "fit.txt.log").read_text())
        assert log["inputs"]["config"] == hashlib.sha256(
            cfg_path.read_bytes()).hexdigest()
        assert log["inputs"]["spectrum"] == hashlib.sha256(
            fixture_path().read_bytes()).hexdigest()
        assert log["models"] == ["QM", "DECOHERED"]
        assert log["flags"] == {"QM": [], "DECOHERED": []}

    def test_log_records_flags_without_config(self, tmp_path):
        # an exact QM spectrum at dm = 1.2 fits at the search edge
        binning = Binning()
        spectrum = tmp_path / "edge.csv"
        write_spectrum(AsymmetrySpectrum(
            binning, BinPredictor(binning).predict("QM", 1.2),
            np.full(binning.n_bins, 0.001)), spectrum)
        out = tmp_path / "fit.txt"
        assert main(["fit", str(spectrum), "--models", "QM",
                     "--out", str(out)]) == EXIT_OK
        log = json.loads((tmp_path / "fit.txt.log").read_text())
        assert "config" not in log["inputs"]
        assert log["models"] == ["QM"]
        assert ("minimum at the edge of the search interval"
                in log["flags"]["QM"])

    def test_log_records_pulls_that_sum_to_chi2(self, tmp_path):
        out = tmp_path / "fit.txt"
        assert main(["fit", str(fixture_path()), "--models",
                     "QM,SD,PS,DECOHERED", "--out", str(out)]) == EXIT_OK
        fits = json.loads((tmp_path / "fit.txt.log").read_text())["fits"]
        assert sorted(fits) == ["DECOHERED", "PS", "QM", "SD"]
        n_bins = Binning().n_bins
        for m, f in fits.items():
            assert len(f["pulls"]) == n_bins
            dm = f["dm"] if m == "DECOHERED" else f["theta_hat"]
            total = (sum(p * p for p in f["pulls"])
                     + PipelineConfig().constraint.term(dm))
            assert total == pytest.approx(f["chi2"], rel=0, abs=1e-12)
            assert f["theta_err"] > 0
        assert fits["DECOHERED"]["dof"] == n_bins - 1
        # the report itself is unchanged by the sidecar
        assert out.read_text().startswith("QM: dm = 0.5012 +- 0.0078")

    @staticmethod
    def _per_model(path):
        """Each model's result line with the indented lines under it."""
        lines = {}
        text = path.read_text().split("\nsignificance matrix")[0]
        for line in text.splitlines():
            if not line.startswith(" "):
                model = line.split(":")[0]
            lines.setdefault(model, []).append(line)
        return lines

    def test_repeated_and_reversed_fits(self, small_chain):
        # a repeated fit writes the same bytes; the fits share one
        # predictor, which keeps the last dm's cos and sin, so fitted in
        # the reverse order each model's result, flag and residual lines
        # are the same
        d, _ = small_chain
        outs = {}
        for name, models in [("fit", "QM,SD,PS,DECOHERED"),
                             ("again", "QM,SD,PS,DECOHERED"),
                             ("reversed", "DECOHERED,PS,SD,QM")]:
            outs[name] = d / f"{name}.txt"
            assert main(["fit", str(d / "unfolded.csv"), "--config",
                         str(d / "run.cfg"), "--models", models,
                         "--out", str(outs[name])]) == EXIT_OK
        assert outs["fit"].read_bytes() == outs["again"].read_bytes()
        ours, reversed_ = (self._per_model(outs[k])
                           for k in ("fit", "reversed"))
        assert list(ours) == ["QM", "SD", "PS", "DECOHERED"]
        assert list(reversed_) == ["DECOHERED", "PS", "SD", "QM"]
        for m in ours:
            assert ours[m] == reversed_[m]

    def test_fixture_fit_report(self, tmp_path, capsys):
        assert main(["fit", str(fixture_path()),
                     "--models", "QM,DECOHERED"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "QM: dm =" in out
        assert "DECOHERED: zeta =" in out

    def test_unknown_model(self, tmp_path):
        assert main(["fit", str(fixture_path()),
                     "--models", "QM,XX"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("models", ["QM,QM", "QM,SD,qm"])
    def test_repeated_model(self, tmp_path, capsys, models):
        # a model given twice would be fitted once but logged twice
        out = tmp_path / "fit.txt"
        assert main(["fit", str(fixture_path()), "--models", models,
                     "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "fit model 'QM' given twice" in captured.err
        assert captured.out == ""
        assert not out.exists()


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

    @pytest.mark.parametrize("command, allocation", [
        (["curves"], "curve_rows"),
        (["generate", "--config", "CFG"], "generate_ensemble")])
    def test_out_of_memory_is_exit_3(self, tmp_path, cfg_path, monkeypatch,
                                     capsys, command, allocation):
        # the failing allocation is faked: a test that asked for the 149 GiB
        # grid or the 4.6 TiB of events would be killed on a host that
        # overcommits memory
        import flavourasym.cli as cli

        def unable(*a, **k):
            raise MemoryError("Unable to allocate 149. GiB for an array")

        monkeypatch.setattr(cli, allocation, unable)
        out = tmp_path / "out.csv"
        argv = [str(cfg_path) if a == "CFG" else a for a in command]
        assert main(argv + ["--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 149. GiB for an array\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["QM", "DECOHERED"])
    def test_fit_error_overflow_is_exit_3(self, tmp_path, monkeypatch,
                                          capsys, model):
        # the fits compute their errors when first read; fit reads them
        # all where an overflow is a numerical failure
        from flavourasym import fitkit

        def overflow(*a, **k):
            return np.float64(1e308) * 10.0

        monkeypatch.setattr(fitkit, "_one_sigma_interval", overflow)
        out = tmp_path / "fit.txt"
        assert main(["fit", str(fixture_path()), "--models", model,
                     "--out", str(out)]) == EXIT_NUMERICAL
        assert "numerical failure: overflow" in capsys.readouterr().err
        assert not out.exists()

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
