"""Configuration parsing tests."""

import re

import pytest

from flavourasym.analysis import Binning
from flavourasym.config import (ConfigError, default_config_text, load_config)
from flavourasym.fitkit import Constraint
from flavourasym.models import ModelParams
from flavourasym.pipeline import PipelineConfig
from flavourasym.toygen import (BackgroundConfig, BackgroundShape,
                                CategoryYield, DetectorConfig, EventCategory,
                                GenModel)
from flavourasym.unfold import UnfoldConfig


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


MINIMAL = """\
[model]
name = QM

[detector]

[backgrounds]

[run]
seed = 11
"""


class TestLoadConfig:
    def test_template_round_trip(self, tmp_path):
        path = write_cfg(tmp_path, default_config_text(seed=99))
        run = load_config(path)
        assert run.model is GenModel.QM
        assert run.pipeline == PipelineConfig.paper_scale(seed=99)

    def test_minimal_defaults(self, tmp_path):
        run = load_config(write_cfg(tmp_path, MINIMAL))
        assert run.pipeline == PipelineConfig(seed=11)

    def test_single_stream_key_rejected(self, tmp_path):
        # the retired [run] streams key is unknown like any other
        text = MINIMAL.replace("seed = 11\n", "seed = 11\nstreams = 1\n")
        with pytest.raises(ConfigError, match=r"^\[run\] streams: unknown key"):
            load_config(write_cfg(tmp_path, text))
        assert "streams" not in default_config_text()

    def test_multi_stream_config_rejected(self, tmp_path):
        text = MINIMAL.replace("seed = 11\n", "seed = 11\nstreams = 4\n")
        with pytest.raises(ConfigError, match="streams"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("section, line, message", [
        ("unfold", "rank_off = 3", "[unfold] rank_off: unknown key"),
        ("run", "n_signals = 10", "[run] n_signals: unknown key"),
        ("backgrounds", "dstar_fakes = 1 2", "[backgrounds] dstar_fakes: "
         "unknown key"),
        ("binning", "edge = 0 20", "[binning] edge: unknown key"),
        ("fitt", "sigma = 1", "[fitt]: unknown section"),
        ("DEFAULT", "seed = 4", "[DEFAULT]: unknown section"),
    ], ids=["unfold", "run", "backgrounds", "binning", "section", "default"])
    def test_unknown_key_or_section_rejected(self, tmp_path, section, line,
                                             message):
        head = f"[{section}]\n"
        text = (MINIMAL.replace(head, head + line + "\n") if head in MINIMAL
                else MINIMAL + "\n" + head + line + "\n")
        with pytest.raises(ConfigError) as e:
            load_config(write_cfg(tmp_path, text))
        assert str(e.value) == message

    @pytest.mark.parametrize("section, line, message", [
        ("model", "dm = inf", "dm must be positive and finite, got inf"),
        ("model", "tau = nan", "tau must be positive and finite, got nan"),
        ("detector", "resolution_um = inf",
         "resolution_sigma must be finite and non-negative, got inf"),
        ("detector", "extra_smear_um = nan",
         "extra_smear_sigma must be finite and non-negative, got nan"),
        ("fit", "constraint_mean = nan",
         "constraint mean must be finite, got nan"),
        ("fit", "constraint_mean = -inf",
         "constraint mean must be finite, got -inf"),
        ("fit", "constraint_sigma = inf",
         "constraint sigma must be positive and finite, got inf"),
        ("backgrounds", "dstar_fake = inf 54",
         "[backgrounds] dstar_fake: n_of must be finite and non-negative, "
         "got inf"),
        ("backgrounds", "dstar_fake = 126 54 6 4 exp inf",
         "[backgrounds] dstar_fake: tau_eff must be positive and finite, "
         "got inf"),
        ("backgrounds", "dstar_fake = 126 54 inf 4 exp",
         "[backgrounds] dstar_fake: n_of_err must be finite and "
         "non-negative, got inf"),
        ("backgrounds", "dstar_fake = 126 54 6 nan",
         "[backgrounds] dstar_fake: n_sf_err must be finite and "
         "non-negative, got nan"),
        ("backgrounds", "dstar_fake = 126 54 -6 4",
         "[backgrounds] dstar_fake: n_of_err must be finite and "
         "non-negative, got -6.0"),
    ])
    def test_non_finite_physics_input_names_the_field(self, tmp_path,
                                                      section, line, message):
        head = f"[{section}]\n"
        text = (MINIMAL.replace(head, head + line + "\n") if head in MINIMAL
                else MINIMAL + "\n" + head + line + "\n")
        with pytest.raises(ValueError) as e:
            load_config(write_cfg(tmp_path, text))
        assert str(e.value) == message

    def test_seed_is_mandatory(self, tmp_path):
        text = MINIMAL.replace("seed = 11\n", "")
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_cfg(tmp_path, text))

    def test_missing_section(self, tmp_path):
        text = MINIMAL.replace("[detector]\n", "")
        with pytest.raises(ConfigError, match="detector"):
            load_config(write_cfg(tmp_path, text))

    def test_unknown_model(self, tmp_path):
        text = MINIMAL.replace("name = QM", "name = WAVEFUNCTION")
        with pytest.raises(ConfigError, match="WAVEFUNCTION"):
            load_config(write_cfg(tmp_path, text))

    def test_bad_number_diagnostic(self, tmp_path):
        text = MINIMAL + "\n[model]\ndm = fast\n"
        # configparser merges duplicate sections, so rebuild cleanly
        text = MINIMAL.replace("name = QM", "name = QM\ndm = fast")
        with pytest.raises(ConfigError, match="dm"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("key", ["seed", "n_signal", "n_response_mc"])
    def test_negative_run_count_names_the_field(self, tmp_path, key):
        text = MINIMAL.replace("seed = 11", f"seed = 11\n{key} = -3"
                               if key != "seed" else "seed = -3")
        with pytest.raises(ValueError,
                           match=f"^{key} must be non-negative, got -3$"):
            load_config(write_cfg(tmp_path, text))

    def test_background_line_parsing(self, tmp_path):
        text = MINIMAL.replace(
            "[backgrounds]\n",
            "[backgrounds]\ndstar_fake = 10 5 1 2 flat\nfixed_counts = yes\n")
        run = load_config(write_cfg(tmp_path, text))
        y = run.pipeline.backgrounds.yields[EventCategory.DSTAR_FAKE]
        assert (y.n_of, y.n_sf, y.n_of_err, y.n_sf_err) == (10.0, 5.0, 1.0, 2.0)
        assert y.shape.kind == "flat"
        assert run.pipeline.backgrounds.fixed_counts is True

    def test_short_background_line_rejected(self, tmp_path):
        text = MINIMAL.replace("[backgrounds]\n",
                               "[backgrounds]\ndstar_fake = 10\n")
        with pytest.raises(ConfigError, match="dstar_fake"):
            load_config(write_cfg(tmp_path, text))

    def test_template_has_no_replica_count(self):
        assert "replicas" not in default_config_text()

    def test_replicas_key_is_refused(self, tmp_path):
        # older templates wrote it; it is refused like any other unknown key
        text = MINIMAL.replace("seed = 11\n", "seed = 11\nreplicas = 300\n")
        with pytest.raises(ConfigError, match=r"^\[run\] replicas: unknown key$"):
            load_config(write_cfg(tmp_path, text))

    def test_bad_binning_diagnostic(self, tmp_path):
        text = MINIMAL + "\n[binning]\nedges = 0 5 5 20\n"
        with pytest.raises(ConfigError, match="edges"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("edges", ["0 nan 20", "0 5 inf", "-inf 5 20"])
    def test_non_finite_edges_rejected(self, tmp_path, edges):
        text = MINIMAL + f"\n[binning]\nedges = {edges}\n"
        with pytest.raises(ConfigError, match=r"\[binning\] edges.*finite"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("line, message", [
        ("126 54 6 4 exp fast", "could not convert string to float: 'fast'"),
        ("126 54 6 4 gauss", "unknown shape kind 'gauss'"),
        ("126 -54", "non-negative"),
    ])
    def test_bad_background_line_names_the_line(self, tmp_path, line,
                                                message):
        text = MINIMAL.replace("[backgrounds]\n",
                               f"[backgrounds]\ndstar_fake = {line}\n")
        with pytest.raises(ConfigError,
                           match=r"^\[backgrounds\] dstar_fake: .*"
                           + re.escape(message)):
            load_config(write_cfg(tmp_path, text))

    def test_template_is_written_from_the_defaults(self, tmp_path,
                                                    monkeypatch):
        # changed defaults reach the template with no second edit, a
        # background tau_eff other than the model's included
        yields = dict(BackgroundConfig.paper_scale().yields)
        yields[EventCategory.DSS_CHARGED] = CategoryYield(
            25.0, 0.5, 1.0, 0.25, BackgroundShape("flat", 2.5))
        changed = PipelineConfig(
            params=ModelParams(dm=0.5, zeta=0.1),
            detector=DetectorConfig(mistag_fraction=0.02),
            backgrounds=BackgroundConfig(yields, fixed_counts=True),
            binning=Binning((0.0, 2.5, 20.0)),
            unfold=UnfoldConfig(rank_of=2, rank_sf=2),
            constraint=Constraint(sigma=0.02), n_signal=1234, seed=5)
        monkeypatch.setattr(PipelineConfig, "paper_scale",
                            classmethod(lambda cls, seed: changed))
        text = default_config_text(seed=5)
        assert "dss_charged = 25 0.5 1 0.25 flat 2.5\n" in text
        assert load_config(write_cfg(tmp_path, text)).pipeline == changed

    def test_custom_binning(self, tmp_path):
        text = MINIMAL + "\n[binning]\nedges = 0 5 10 20\n"
        run = load_config(write_cfg(tmp_path, text))
        assert run.pipeline.binning.n_bins == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")
