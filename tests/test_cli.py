"""Command-line interface: exit codes, stanzas, CSV outputs."""

import pytest

from hypifs.cli import main
from hypifs.config import ConfigError, as_floats, load_config


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CANTOR = """
family.kind = affine
family.ratios = 0.333333333333, 0.333333333333
family.offsets = 0.0, 0.666666666667
"""

BERNOULLI = """
family.kind = bernoulli
family.lambda = 0.6
potential.kind = bernoulli
potential.rho = 0.2
"""


def run(tmp_path, cfg_text, argv_tail, capsys):
    cfg = write(tmp_path, cfg_text)
    code = main(["--config", cfg, "--out", str(tmp_path)] + argv_tail)
    out = capsys.readouterr().out
    return code, out


def test_config_parser(tmp_path):
    cfg = load_config(write(tmp_path, "a.b = 1, 2.5\nc.d = text # note\n"))
    assert cfg["a.b"] == [1, 2.5]
    assert cfg["c.d"] == "text"
    assert len(cfg["_hash"]) == 16
    assert as_floats(3) == [3.0]
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "no equals here", "bad.cfg"))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))


def test_stanza_and_audit(tmp_path, capsys):
    code, out = run(tmp_path, CANTOR, ["audit"], capsys)
    assert code == 0
    assert "version:" in out and "config_hash:" in out
    assert "verdict: PASS" in out


def test_invalid_config_exit_1(tmp_path, capsys):
    code, _ = run(tmp_path, "family.kind = nonsense\n", ["audit"], capsys)
    assert code == 1


def test_audit_failure_exit_2(tmp_path, capsys):
    cfg = """
family.kind = affine
family.ratios = 1.5
family.offsets = 0.0
"""
    code, out = run(tmp_path, cfg, ["audit"], capsys)
    assert code == 2


def test_bowen_command(tmp_path, capsys):
    code, out = run(tmp_path, CANTOR, ["bowen"], capsys)
    assert code == 0
    assert "s: 0.6309" in out


def test_spectrum_writes_csv(tmp_path, capsys):
    cfg = CANTOR + "potential.kind = constant\npotential.probs = 0.3, 0.7\n"
    code, out = run(tmp_path, cfg, ["--depth", "4", "spectrum"], capsys)
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "word,h,nu,mu"
    assert len(lines) == 17


def test_entropy_command(tmp_path, capsys):
    code, out = run(tmp_path, BERNOULLI, ["--depth", "6", "entropy"], capsys)
    assert code == 0
    assert "entropy:" in out and "lyapunov:" in out


def test_transversality_certify(tmp_path, capsys):
    cfg = """
family.kind = affine
family.ratios = 0.3, 0.3
family.offsets = 0.2, 0.4
"""
    code, out = run(tmp_path, cfg, ["transversality", "certify"], capsys)
    assert code == 0
    assert "CERTIFIED-cond1" in out
    assert (tmp_path / "certificate.csv").exists()


def test_probe_falsified_exit_3(tmp_path, capsys):
    cfg = """
family.kind = affine
family.ratios = 0.5, 0.5
family.offsets = 0.25, 0.25
family.param_interval = 0.4, 0.6
run.samples = 1000
run.depth = 25
"""
    code, out = run(tmp_path, cfg, ["transversality", "probe"], capsys)
    assert code == 3
    assert "FALSIFIED" in out


def test_probe_inconclusive(tmp_path, capsys):
    cfg = """
family.kind = bernoulli
family.param_interval = 0.5, 0.6
run.samples = 300
run.depth = 20
"""
    code, out = run(tmp_path, cfg, ["transversality", "probe"], capsys)
    assert code == 0
    assert "INCONCLUSIVE" in out


def test_region_bernoulli(tmp_path, capsys):
    cfg = "family.kind = bernoulli\nrun.grid1 = 5\nrun.grid2 = 5\n"
    code, out = run(tmp_path, cfg, ["region", "bernoulli"], capsys)
    assert code == 0
    assert (tmp_path / "region_bernoulli.csv").exists()
    assert "supercritical:" in out


def test_cf_overlap_command(tmp_path, capsys):
    cfg = "family.kind = cf\nfamily.alpha = 1e-4\nfamily.beta = 0.4142\n"
    code, out = run(tmp_path, cfg, ["cf", "overlap"], capsys)
    assert code == 0
    assert "overlapping: True" in out


def test_simdim_command(tmp_path, capsys):
    cfg = "family.kind = affine\nfamily.ratios = 0.5, 0.5\nfamily.offsets = 0.0, 0.5\n"
    code, out = run(tmp_path, cfg, ["simdim"], capsys)
    assert code == 0
    assert "similarity_dimension: 1" in out


def test_sample_seed_flag(tmp_path, capsys):
    cfg = CANTOR + "potential.kind = constant\npotential.probs = 0.5, 0.5\nrun.samples = 200\n"
    code, out = run(tmp_path, cfg, ["--seed", "11", "sample"], capsys)
    assert code == 0
    assert "seed: 11" in out
    first = (tmp_path / "sample.csv").read_text()
    run(tmp_path, cfg, ["--seed", "11", "sample"], capsys)
    assert (tmp_path / "sample.csv").read_text() == first


def test_partition_command(tmp_path, capsys):
    cfg = "partition.intervals = 0.0, 0.3, 0.2, 0.5, 0.6, 0.9\nfamily.kind = bernoulli\n"
    code, out = run(tmp_path, cfg, ["partition"], capsys)
    assert code == 0
    assert "I_plus:" in out and "I_minus:" in out


@pytest.mark.parametrize("probs", ["1.0", "0.2, 0.3, 0.5"])
def test_sample_needs_one_probability_per_map_exit_2(tmp_path, capsys, probs):
    cfg = BERNOULLI.replace("potential.kind = bernoulli",
                            "potential.kind = constant") + \
        f"potential.probs = {probs}\nrun.samples = 100\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path), "sample"])
    assert code == 2
    assert "one probability curve per map" in capsys.readouterr().err
