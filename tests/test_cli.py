"""Command-line interface: exit codes, stanzas, CSV outputs."""

import pytest
from test_mstats import _chaos_reference

from hypifs import cli
from hypifs.apps import bernoulli_family, bernoulli_potential, blackwell_family
from hypifs.cli import main
from hypifs.config import ConfigError, as_floats, as_int, load_config
from hypifs.ifs import IfsFamily, RationalMap, affine_map, poly
from hypifs.thermo import constant_bernoulli_potential


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
    assert as_int(10) == as_int(10.0) == 10 and type(as_int(10.0)) is int
    for bad in (10.9, 2.5, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="an integer"):
            as_int(bad)
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "no equals here", "bad.cfg"))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError, match="'e.f'"):
        cfg["e.f"]


def test_stanza_and_audit(tmp_path, capsys):
    code, out = run(tmp_path, CANTOR, ["audit"], capsys)
    assert code == 0
    assert "version:" in out and "config_hash:" in out
    assert "verdict: PASS" in out


def test_invalid_config_exit_1(tmp_path, capsys):
    code, _ = run(tmp_path, "family.kind = nonsense\n", ["audit"], capsys)
    assert code == 1


def test_missing_key_exit_1_names_it(tmp_path, capsys):
    cfg = "family.kind = blackwell\nfamily.eps = 0.2\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path), "audit"])
    assert code == 1
    assert "'family.p'" in capsys.readouterr().err


def test_unread_config_keys_are_named_on_stderr(tmp_path, capsys):
    # misspelt keys run at their defaults: the run names them, and its exit
    # code and stdout are those of the same config without them
    def sample(cfg, name):
        argv = ["--config", write(tmp_path, cfg, name), "--out", str(tmp_path), "sample"]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out.split("\n", 2)[2], captured.err  # past the hash

    clean = BERNOULLI.replace("family.lambda = 0.6\n", "") + "run.samples = 50\n"
    code, out, err = sample(clean + "family.lam = 0.6\nrun.smaples = 5\n", "typos.cfg")
    assert sample(clean, "clean.cfg") == (code, out, "") and code == 0
    assert err == ("warning: config key 'family.lam' was not read\n"
                   "warning: config key 'run.smaples' was not read\n")


def test_a_failed_run_names_no_unread_key(tmp_path, capsys):
    cfg = "family.kind = blackwell\nfamily.eps = 0.2\nrun.smaples = 5\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path), "audit"])
    assert code == 1
    assert capsys.readouterr().err == "config error: missing config key 'family.p'\n"


GRID_2X2 = "run.grid1 = 2\nrun.grid2 = 2\n"


@pytest.mark.parametrize("cfg, argv, shown", [
    (CANTOR.replace("0.333333333333, 0.333333333333", "abc"), ["audit"],
     "'family.ratios': cannot read 'abc'"),
    (BERNOULLI + "run.samples = many\n", ["transversality", "probe"],
     "'run.samples': cannot read 'many'"),
    (GRID_2X2 + "region.eps_range = 0.1\n", ["region", "blackwell"],
     "'region.eps_range': cannot read 0.1 as two numbers"),
    (GRID_2X2 + "region.p_range = 0.1, 0.2, 0.3\n", ["region", "blackwell"],
     "'region.p_range': cannot read [0.1, 0.2, 0.3] as two numbers"),
    (GRID_2X2 + "region.rho_range = 0.1\n", ["region", "bernoulli"],
     "'region.rho_range': cannot read 0.1 as two numbers"),
    (CANTOR + "family.domain = 0\n", ["audit"],
     "'family.domain': cannot read 0 as two numbers"),
    (CANTOR + "family.param_interval = 0.5\n", ["audit"],
     "'family.param_interval': cannot read 0.5 as two numbers"),
    (BERNOULLI + "family.param_interval = 0.5, 0.6, 0.7\n", ["audit"],
     "'family.param_interval': cannot read [0.5, 0.6, 0.7] as two numbers"),
    ("partition.intervals = 0.0, 0.3, 0.2\n", ["partition"],
     "'partition.intervals': cannot read [0.0, 0.3, 0.2] as pairs of numbers"),
    ("partition.intervals = 0.0, 0.3, 0.5, 0.2\n", ["partition"],
     "'partition.intervals': cannot read [0.0, 0.3, 0.5, 0.2] as intervals (a, b) "
     "with a <= b, not (0.5, 0.2)"),
    (BERNOULLI + "run.seed = 2.5\n", ["transversality", "probe"],
     "'run.seed': cannot read 2.5 as an integer"),
    (BERNOULLI + "run.depth = 10.9\nrun.samples = 10\n", ["transversality", "probe"],
     "'run.depth': cannot read 10.9 as an integer")],
    ids=["ratios-audit", "samples-probe", "eps-range-one", "p-range-three",
         "rho-range-one", "domain-one", "interval-one", "interval-three",
         "intervals-odd", "intervals-reversed", "seed-fraction", "depth-fraction"])
def test_non_numeric_value_exit_1_names_key_and_value(tmp_path, capsys, cfg, argv,
                                                       shown):
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path)] + argv)
    assert code == 1
    assert shown in capsys.readouterr().err


def test_key_error_from_a_bug_propagates(tmp_path, monkeypatch):
    def broken(cfg, args, out):
        raise KeyError("not a config key")

    # the parser is built once per process; handlers are looked up per run
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setitem(cli.COMMANDS, "audit", broken)
    with pytest.raises(KeyError):
        main(["--config", write(tmp_path, CANTOR), "--out", str(tmp_path), "audit"])


@pytest.mark.parametrize("argv, cfg_depth", [
    (["--depth", "0", "spectrum"], 6), (["--depth", "-1", "spectrum"], 6),
    (["transversality", "probe"], 0), (["region", "blackwell"], 0)])
def test_nonpositive_depth_exit_2(tmp_path, capsys, argv, cfg_depth):
    cfg = CANTOR + f"potential.kind = constant\npotential.probs = 0.5, 0.5\n" \
        f"run.depth = {cfg_depth}\nrun.samples = 10\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path)] + argv)
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pressure", "pressure-drop"])
@pytest.mark.parametrize("n", [0, -2])
def test_partition_word_length_below_one_exit_2_names_n(tmp_path, capsys, command, n):
    cfg = CANTOR + f"run.partition_n = {n}\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path), command])
    assert code == 2
    assert f"word length n must be at least 1, got {n}" in capsys.readouterr().err


CF = """
family.kind = cf
family.alpha = 0.05
family.beta = 1
"""


@pytest.mark.parametrize("cfg", [CANTOR, CF], ids=["cantor", "cf"])
def test_audit_prints_its_method(tmp_path, capsys, cfg):
    code, out = run(tmp_path, cfg, ["audit"], capsys)
    assert code == 0
    lines = out.splitlines()[2:]
    assert [line.split(":")[0] for line in lines] == [
        "gamma1_est", "gamma2_est", "audit_method", "verdict"]
    assert "audit_method: exact" in lines and "verdict: PASS" in lines


def test_audit_of_a_pole_on_the_domain_exit_2(tmp_path, capsys, monkeypatch):
    # x -> 0.01 / (x - c), its pole c between two points of the 1024-point grid
    pole = RationalMap(poly(0.01), poly(0.0), poly(-100.5 / 1023), poly(1.0))
    monkeypatch.setattr(cli, "build_family", lambda cfg: IfsFamily(
        (affine_map(0.5, 0.0), pole), (0.0, 1.0), (0.0, 1e-9)))
    code = main(["--config", write(tmp_path, CANTOR), "--out", str(tmp_path), "audit"])
    captured = capsys.readouterr()
    assert code == 2
    assert "numerical failure: Moebius map 2 has a pole on the domain" in captured.err
    assert "verdict" not in captured.out


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
    assert "backend: collocation" in out
    assert "error_estimate: " in out


def test_bowen_non_contracting_map_exit_2_names_gamma2(tmp_path, capsys):
    # 0.5^t underflows at the bracket end log 2 / log(1/gamma2) ~ 7e11, so
    # without the derivative check the solver "finds" s = 693147180560
    cfg = "family.kind = affine\nfamily.ratios = 0.5, 1.0\nfamily.offsets = 0.0, 0.5\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path), "bowen"])
    captured = capsys.readouterr()
    assert code == 2
    assert "s: " not in captured.out
    assert "gamma2 = 1" in captured.err


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


SEPARATED = """
family.kind = affine
family.ratios = 0.3, 0.3
family.offsets = 0.2, 0.4
"""


def test_transversality_certify(tmp_path, capsys):
    code, out = run(tmp_path, SEPARATED, ["transversality", "certify"], capsys)
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


def test_region_blackwell_honours_depth_flag(tmp_path, capsys):
    cfg = "family.kind = blackwell\nrun.depth = 0\nrun.grid1 = 2\nrun.grid2 = 2\n"
    code, _ = run(tmp_path, cfg, ["--depth", "4", "region", "blackwell"], capsys)
    assert code == 0
    rows = (tmp_path / "region_blackwell.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert not any("AUDIT-FAIL" in row for row in rows)


@pytest.mark.parametrize("size", [-1, 0])
@pytest.mark.parametrize("which", ["bernoulli", "blackwell"])
def test_region_rejects_a_grid_below_one_by_one_exit_2(tmp_path, capsys, which, size):
    cfg = f"family.kind = {which}\nrun.grid1 = {size}\nrun.grid2 = 3\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path),
                 "region", which])
    assert code == 2
    assert f"region grid shape {size} x 3 is below 1 x 1" in capsys.readouterr().err
    assert not (tmp_path / f"region_{which}.csv").exists()


def test_region_bernoulli_without_moment_terms_exit_2(tmp_path, capsys):
    cfg = "family.kind = bernoulli\nrun.moment_terms = 0\n" + GRID_2X2
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path),
                 "region", "bernoulli"])
    assert code == 2
    assert "moment terms must be positive" in capsys.readouterr().err
    assert not (tmp_path / "region_bernoulli.csv").exists()


@pytest.mark.parametrize("halfwidth", ["0", "-0.05"])
def test_certify_rejects_a_halfwidth_that_is_not_positive_exit_2(tmp_path, capsys,
                                                                 halfwidth):
    cfg = SEPARATED + f"run.halfwidth = {halfwidth}\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path),
                 "transversality", "certify"])
    captured = capsys.readouterr()
    assert code == 2
    assert "CERTIFIED" not in captured.out
    assert f"halfwidth must be positive, got {float(halfwidth)}" in captured.err
    assert not (tmp_path / "certificate.csv").exists()


def test_certify_rejects_a_halfwidth_no_halving_makes_valid_exit_2(tmp_path, capsys):
    cfg = CANTOR + "run.halfwidth = 1e4\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path),
                 "transversality", "certify"])
    captured = capsys.readouterr()
    assert code == 2
    assert "within 60 halvings of 10000.0" in captured.err
    assert not (tmp_path / "certificate.csv").exists()


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


def test_simdim_of_an_empty_ratio_list_exit_2_names_it(tmp_path, capsys):
    code = main(["--config", write(tmp_path, "family.ratios = ,\n"), "--out", str(tmp_path),
                 "simdim"])
    assert code == 2
    assert "numerical failure: the ratio list is empty" in capsys.readouterr().err


def test_sample_seed_flag(tmp_path, capsys):
    cfg = CANTOR + "potential.kind = constant\npotential.probs = 0.5, 0.5\nrun.samples = 200\n"
    code, out = run(tmp_path, cfg, ["--seed", "11", "sample"], capsys)
    assert code == 0
    assert "seed: 11" in out
    first = (tmp_path / "sample.csv").read_text()
    run(tmp_path, cfg, ["--seed", "11", "sample"], capsys)
    assert (tmp_path / "sample.csv").read_text() == first


@pytest.mark.parametrize("config, argv, shown", [
    ("", ["transversality", "probe"], ["seed: 0"]),
    ("run.seed = 5\n", ["transversality", "probe"], ["seed: 5"]),
    ("run.seed = 5\n", ["--seed", "9", "transversality", "probe"], ["seed: 9"]),
    ("run.seed = 5\n", ["--seed", "9", "audit"], []),  # audit uses no seed
])
def test_stanza_prints_the_seed_it_used(tmp_path, capsys, config, argv, shown):
    cfg = BERNOULLI + "run.samples = 20\nrun.depth = 10\n" + config
    code, out = run(tmp_path, cfg, argv, capsys)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("seed:")] == shown


@pytest.mark.parametrize("command", [["transversality", "probe"], ["sample"]])
def test_non_numeric_seed_exit_1_is_not_printed(tmp_path, capsys, command):
    cfg = CANTOR + "run.seed = abc\nrun.samples = 20\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path)] + command)
    captured = capsys.readouterr()
    assert code == 1
    assert "'run.seed'" in captured.err and "'abc'" in captured.err
    assert "seed:" not in captured.out


@pytest.mark.parametrize("command", [["audit"], ["bowen"]])
def test_cf_negative_lam_halfwidth_exit_2(tmp_path, capsys, command):
    cfg = ("family.kind = cf\nfamily.alpha = 0.5\nfamily.beta = 2\n"
           "family.lam_halfwidth = -0.1\n")
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path)] + command)
    assert code == 2
    assert "lam_halfwidth must be >= 0, got -0.1" in capsys.readouterr().err


def _sample_case(kind):
    """(config, family, curves, lambda) of a `sample` run, the family and
    curves built without the CLI."""
    if kind == "constant":
        fam = IfsFamily((affine_map(0.333333333333, 0.0),
                         affine_map(0.333333333333, 0.666666666667)), (0.0, 1.0), (0.0, 1e-9))
        return (CANTOR + "potential.kind = constant\npotential.probs = 0.3, 0.7\n", fam,
                constant_bernoulli_potential([0.3, 0.7]).prob_fns, 0.5e-9)
    if kind == "bernoulli":
        return BERNOULLI, bernoulli_family(), bernoulli_potential(0.2).prob_fns, 0.6
    fam, probs = blackwell_family(0.3, 0.8)
    cfg = "family.kind = blackwell\nfamily.eps = 0.3\nfamily.p = 0.8\nfamily.lambda = 0.8\n"
    return cfg + "potential.kind = blackwell\n", fam, probs, 0.8


@pytest.mark.parametrize("kind", ["constant", "bernoulli", "blackwell"])
def test_sample_csv_is_the_scalar_chain(tmp_path, capsys, kind):
    cfg, fam, probs, lam = _sample_case(kind)
    code, _ = run(tmp_path, cfg + "run.samples = 3000\nrun.burn_in = 50\n",
                  ["--seed", "7", "sample"], capsys)
    assert code == 0
    ref = tmp_path / "reference.csv"
    cli._write_rows(ref, ["x"], [(float(x),) for x in
                                 _chaos_reference(fam, probs, lam, 3000, 50, 7)])
    assert (tmp_path / "sample.csv").read_bytes() == ref.read_bytes()


def test_sobolev_window_too_small_exit_2(tmp_path, capsys):
    cfg = CANTOR + "run.samples = 10000\nrun.xi_max = 50\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path), "sobolev"])
    assert code == 2
    assert "xi_max = 50" in capsys.readouterr().err


def test_partition_command(tmp_path, capsys):
    cfg = "partition.intervals = 0.0, 0.3, 0.2, 0.5, 0.6, 0.9\nfamily.kind = bernoulli\n"
    code, out = run(tmp_path, cfg, ["partition"], capsys)
    assert code == 0
    assert "I_plus:" in out and "I_minus:" in out


@pytest.mark.parametrize("cfg, argv", [
    ("partition.intervals = 0, 1, 0.2, 0.8, 0.5, 0.9\n", ["partition"]),
    ("family.kind = affine\nfamily.ratios = 0.5, 0.5, 0.5\nfamily.offsets = 0, 0.25, 0.5\n",
     ["transversality", "certify"])], ids=["partition", "certify"])
def test_a_point_covered_by_three_intervals_exit_2(tmp_path, capsys, cfg, argv):
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path)] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "partition failure: point 0.5 covered by 3 intervals\n"
    assert "I_plus" not in captured.out and "CERTIFIED" not in captured.out
    assert not (tmp_path / "certificate.csv").exists()


@pytest.mark.parametrize("probs", ["1.0", "0.2, 0.3, 0.5"])
def test_sample_needs_one_probability_per_map_exit_2(tmp_path, capsys, probs):
    cfg = BERNOULLI.replace("potential.kind = bernoulli",
                            "potential.kind = constant") + \
        f"potential.probs = {probs}\nrun.samples = 100\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path), "sample"])
    assert code == 2
    assert "one probability curve per map" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["bernouli", "tlog"])
@pytest.mark.parametrize("command", ["sample", "sobolev"])
def test_sample_rejects_a_potential_without_probabilities_exit_1(tmp_path, capsys,
                                                                 command, kind):
    cfg = BERNOULLI.replace("potential.kind = bernoulli",
                            f"potential.kind = {kind}") + "run.samples = 100\n"
    code = main(["--config", write(tmp_path, cfg), "--out", str(tmp_path), command])
    assert code == 1
    assert f"potential kind {kind!r}" in capsys.readouterr().err
    assert not (tmp_path / "sample.csv").exists()


@pytest.mark.parametrize("where", ["table", "module"])
def test_a_wrapped_sample_handler_still_prints_its_seed(tmp_path, capsys, monkeypatch,
                                                        where):
    # a wrapper in COMMANDS, or a tracer's in place of the module's name: the
    # seed line follows the command, not the handler's identity
    sample = cli.COMMANDS["sample"]

    def wrapped(cfg, args, out):
        return sample(cfg, args, out)

    if where == "table":
        monkeypatch.setitem(cli.COMMANDS, "sample", wrapped)
    else:
        monkeypatch.setattr(cli, "cmd_sample", wrapped)
    cfg = CANTOR + "potential.kind = constant\npotential.probs = 0.5, 0.5\nrun.samples = 200\n"
    code, out = run(tmp_path, cfg, ["--seed", "11", "sample"], capsys)
    assert code == 0
    assert "seed: 11" in out.splitlines()


@pytest.mark.parametrize("key", list(cli.COMMANDS))
def test_every_command_parses_and_runs_its_own_handler(tmp_path, capsys, monkeypatch,
                                                       key):
    called = []
    for name in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, name,
                            lambda cfg, args, out, name=name: called.append(name) or 0)
    code, out = run(tmp_path, CANTOR, key.split(), capsys)
    assert code == 0
    assert called == [key]
    assert ("seed: 0" in out.splitlines()) == (key in cli.SEEDED)


def test_parser_lists_the_commands_in_help_order(capsys):
    assert "{audit,project,spectrum,pressure,bowen,entropy,partition,energy,dimcor," \
        "sample,sobolev,mprobe,pressure-drop,simdim,transversality,region,cf}" \
        in cli.build_parser().format_usage().replace("\n", "").replace(" ", "")
    with pytest.raises(SystemExit) as exc:
        main(["--config", "run.cfg", "region", "foo"])
    assert exc.value.code == 2
    assert "argument mode: invalid choice: 'foo'" in capsys.readouterr().err
