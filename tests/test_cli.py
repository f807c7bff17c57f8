import json
import os

import pytest

from nlskam.cli import dispatch


def run_cli(*argv):
    return dispatch(list(argv))


def test_unknown_command_exits_1(capsys):
    assert run_cli("frobnicate") == 1
    assert run_cli() == 1


def test_build_nls_term_count(tmp_path):
    out = tmp_path / "h.json"
    assert run_cli("build-nls", "--d", "1", "--radius", "1",
                   "--eps", "1e-6", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "nlskam-hamiltonian"
    assert len(doc["terms"]) == 8


def test_norms_zero_hamiltonian(tmp_path, capsys):
    out = tmp_path / "z.json"
    run_cli("build-nls", "--d", "1", "--radius", "1", "--eps", "1e-6",
            "--out", str(out))
    doc = json.loads(out.read_text())
    doc["terms"] = []
    out.write_text(json.dumps(doc))
    assert run_cli("norms", str(out), "--rho", "0.1") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split() for ln in lines] == [
        ["sup_rho", "0"], ["star_rho", "0"], ["plus_rho", "0"]]


def test_kam_run_steps0_roundtrip(tmp_path):
    h = tmp_path / "h.json"
    run_cli("build-nls", "--d", "1", "--radius", "1", "--eps", "1e-6",
            "--out", str(h))
    assert run_cli("kam-run", "--d", "1", "--radius", "1", "--eps", "1e-6",
                   "--steps", "0",
                   "--out-prefix", str(tmp_path / "k")) == 0
    assert h.read_bytes() == (tmp_path / "k.step0.json").read_bytes()
    csv = (tmp_path / "k.steps.csv").read_text().splitlines()
    assert len(csv) == 2
    assert csv[0].startswith("s,rho,eps,")


def test_kam_run_negative_steps_exit_code(tmp_path, capsys):
    assert run_cli("kam-run", "--d", "1", "--radius", "1", "--steps", "-1",
                   "--out-prefix", str(tmp_path / "k")) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: steps must be >= 0, got -1"]
    assert not (tmp_path / "k.steps.csv").exists()


def test_kam_run_zero_lie_order_cap_exit_code(tmp_path, capsys):
    assert run_cli("kam-run", "--d", "1", "--radius", "1",
                   "--lie-order-cap", "0",
                   "--out-prefix", str(tmp_path / "k")) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: order_cap must be >= 1"]
    assert not (tmp_path / "k.steps.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["bracket", "{h}", "{h}", "--delta1", "0"], "error: need 0 < delta1, "
     "delta2 <= rho, got delta1=0.0, delta2=0.004, rho=0.1"),
    (["bracket", "{h}", "{h}", "--delta2", "0"], "error: need 0 < delta1, "
     "delta2 <= rho, got delta1=0.004, delta2=0.0, rho=0.1"),
    (["bracket", "{h}", "{h}", "--delta2", "-0.1"], "error: need 0 < delta1, "
     "delta2 <= rho, got delta1=0.004, delta2=-0.1, rho=0.1"),
    (["bracket", "{h}", "{h}", "--rho", "0.001", "--out", "{out}"],
     "error: need 0 < delta1, delta2 <= rho, got delta1=0.004, "
     "delta2=0.004, rho=0.001"),
    (["norms", "{h}", "--rho", "nan"], "error: rho must be >= 0, got nan"),
    (["kam-run", "--d", "1", "--radius", "1", "--prune-tol", "nan",
      "--out-prefix", "{out}"],
     "error: prune_tol must be finite and >= 0, got nan"),
    (["kam-run", "--d", "1", "--radius", "1", "--prune-tol=-1e-18",
      "--out-prefix", "{out}"],
     "error: prune_tol must be finite and >= 0, got -1e-18"),
    (["kam-run", "--d", "1", "--radius", "1", "--prune-tol", "-1e-18",
      "--out-prefix", "{out}"],
     "error: prune_tol must be finite and >= 0, got -1e-18"),
    (["norms", "{h}", "--rho", "-1e-3"],
     "error: rho must be >= 0, got -0.001"),
    (["verify-lemmas", "--samples", "-2", "--out", "{out}"],
     "error: samples must be >= 1, got -2"),
    (["verify-lemmas", "--lemma", "g_max", "--samples", "0", "--out",
      "{out}"], "error: samples must be >= 1, got 0"),
    (["build-nls", "--radius", "-2", "--out", "{out}"],
     "error: mode_radius must be >= 0, got -2"),
    (["build-nls", "--degree-cap", "-1", "--out", "{out}"],
     "error: degree_cap must be >= 0, got -1"),
    (["kam-run", "--d", "1", "--radius", "1", "--degree-cap", "-5",
      "--out-prefix", "{out}"], "error: degree_cap must be >= 0, got -5"),
])
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, argv, message):
    h = tmp_path / "h.json"
    run_cli("build-nls", "--d", "1", "--radius", "1", "--eps", "1e-6",
            "--out", str(h))
    capsys.readouterr()
    args = [a.format(h=h, out=tmp_path / "out") for a in argv]
    assert run_cli(*args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
    assert os.listdir(tmp_path) == ["h.json"]


def test_kam_run_small_divisor_exit_code(tmp_path):
    # at d=2, (1,0)+(-1,0) and (0,1)+(0,-1) share sum and square sum, so
    # the fully resonant omega = 0 yields an exact zero divisor
    from nlskam.diophantine import frequency_dumps
    modes = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    f = tmp_path / "freq.json"
    f.write_text(frequency_dumps({m: 0.0 for m in modes}))
    code = run_cli("kam-run", "--d", "2", "--radius", "1", "--eps", "1e-6",
                   "--steps", "1", "--seed", "1", "--freq", str(f),
                   "--out-prefix", str(tmp_path / "k"))
    assert code == 2


def test_capacity_exit_code(tmp_path):
    h = tmp_path / "h.json"
    run_cli("build-nls", "--d", "1", "--radius", "1", "--eps", "1e-6",
            "--degree-cap", "4", "--out", str(h))
    assert run_cli("bracket", str(h), str(h),
                   "--out", str(tmp_path / "b.json")) == 3


def test_validation_exit_code_on_missing_file(tmp_path):
    assert run_cli("norms", str(tmp_path / "missing.json")) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_norms_rejects_non_finite_coefficient(tmp_path, capsys, bad):
    h = tmp_path / "h.json"
    run_cli("build-nls", "--d", "1", "--radius", "1", "--eps", "1e-6",
            "--out", str(h))
    doc = json.loads(h.read_text())
    doc["terms"][0]["re"] = bad
    h.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("norms", str(h)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: non-finite coefficient")


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


def _nls_doc(tmp_path):
    h = tmp_path / "h.json"
    run_cli("build-nls", "--d", "1", "--radius", "1", "--eps", "1e-6",
            "--out", str(h))
    return json.loads(h.read_text())


def _parent(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc


def _drop(*path):
    def edit(doc):
        del _parent(doc, path)[path[-1]]
    return edit


def _set(path, value):
    def edit(doc):
        _parent(doc, path)[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit,match", [
    (lambda doc: [1, 2], "not a Hamiltonian document"),
    (_drop("d"), "Hamiltonian document lacks 'd'"),
    (_drop("terms"), "Hamiltonian document lacks 'terms'"),
    (_set(["terms"], {"a": []}), "'terms' is not a list"),
    (_set(["terms", 0], [1, 2]), "term 0 is not an object"),
    *[(_drop("terms", 0, f), f"term 0 lacks '{f}'")
      for f in ("a", "k", "k_bar", "j", "re", "im")],
    (_set(["terms", 0, "re"], "abc"), "term 0: 're' is not a number"),
    (_set(["terms", 0, "im"], None), "term 0: 'im' is not a number"),
    (_set(["terms", 0, "re"], 10 ** 400), "term 0: 're' is out of range"),
    (_set(["sigma"], "2.5"), "sigma is not a number"),
    (_set(["d"], 1.5), "d is not an integer"),
    (_set(["degree_cap"], -1), "degree_cap must be >= 0, got -1"),
    (_set(["terms", 0, "k"], [[[0], "x"]]), "term 0: 'k' is not an integer"),
    (_set(["terms", 0, "k"], [[["a"], 1]]), "is not a list of integers"),
    (_set(["terms", 0, "k_bar"], [[[0], 1, 2]]),
     "is not a [mode, exponent] pair"),
    (_set(["terms", 0, "a"], 3), "term 0: 'a' is not a list"),
    (_set(["terms", 0, "j"], 3), "term 0: 'j' is not a list"),
])
def test_norms_rejects_malformed_hamiltonian(tmp_path, capsys, edit, match):
    doc = _nls_doc(tmp_path)
    doc = edit(doc) or doc
    h = tmp_path / "bad.json"
    h.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("norms", str(h)) == 1
    assert match in _one_error_line(capsys)


def test_norms_rejects_non_json(tmp_path, capsys):
    h = tmp_path / "bad.json"
    h.write_text("{not json")
    capsys.readouterr()
    assert run_cli("norms", str(h)) == 1
    assert "is not JSON" in _one_error_line(capsys)


def test_build_nls_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "h.json"
    capsys.readouterr()
    assert run_cli("build-nls", "--d", "1", "--radius", "1",
                   "--out", str(out)) == 1
    assert _one_error_line(capsys).startswith(f"error: cannot write {out}")


def test_kam_run_into_missing_directory(tmp_path, capsys):
    prefix = tmp_path / "no" / "such" / "k"
    capsys.readouterr()
    assert run_cli("kam-run", "--d", "1", "--radius", "1", "--steps", "0",
                   "--out-prefix", str(prefix)) == 1
    assert _one_error_line(capsys).startswith(
        f"error: cannot write {prefix}.steps.csv")


def test_measure_csv_schema(tmp_path):
    out = tmp_path / "m.csv"
    assert run_cli("measure", "--trials", "200", "--gamma", "0.05",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("gamma,trials,violations,fraction,stderr,"
                       "ell_budget,mode_radius,seed")
    assert len(lines) == 2


def test_verify_lemmas_subset(tmp_path):
    out = tmp_path / "v.csv"
    assert run_cli("verify-lemmas", "--lemma", "g_max", "--lemma",
                   "monotonicity", "--samples", "10",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("name,params,")
    assert len(lines) == 3
    assert run_cli("verify-lemmas", "--lemma", "nope") == 1


def test_dioph_check_roundtrip(tmp_path, capsys):
    from nlskam.diophantine import (DiophParams, frequency_dumps,
                                    sample_strong_frequency)
    p = DiophParams(gamma=0.05, d=1, ell_budget=3, mode_radius=1)
    omega, _ = sample_strong_frequency([(-1,), (0,), (1,)], p, seed=3)
    f = tmp_path / "freq.json"
    f.write_text(frequency_dumps(omega))
    assert run_cli("dioph-check", str(f), "--gamma", "0.05",
                   "--ell-budget", "3", "--radius", "1") == 0
    zero = {m: 0.0 for m in omega}
    f.write_text(frequency_dumps(zero))
    assert run_cli("dioph-check", str(f), "--gamma", "0.05",
                   "--ell-budget", "3", "--radius", "1") == 1


@pytest.mark.parametrize("doc,match", [
    ([[[0], 0.1]], "not a frequency document"),
    ({"format": "nlskam-frequency"}, "'omega' list"),
    ({"format": "nlskam-frequency", "omega": [[[0], "abc"]]},
     "not a finite number"),
    ({"format": "nlskam-frequency", "omega": [[["a"], 0.1]]},
     "not a list of integers"),
    ({"format": "nlskam-frequency", "omega": [[[0], float("inf")]]},
     "not a finite number"),
    ({"format": "nlskam-frequency", "omega": [[[0, 0], 0.1]]},
     "has dimension 2, expected 1"),
])
def test_dioph_check_rejects_malformed_frequency(tmp_path, capsys, doc,
                                                 match):
    f = tmp_path / "freq.json"
    f.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("dioph-check", str(f), "--d", "1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and match in line


def test_dioph_check_radius_bounds_the_modes(tmp_path, capsys):
    from nlskam.diophantine import (DiophParams, frequency_dumps,
                                    sample_strong_frequency)
    p = DiophParams(gamma=0.01, d=2, ell_budget=3, mode_radius=1)
    omega, _ = sample_strong_frequency(p.box_modes(), p, seed=5)
    f = tmp_path / "freq.json"
    f.write_text(frequency_dumps(omega))
    args = ("dioph-check", str(f), "--d", "2", "--gamma", "0.01",
            "--ell-budget", "3")
    capsys.readouterr()
    assert run_cli(*args, "--radius", "1") == 0
    assert "violations 0" in capsys.readouterr().out
    assert run_cli(*args, "--radius", "0") == 1
    assert _one_error_line(capsys) == (
        "error: mode (-1, -1) lies outside the box of radius 0")


def test_kam_run_rejects_frequency_of_other_dimension(tmp_path, capsys):
    from nlskam.diophantine import frequency_dumps
    f = tmp_path / "freq.json"
    f.write_text(frequency_dumps({(m,): 0.1 for m in (-1, 0, 1)}))
    capsys.readouterr()
    assert run_cli("kam-run", "--d", "2", "--radius", "1", "--freq", str(f),
                   "--out-prefix", str(tmp_path / "k")) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: mode (-1,) has dimension 1, expected 2"
    assert not (tmp_path / "k.steps.csv").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--d", "0", "error: dimension must be >= 1, got 0"),
    ("--radius", "-1", "error: mode_radius must be >= 0, got -1"),
])
def test_measure_rejects_bad_dimension_and_radius(tmp_path, capsys, flag,
                                                  value, message):
    out = tmp_path / "m.csv"
    capsys.readouterr()
    assert run_cli("measure", "--trials", "10", "--gamma", "0.05",
                   flag, value, "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def test_tl_check_table(tmp_path):
    h = tmp_path / "h.json"
    run_cli("build-nls", "--d", "1", "--radius", "2", "--eps", "1e-6",
            "--out", str(h))
    out = tmp_path / "tl.csv"
    assert run_cli("tl-check", str(h), "--n", "0", "--m", "0", "--l", "1",
                   "--t", "1", "--t", "2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,defect_qq,defect_qqbar,defect_qbarqbar"
    assert lines[-1].startswith("C,")
    assert run_cli("tl-check", str(h), "--n", "0", "--m", "0", "--l", "1",
                   "--t", "0") == 1


def test_env_seed_default(tmp_path, monkeypatch):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    monkeypatch.setenv("NLSKAM_SEED", "99")
    run_cli("measure", "--trials", "100", "--gamma", "0.05",
            "--out", str(out1))
    monkeypatch.delenv("NLSKAM_SEED")
    run_cli("measure", "--trials", "100", "--gamma", "0.05",
            "--seed", "99", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_overrides_flags(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("radius = 1\n# comment\neps = 1e-5\n")
    out = tmp_path / "h.json"
    assert run_cli("build-nls", "--d", "1", "--radius", "2",
                   "--eps", "1e-6", "--config", str(cfgf),
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["mode_radius"] == 1
    assert len(doc["terms"]) == 8
    cfgf.write_text("no_such_key = 1\n")
    assert run_cli("build-nls", "--config", str(cfgf)) == 1


def test_env_seed_not_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NLSKAM_SEED", "abc")
    assert run_cli("measure", "--trials", "100", "--gamma", "0.05",
                   "--out", str(tmp_path / "m.csv")) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: NLSKAM_SEED must be an integer, got 'abc'"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,env,config", [
    (["kam-run", "--d", "1", "--radius", "1", "--seed", "-1",
      "--out-prefix", "{out}/k"], None, None),
    (["measure", "--trials", "100", "--seed", "-1", "--out", "{out}/m.csv"],
     None, None),
    (["verify-lemmas", "--seed", "-1", "--out", "{out}/v.csv"], None, None),
    (["verify-lemmas", "--lemma", "f_max", "--seed", "-1",
      "--out", "{out}/v.csv"], None, None),
    (["measure", "--trials", "100", "--out", "{out}/m.csv"], "-1", None),
    (["kam-run", "--d", "1", "--radius", "1", "--out-prefix", "{out}/k"],
     None, "seed = -1"),
])
def test_negative_seed_exits_1_with_one_line(tmp_path, monkeypatch, capsys,
                                             argv, env, config):
    out = tmp_path / "out"
    out.mkdir()
    args = [a.format(out=out) for a in argv]
    if env is not None:
        monkeypatch.setenv("NLSKAM_SEED", env)
    if config is not None:
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text(config + "\n")
        args += ["--config", str(cfgf)]
    assert run_cli(*args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: seed must be >= 0, got -1"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [
    ["norms", "{h}"],
    ["build-nls", "--d", "1", "--radius", "1", "--out", "{out}"],
    ["kam-run", "--d", "1", "--radius", "1", "--steps", "0", "--seed", "3",
     "--out-prefix", "{out}"],
    ["measure", "--trials", "100", "--seed", "3", "--out", "{out}"],
])
def test_env_seed_read_only_when_needed(tmp_path, monkeypatch, argv):
    h = tmp_path / "h.json"
    assert run_cli("build-nls", "--d", "1", "--radius", "1",
                   "--out", str(h)) == 0
    monkeypatch.setenv("NLSKAM_SEED", "abc")
    out = str(tmp_path / "out")
    assert run_cli(*(a.format(h=h, out=out) for a in argv)) == 0


@pytest.mark.parametrize("argv,lines,rows", [
    # a repeatable key's file values replace the flag's list
    (["measure", "--trials", "100", "--gamma", "0.01"],
     ["gamma = 0.05", "gamma = 0.1"], ["0.050000000000000003,100,",
                                        "0.10000000000000001,100,"]),
    (["verify-lemmas", "--samples", "3"], ["lemma = g_max"], ["g_max,"]),
])
def test_config_repeatable_key(tmp_path, argv, lines, rows):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--config", str(cfgf), "--out", str(out)) == 0
    body = out.read_text().splitlines()[1:]
    assert len(body) == len(rows)
    assert all(line.startswith(row) for line, row in zip(body, rows))


@pytest.mark.parametrize("line,message", [
    ("command = norms", "{cfg}:1: unknown key 'command'"),
    ("radius = x", "{cfg}: argument --radius: invalid int value: 'x'"),
    ("strict = maybe", "{cfg}:1: strict must be true or false, got 'maybe'"),
])
def test_config_bad_value_exits_1_with_one_line(tmp_path, capsys, line,
                                                message):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(line + "\n")
    assert run_cli("kam-run", "--d", "1", "--radius", "1", "--steps", "0",
                   "--config", str(cfgf),
                   "--out-prefix", str(tmp_path / "k")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: " + message.format(cfg=cfgf)]
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_config_switch_values(tmp_path):
    # at degree cap 4 the Lie series is capped, so strict fails the step
    cfgf = tmp_path / "run.cfg"
    argv = ["kam-run", "--d", "1", "--radius", "1", "--degree-cap", "4",
            "--config", str(cfgf), "--out-prefix", str(tmp_path / "k")]
    cfgf.write_text("strict = yes\n")
    assert run_cli(*argv) == 1
    cfgf.write_text("strict = false\n")
    assert run_cli(*argv, "--strict") == 0


def test_byte_determinism_across_runs_and_threads(tmp_path):
    outs = []
    for i, threads in enumerate(("1", "1", "4")):
        prefix = tmp_path / f"k{i}"
        assert run_cli("kam-run", "--d", "1", "--radius", "2",
                       "--eps", "1e-6", "--steps", "1", "--seed", "7",
                       "--threads", threads,
                       "--out-prefix", str(prefix)) == 0
        outs.append((prefix.with_suffix(".steps.csv").read_bytes(),
                     (tmp_path / f"k{i}.step1.json").read_bytes()))
    assert outs[0] == outs[1] == outs[2]
