import csv
import io
import json
import math
import os
from dataclasses import replace

import pytest

from nlskam import (HamParams, Hamiltonian, KamConfig, cli, driver,
                    linear_combine, poisson_bracket, run)
from nlskam.cli import dispatch
from nlskam.nls import build_cubic_nls

from mi_helpers import (run_cli_in_fresh_process, run_cli_with_memory_cap,
                        to_dict)


def run_cli(*argv):
    return dispatch(list(argv))


@pytest.fixture(scope="module")
def omega_file(tmp_path_factory):
    """A strong-Diophantine frequency of the d=1 R=2 box, sampled at gamma
    0.1 and seed 7."""
    from nlskam.diophantine import frequency_dumps, sample_strong_frequency
    omega, _ = sample_strong_frequency(HamParams(d=1, mode_radius=2), 0.1,
                                       6, seed=7)
    f = tmp_path_factory.mktemp("freq") / "omega.json"
    f.write_text(frequency_dumps(omega))
    return f


class _Stop(Exception):
    pass


def test_kam_run_defaults_are_kam_configs(tmp_path, monkeypatch):
    seen = []

    def capture(cfg, omega):
        seen.append((cfg, omega))
        raise _Stop

    monkeypatch.setattr(cli, "run", capture)
    with pytest.raises(_Stop):
        run_cli("kam-run", "--seed", "5", "--out-prefix", str(tmp_path / "k"))
    assert seen == [(replace(KamConfig(), seed=5), None)]
    assert list(tmp_path.iterdir()) == []


def test_build_nls_defaults_build_kam_configs_equation(tmp_path):
    out = tmp_path / "h.json"
    assert run_cli("build-nls", "--out", str(out)) == 0
    assert out.read_text() == build_cubic_nls(KamConfig().nls).dumps()


def test_documents_are_the_dumps_bytes_in_a_file_and_on_stdout(tmp_path,
                                                              capsys):
    # build-nls and bracket write term by term; stdout adds one newline
    H = build_cubic_nls(KamConfig().nls)
    h = tmp_path / "h.json"
    assert run_cli("build-nls", "--out", str(h)) == 0
    assert h.read_text() == H.dumps()
    capsys.readouterr()
    assert run_cli("build-nls") == 0
    assert capsys.readouterr().out == H.dumps() + "\n"
    h2 = tmp_path / "h2.json"
    assert run_cli("build-nls", "--eps", "1e-3", "--out", str(h2)) == 0
    B = poisson_bracket(*(Hamiltonian.loads(f.read_text()) for f in (h, h2)))
    assert len(B) > 0
    b = tmp_path / "b.json"
    assert run_cli("bracket", str(h), str(h2), "--out", str(b)) == 0
    assert b.read_text() == B.dumps()
    capsys.readouterr()
    assert run_cli("bracket", str(h), str(h2)) == 0
    assert capsys.readouterr().out == B.dumps() + "\n"


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


def test_kam_run_step_json_is_the_sum_of_the_classes(tmp_path):
    assert run_cli("kam-run", "--seed", "7", "--steps", "1",
                   "--out-prefix", str(tmp_path / "kam")) == 0
    _, states, _ = run(KamConfig(seed=7, steps=1))
    st = states[1]
    total = linear_combine(1.0, linear_combine(1.0, st.R0, 1.0, st.R1),
                           1.0, st.R2)
    assert (tmp_path / "kam.step1.json").read_text() == json.dumps(
        to_dict(total), indent=1)


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
        "error: lie_order_cap must be >= 1, got 0"]
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
    (["norms", "{h}", "--rho", "inf"], "error: rho must be finite, got inf"),
    # refused at the operands' norms, before B is written
    (["bracket", "{h}", "{h}", "--rho", "inf", "--out", "{out}"],
     "error: rho must be finite, got inf"),
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
    (["kam-run", "--radius", "1", "--r", "inf", "--out-prefix", "{out}"],
     "error: r must be finite and >= 1, got inf"),
    (["kam-run", "--radius", "1", "--sigma", "inf", "--out-prefix",
      "{out}"], "error: sigma must be finite and > 2, got inf"),
    (["kam-run", "--radius", "1", "--floor", "inf", "--out-prefix",
      "{out}"], "error: floor_const must be finite and >= 21, got inf"),
    (["build-nls", "--r", "nan", "--out", "{out}"],
     "error: r must be finite and >= 1, got nan"),
    # eps_{s+1} = eps0^(1.5^(s+1)) underflows to 0: at step 9 for the
    # default eps, at step 0 for eps 1e-300
    (["kam-run", "--radius", "1", "--steps", "10", "--out-prefix", "{out}"],
     "error: step 9: eps_10 underflows to 0; use fewer steps or a larger "
     "eps"),
    (["kam-run", "--radius", "1", "--eps", "1e-300", "--out-prefix",
      "{out}"], "error: step 0: eps_1 underflows to 0; use fewer steps or "
     "a larger eps"),
    (["measure", "--gamma", "0.05", "--gamma", "1.5", "--out",
      "{out}.csv"], "error: gamma must lie in [0,1), got 1.5"),
    # gamma and eps are refused before H is built or omega sampled
    (["kam-run", "--radius", "1", "--gamma", "0", "--out-prefix", "{out}"],
     "error: gamma must be > 0, got 0.0"),
    (["kam-run", "--radius", "1", "--gamma", "0", "--steps", "0",
      "--out-prefix", "{out}"], "error: gamma must be > 0, got 0.0"),
    (["kam-run", "--radius", "1", "--eps", "0", "--out-prefix", "{out}"],
     "error: epsilon must be > 0"),
    # gamma >= 1 is refused whether omega is sampled or read from --freq
    (["kam-run", "--radius", "1", "--gamma", "1", "--out-prefix", "{out}"],
     "error: gamma must be < 1, got 1.0"),
    (["kam-run", "--radius", "2", "--freq", "{freq}", "--gamma", "1.5",
      "--out-prefix", "{out}"], "error: gamma must be < 1, got 1.5"),
    (["kam-run", "--radius", "2", "--freq", "{freq}", "--gamma", "1.5",
      "--steps", "0", "--out-prefix", "{out}"],
     "error: gamma must be < 1, got 1.5"),
    (["kam-run", "--radius", "1", "--lie-order-cap", "0", "--steps", "0",
      "--out-prefix", "{out}"], "error: lie_order_cap must be >= 1, got 0"),
    # the l-budget is refused up front even when omega is read from --freq
    (["kam-run", "--radius", "2", "--freq", "{freq}", "--ell-budget", "0",
      "--steps", "1", "--out-prefix", "{out}"],
     "error: ell_budget must be >= 1"),
    (["kam-run", "--radius", "2", "--freq", "{freq}", "--ell-budget", "-3",
      "--steps", "0", "--out-prefix", "{out}"],
     "error: ell_budget must be >= 1"),
    # all three norms are computed before any is printed
    (["norms", "{h}", "--rho", "1"],
     "error: need rho < r for star_rho, got rho=1.0"),
    (["measure", "--ell-budget", "0", "--out", "{out}.csv"],
     "error: ell_budget must be >= 1"),
    (["measure", "--radius", "-1", "--out", "{out}.csv"],
     "error: mode_radius must be >= 0, got -1"),
    (["measure", "--d", "0", "--out", "{out}.csv"],
     "error: dimension must be >= 1, got 0"),
    (["dioph-check", "{freq}", "--gamma", "1.5"],
     "error: gamma must lie in [0,1), got 1.5"),
    (["dioph-check", "{freq}", "--ell-budget", "0"],
     "error: ell_budget must be >= 1"),
    # refused at the first underflow, long before 1.5^s overflows
    (["kam-run", "--radius", "1", "--steps", "1000000", "--out-prefix",
      "{out}"], "error: step 9: eps_10 underflows to 0; use fewer steps or "
     "a larger eps"),
    # ln(1024)^1e6 is not a finite double
    (["kam-run", "--radius", "1", "--sigma", "1e6", "--out-prefix",
      "{out}"], "error: sigma 1000000.0 overflows the weight "
     "ln^sigma(1024) of the box's largest mode"),
])
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, omega_file, argv,
                                         message):
    h = tmp_path / "h.json"
    run_cli("build-nls", "--d", "1", "--radius", "1", "--eps", "1e-6",
            "--out", str(h))
    capsys.readouterr()
    args = [a.format(h=h, out=tmp_path / "out", freq=omega_file)
            for a in argv]
    assert run_cli(*args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
    assert os.listdir(tmp_path) == ["h.json"]


@pytest.mark.parametrize("argv,out,column", [
    (["kam-run", "--radius", "1", "--out-prefix", "{out}"], "{out}.steps.csv",
     "wall_time"),
    (["verify-lemmas", "--lemma", "g_max", "--lemma", "monotonicity",
      "--samples", "2", "--out", "{out}"], "{out}", "seconds"),
])
@pytest.mark.parametrize("timings", [False, True])
def test_timings_flag_fills_the_time_column(tmp_path, argv, out, column,
                                            timings):
    prefix = tmp_path / "out"
    args = [a.format(out=prefix) for a in argv]
    assert run_cli(*args, *(["--timings"] if timings else [])) == 0
    with open(out.format(out=prefix)) as fh:
        times = [row[column] for row in csv.DictReader(fh)]
    assert times
    if timings:
        assert all(float(t) > 0.0 for t in times)
    else:
        assert set(times) == {"0"}


def test_kam_run_refuses_a_late_underflow_before_step_0(tmp_path, capsys,
                                                        monkeypatch):
    def no_step(*args):
        raise AssertionError("a step ran before the schedule was checked")
    monkeypatch.setattr(driver, "kam_step", no_step)
    assert run_cli("kam-run", "--radius", "1", "--eps", "1e-6", "--steps",
                   "10", "--out-prefix", str(tmp_path / "out")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: step 9: eps_10 underflows to 0; use fewer steps or a larger "
        "eps"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag,value", [
    ("--r", "6"), ("--r", "1e308"), ("--sigma", "3.5"), ("--floor", "3e6"),
])
def test_kam_run_at_extreme_lattice_parameters(tmp_path, capsys, flag,
                                               value):
    # r w(n) > 709.8: the unit state underflows to 0, e^{r w(n)} overflows
    assert run_cli("kam-run", "--radius", "1", flag, value,
                   "--out-prefix", str(tmp_path / "k")) == 0
    assert capsys.readouterr().err == ""
    text = (tmp_path / "k.steps.csv").read_text()
    assert "nan" not in text and "inf" not in text.split("\n", 1)[1]


def test_norms_of_a_huge_r_document(tmp_path, capsys):
    h = tmp_path / "h.json"
    assert run_cli("build-nls", "--r", "1e308", "--out", str(h)) == 0
    assert run_cli("norms", str(h)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == [
        "sup_rho", "star_rho", "plus_rho"]
    assert all(math.isfinite(float(ln.split()[1])) for ln in lines)


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


@pytest.mark.parametrize("argv", [
    ["kam-run", "--d", "3", "--radius", "1", "--steps", "0",
     "--out-prefix", "OUT"],
    ["measure", "--d", "3", "--radius", "1", "--out", "OUT"],
    ["dioph-check", "FREQ"],
])
def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                             omega_file, argv):
    # an l-table that fits physical memory but fails its allocation
    from nlskam import diophantine

    def too_large(modes, d, ell_budget, gammas):
        raise MemoryError("Unable to allocate 7.87 GiB for an array with "
                          "shape (39146184, 27) and data type int8")

    monkeypatch.setattr(diophantine, "_ell_table", too_large)
    where = {"OUT": str(tmp_path / "out"), "FREQ": str(omega_file)}
    assert run_cli(*(where.get(a, a) for a in argv)) == 3
    assert capsys.readouterr().err == (
        "capacity: Unable to allocate 7.87 GiB for an array with shape "
        "(39146184, 27) and data type int8\n")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["measure", "--trials", "10", "--ell-budget", "200", "--out", "OUT"],
    ["dioph-check", "FREQ", "--ell-budget", "200"],
])
def test_an_ell_table_beyond_memory_is_refused_before_allocating(
        tmp_path, omega_file, argv):
    # 5 modes at |l| <= 200: 43,210,733,640 rows of 5 int16 values and
    # one float64 bound per gamma, 3 for measure's defaults and 1 here
    need = {"measure": "1,469,164,943,760", "dioph-check": "777,793,205,520"}
    where = {"OUT": str(tmp_path / "out"), "FREQ": str(omega_file)}
    done = run_cli_with_memory_cap([where.get(a, a) for a in argv])
    assert done.returncode == 3
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith("capacity: l-table of 43,210,733,640 rows needs "
                           f"{need[argv[0]]} B, more than the ")
    assert not os.listdir(tmp_path)


def test_measure_draws_beyond_memory_are_refused_before_drawing(tmp_path):
    # one mode at |l| <= 1: a 1-row table, but 1e12 trials of 8 B draws,
    # an 8 B uniform temporary and 1 B of flags per gamma, 3 gammas; the
    # table adds its int8 row, its float copy and 3 float64 bounds
    out = tmp_path / "m.csv"
    done = run_cli_with_memory_cap(
        ["measure", "--trials", "1000000000000", "--radius", "0",
         "--ell-budget", "1", "--out", str(out)])
    assert done.returncode == 3
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith(
        "capacity: measure of 1,000,000,000,000 draws of 1-mode frequencies "
        "needs 19,000,000,000,033 B, more than the ")
    assert not os.listdir(tmp_path)


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
    (_set(["version"], 2), "Hamiltonian document has unsupported version 2"),
])
def test_norms_rejects_malformed_hamiltonian(tmp_path, capsys, edit, match):
    doc = _nls_doc(tmp_path)
    doc = edit(doc) or doc
    h = tmp_path / "bad.json"
    h.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("norms", str(h)) == 1
    assert match in _one_error_line(capsys)


@pytest.mark.parametrize("d,radius,zero,rho,sides", [
    # the default d=1 file
    (1, 2, False, "0.1", ("finite", "finite")),
    # at d=2 the lemma constant exceeds the double range
    (2, 1, False, "0.1", ("finite", "inf")),
    # every norm at rho - delta underflows to 0, constant finite or not
    (1, 2, False, "10", ("-inf", "-inf")),
    (2, 1, False, "10", ("-inf", "-inf")),
    # a zero operand
    (1, 2, True, "0.1", ("-inf", "-inf")),
    (2, 1, True, "0.1", ("-inf", "-inf")),
])
def test_bracket_bound_without_overflow_or_nan(tmp_path, capsys, d, radius,
                                               zero, rho, sides):
    h, b = tmp_path / "h.json", tmp_path / "b.json"
    assert run_cli("build-nls", "--d", str(d), "--radius", str(radius),
                   "--out", str(h)) == 0
    first = h
    if zero:
        doc = json.loads(h.read_text())
        doc["terms"] = []
        first = tmp_path / "z.json"
        first.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("bracket", str(first), str(h), "--rho", rho,
                   "--out", str(b)) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    names, values = zip(*(ln.split() for ln in captured.err.splitlines()))
    assert names == ("log_lhs", "log_rhs", "bound_ok")
    assert tuple("finite" if math.isfinite(float(v)) else v
                 for v in values[:2]) == sides
    assert values[2] == "1"
    assert json.loads(b.read_text())["format"] == "nlskam-hamiltonian"


@pytest.mark.parametrize("edit,code,line", [
    (_set(["terms", 0, "j"], [[0], [0], [1]]), 1,
     "error: at most two J-factors per term"),
    (_set(["terms", 0, "k"], [[[0, 0], 1]]), 1,
     "error: mode (0, 0) has wrong dimension"),
    (_set(["terms", 0, "k_bar"], [[[2], 1]]), 1,
     "error: mode (2,) outside radius 1"),
    (_set(["terms", 0, "j"], [[-2]]), 1,
     "error: J-mode (-2,) outside radius 1"),
    (_set(["terms", 0, "k"], [[[0], 15]]), 3,
     "capacity: term degree 17 exceeds cap 16"),
])
def test_norms_rejects_invalid_terms(tmp_path, capsys, edit, code, line):
    doc = _nls_doc(tmp_path)
    edit(doc)
    h = tmp_path / "bad.json"
    h.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("norms", str(h)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


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


@pytest.mark.parametrize("argv,fraction", [
    (("--gamma", "0", "--trials", "5", "--radius", "0"), "0"),
    (("--gamma", "0.5", "--trials", "1"), "1"),
])
def test_measure_stderr_is_zero_at_fraction_0_and_1(tmp_path, argv,
                                                   fraction):
    out = tmp_path / "m.csv"
    assert run_cli("measure", *argv, "--seed", "0", "--out", str(out)) == 0
    (row,) = csv.DictReader(io.StringIO(out.read_text()))
    assert (row["fraction"], row["stderr"]) == (fraction, "0")


@pytest.mark.parametrize("box", [
    ("--d", "1", "--radius", "2", "--ell-budget", "6"),
    ("--d", "2", "--radius", "1", "--ell-budget", "4"),
])
def test_measure_csv_does_not_depend_on_blas_threads(tmp_path, box):
    # measure is the one command whose products go through BLAS; its
    # table keeps one l per +-l pair, which relies on the product's
    # columns for l and -l being negatives at every thread count
    texts = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"m{threads}.csv"
        run_cli_in_fresh_process(
            ["measure", "--gamma", "0.01", "--gamma", "0.05", "--gamma",
             "0.1", "--trials", "10000", *box, "--seed", "0",
             "--out", str(out)], threads)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_verify_lemmas_subset(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert run_cli("verify-lemmas", "--lemma", "g_max", "--lemma",
                   "monotonicity", "--samples", "10",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("name,params,")
    assert len(lines) == 3
    capsys.readouterr()
    assert run_cli("verify-lemmas", "--lemma", "nope") == 1
    assert _one_error_line(capsys) == "error: unknown lemma 'nope'"


def test_verify_lemmas_deterministic_lemmas_record_one_sample(tmp_path):
    out = tmp_path / "v.csv"
    assert run_cli("verify-lemmas", "--lemma", "f_max", "--lemma",
                   "poly_product", "--lemma", "log_superadditivity",
                   "--samples", "7", "--out", str(out)) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [(r["name"], r["samples"]) for r in rows] == [
        ("f_max", "1"), ("poly_product", "1"), ("log_superadditivity", "7")]


def test_dioph_check_roundtrip(tmp_path, capsys):
    from nlskam.diophantine import frequency_dumps, sample_strong_frequency
    omega, _ = sample_strong_frequency(HamParams(d=1, mode_radius=1), 0.05,
                                       3, seed=3)
    f = tmp_path / "freq.json"
    f.write_text(frequency_dumps(omega))
    assert run_cli("dioph-check", str(f), "--gamma", "0.05",
                   "--ell-budget", "3", "--radius", "1") == 0
    zero = {m: 0.0 for m in omega}
    f.write_text(frequency_dumps(zero))
    assert run_cli("dioph-check", str(f), "--gamma", "0.05",
                   "--ell-budget", "3", "--radius", "1") == 1


def test_dioph_check_reports_an_overflowing_frequency(tmp_path, capsys):
    # omega = 1e308 at each mode: 46 of the 62 sums <l, omega> overflow,
    # and their NaN distances are violations, reported without a warning
    from nlskam.diophantine import frequency_dumps
    f = tmp_path / "freq.json"
    f.write_text(frequency_dumps({(m,): 1e308 for m in (-1, 0, 1)}))
    capsys.readouterr()
    assert run_cli("dioph-check", str(f), "--gamma", "0.1",
                   "--ell-budget", "3", "--radius", "1") == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == ["checked 62", "violations 68"]
    assert captured.err == ""


@pytest.mark.parametrize("doc,match", [
    ([[[0], 0.1]], "not a frequency document"),
    ({"format": "nlskam-frequency"}, "'omega' list"),
    ({"format": "nlskam-frequency", "version": 1, "omega": []},
     "'omega' list is empty"),
    ({"format": "nlskam-frequency", "omega": [[[0], "abc"]]},
     "not a finite number"),
    ({"format": "nlskam-frequency", "omega": [[["a"], 0.1]]},
     "not a list of integers"),
    ({"format": "nlskam-frequency", "omega": [[[0], float("inf")]]},
     "not a finite number"),
    ({"format": "nlskam-frequency", "omega": [[[0, 0], 0.1]]},
     "has dimension 2, expected 1"),
    ({"format": "nlskam-frequency", "version": 2, "omega": [[[0], 0.1]]},
     "frequency document has unsupported version 2"),
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
    from nlskam.diophantine import frequency_dumps, sample_strong_frequency
    omega, _ = sample_strong_frequency(HamParams(d=2, mode_radius=1), 0.01,
                                       3, seed=5)
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


@pytest.mark.parametrize("argv", [
    ["kam-run", "--freq", "FREQ", "--out-prefix", "OUT"],
    ["dioph-check", "FREQ"],
])
def test_a_frequency_mode_outside_the_box_is_refused(tmp_path, capsys,
                                                     argv):
    from nlskam.diophantine import frequency_dumps, sample_frequency
    omega = sample_frequency(HamParams(d=1, mode_radius=2).box_modes(), 3)
    omega.update({(9,): 0.1, (-7,): 0.2})
    f = tmp_path / "freq.json"
    f.write_text(frequency_dumps(omega))
    capsys.readouterr()
    where = {"FREQ": str(f), "OUT": str(tmp_path / "k")}
    assert run_cli(*(where.get(a, a) for a in argv)) == 1
    assert _one_error_line(capsys) == (
        "error: mode (-7,) lies outside the box of radius 2")
    assert os.listdir(tmp_path) == ["freq.json"]


@pytest.mark.parametrize("argv,flags", [
    (["dioph-check", "FREQ"],
     ["--gamma", "0.1", "--ell-budget", "6", "--d", "1", "--radius", "2"]),
    (["measure", "--trials", "50"], ["--d", "1", "--radius", "2"]),
])
def test_diophantine_defaults_are_kam_configs(tmp_path, capsys, argv, flags):
    from nlskam.diophantine import frequency_dumps
    lattice = KamConfig().nls.params
    f = tmp_path / "freq.json"
    f.write_text(frequency_dumps(
        {m: 0.25 * (i % 3) for i, m in enumerate(lattice.box_modes())}))
    argv = [str(f) if a == "FREQ" else a for a in argv]
    capsys.readouterr()
    code = run_cli(*argv)
    bare = capsys.readouterr()
    assert run_cli(*argv, *flags) == code
    assert capsys.readouterr() == bare
    assert bare.out.count("\n") > 3 and bare.err == ""


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
    # twice in this process, whose layouts outlive a run, then in fresh
    # processes with 1 and 4 BLAS threads
    argv = ["kam-run", "--d", "1", "--radius", "2", "--eps", "1e-6",
            "--steps", "1", "--seed", "7"]
    outs = []
    for i, threads in enumerate((None, None, "1", "4")):
        prefix = tmp_path / f"k{i}"
        if threads is None:
            assert run_cli(*argv, "--out-prefix", str(prefix)) == 0
        else:
            run_cli_in_fresh_process(
                [*argv, "--out-prefix", str(prefix)], threads)
        outs.append((prefix.with_suffix(".steps.csv").read_bytes(),
                     (tmp_path / f"k{i}.step1.json").read_bytes()))
    assert outs[0] == outs[1] == outs[2] == outs[3]
