"""`kam-run` and `verify-lemmas` output bytes, pinned.

The step CSV text and the sha256 of every step JSON of two fixed runs,
recorded before the Hamiltonian store moved to packed int keys.  Any
change to the algebra that reorders a sum or an insertion moves these
bytes (criterion 6's step-1 r0_after is rounding residue), so a refactor
that claims bit identity must keep them.  The kam_exact run was
re-recorded when the bracket began to visit a pair's common modes in
mode order instead of a set's iteration order: that moved step 0's
error_budget and step 1's residual_rel in their last digits, and the
step-1 and step-2 documents; the kam_d2 run did not move.

The default lemma suite's CSV (seconds written as 0), recorded before
the per-params lookups moved into the key layout.  Its margins are
fixed by the random draws and by every norm's floating-point order, so
a change to either moves them.
"""

import hashlib

import pytest

from nlskam.cli import dispatch

HEADER = ("s,rho,eps,r0_before,r1_before,r2_before,r0_after,r1_after,"
          "r2_after,min_divisor,deferred_mass,shift_magnitude,vf_proxy,"
          "residual_rel,reality_defect,flags_ok,error_budget,wall_time")

RUNS = {
    # criterion 6's config, as perfbench's kam_exact workload runs it
    "kam_exact": (
        ["--d", "1", "--radius", "2", "--eps", "1e-6", "--steps", "2",
         "--prune-tol", "0", "--seed", "7"],
        [HEADER,
         "0,0.0017157287525380971,1.5915494309189532e-07,"
         "1.0311302296231062e-07,2.0622604592462123e-07,"
         "1.0311302296231062e-07,2.9979684385649846e-14,"
         "2.9979684385649846e-14,8.7045746433320353e-08,"
         "0.92758635657799093,0,1.2890391081330278e-116,"
         "4.163958638012689e-117,9.5036874444379338e-17,"
         "9.4663308626521417e-30,1,1.4689605026795554e-24,0",
         "1,0.0023853033660416424,6.3493635934240961e-11,"
         "2.9979684385649846e-14,2.9979684385649846e-14,"
         "8.7045746433320353e-08,1.5438890441658605e-30,"
         "3.6412375171057133e-37,7.8719615476740278e-08,"
         "0.43625310756712032,0,1.9441217645614639e-233,"
         "5.8671171961812359e-234,1.3161633545165908e-16,"
         "1.2037062152420224e-35,0,2.3873258475488907e-06,0"],
        ["13a28e9347878344ba33e1c5f01c4b7713f1edf180d081df61917f8818967ffa",
         "9a4522ed2a902cafc45297e00024187aa0ef21cf454b4810f87d1e861c4897c4",
         "f7ad50ff00eb0156d07c8f9ca9a3bfaad524be8c7cc5560ffea862c690e8ad1f"],
    ),
    # perfbench's kam_d2 config at program seed 7
    "kam_d2": (
        ["--d", "2", "--radius", "1", "--eps", "1e-6", "--gamma", "0.01",
         "--steps", "1", "--seed", "7"],
        [HEADER,
         "0,0.0017157287525380971,2.5330295910584444e-08,"
         "1.6410947301599845e-08,3.2821894603199691e-08,"
         "1.6410947301599845e-08,2.9913539887374033e-15,"
         "3.9578148142586958e-15,1.3853760819986655e-08,"
         "0.050000850995795432,0,3.4192824316356602e-117,"
         "8.9182110915847152e-117,5.8998112192917884e-16,"
         "1.1675141397270975e-28,1,2.4401938156305933e-18,0"],
        ["5f28229450c8c0ac220636e9358bae0899c11e53757f70f0879f02ae2240ae28",
         "520026d3b390003bf773eb1dddc0836f51cd15510c1b001134d29ecde20acc65"],
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_kam_run_bytes_are_pinned(tmp_path, capsys, name):
    flags, csv_lines, json_sha256 = RUNS[name]
    prefix = tmp_path / "run"
    assert dispatch(["kam-run", *flags, "--out-prefix", str(prefix)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "")
    steps = tmp_path / "run.steps.csv"
    assert steps.read_text() == "\n".join(csv_lines) + "\n"
    assert [hashlib.sha256(
        (tmp_path / f"run.step{i}.json").read_bytes()).hexdigest()
        for i in range(len(json_sha256))] == json_sha256
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["run.steps.csv"] + [f"run.step{i}.json"
                             for i in range(len(json_sha256))])


LEMMA_CSV = """\
name,params,samples,violations,worst_margin,seconds
log_superadditivity,c=1024.0;sigma=2.5,10000,0,29.212266027534923,0
f_max,delta=0.3;sigma=2.5,1,0,1.504594929807709,0
g_max,delta=0.5;p=2.0,1,0,1.1102230246251565e-16,0
log_sum,delta=0.3;sigma=2.5,1,0,181.622931559411,0
geometric_product,d=1;delta=0.3;sigma=2.5,1,0,38380.739040381472,0
poly_product,d=1;delta=0.3;p=2;sigma=2.5,1,0,107.24872917845487,0
monotonicity,,100,0,0.029969685554682657,0
submultiplicativity,,100,0,-3.3996586920220404e-14,0
transfer_up,,100,0,6076.546599389505,0
transfer_down,,100,0,0.98966380758172334,0
bracket_bound,,100,0,6.2971579886405447e+41,0
vector_field_bound,,100,0,38813215632783.219,0
second_derivative_bound,,100,0,5316947842.7912102,0
flow_bound,,100,0,3.6184268735057854e+20,0
gap,,100,0,0,0
"""


def test_verify_lemmas_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "suite.csv"
    assert dispatch(["verify-lemmas", "--seed", "0", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == LEMMA_CSV
