"""`kam-run` output bytes, pinned.

The step CSV text and the sha256 of every step JSON of two fixed runs,
recorded before the Hamiltonian store moved to packed int keys.  Any
change to the algebra that reorders a sum or an insertion moves these
bytes (criterion 6's step-1 r0_after is rounding residue), so a refactor
that claims bit identity must keep them.
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
         "9.4663308626521417e-30,1,1.4689605026795569e-24,0",
         "1,0.0023853033660416424,6.3493635934240961e-11,"
         "2.9979684385649846e-14,2.9979684385649846e-14,"
         "8.7045746433320353e-08,1.5438890441658605e-30,"
         "3.6412375171057133e-37,7.8719615476740278e-08,"
         "0.43625310756712032,0,1.9441217645614639e-233,"
         "5.8671171961812359e-234,1.316163361383038e-16,"
         "1.2037062152420224e-35,0,2.3873258475488907e-06,0"],
        ["13a28e9347878344ba33e1c5f01c4b7713f1edf180d081df61917f8818967ffa",
         "ed3ca87e4ee92ac1264562383958debfce3516f3a76be3d72e4d07aed2ed04c8",
         "43d16b29e214df34b450eeed3250b255302ca8951ec304fa03cb504affc05eb3"],
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
