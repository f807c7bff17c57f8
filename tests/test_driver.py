import math
from dataclasses import replace

import pytest

import nlskam
from nlskam import (
    Hamiltonian,
    KamConfig,
    ValidationError,
    final_remainder_check,
    initial_state,
    kam_step,
    linear_combine,
    norm,
    run,
    schedule,
    tl_defect,
)
from nlskam.driver import STEP_CSV_SCHEMA, KamState, _eps0_of, class_norms
from nlskam.homological import RHO0
from nlskam.nls import NlsConfig, build_cubic_nls

CFG = KamConfig(d=1, mode_radius=2, epsilon=1e-6, seed=7, steps=1)


def test_schedule_closed_forms():
    eps0 = 1e-7
    s0 = schedule(0, eps0)
    assert s0.rho_s == pytest.approx(RHO0)
    assert s0.delta_s == pytest.approx(RHO0 / (4.0 * math.log(4.0) ** 2))
    assert s0.eps_s == eps0
    assert s0.lambda_s == pytest.approx(eps0 ** 0.01)
    s1 = schedule(1, eps0)
    assert s1.rho_s == pytest.approx(s0.rho_next)
    assert s1.eps_s == pytest.approx(eps0 ** 1.5)
    assert s1.d_s == pytest.approx(1.0 / math.pi ** 2)
    assert s1.eta_s == pytest.approx(eps0 ** 0.01 * eps0 ** 0.01 / 20.0)
    # the analyticity loss stays summable: rho_s bounded by 3 rho_0-ish
    s_big = schedule(50, eps0)
    assert s_big.rho_s < 10 * RHO0
    with pytest.raises(ValidationError):
        schedule(-1, eps0)
    with pytest.raises(ValidationError):
        schedule(0, 1.5)


def test_initial_state_classes():
    state, H = initial_state(CFG)
    assert state.s == 0
    # class-2 terms carry exactly two J factors, classes 0/1 fewer
    assert all(len(key[3]) == 2 for key in state.R2.terms)
    assert all(len(key[3]) == 0 for key in state.R0.terms)
    assert all(len(key[3]) == 1 for key in state.R1.terms)
    eps0 = _eps0_of(CFG)
    n0, n1, n2 = state.norms
    assert state.norms == class_norms(state.R0, state.R1, state.R2,
                                      schedule(0, eps0).rho_s)
    assert n0 <= eps0 * (1 + 1e-9)
    assert n1 <= eps0 ** 0.6
    assert n2 <= (1 + 0.0) * eps0 * (1 + 1e-9)


def test_single_step_contracts_and_reports():
    state, _ = initial_state(CFG)
    sched = schedule(0, _eps0_of(CFG))
    new_state, report = kam_step(state, sched, CFG)
    assert new_state.s == 1
    assert report.residual_rel <= 1e-10
    assert report.norms_after[0] < report.norms_before[0] * 1e-4
    assert all(report.flags.values()), report.flags
    row = report.csv_row()
    assert len(row.split(",")) == len(STEP_CSV_SCHEMA.split(","))


def test_step_entry_bounds_enforced():
    state, _ = initial_state(CFG)
    big = state.R0.scale(1e6)
    bad = KamState(nf=state.nf, R0=big, R1=state.R1, R2=state.R2, s=0,
                   norms=class_norms(big, state.R1, state.R2, RHO0))
    sched = schedule(0, _eps0_of(CFG))
    with pytest.raises(ValidationError):
        kam_step(bad, sched, CFG)
    # force pushes through regardless
    kam_step(bad, sched, replace(CFG, force=True))


def test_schedule_rho_next_is_next_rho_s():
    # the carried norms of a state are valid only if these are bit-equal
    for s in range(31):
        assert schedule(s, 1e-7).rho_next == schedule(s + 1, 1e-7).rho_s


def test_norms_are_carried_between_steps():
    reports, states, _ = run(replace(CFG, steps=2))
    assert reports[1].norms_before == reports[0].norms_after
    for rep, st in zip(reports, states):
        assert rep.norms_before == st.norms


def test_one_norm_pass_per_state(monkeypatch):
    # criterion 6's config: three states, three class norms each
    calls = []
    real = nlskam.hamiltonian.norm

    def counting(H, kind, rho):
        calls.append(kind)
        return real(H, kind, rho)

    for mod in (nlskam.hamiltonian, nlskam.driver, nlskam.homological):
        monkeypatch.setattr(mod, "norm", counting)
    run(replace(CFG, steps=2, prune_tol=0.0))
    assert calls.count("plus_rho") == 9


@pytest.fixture(scope="module")
def exact_states():
    # criterion 6's config: no pruning, three states
    return run(replace(CFG, steps=2, prune_tol=0.0))[1]


def test_class_parts_are_their_own_collected_forms(exact_states):
    for st in exact_states:
        for R in (st.R0, st.R1, st.R2):
            assert R.collected() is R


def test_class_norms_read_the_parts_as_a_recollection_would(
        exact_states, monkeypatch):
    # a part's plus norm collects nothing, and has the bits of the norm of
    # a fresh copy, which re-expands and re-collects the part's terms
    for st in exact_states:
        rho = schedule(st.s, _eps0_of(CFG)).rho_s
        parts = (st.R0, st.R1, st.R2)
        fresh = [norm(Hamiltonian(R.params, R.terms), "plus_rho", rho)
                 for R in parts]
        with monkeypatch.context() as m:
            m.setattr(nlskam.hamiltonian, "_collect_term", None)
            own = [norm(R, "plus_rho", rho) for R in parts]
        assert [x.hex() for x in own] == [x.hex() for x in fresh]
        assert st.norms == tuple(own)


def test_budget_flag_fails_when_the_ledger_exceeds_eps_next():
    cfg = replace(CFG, prune_tol=1e-9)
    state, _ = initial_state(cfg)
    sched = schedule(0, _eps0_of(cfg))
    _, report = kam_step(state, sched, cfg)
    assert report.flags["budget"] and report.error_budget < sched.eps_next
    # a class-2 term of mass 4e-10, above eps_next (6.3e-11) and below
    # prune_tol: the final prune drops it into the ledger
    m = state.nf.modes[0]
    heavy = Hamiltonian.monomial(
        state.R2.params, k=[((-1,), 1), ((2,), 1)],
        k_bar=[((0,), 1), ((1,), 1)], j=(m, m), coeff=1e-10)
    R2 = linear_combine(1.0, state.R2, 1.0, heavy)
    state = replace(state, R2=R2,
                    norms=class_norms(state.R0, state.R1, R2, RHO0))
    _, report = kam_step(state, sched, cfg)
    assert report.error_budget > sched.eps_next
    assert [k for k, v in report.flags.items() if not v] == ["budget"]
    assert report.csv_row().split(",")[15] == "0"
    with pytest.raises(ValidationError, match="budget"):
        kam_step(state, sched, replace(cfg, strict=True))


def test_run_steps0_row():
    reports, states, _ = run(KamConfig(d=1, mode_radius=1, epsilon=1e-6,
                                       steps=0, seed=7))
    assert len(reports) == 1 and len(states) == 1
    assert reports[0].flags["initial_norm"]
    assert reports[0].norms_before == reports[0].norms_after


def test_run_determinism():
    r1, _, _ = run(CFG)
    r2, _, _ = run(CFG)
    a = r1[0].csv_row().rsplit(",", 1)[0]   # strip wall time
    b = r2[0].csv_row().rsplit(",", 1)[0]
    assert a == b


def test_frequency_freezing_keeps_omega():
    state, _ = initial_state(CFG)
    sched = schedule(0, _eps0_of(CFG))
    new_state, report = kam_step(state, sched, CFG)
    # divisors always use the sampled omega; the parameter moved instead
    assert new_state.nf.v_hat == state.nf.v_hat
    for m in state.nf.modes:
        assert new_state.nf.v_star[m] + new_state.nf.cum_shift[m] == \
            pytest.approx(state.nf.v_hat[m], abs=1e-12)


def test_final_remainder_check():
    _, states, _ = run(CFG)
    val, ok = final_remainder_check(states[-1], _eps0_of(CFG))
    assert ok and val >= 0.0


def test_tl_defect_validation():
    H = build_cubic_nls(NlsConfig(d=1, mode_radius=2, epsilon=1e-6))
    with pytest.raises(ValidationError):
        tl_defect(H, (0,), (0,), (1,), [])
    with pytest.raises(ValidationError):
        tl_defect(H, (0,), (0,), (1,), [0, 1])
    with pytest.raises(ValidationError):
        tl_defect(H, (0,), (0,), (1,), [5])


def test_tl_defect_quadratic_translation_invariant():
    params = NlsConfig(d=1, mode_radius=2, epsilon=1e-6).ham_params
    flat = Hamiltonian.from_terms(
        params, [((), [(m, 1)], [(m, 1)], (), 0.5)
                 for m in params.box_modes()])
    rows, fitted = tl_defect(flat, (0,), (0,), (1,), [1, 2])
    for t, f1, f2, f3 in rows:
        assert f1 == f2 == f3 == 0.0
    assert fitted == (0.0, 0.0, 0.0)


def test_tl_defect_quartic_decreasing():
    H = build_cubic_nls(NlsConfig(d=1, mode_radius=2, epsilon=1e-6))
    rows, fitted = tl_defect(H, (0,), (0,), (1,), [1, 2])
    by_t = {row[0]: row[1:] for row in rows}
    for fam in range(3):
        assert by_t[1][fam] >= by_t[2][fam]
        assert fitted[fam] >= 0.0
