"""Acceptance suite.

Each test prints one `ACCEPTANCE <id> [PASS|FAIL] ...` line (run with -s to
see them live; pytest shows the prints of failing tests regardless).  The
hybrid-scenario grid (4 regimes x 2 connectivities x 2 initial states,
t in [0, 100], tol = 1e-9) is integrated once and shared.

Two checks hold the program to what its documents fix rather than to a
quoted figure:

* criterion 3 compares the exact quantum-channel OTOC of the Bell state
  with 1 - cos(2 (E2 - E3) t) = 1 - cos(4 Omega_n t), taken from the
  documented closed-form eigensystem (the Bell state is the E3 eigenvector
  and sigma1_z maps it onto the E2 one).  The quoted 2 sin^2(4 Omega_n t)
  (``otoc_analytic``) doubles the phase argument; its deviation is printed
  and its disagreement is pinned in test_quantum_channel.py;
* criterion 7d checks tolerance proportionality of the adaptive DP45:
  halving the tolerance halves the endpoint defect, a ratio within
  [1.8, 2.3] (a stepper that ignores tol gives ~1, per-unit-step control
  ~2.4).
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import spinchannel.quantum_channel as qc
from spinchannel.config import preset_config
from spinchannel.correlators import otoc_product
from spinchannel.hybrid_dynamics import (HybridState, OscParams, Regime,
                                         energy_budget, integrate)
from spinchannel.quantum_channel import (QuantumChannelParams, concurrence,
                                         eigensystem, gme, h_total, otoc_numeric,
                                         thermal_concurrence, thermal_density,
                                         thermal_otoc)
from spinchannel.runner import run_scenario
from spinchannel.spin_algebra import (SpinParams, basis_state, bell_phi_minus,
                                      embed, expm_hermitian, pauli)

from oracles import otoc_commutator

SP = SpinParams(omega0=1.5, g=1.0, alpha=math.pi / 3)
S1Z, S2Z = embed(pauli("z"), 1), embed(pauli("z"), 2)
TOL_RUNS = 1e-9

REGIMES = {
    "autonomous_linear": dict(xi=0.0, gamma=0.0, F=0.0),
    "autonomous_nonlinear": dict(xi=1.0, gamma=0.0, F=0.0),
    "driven_linear": dict(xi=0.0, gamma=0.15, F=0.5, Omega=1.0),
    "driven_nonlinear": dict(xi=1.0, gamma=0.15, F=0.5, Omega=1.0),
}
CONNECTIVITIES = (0.1, 10.0)
STATES = {"01": basis_state("01"), "bell": bell_phi_minus()}


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


@pytest.fixture(scope="module")
def hybrid_grid():
    """All 16 hybrid runs (8 scenarios x 2 initial states) at tol = 1e-9."""
    runs = {}
    for regime, kw in REGIMES.items():
        for K in CONNECTIVITIES:
            op = OscParams.from_connectivity(1.0, 1.5, K, **kw)
            for state_name, psi0 in STATES.items():
                ini = HybridState(t=0.0, x1=1.0, v1=0.0, x2=0.0, v2=0.0, psi=psi0)
                start = time.perf_counter()
                series = integrate(ini, op, SP, t_end=100.0, dt_out=0.05, tol=TOL_RUNS)
                runs[(regime, K, state_name)] = (op, series,
                                                 time.perf_counter() - start)
    return runs


def random_channel_params(rng, n_max=50.0):
    omega0 = rng.uniform(1.0, 5.0)
    return QuantumChannelParams(omega0=omega0, omega=omega0 - rng.uniform(0.3, 2.0),
                                g=rng.uniform(0.3, 2.0), n=rng.uniform(0.0, n_max))


def test_criterion_1_classical_channel_null_result(hybrid_grid):
    worst = max(s.otoc.max() for _, s, _ in hybrid_grid.values())
    slowest = max(wall for _, _, wall in hybrid_grid.values())
    ok = worst <= 1e-8 and slowest < 60.0
    assert report(1, ok,
                  f"classical-channel OTOC stays null: max|C(t)| = {worst:.3e} "
                  f"over 16 runs (bound 1e-8), slowest run {slowest:.1f}s"), \
        f"max OTOC {worst:.3e} exceeds 1e-8 or runtime {slowest:.1f}s excessive"


def test_criterion_2_mean_field_separability(hybrid_grid):
    worst = 0.0
    for _, series, _ in hybrid_grid.values():
        samples = np.linspace(0, len(series) - 1, 50).astype(int)
        worst = max(worst, series.sep_defect[samples].max())
    ok = worst <= 1e-8
    assert report(2, ok,
                  f"U(t) is a Kronecker product u1 (x) u2: max Frobenius distance "
                  f"from the nearest product at 50 sample times = {worst:.3e} "
                  f"(bound 1e-8)"), \
        f"U(t) is {worst:.3e} from the nearest Kronecker product, more than 1e-8"


def test_criterion_3_quantum_channel_analytic_match():
    rng = np.random.default_rng(2024)
    tuples = [QuantumChannelParams(n=0.0, **dict(omega0=3.0, omega=2.0, g=1.0))]
    tuples += [random_channel_params(rng) for _ in range(19)]
    bell = bell_phi_minus()
    worst_printed = 0.0
    worst_closed = 0.0
    for p in tuples:
        # The Bell state is the E3 eigenvector and sigma1_z maps it onto the
        # E2 eigenvector, so the OTOC is 1 - cos(2 (E2 - E3) t).
        _, (e2, phi2), (e3, phi3), _ = eigensystem(p)
        assert abs(abs(np.vdot(phi3, bell)) - 1.0) <= 1e-15
        assert abs(abs(np.vdot(phi2, S1Z @ bell)) - 1.0) <= 1e-15
        horizon = 2.0 * math.pi / abs(4 * p.Omega_n)
        for t in np.linspace(0.0, horizon, 100):
            numeric = otoc_numeric(p, t, bell)
            worst_printed = max(worst_printed,
                                abs(numeric - 2 * math.sin(4 * p.Omega_n * t) ** 2))
            worst_closed = max(worst_closed,
                               abs(numeric - (1 - math.cos(2 * (e2 - e3) * t))))
    ok = worst_closed <= 1e-10
    assert report(3, ok,
                  f"numeric OTOC vs eigensystem closed form 1-cos(2(E2-E3)t) = "
                  f"1-cos(4 W t): max dev = {worst_closed:.3e} (bound 1e-10); vs "
                  f"quoted form 2sin^2(4 W t): {worst_printed:.3e}"), (
        f"the exact propagator evaluation of the Bell-state OTOC departs from "
        f"1 - cos(2 (E2 - E3) t) = 1 - cos(4 Omega_n t), the closed form fixed by "
        f"the documented eigensystem, by {worst_closed:.3e} (bound 1e-10).  The "
        f"quoted 2 sin^2(4 Omega_n t) (otoc_analytic) is not the reference: it "
        f"would need E2 - E3 = 4 Omega_n and deviates by {worst_printed:.3e}."
    )


def test_criterion_4_thermal_closed_forms():
    worst_otoc = 0.0
    worst_conc = 0.0
    base = dict(omega0=3.0, omega=2.0, g=1.0)
    for beta in (0.0, 0.01, 0.3, 1.0):
        for n in (0.0, 1.0, 10.0, 100.0):
            p = QuantumChannelParams(n=n, beta=beta, **base)
            H = h_total(p)
            rho = thermal_density(p)
            for t in np.linspace(0.0, 20.0, 25):
                closed = thermal_otoc(p, t)
                U = expm_hermitian(H, t)
                wt = U.conj().T @ S1Z @ U
                traced = 1.0 - np.trace(rho @ wt @ S2Z @ wt @ S2Z).real
                worst_otoc = max(worst_otoc, abs(closed - traced))
                worst_conc = max(worst_conc,
                                 abs(thermal_concurrence(p, t)
                                     - concurrence(U @ rho @ U.conj().T)))
            assert thermal_otoc(p, 0.0) == 0.0
    amps = []
    for n in (10.0, 100.0, 1000.0, 10000.0):
        p = QuantumChannelParams(n=n, beta=0.01, **base)
        amps.append(max(thermal_otoc(p, t) for t in np.linspace(0.0, 100.0, 501)))
    monotone = amps[0] > amps[1] > amps[2] > amps[3]
    ratio = amps[3] / amps[0]
    ok = worst_otoc <= 1e-10 and worst_conc <= 1e-10 and monotone and ratio < 0.01
    assert report(4, ok,
                  f"thermal closed forms vs trace/Wootters routes: OTOC dev "
                  f"{worst_otoc:.3e}, concurrence dev {worst_conc:.3e} (bounds 1e-10); "
                  f"t=0 exactly 0; amplitude family {['%.3g' % a for a in amps]} "
                  f"monotone={monotone}, n=1e4/n=10 ratio {ratio:.2e} < 1%"), \
        f"thermal closed-form checks failed: {worst_otoc:.2e}, {worst_conc:.2e}, " \
        f"monotone={monotone}, ratio={ratio:.2e}"


def test_criterion_5_eigensystem():
    rng = np.random.default_rng(2025)
    params = [QuantumChannelParams(omega0=3.0, omega=2.0, g=1.0, n=0.0)]
    params += [random_channel_params(rng) for _ in range(20)]
    worst_energy = 0.0
    worst_vector = 0.0
    for p in params:
        H = h_total(p)
        numeric = np.linalg.eigvalsh(H)
        analytic = sorted(e for e, _ in eigensystem(p))
        worst_energy = max(worst_energy, np.abs(numeric - analytic).max())
        for energy, vec in eigensystem(p):
            worst_vector = max(worst_vector, np.abs(H @ vec - energy * vec).max())
    ok = worst_energy <= 1e-12 and worst_vector <= 1e-12
    assert report(5, ok,
                  f"closed-form eigensystem vs numeric diagonalization: eigenvalue dev "
                  f"{worst_energy:.3e}, eigenvector residual {worst_vector:.3e} "
                  f"(bounds 1e-12)"), \
        f"eigensystem deviation {worst_energy:.2e}/{worst_vector:.2e} exceeds 1e-12"


def _hp_bell_entanglement(p, t, digits=50):
    """Concurrence and GME of the evolved Bell state in 50-digit arithmetic.

    The 1e-10 bound on GME cannot be certified in double precision: GME has
    an infinite derivative at concurrence 1, so the ~1e-15 rounding floor of
    any eigenvalue pipeline inflates to ~1e-8 under the square root.  This
    route evaluates the same spectral algebra with mpmath so the bound is
    actually resolvable; the double-precision library is cross-checked at
    its own propagated precision below.
    """
    import mpmath as mp

    with mp.workdps(digits):
        s = 1 / mp.sqrt(2)
        vecs = [
            mp.matrix([1, 0, 0, 0]),
            mp.matrix([0, s, s, 0]),
            mp.matrix([0, -s, s, 0]),
            mp.matrix([0, 0, 0, 1]),
        ]
        zeeman = mp.mpf(p.g) ** 2 / (mp.mpf(p.omega0) - mp.mpf(p.omega)) \
            + mp.mpf(p.omega0) / (2 * mp.mpf(p.n) + 1)
        omn = mp.mpf(p.g) ** 2 / ((mp.mpf(p.omega0) - mp.mpf(p.omega))
                                  * (2 * mp.mpf(p.n) + 1))
        energies = [2 * zeeman, omn, -omn, -2 * zeeman]
        U = mp.zeros(4, 4)
        for energy, v in zip(energies, vecs):
            phase = mp.e ** (-1j * energy * mp.mpf(t))
            U += phase * (v * v.transpose_conj())
        bell = mp.matrix([0, s, -s, 0])
        psi_t = U * bell
        rho = psi_t * psi_t.transpose_conj()
        yy = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        R = rho * yy * rho.conjugate() * yy
        roots = sorted((mp.sqrt(abs(ev)) for ev in mp.eig(R, left=False, right=False)),
                       reverse=True)
        c = max(0, roots[0] - roots[1] - roots[2] - roots[3])
        g = (1 - mp.sqrt(abs(1 - c))) / 2
        return float(abs(c - 1)), float(abs(g - mp.mpf(1) / 2))


def test_criterion_6_entanglement_constants():
    p = QuantumChannelParams(omega0=3.0, omega=2.0, g=1.0, n=1.0)
    bell = bell_phi_minus()
    rho0 = np.outer(bell, bell.conj())
    H = h_total(p)
    worst_c_hp = worst_g_hp = 0.0  # 50-digit route, resolves the 1e-10 bound
    worst_c = worst_g = 0.0        # library double-precision route
    for t in np.linspace(0.0, 30.0, 40):
        dc, dg = _hp_bell_entanglement(p, t)
        worst_c_hp = max(worst_c_hp, dc)
        worst_g_hp = max(worst_g_hp, dg)
        U = expm_hermitian(H, t)
        c = concurrence(U @ rho0 @ U.conj().T)
        worst_c = max(worst_c, abs(c - 1.0))
        worst_g = max(worst_g, abs(gme(c) - 0.5))
    # the double pipeline is held to its propagated precision: eps-level on
    # the concurrence, sqrt(eps)-level after the singular map to GME
    ok = (worst_c_hp <= 1e-10 and worst_g_hp <= 1e-10
          and worst_c <= 1e-10 and worst_g <= 1e-6)
    assert report(6, ok,
                  f"evolved Bell state keeps concurrence 1 and GME 0.5: max devs "
                  f"{worst_c_hp:.3e}, {worst_g_hp:.3e} at 50 digits (bounds 1e-10); "
                  f"double-precision library {worst_c:.3e}, {worst_g:.3e}"), \
        f"entanglement constants drifted: hp {worst_c_hp:.2e}/{worst_g_hp:.2e}, " \
        f"double {worst_c:.2e}/{worst_g:.2e}"


def test_criterion_6_on_the_fig8_grid():
    """Criterion 6's double-precision bounds on every row of the fig8 table
    run to t_end 400 (4 x 1906 rows), as the runner writes it."""
    table = run_scenario(dataclasses.replace(preset_config("fig8"), t_end=400.0)).qtable
    assert table["t"].size == 4 * 1906
    worst_c = float(np.abs(table["concurrence"] - 1.0).max())
    worst_g = float(np.abs(table["gme"] - 0.5).max())
    ok = worst_c <= 1e-10 and worst_g <= 1e-6
    assert report(6, ok, f"fig8 table to t_end 400, every row: concurrence dev "
                         f"{worst_c:.3e} (bound 1e-10), GME dev {worst_g:.3e} (bound 1e-6)"), \
        f"fig8 entanglement columns drifted: {worst_c:.2e}/{worst_g:.2e}"


def test_criterion_7a_energy_conservation(hybrid_grid):
    worst = 0.0
    for (regime, K, state), (op, series, _) in hybrid_grid.items():
        if REGIMES[regime]["F"] == 0.0:
            eb = energy_budget(series, SP, op)
            worst = max(worst, eb.max_total_drift_rel)
    ok = worst <= 1e-6
    assert report("7a", ok,
                  f"autonomous runs conserve H0 + <V> + <H_NV> to relative "
                  f"{worst:.3e} over t in [0,100] (bound 1e-6)"), \
        f"conservation drift {worst:.3e} exceeds 1e-6"


def test_criterion_7b_norm_and_unitarity(hybrid_grid):
    worst = 0.0
    for _, series, _ in hybrid_grid.values():
        d = series.diagnostics
        worst = max(worst, d.max_step_norm_drift, d.max_step_unitarity_defect,
                    d.max_output_norm_drift, d.max_output_unitarity_defect)
    ok = worst <= 1e-8
    assert report("7b", ok,
                  f"recorded norm drift and unitarity defect stay at {worst:.3e} "
                  f"(bound 1e-8, before projection)"), \
        f"invariant drift {worst:.3e} exceeds 1e-8"


def test_criterion_7c_time_reversal():
    # H is real symmetric and the autonomous flow has no explicit time
    # dependence, so (x, v, psi) -> (x, -v, conj psi) rewinds the dynamics.
    op = OscParams.from_connectivity(1.0, 1.5, 0.1)
    psi0 = basis_state("01")
    ini = HybridState(t=0.0, x1=1.0, v1=0.0, x2=0.0, v2=0.0, psi=psi0)
    tol = 1e-10
    f = integrate(ini, op, SP, 100.0, 1.0, tol).final_state
    back = HybridState(t=0.0, x1=f.x1, v1=-f.v1, x2=f.x2, v2=-f.v2, psi=f.psi.conj())
    b = integrate(back, op, SP, 100.0, 1.0, tol).final_state
    err = max(abs(b.x1 - 1.0), abs(b.v1), abs(b.x2), abs(b.v2),
              np.abs(b.psi.conj() - psi0).max())
    ok = err <= 1e-6
    assert report("7c", ok,
                  f"forward-backward time reversal over t in [0,100] returns the "
                  f"initial state to {err:.3e} (bound 1e-6, tol {tol:g})"), \
        f"reversal error {err:.3e} exceeds 1e-6"


def test_criterion_7d_tolerance_scaling():
    op = OscParams.from_connectivity(1.0, 1.5, 0.1)
    ini = HybridState(t=0.0, x1=1.0, v1=0.0, x2=0.0, v2=0.0, psi=basis_state("01"))

    def endpoint(tol):
        f = integrate(ini, op, SP, 100.0, 10.0, tol).final_state
        return np.array([f.x1, f.v1, f.x2, f.v2])

    tol = 1e-8
    ref = endpoint(tol / 100)
    defect = np.abs(endpoint(tol) - ref).max()
    defect_half = np.abs(endpoint(tol / 2) - ref).max()
    ratio = defect / defect_half
    ok = 1.8 <= ratio <= 2.3
    assert report("7d", ok,
                  f"halving tol {tol:g} shrinks the trajectory defect "
                  f"{defect:.3e} -> {defect_half:.3e}, ratio {ratio:.2f} "
                  f"(required in [1.8, 2.3])"), (
        f"tolerance proportionality violated: halving tol changed the endpoint "
        f"defect by a factor {ratio:.2f}, outside [1.8, 2.3].  Per-step control of "
        f"the embedded 4th-order estimate makes the global error proportional to "
        f"tol (ratio ~2); ~1 means the stepper ignores tol, ~2.4 means per-unit-step "
        f"control."
    )


def test_criterion_8_otoc_form_equivalence():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for k in range(1000):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        U = q * (np.diag(r) / np.abs(np.diag(r)))
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 /= np.linalg.norm(psi0)
        if k % 3 == 0:
            W, V = S1Z, S2Z
        else:
            z2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q2, r2 = np.linalg.qr(z2)
            W = q2 * (np.diag(r2) / np.abs(np.diag(r2)))
            z3 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q3, r3 = np.linalg.qr(z3)
            V = q3 * (np.diag(r3) / np.abs(np.diag(r3)))
        worst = max(worst, abs(otoc_commutator(U, psi0, W, V)
                               - otoc_product(U, psi0, W, V).C))
    ok = worst <= 1e-10
    assert report(8, ok,
                  f"commutator and product OTOC forms agree to {worst:.3e} on 1000 "
                  f"random unitary/state samples (bound 1e-10)"), \
        f"form equivalence violated at {worst:.3e}"


def test_criterion_9_qualitative_signatures(hybrid_grid):
    def crossings(x):
        s = np.sign(x)
        s = s[s != 0]
        return int(np.sum(s[1:] != s[:-1]))

    _, weak, _ = hybrid_grid[("autonomous_linear", 0.1, "01")]
    _, strong, _ = hybrid_grid[("autonomous_linear", 10.0, "01")]
    _, drv_weak, _ = hybrid_grid[("driven_nonlinear", 0.1, "01")]
    _, drv_strong, _ = hybrid_grid[("driven_nonlinear", 10.0, "01")]

    # amplitude modulation of the weakly connected pair
    w = 200  # 10 time units per window
    env = np.array([np.abs(weak.x1[i:i + w]).max()
                    for i in range(0, len(weak.x1) - w, w)])
    modulation = (env.max() - env.min()) / env.max()

    # strong connectivity: deeper energy transfer into oscillator 2 and
    # slower switching of both the spin and the two-point correlator
    uptake_weak = np.abs(weak.x2).max()
    uptake_strong = np.abs(strong.x2).max()
    sw_weak = crossings(weak.two_point.real)
    sw_strong = crossings(strong.two_point.real)

    # driven weak connectivity: the spin switches during the transient and
    # freezes once the forced regime is reached
    half = len(drv_weak.s1z) // 2
    early = drv_weak.s1z[:400].max() - drv_weak.s1z[:400].min()
    late = drv_weak.s1z[half:].max() - drv_weak.s1z[half:].min()

    # regression snapshot of the driven strong-connectivity spin record
    snap_early = drv_strong.s1z[:400].max() - drv_strong.s1z[:400].min()
    snap_late = drv_strong.s1z[half:].max() - drv_strong.s1z[half:].min()

    checks = {
        "weak-K amplitude modulation >= 0.15": modulation >= 0.15,
        "strong-K energy uptake exceeds weak-K": uptake_strong > uptake_weak,
        "strong-K switches slower (two-point crossings)": sw_strong < sw_weak,
        "driven weak-K spin freezes after transient": late < 0.5 * early,
        "driven strong-K snapshot early range": abs(snap_early - 0.3738) < 0.02,
        "driven strong-K snapshot late range": abs(snap_late - 1.5352) < 0.02,
    }
    ok = all(checks.values())
    assert report(9, ok,
                  f"qualitative signatures: modulation {modulation:.2f}; uptake "
                  f"{uptake_weak:.2f}->{uptake_strong:.2f}; switching {sw_weak}->"
                  f"{sw_strong}; driven weak-K ranges {early:.2f}->{late:.2f}; "
                  f"driven strong-K snapshot ({snap_early:.4f}, {snap_late:.4f}); "
                  f"conservation identity covered by 7a"), \
        f"failed sub-checks: {[k for k, v in checks.items() if not v]}"
