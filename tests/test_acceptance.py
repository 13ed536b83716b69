"""Acceptance gate: the ten product criteria, one test (and one pass/fail
line under pytest -v) per criterion, at the stated tolerances.

The production-size minimizations come from the session fixtures in
conftest.py, so one pytest run solves each symmetry class exactly once.
Run with -s to see the measured numbers on passing criteria too.
"""

import math
import time

import numpy as np
import pytest

from fracsaddle.analysis import decay_exponent, nodal_domains, sign_on_fundamental_domain
from fracsaddle.coxeter import named_group
from fracsaddle.energy import energy, gradient, interaction, nehari_energy
from fracsaddle.extension import YGrid, default_y_max, energy_identity_check, psi_profile
from fracsaddle.params import ModelParams
from fracsaddle.solver import (
    SolverConfig,
    get_action,
    initial_guess,
    solve,
    symmetrize,
)
from fracsaddle.spectral import (
    Field,
    Grid,
    fftn,
    hs_norm_sq,
    ifftn,
    riesz_convolve,
)

from coxeter_reference import orbit, stabilizer
from extension_reference import ExtensionField, harmonic_extend, trace_inequality_check
from ode_reference import psi_ode_solution
from solver_reference import mountain_pass_check
from spectral_reference import build_riesz_kernel, fractional_laplacian, freq_norm_sq

PARAMS = ModelParams(3, 0.5, 2.0, 2.0)
GROUPS = ["A1", "A1xA1", "A2", "B2", "B3"]


def report(n, label, detail):
    print(f"[criterion {n:02d}] {label}: PASS ({detail})")


def test_criterion_01_spectral_exactness():
    t0 = time.perf_counter()
    g = Grid(3, 16, 8.0)
    s_values = (0.25, 0.5, 0.75, 1.0)
    k = np.fft.fftfreq(16, d=g.h)
    xi2 = (2.0 * math.pi) ** 2 * (
        k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
    )

    # every lattice eigenvalue at once: push a field with full spectral
    # support through the operator and read off mode-by-mode ratios
    rng = np.random.default_rng(1)
    phase = np.exp(2j * math.pi * rng.random(g.shape))
    amp = 1.0 + rng.random(g.shape)
    spec = amp * phase
    u = Field(g, ifftn(spec).real)
    uhat = fftn(u.values)
    assert np.abs(uhat).min() > 1e-3  # genuinely full support
    worst = 0.0
    for s in s_values:
        out = fractional_laplacian(u, s)
        ratio = fftn(out.values) / uhat
        lam = xi2**s
        err = np.abs(ratio - lam).max() / lam.max()
        worst = max(worst, err)
    # and a direct subset check on explicit plane waves in real space
    x = g.coords()
    modes = rng.integers(-8, 8, size=(64, 3))
    for m in modes:
        lam = (2.0 * math.pi / g.L) ** 2 * float(m @ m)
        if lam == 0.0:
            continue
        wave = np.cos(2.0 * math.pi * (m[0] * x[0] + m[1] * x[1] + m[2] * x[2]) / g.L)
        out = fractional_laplacian(Field(g, wave), 0.5)
        err = np.abs(out.values - lam**0.5 * wave).max() / lam**0.5
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"max relative eigenvalue error {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    report(1, "spectral exactness on all 16^3 plane waves", f"max rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_convolution_oracle():
    t0 = time.perf_counter()
    g = Grid(3, 8, 6.0)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.shape)
    fast = riesz_convolve(Field(g, f), 2.0).values
    kern = build_riesz_kernel(g, 2.0).values
    M = g.M
    idx = np.arange(M)
    want = np.zeros_like(f)
    for i0 in range(M):
        for i1 in range(M):
            for i2 in range(M):
                block = kern[
                    i0 + M - idx[:, None, None],
                    i1 + M - idx[None, :, None],
                    i2 + M - idx[None, None, :],
                ]
                want[i0, i1, i2] = np.sum(block * f) * g.cellvol
    err = np.abs(fast - want).max() / np.abs(want).max()
    elapsed = time.perf_counter() - t0
    assert err <= 1e-10, f"relative error {err:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    report(2, "convolution equals direct double sum on 8^3", f"rel err {err:.2e}, {elapsed:.2f} s")


def test_criterion_03_gradient_check():
    g = Grid(3, 12, 8.0)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        u = Field(g, ifftn(fftn(rng.standard_normal(g.shape)) * np.exp(-0.3 * freq_norm_sq(g))).real)
        v = Field(g, ifftn(fftn(rng.standard_normal(g.shape)) * np.exp(-0.3 * freq_norm_sq(g))).real)
        pairing = g.cellvol * float(np.sum(gradient(u, PARAMS).values * v.values))
        eps = 1e-5
        up = energy(Field(g, u.values + eps * v.values), PARAMS).total
        dn = energy(Field(g, u.values - eps * v.values), PARAMS).total
        fd = (up - dn) / (2.0 * eps)
        worst = max(worst, abs(pairing - fd) / abs(fd))
    assert worst <= 1e-5, f"max relative mismatch {worst:.3e}"
    report(3, "gradient matches finite differences (10 pairs, 12^3)", f"max rel err {worst:.2e}")


def test_criterion_04_coxeter_suite():
    orders = {"A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "B3": 48}
    rng = np.random.default_rng(4)
    gM, gL = 8, 4.0
    nodes = -gL / 2.0 + (gL / gM) * np.arange(gM)
    lattice = np.stack(np.meshgrid(*([nodes] * 3), indexing="ij"), axis=-1).reshape(-1, 3)
    for name in GROUPS:
        G = named_group(name)
        assert G.order == orders[name], name
        keys = {m.tobytes() for m in G.elements}
        phi = {m.tobytes(): s for m, s in zip(G.elements, G.signs)}
        for a in G.elements:
            assert a.T.tobytes() in keys
            for b in G.elements:
                ab = (a @ b).tobytes()
                assert ab in keys
                assert phi[ab] == phi[a.tobytes()] * phi[b.tobytes()]
        for _ in range(100):
            x = rng.standard_normal(G.rank)
            assert len(orbit(G, x)) * stabilizer(G, x).order == G.order
        for x in lattice:
            xk = x[: G.rank]
            assert len(orbit(G, xk)) * stabilizer(G, xk).order == G.order
    report(4, "group axioms, sign character, orbit-stabilizer count", "5 groups, exact")


def test_criterion_05_bitwise_symmetrization():
    g = Grid(3, 16, 8.0)
    rng = np.random.default_rng(5)
    for name in GROUPS:
        G = named_group(name)
        action = get_action(g, G)
        u = Field(g, rng.standard_normal(g.shape))
        once = symmetrize(u, G)
        twice = symmetrize(once, G)
        assert np.array_equal(once.values, twice.values), f"{name}: not idempotent"
        flat = once.values.ravel()
        for i in range(G.order):
            assert np.array_equal(flat[action.tables[i]], action.signs[i] * flat), (
                f"{name}: element {i} not equivariant"
            )
    report(5, "symmetrization idempotent and equivariant bitwise", "5 groups, 16^3")


def test_criterion_06_groundstate_run(groundstate48, groundstate64):
    sol = groundstate48
    assert sol.converged and sol.residual <= 1e-6
    assert sol.iterations <= 2000
    assert sol.metadata["time_seconds"] < 300.0
    vals = sol.u.values
    eps = 1e-3 * float(np.abs(vals).max())
    assert not (vals < -eps).any(), "negative values above threshold"
    assert (vals > eps).any()
    nodal = nodal_domains(sol.u).count
    assert nodal == 1, f"nodal count {nodal}"
    slope = decay_exponent(sol.u, 0.2, 0.4)
    assert abs(slope + 4.0) <= 0.6, f"slope {slope:.3f}"
    drift = abs(groundstate64.energy - sol.energy) / sol.energy
    assert groundstate64.converged
    assert drift < 0.005, f"energy drift {drift:.3e} between 48^3/L=24 and 64^3/L=32"
    report(
        6,
        "groundstate at 48^3",
        f"E={sol.energy:.6f}, slope {slope:.2f}, drift {drift:.1e}, "
        f"{sol.iterations} iters in {sol.metadata['time_seconds']:.0f} s",
    )


def test_criterion_07_odd_saddle(grid48, groundstate48, saddle_a1_48, level_cache):
    sol = saddle_a1_48
    G = named_group("A1")
    assert sol.converged and sol.residual <= 1e-6
    nodal = nodal_domains(sol.u).count
    assert nodal == 2, f"nodal count {nodal}"
    assert sign_on_fundamental_domain(sol.u, G)
    c0, cA1 = groundstate48.energy, sol.energy
    margin = min(cA1 - c0, 2.0 * c0 - cA1)
    assert margin >= 0.05 * c0, f"chain margin {margin:.3f} vs 5% of c0 = {0.05 * c0:.3f}"
    # independent seeds: restart from the class's start, perturbed
    cfg = SolverConfig(params=PARAMS, grid=grid48, group=G, tol=1e-6, max_iters=2000)
    energies = [cA1]
    u0 = initial_guess(cfg)[1]
    for seed in (101, 202):
        rng = np.random.default_rng(seed)
        noise = ifftn(fftn(rng.standard_normal(grid48.shape)) * np.exp(-0.5 * freq_norm_sq(grid48))).real
        bumped = u0.values + 0.05 * np.abs(u0.values).max() * noise
        pert = symmetrize(Field(grid48, bumped), G)
        energies.append(solve(cfg, pert).energy)
    spread = (max(energies) - min(energies)) / cA1
    assert spread <= 0.01, f"seed spread {spread:.3e}"
    report(
        7,
        "odd saddle: nodal pair, sign, chain, seed agreement",
        f"c0={c0:.4f} < cA1={cA1:.4f} < 2c0={2 * c0:.4f}, spread {spread:.1e}",
    )


def test_criterion_08_rank2_saddles(saddle_a1xa1_48, saddle_b2_48, saddle_a1_48, accept_table):
    cases = {"A1xA1": (saddle_a1xa1_48, 4), "B2": (saddle_b2_48, 8)}
    for name, (sol, want_nodal) in cases.items():
        G = named_group(name)
        assert sol.converged and sol.residual <= 1e-6, name
        nodal = nodal_domains(sol.u).count
        assert nodal == want_nodal, f"{name}: nodal {nodal}"
        assert sign_on_fundamental_domain(sol.u, G), name
    rows = {r.group: r for r in accept_table}
    for name in ("A1xA1", "B2"):
        row = rows[name]
        assert row.c_G < row.c_star, name
        assert row.margin >= 0.05 * row.c_G, f"{name}: margin {row.margin:.3f}"
        assert row.verified, name
    assert saddle_b2_48.energy < 4.0 * saddle_a1_48.energy
    report(
        8,
        "rank-2 saddles: nodal counts and table margins",
        f"cA1xA1={rows['A1xA1'].c_G:.3f} (c*={rows['A1xA1'].c_star:.3f}), "
        f"cB2={rows['B2'].c_G:.3f} (c*={rows['B2'].c_star:.3f})",
    )


def test_criterion_09_nehari_mountain_pass(
    groundstate48, saddle_a1_48, saddle_a1xa1_48, saddle_b2_48, groundstate64
):
    worst = 0.0
    for sol in (groundstate48, saddle_a1_48, saddle_a1xa1_48, saddle_b2_48, groundstate64):
        assert sol.converged
        direct = energy(sol.u, PARAMS).total
        closed = nehari_energy(sol.u, PARAMS)
        worst = max(worst, abs(closed - direct) / abs(direct))
        assert abs(closed - direct) / abs(direct) <= 1e-10
        # fibering ray: peak must sit at t = 1 within the sampling step
        Q = hs_norm_sq(sol.u, PARAMS.s)
        D = interaction(sol.u, PARAMS)
        ts = np.linspace(0.0, 2.0, 101)
        ray = ts**2 * Q / 2.0 - ts ** (2.0 * PARAMS.p) * D / (2.0 * PARAMS.p)
        assert abs(ts[int(np.argmax(ray))] - 1.0) <= 0.02 + 1e-12
        peak = mountain_pass_check(sol, PARAMS)
        assert abs(peak - direct) / abs(direct) <= 1e-10
    report(9, "Nehari energy and fibering peak at t=1", f"5 solutions, max rel dev {worst:.1e}")


def test_criterion_10_extension_identities():
    g = Grid(3, 16, 12.0)
    rng = np.random.default_rng(10)
    u = Field(g, ifftn(fftn(rng.standard_normal(g.shape)) * np.exp(-0.5 * freq_norm_sq(g))).real)
    ratios = {}
    for s in (0.25, 0.5, 0.75):
        yg = YGrid.graded(256, default_y_max(g))
        lhs, rhs, ratio = energy_identity_check(u, s, yg)
        ratios[s] = ratio
        assert abs(ratio - 1.0) <= 0.02, f"s={s}: ratio {ratio:.5f}"
        U = harmonic_extend(u, s, yg)
        tl, tr, ok = trace_inequality_check(U, s)
        assert ok, f"s={s}: trace inequality failed on harmonic extension"
        for k in range(5):
            pert = rng.standard_normal(U.values.shape) * 0.05 * np.abs(U.values).max()
            V = ExtensionField(g, yg, U.values + pert, U.trace)
            _, _, pok = trace_inequality_check(V, s)
            assert pok, f"s={s}: trace inequality failed on perturbation {k}"
    # closed-form profile versus the shooting solution
    y = np.linspace(0.01, 50.0, 2000)
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        worst = max(worst, float(np.abs(psi_profile(s, y) - psi_ode_solution(s, y)).max()))
    assert worst <= 1e-8, f"profile vs ODE max err {worst:.2e}"
    # s = 1/2 sanity anchor: pure exponential
    assert np.allclose(psi_profile(0.5, y), np.exp(-y), rtol=1e-12, atol=1e-300)
    report(
        10,
        "extension energy identity, trace inequality, profile ODE",
        "ratios " + ", ".join(f"s={s}: {r:.4f}" for s, r in ratios.items()) + f", ODE err {worst:.1e}",
    )
