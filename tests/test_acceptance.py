"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Criterion 5 is the long one (a full two-mode adaptation study on a
synthetic desk corpus); everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from chirpcode import (
    AdaptConfig,
    GammachirpParams,
    LcaConfig,
    SparseCode,
    Utterance,
    adapt_corpus,
    atom_jacobian,
    benchmark,
    default_bounds,
    encode,
    energy_gradient,
    gram_kernel,
    init_gammatone_dictionary,
    load_dictionary,
    make_dictionary,
    project,
    reconstruct,
    snr,
)
from chirpcode.cli import main as cli_main
from chirpcode.dictionary import n_frames

from conftest import random_toy_dictionary, sparse_recovery_instance
from oracles import (
    dense_frozen_energy,
    dense_gram,
    dense_matrix,
    dense_project,
    dense_reconstruct,
    formant_corpus,
    independent_atom,
    independent_atoms,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_operator_oracle_equivalence():
    """project / reconstruct / gram_kernel match dense-matrix constructions on
    >= 50 random toy instances, max abs deviation <= 1e-10, in under 10 s."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        flen = int(rng.choice([8, 16, 32]))
        stride = int(rng.choice([x for x in (2, 4, 8, 16) if x <= flen]))
        d = random_toy_dictionary(rng, n_channels=n, filter_len=flen, stride=stride)
        sig_len = int(rng.integers(flen, 4 * flen + 1))
        t_frames = n_frames(sig_len, flen, stride)
        s = rng.standard_normal(sig_len)
        a = rng.standard_normal((n, t_frames))

        phi = dense_matrix(d.atoms, stride, t_frames, sig_len)
        worst = max(worst, float(np.max(np.abs(
            project(d, s) - dense_project(phi, s, n, t_frames)))))
        worst = max(worst, float(np.max(np.abs(
            reconstruct(d, a, length=sig_len) - dense_reconstruct(phi, a)))))

        k = gram_kernel(d)
        w = dense_gram(phi)
        for i in range(n):
            for j in range(n):
                for ti in range(t_frames):
                    for tj in range(t_frames):
                        lag = tj - ti
                        kij = k.at_lag(lag)[i, j] if abs(lag) <= k.max_lag else 0.0
                        worst = max(worst, abs(kij - w[i * t_frames + ti, j * t_frames + tj]))
    elapsed = time.time() - t0
    _report(1, "operator-oracle equivalence",
            worst <= 1e-10 and elapsed < 10.0,
            f"max dev {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_energy_descent():
    """For 100 random (signal, dictionary) pairs at eta = 0.1 the energy trace
    of encode is non-increasing within 1e-6 * E0 at every step, in under 60 s."""
    rng = np.random.default_rng(202)
    t0 = time.time()
    violations = 0
    instances_with_activity = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        flen = int(rng.choice([16, 32, 64]))
        stride = flen // int(rng.choice([2, 4]))
        d = random_toy_dictionary(rng, n_channels=n, filter_len=flen, stride=stride)
        sig_len = int(rng.integers(flen, 5 * flen))
        s = rng.standard_normal(sig_len) * float(rng.uniform(0.05, 2.0))
        drive_peak = float(np.max(np.abs(project(d, s))))
        lam = float(rng.uniform(0.02, 0.3)) * drive_peak
        code, state = encode(s, d, LcaConfig(lam=lam, eta=0.1, max_iters=300))
        if code.n_events:
            instances_with_activity += 1
        trace = state.energy_trace
        slack = 1e-6 * trace[0]
        if any(b > a + slack for a, b in zip(trace, trace[1:])):
            violations += 1
    elapsed = time.time() - t0
    _report(2, "energy descent",
            violations == 0 and instances_with_activity >= 80 and elapsed < 60.0,
            f"{violations} violations, {instances_with_activity}/100 active, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def _fd_atom_jacobian(f, b, c, l, name, flen, sr):
    values = {"f": f, "b": b, "c": c, "l": l}
    h = 1e-6 * max(abs(values[name]), 1.0)
    hi = dict(values, **{name: values[name] + h})
    lo = dict(values, **{name: values[name] - h})
    up = independent_atom(hi["f"], hi["b"], hi["c"], hi["l"], flen, sr)
    dn = independent_atom(lo["f"], lo["b"], lo["c"], lo["l"], flen, sr)
    return (up - dn) / (2 * h)


def test_criterion_3_gradient_suite():
    """atom_jacobian vs central finite differences (rel err <= 1e-5, >= 100
    random draws, all four partials) and frozen-active-set energy gradient vs
    finite differences (rel err <= 1e-3) on 2-channel toys, in under 60 s."""
    rng = np.random.default_rng(303)
    t0 = time.time()

    worst_jac = 0.0
    for _ in range(100):
        f = float(rng.uniform(100, 6000))
        b = float(rng.uniform(0.4, 3.0))
        c = float(rng.uniform(0.05, 3.0)) * float(rng.choice([-1.0, 1.0]))
        l = float(rng.uniform(1.6, 6.0))
        flen = int(rng.choice([64, 128]))
        jacs = atom_jacobian(GammachirpParams(f, b, c, l), flen, 16000)
        for name, analytic in zip(("c", "b", "l", "f"), jacs):
            fd = _fd_atom_jacobian(f, b, c, l, name, flen, 16000)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            worst_jac = max(worst_jac, rel)

    worst_energy = 0.0
    for trial in range(3):
        channels = [
            GammachirpParams(f=float(rng.uniform(300, 900)), b=float(rng.uniform(0.7, 1.5)),
                             c=float(rng.uniform(-1.0, 1.0)), l=float(rng.uniform(2.5, 4.5))),
            GammachirpParams(f=float(rng.uniform(1200, 3000)), b=float(rng.uniform(0.7, 1.5)),
                             c=float(rng.uniform(-1.0, 1.0)), l=float(rng.uniform(2.5, 4.5))),
        ]
        d = make_dictionary(channels, 16, 8, 8000)
        s = rng.standard_normal(40) * 0.6
        lam, eta, alpha, iters = 0.05, 0.2, 0.7, 300
        code, state = encode(
            s, d, LcaConfig(lam=lam, eta=eta, max_iters=iters, rel_tol=0.0),
            trace_window=iters,
        )
        if code.n_events == 0:
            continue
        masks = [h != 0.0 for h in list(state.a_history)[1:]]
        g = energy_gradient(s, d, state,
                            AdaptConfig(mode="alca-cf", alpha=alpha, tbptt_window=iters))
        analytic = np.concatenate([g.d_c, g.d_b, g.d_l, g.d_f])

        base = [[p.c, p.b, p.l, p.f] for p in d.channels]
        steps = {"c": 1e-5, "b": 1e-5, "l": 1e-5, "f": 1e-2}
        fd = []
        for lane_idx, name in enumerate(("c", "b", "l", "f")):
            h = steps[name]
            for ch in range(2):
                energies = []
                for sgn in (+1.0, -1.0):
                    pert = [list(row) for row in base]
                    pert[ch][lane_idx] += sgn * h
                    atoms = independent_atoms(
                        [(row[3], row[1], row[0], row[2]) for row in pert], 16, 8000)
                    energies.append(
                        dense_frozen_energy(atoms, 8, s, masks, lam, eta, alpha))
                fd.append((energies[0] - energies[1]) / (2 * h))
        fd = np.array(fd)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        worst_energy = max(worst_energy, rel)

    elapsed = time.time() - t0
    _report(3, "gradient suite",
            worst_jac <= 1e-5 and 0.0 < worst_energy <= 1e-3 and elapsed < 60.0,
            f"jacobian rel {worst_jac:.2e}, energy rel {worst_energy:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_sparse_recovery():
    """A signal synthesized from 5 known atoms with coefficients >= 10 * lam is
    encoded at SNR >= 40 dB using at most 3x the generating coefficient count,
    in under 10 s."""
    t0 = time.time()
    d, s, lam, placements = sparse_recovery_instance()
    assert all(abs(coeff) >= 10 * lam for _, _, coeff in placements)
    code, _ = encode(s, d, LcaConfig(lam=lam, max_iters=3000, rel_tol=1e-12))
    recon = reconstruct(d, code, length=len(s))
    got_snr = snr(s, recon)
    elapsed = time.time() - t0
    _report(4, "sparse-recovery sanity",
            got_snr >= 40.0 and code.n_events <= 3 * len(placements) and elapsed < 10.0,
            f"SNR {got_snr:.1f} dB, {code.n_events} active, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5

DESK_SR = 16000
DESK_LCA = dict(lam=0.03, eta=0.1, max_iters=300, rel_tol=1e-6)
DESK_ADAPT = dict(lr_mod=2e-3, lr_cf=10.0, alpha=4.0, tbptt_window=50,
                  epochs=50, batch_size=5, seed=7)


def _desk_corpus(n_utterances=20):
    signals = formant_corpus(42, n_utterances, sample_rate=DESK_SR, duration=0.25)
    return [Utterance(id=f"u{i}", samples=s, sample_rate=DESK_SR)
            for i, s in enumerate(signals)]


def _desk_dictionary():
    return init_gammatone_dictionary(64, 80.0, 7600.0, 256, 128, DESK_SR)


def test_criterion_5_direction_of_effect():
    """On a 20-utterance synthetic formant-sweep corpus with a 64-channel
    dictionary and 50 adaptation epochs: mean SNR(alca-cf) > mean SNR(alca) >
    mean SNR(lca) and mean sparsity strictly reversed, within 30 minutes."""
    t0 = time.time()
    corpus = _desk_corpus()
    d0 = _desk_dictionary()
    lca_cfg = LcaConfig(**DESK_LCA)
    bounds = default_bounds(DESK_SR)

    adapted = {}
    for mode in ("alca", "alca-cf"):
        cfg = AdaptConfig(mode=mode, bounds=bounds, **DESK_ADAPT)
        adapted[mode], _ = adapt_corpus(corpus, d0, lca_cfg, cfg)

    report = benchmark(
        corpus,
        [("lca", d0), ("alca", adapted["alca"]), ("alca-cf", adapted["alca-cf"])],
        lca_cfg,
    )
    s = {x.name: x for x in report.summaries}
    elapsed = time.time() - t0
    snr_ok = (s["alca-cf"].mean_snr_db > s["alca"].mean_snr_db
              > s["lca"].mean_snr_db)
    sparsity_ok = (s["alca-cf"].mean_active_count < s["alca"].mean_active_count
                   < s["lca"].mean_active_count)
    detail = (
        f"SNR lca {s['lca'].mean_snr_db:.2f} / alca {s['alca'].mean_snr_db:.2f} / "
        f"alca-cf {s['alca-cf'].mean_snr_db:.2f} dB; active "
        f"{s['lca'].mean_active_count:.1f} / {s['alca'].mean_active_count:.1f} / "
        f"{s['alca-cf'].mean_active_count:.1f}; {elapsed:.0f}s"
    )
    _report(5, "direction of effect", snr_ok and sparsity_ok and elapsed < 1800.0, detail)


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_mode_contract():
    """An alca run leaves every centre frequency bit-identical to the initial
    log-spaced grid; the same config in alca-cf mode (nonzero lr-cf) moves at
    least one frequency by more than 1 Hz."""
    corpus = _desk_corpus(5)
    d0 = init_gammatone_dictionary(16, 120.0, 6000.0, 256, 128, DESK_SR)
    lca_cfg = LcaConfig(lam=0.03, eta=0.1, max_iters=200, rel_tol=1e-6)
    shared = dict(lr_mod=2e-3, lr_cf=10.0, alpha=4.0, tbptt_window=50,
                  epochs=5, batch_size=5, seed=7, bounds=default_bounds(DESK_SR))

    d_alca, _ = adapt_corpus(corpus, d0, lca_cfg, AdaptConfig(mode="alca", **shared))
    d_cf, _ = adapt_corpus(corpus, d0, lca_cfg, AdaptConfig(mode="alca-cf", **shared))

    frozen = all(a.f == b.f for a, b in zip(d0.channels, d_alca.channels))
    max_shift = max(abs(a.f - b.f) for a, b in zip(d0.channels, d_cf.channels))
    _report(6, "mode contract", frozen and max_shift > 1.0,
            f"alca frozen {frozen}, alca-cf max |df| {max_shift:.2f} Hz")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_reproducibility(tmp_path, capsys):
    """Two cmd_adapt runs with identical seed and config produce byte-identical
    dictionary files."""
    from chirpcode import save_wav

    d0_path = tmp_path / "d0.json"
    rc = cli_main([
        "build-dict", "--channels", "12", "--f-min", "150", "--f-max", "3000",
        "--filter-len", "64", "--stride", "32", "--sr", "8000",
        "--out", str(d0_path),
    ])
    assert rc == 0
    rng = np.random.default_rng(11)
    lines = ["path,id,label"]
    for i in range(3):
        s = formant_corpus(20 + i, 1, sample_rate=8000, duration=0.06)[0]
        save_wav(tmp_path / f"r{i}.wav", s, 8000)
        lines.append(f"r{i}.wav,r{i},")
    manifest = tmp_path / "m.csv"
    manifest.write_text("\n".join(lines) + "\n")

    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"adapted_{run}.json"
        rc = cli_main([
            "adapt", "--dict", str(d0_path), "--manifest", str(manifest),
            "--mode", "alca-cf", "--epochs", "2", "--batch-size", "3",
            "--lr-mod", "2e-3", "--lr-cf", "5", "--lambda", "0.02",
            "--max-iters", "80", "--tbptt-window", "20", "--seed", "3",
            "--out", str(out), "--jobs", "1",
        ])
        assert rc == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    _report(7, "reproducibility", outputs[0] == outputs[1],
            f"{len(outputs[0])} bytes each")
