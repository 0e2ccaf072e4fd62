"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the default suite.
"""

import copy
import hashlib
import math
import platform
import random
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from analyse.agents import CemDistribution, cem_update
from analyse.design import derive_seed, expand_runs, parse_experiment
from analyse.grid import solve_power_flow
from analyse.market import Offer, VoltageBand, clear_market
from analyse.network import LinkSpec, Network, NetworkTopology, NodeSpec
from analyse.runner import execute_run
from analyse.scenario import load_document
from analyse.telemetry import compare, summarize

from conftest import assert_summary_matches_recount, packaged
from grids import ALL_BUNDLED, feeder4, power_balance_residual
from oracles import brute_force_resolving_subsets, gauss_seidel_solve, recount_log


def test_c1_power_flow_matches_gauss_seidel_oracle():
    started = time.monotonic()
    for name, make in sorted(ALL_BUNDLED.items()):
        model = make()
        assert len(model.buses) <= 6
        state = solve_power_flow(model)
        assert state.converged, name
        vm_oracle, _, ok = gauss_seidel_solve(model)
        assert ok, name
        worst = max(abs(a - b) for a, b in zip(state.vm, vm_oracle))
        assert worst < 1e-6, f"{name}: max |vm - oracle| = {worst:.2e}"
        residual = power_balance_residual(model, state)
        assert residual < 1e-8, f"{name}: residual {residual:.2e}"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: Newton matches Gauss-Seidel oracle to 1e-6 on "
          f"{len(ALL_BUNDLED)} bundled grids, residuals < 1e-8 ({elapsed:.2f}s)")


def test_c2_clearing_feasibility_agrees_with_brute_force():
    started = time.monotonic()
    rng = random.Random(0xC2)
    band = VoltageBand(0.95, 1.05)
    cases = 0
    ratios = []
    while cases < 10:
        scale = rng.uniform(2.0, 4.3)
        model = feeder4(scale)
        offers = []
        for i in range(rng.randint(1, 5)):
            offers.append(Offer(
                offer_id=f"c{cases}o{i}",
                agent_id=f"agent{i}",
                bus=rng.choice((2, 3, 4)),
                q_mvar=rng.choice((0.4, 0.8, 1.2, -0.5)),
                price_eur_per_mvar=rng.uniform(1.0, 30.0),
                interval=1,
            ))
        result = clear_market(offers, model, band)
        if result.aborted:
            continue
        cases += 1
        feasible, any_feasible = brute_force_resolving_subsets(offers, model, band)
        assert result.resolved == any_feasible, (
            f"case {cases}: greedy resolved={result.resolved} "
            f"but brute force feasible={any_feasible}"
        )
        if result.resolved and feasible:
            optimal = min(cost for _, cost in feasible)
            ratio = result.total_cost_eur / optimal if optimal > 0 else 1.0
            ratios.append(ratio)
            assert ratio >= 1.0 - 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    shown = ", ".join(f"{r:.3f}" for r in ratios)
    print(f"\nACCEPTANCE 2 PASS: feasibility agreement 10/10 cases; "
          f"greedy/optimal cost ratios [{shown}] ({elapsed:.2f}s)")


def test_c3_network_delivery_and_conservation():
    # latency-only delivery, exact to the event-queue resolution
    topology = NetworkTopology(
        (NodeSpec("a"), NodeSpec("b")), (LinkSpec("a", "b", 10.0, None, 0.0),)
    )
    net = Network(topology, random.Random(1), utilization_window_s=900.0)
    net.send("a", "b", b"x" * 100, 5.0)
    net.advance(6.0)
    assert net.delivered("b")[0][0] == 5.0 + 10.0 / 1000.0

    # seeded loss 0.5 over 1000 frames within the central 99% binomial band
    lossy = NetworkTopology(
        (NodeSpec("a"), NodeSpec("b")), (LinkSpec("a", "b", 1.0, None, 0.5),)
    )
    net = Network(lossy, random.Random(0xC3), utilization_window_s=900.0)
    for i in range(1000):
        net.send("a", "b", b"y" * 80, float(i))
    net.advance(2000.0)
    delivered = len(net.delivered("b"))
    assert 459 <= delivered <= 541, delivered

    # exact counter conservation
    bytes_out = sum(net.read_counters(n).bytes_out for n in ("a", "b"))
    bytes_in = sum(net.read_counters(n).bytes_in for n in ("a", "b"))
    assert bytes_out == bytes_in + net.dropped_bytes_total
    assert bytes_out == 1000 * 80
    print(f"\nACCEPTANCE 3 PASS: exact latency delivery; {delivered}/1000 "
          f"delivered at loss 0.5 within [459, 541]; byte conservation exact")


def test_c4_master_determinism(reference_runs):
    same_a = reference_runs["a"].read_bytes()
    same_b = reference_runs["b"].read_bytes()
    other = reference_runs["c"].read_bytes()
    assert same_a == same_b
    assert same_a != other
    print(f"\nACCEPTANCE 4 PASS: same seed -> byte-identical logs "
          f"({len(same_a)} bytes); different seed -> logs differ")


def test_c5_reference_day_end_to_end(reference_runs):
    summary = summarize(reference_runs["a"])
    assert summary.clearings == 97  # one full simulated day of intervals
    accepted_total = sum(summary.accepted_mvar.values())
    assert accepted_total > 0.0
    assert summary.clearings_resolved == summary.clearings
    assert summary.payments_eur  # somebody earned something
    print(f"\nACCEPTANCE 5 PASS: full-day reference run: {summary.clearings} "
          f"clearings, {accepted_total:.1f} Mvar procured, 0 unresolved intervals")


# sha256 of the reference logs, as `analyse run` writes them: the bundled
# feeder4 and gaming scenarios, the two runs `analyse design` makes of the
# bundled dos experiment, and the radial32 document cosimbench/radial32.py
# generates for seed 1. A change that moves a log's bytes edits its digest here
# and says why in CHANGES.md. The solver's last bits depend on the inner loops
# numpy picks, so the digests hold for the numpy version and platform below.
PINNED_DIGESTS = {
    "feeder4.jsonl": "899a6ba87fe19049aecaa6bd04204bdbdc87f9ad50187ea045ceeb1ef564e95d",
    "gaming.jsonl": "b69f715e8f5a5201c574f19818da6f862a104a6366468da82784daafc9e08c0c",
    "dos_compare-0000.jsonl": "38ef087a516492fac10d20eaef53a63da017a0bfd477dfd4375592ecf4902227",
    "dos_compare-0001.jsonl": "bdc0d015a7ede1d03a073e4c866af1a5d3d8408f2880588992b61995d4b65890",
    "radial32.jsonl": "64d7e4c946f4971e9793011db0607e4358a51ae27891be55215d1f1b516836df",
}
PINNED_ON = ("2.4.6", "x86_64", "Linux")  # numpy version, machine, operating system


def test_reference_logs_keep_their_pinned_digests(dos_logs, tmp_path, monkeypatch):
    here = (np.__version__, platform.machine(), platform.system())
    if here != PINNED_ON:
        pytest.skip("reference digests are pinned for numpy %s on %s %s; this is numpy %s "
                    "on %s %s" % (PINNED_ON + here))
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "cosimbench"))
    import radial32

    documents = [packaged("feeder4.yaml"), packaged("gaming.yaml"),
                 radial32.write_document(1, tmp_path / "radial32.yaml")]
    logs = [execute_run(load_document(path), path.parent, tmp_path / "logs").log_path
            for path in documents]
    logs += sorted(dos_logs.glob("*.jsonl"))
    digests = {log.name: hashlib.sha256(log.read_bytes()).hexdigest() for log in logs}
    assert digests == PINNED_DIGESTS
    print(f"\nREFERENCE DIGESTS PASS: {len(digests)} logs byte-identical to their pins")


def test_c6_dos_attack_vector(dos_logs):
    summaries = [summarize(p) for p in sorted(dos_logs.glob("*.jsonl"))]
    baseline = next(s for s in summaries if s.factors["dos"] == 0.0)
    attacked = next(s for s in summaries if s.factors["dos"] == 1.0)

    victim = "agent_pv3"
    assert baseline.payments_eur.get(victim, 0.0) > 0.0
    assert baseline.accepted_mvar.get(victim, 0.0) > 0.0
    assert attacked.payments_eur.get(victim, 0.0) == 0.0
    assert attacked.accepted_mvar.get(victim, 0.0) == 0.0
    assert attacked.frames_dropped > 0

    table = compare(summaries, "dos")
    delta = table.deltas[1]
    assert delta[f"payments_eur.{victim}"] == pytest.approx(
        -baseline.payments_eur[victim]
    )
    print(f"\nACCEPTANCE 6 PASS: DoS drops {victim} from "
          f"{baseline.payments_eur[victim]:.1f} EUR / "
          f"{baseline.accepted_mvar[victim]:.1f} Mvar to exactly 0; "
          f"delta visible in compare table")


def test_c7a_cem_quadratic_convergence():
    started = time.monotonic()
    hits = 0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        dist = CemDistribution.initial(1, sigma0=1.0)
        for _ in range(50):
            population = []
            for _ in range(16):
                theta = dist.sample(rng)
                population.append((theta, -((theta[0] - 0.3) ** 2)))
            dist = cem_update(population)
            if abs(dist.mean[0] - 0.3) < 0.05:
                break
        if abs(dist.mean[0] - 0.3) < 0.05:
            hits += 1
    elapsed = time.monotonic() - started
    assert hits >= 18, f"only {hits}/20 seeds converged"
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7a PASS: CEM reached |mean-0.3| < 0.05 on {hits}/20 "
          f"seeds ({elapsed:.2f}s)")


def test_c7b_trained_attacker_beats_random_baseline(tmp_path):
    started = time.monotonic()
    doc = load_document(packaged("gaming.yaml"))
    base_dir = packaged(".").parent
    wins = 0
    details = []
    for seed in (101, 202, 303):
        trained = execute_run(copy.deepcopy(doc), base_dir,
                              tmp_path / f"t{seed}", seed_override=seed)
        test_report = next(r for r in trained.reports if r.mode == "test")
        assert len(test_report.returns) == 10

        random_doc = copy.deepcopy(doc)
        random_doc["agents"][0]["kind"] = "random"
        random_doc["schedule"] = [
            {"name": "testing", "mode": "test", "episodes": 10, "episode_length": 6}
        ]
        baseline = execute_run(random_doc, base_dir, tmp_path / f"r{seed}",
                               seed_override=seed)
        random_report = baseline.reports[0]
        assert len(random_report.returns) == 10

        details.append((seed, test_report.mean_return, random_report.mean_return))
        if test_report.mean_return > random_report.mean_return:
            wins += 1
    elapsed = time.monotonic() - started
    assert wins == 3, f"trained beat random on only {wins}/3 seeds: {details}"
    shown = "; ".join(f"seed {s}: {t:.0f} vs {r:.0f}" for s, t, r in details)
    print(f"\nACCEPTANCE 7b PASS: trained profit beats random baseline on 3/3 "
          f"seeds ({shown}) ({elapsed:.1f}s)")


def test_c8_doe_expansion():
    base = {"market": {"x": 1}, "net": {"y": 2}}
    doc = {
        "name": "exp",
        "base_seed": 5,
        "strategy": "full_factorial",
        "factors": [
            {"name": "a", "path": "market/x", "levels": [1, 2, 3]},
            {"name": "b", "path": "net/y", "levels": ["u", "v"]},
        ],
    }
    runs = list(expand_runs(parse_experiment(doc, base)))
    assert len(runs) == 6
    assert [(r.factors["a"], r.factors["b"]) for r in runs] == [
        (1, "u"), (1, "v"), (2, "u"), (2, "v"), (3, "u"), (3, "v"),
    ]

    rand_doc = dict(doc, strategy="random", samples=4)
    first = [r.factors for r in expand_runs(parse_experiment(rand_doc, base))]
    second = [r.factors for r in expand_runs(parse_experiment(rand_doc, base))]
    assert first == second and len(first) == 4

    seeds = {derive_seed(5, i) for i in range(1000)}
    assert len(seeds) == 1000
    print("\nACCEPTANCE 8 PASS: 3x2 factorial -> 6 runs in documented order; "
          "random(4) reproducible; 1000 derived seeds distinct")


def test_c9_telemetry_round_trip(reference_runs, tmp_path):
    log = reference_runs["a"]
    summary = summarize(log)
    recount = recount_log(log)
    assert summary.frames_sent == recount["frames_sent"]
    assert summary.frames_delivered == recount["frames_delivered"]
    assert summary.frames_dropped == recount["frames_dropped"]
    assert summary.clearings == recount["clearings"]
    assert summary.clearings_resolved == recount["clearings_resolved"]
    assert summary.violation_count == recount["violation_count"]
    assert summary.total_cost_eur == pytest.approx(recount["total_cost"])
    for agent, eur in recount["payments"].items():
        assert summary.payments_eur[agent] == pytest.approx(eur)
    for agent, q in recount["accepted_mvar"].items():
        assert summary.accepted_mvar[agent] == pytest.approx(q)
    for agent, returns in recount["episodes"].items():
        assert summary.returns[agent] == pytest.approx(returns)

    # malformed-line handling names line numbers
    mangled = tmp_path / "mangled.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()
    lines.insert(4, "this is not json")
    mangled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    damaged = summarize(mangled)
    assert [ln for ln, _ in damaged.parse_errors] == [5]
    print(f"\nACCEPTANCE 9 PASS: summarize equals independent recount on "
          f"{recount['records']} records; malformed line reported as line 5")


def test_summarize_equals_the_recount_on_every_reference_log(gaming_log, dos_logs):
    # c9 checks feeder4's log; gaming's adds CEM generation records, a
    # profit objective and payments, and the dos experiment's two logs
    # dropped frames.
    logs = [gaming_log, *sorted(dos_logs.glob("*.jsonl"))]
    assert len(logs) == 3
    counts = [assert_summary_matches_recount(log) for log in logs]
    assert counts[0]["payments"] and any(c["frames_dropped"] for c in counts[1:])
    print(f"\nREFERENCE RECOUNT PASS: summarize equals the recount on gaming and both "
          f"dos logs ({sum(c['records'] for c in counts)} records)")
