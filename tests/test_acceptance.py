"""Acceptance suite: one test per shipped guarantee, with stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Sample counts and time budgets are pinned here;
the underlying checks are the same ones behind `cubex verify`.
"""

import time

from cubex import verify

SEED = 20240 + 613


def _run(fn, budget, **kwargs):
    t0 = time.time()
    result = fn(seed=SEED, **kwargs)
    elapsed = time.time() - t0
    print(f"{result.line()}   [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert result.passed, result.detail
    assert elapsed < budget, f"{result.name} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_fixed_square_reproduction():
    _run(verify.check_square_cube, budget=1)


def test_criterion_02_two_to_one_contraction():
    _run(verify.check_two_coexpansions, budget=30, samples=500)


def test_criterion_03_at_most_one_contraction():
    _run(verify.check_at_most_one_coexpansion, budget=30, samples=500)


def test_criterion_04_degree_law():
    _run(verify.check_degree_law, budget=120, samples=200)


def test_criterion_05_link_flag_condition():
    _run(verify.check_flag_condition, budget=300, samples=100)


def test_criterion_06_cube_intersections():
    _run(verify.check_cube_intersections, budget=120, samples=200)


def test_criterion_07_directedness_witness():
    _run(verify.check_directedness, budget=120, samples=200)


def test_criterion_08_local_finiteness():
    _run(verify.check_local_finiteness, budget=120, samples=200)


def test_criterion_09_stabilizers_and_action():
    _run(verify.check_stabilizers, budget=120, samples=200)


def test_criterion_10_canonical_soundness():
    _run(verify.check_canonical_soundness, budget=120, samples=1000)
