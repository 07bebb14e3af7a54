"""The array forms of the closed forms equal the scalar functions bit for bit.

Sweeps, crossover scans and the best-q table evaluate the Erlang-B
recursion and the push formulas over arrays; their outputs stay
byte-identical only if every element is bitwise the scalar result.
Query success has three forms in ``metrics`` (every q in one pass, one q
unchecked, one q checked), which must agree in every bit too.
Comparisons are on the IEEE bit patterns, not approximate.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pullpush.core import erlang_b, erlang_b_curve, erlang_b_steps
from pullpush.frame import FrameConfig, q_max
from pullpush.metrics import (
    TrafficLoad,
    evaluate_metrics,
    push_success_curve,
    push_success_prob,
    query_success_curve,
    query_success_prob,
    query_success_steps,
    weighted_success_sweep,
)
from pullpush.optimize import optimal_q

CONFIG = FrameConfig()
Q_MAX = q_max(CONFIG)
K_AS = (1, 2, 96)

loads = st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@given(values=loads)
@settings(max_examples=200)
def test_erlang_b_over_an_array_is_the_scalar_recursion(values):
    # B(0) = 1 is a float, not an array: broadcast every step to the loads.
    table = [np.broadcast_to(b, len(values)) for b in erlang_b_steps(Q_MAX, np.array(values))]
    for q in range(Q_MAX + 1):
        assert bits(table[q]) == bits([erlang_b(q, x) for x in values])
        assert bits(np.broadcast_to(erlang_b_curve(q, np.array(values)), len(values))) == bits(table[q])


@given(load=st.floats(min_value=0.0, max_value=1e6))
def test_one_pass_gives_every_server_count(load):
    assert bits(list(erlang_b_steps(Q_MAX, load))) == bits([erlang_b(q, load) for q in range(Q_MAX + 1)])


@given(values=loads)
@settings(max_examples=200)
def test_query_success_steps_are_the_curve_over_an_array(values):
    m = np.array(values)
    steps = [np.broadcast_to(p, len(values)) for p in query_success_steps(Q_MAX, m)]
    assert len(steps) == Q_MAX + 1
    for q in range(Q_MAX + 1):
        assert bits(steps[q]) == bits(np.broadcast_to(query_success_curve(q, m), len(values)))


@given(mean=st.floats(min_value=0.0, max_value=1e6))
def test_query_success_steps_are_the_curve_and_the_checked_form(mean):
    steps = list(query_success_steps(Q_MAX, mean))
    assert bits(steps) == bits([query_success_curve(q, mean) for q in range(Q_MAX + 1)])
    assert bits(steps) == bits([query_success_prob(q, mean) for q in range(Q_MAX + 1)])


@given(lambda_q=st.floats(min_value=0.0, max_value=4e4), lambda_p=st.floats(min_value=0.0, max_value=4e3))
def test_best_q_table_reads_the_checked_query_success(lambda_q, lambda_p):
    mean = lambda_q * CONFIG.t_frame_s
    table = optimal_q(CONFIG, TrafficLoad(lambda_q, lambda_p)).per_q_table
    assert bits([row.p_s_query for row in table]) == bits([query_success_prob(q, mean) for q in range(Q_MAX + 1)])


@given(values=loads, k_a=st.sampled_from(K_AS))
@settings(max_examples=200)
def test_push_curves_over_an_array_are_the_scalar_forms(values, k_a):
    m = np.array(values)
    assert bits(push_success_curve(k_a, m)) == bits([push_success_prob(k_a, x) for x in values])


def test_push_curves_on_a_fixed_large_array():
    # 10^4 means where np.exp and math.exp can disagree in the last bit on
    # some hosts: the curves must use the latter per element.
    m = np.random.default_rng(7).uniform(0.0, 200.0, 10_000)
    for k_a in K_AS:
        assert bits(push_success_curve(k_a, m)) == bits([push_success_prob(k_a, x) for x in m.tolist()])


@given(
    frame_slots=st.sampled_from((12, 101)),
    q=st.integers(min_value=0, max_value=19),
    ratio=st.floats(min_value=0.0, max_value=5.0),
    lo=st.floats(min_value=0.0, max_value=3000.0),
    width=st.floats(min_value=0.0, max_value=3000.0),
    steps=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=200)
def test_weighted_sweep_is_the_per_point_report(frame_slots, q, ratio, lo, width, steps):
    config = FrameConfig(frame_slots=frame_slots)
    q = min(q, q_max(config))  # frame_slots=12 has q_max=2, where k_a=1
    grid = np.linspace(lo, lo + width, steps)
    expected = [
        evaluate_metrics(config, TrafficLoad(ratio * x, x), q).p_s_weighted for x in grid.tolist()
    ]
    assert bits(weighted_success_sweep(config, q, ratio, grid)) == bits(expected)
    # A float point takes the scalar path; the crossover bisection relies on it.
    assert bits([weighted_success_sweep(config, q, ratio, x) for x in grid.tolist()]) == bits(expected)
