"""Each workload at reduced scale: every answer checks out and only the known fault fails."""

import random

import pytest
import run
import workloads


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_run_is_correct(workload):
    outcome = run.run_workload(workload, seed=3, seconds=0, trace=False, scale=100)
    result = outcome["result"]
    assert result["correct"], outcome["run"]["errors"]
    assert set(result["metrics"]) == {"setup_s", "queries_per_s", "query_ms_p50", "query_ms_tail", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    queries = workloads.make_round(workload, 3, 100) if workload != "cli" else []
    for name in outcome["run"]["failures"]:
        # the only failure allowed: the seed-independent deep term the recursive parser cannot take
        kind, index = name.split("#")
        assert kind == "murec.round_trip" and queries[int(index)][1][0] == workloads.DEEP_TERM
    assert result["failed"] == len(outcome["run"]["failures"]) * outcome["run"]["rounds"]


def test_traced_run_reports_every_layer_metric():
    outcome = run.run_workload("programs", seed=3, seconds=0, trace=True, scale=100)
    assert set(outcome["result"]["metrics"]) == set(run.PER_LAYER)
    assert outcome["result"]["correct"]


def test_rounds_repeat_for_a_seed_and_change_with_it():
    assert workloads.make_round("exact", 5) == workloads.make_round("exact", 5)
    assert workloads.make_round("exact", 5) != workloads.make_round("exact", 6)
    assert len(workloads.make_round("programs", 5)) == len(workloads.make_round("programs", 6))


def test_generated_terms_are_canonical_program_text():
    from exactdyn import murec

    def nodes(t) -> int:
        children = {murec.Comp: lambda: (t.outer, *t.inner), murec.PrimRec: lambda: (t.base, t.step),
                    murec.Mu: lambda: (t.body,)}.get(type(t), lambda: ())()
        return 1 + sum(map(nodes, children))

    rng = random.Random(1)
    for depth in (0, 1, 5, 40):
        text, count = workloads.random_term(rng, depth)
        term = murec.parse_program(text)
        assert murec.format_program(term) == text
        assert nodes(term) == count
