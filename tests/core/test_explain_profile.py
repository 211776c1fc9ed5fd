"""`explain_profile=True`: per-stage breakdown of one detection."""

from __future__ import annotations

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.obs.profile import QueryProfile
from repro.obs.trace import NULL_TRACER, current_tracer

#: the plan is built from the posting lists, so it follows their fetch
STAGES = ("fetch_postings", "plan", "intersect", "join", "materialize")


def _sizeable_log(traces: int = 200, repeats: int = 5) -> list[Event]:
    events = []
    for t in range(traces):
        ts = 0.0
        for _ in range(repeats):
            for act in ("a", "b", "c", "d"):
                events.append(
                    Event(trace_id=f"t{t}", activity=act, timestamp=ts)
                )
                ts += 1.0
    return events


def test_profile_returned_with_plan_and_matches():
    with SequenceIndex() as index:
        index.update(_sizeable_log(traces=20, repeats=2))
        matches, plan, profile = index.detect(
            ["a", "b", "c"], explain_profile=True
        )
    assert len(matches) == 40
    assert plan.pattern == ("a", "b", "c")
    assert isinstance(profile, QueryProfile)
    assert profile.query == "query.detect"
    assert profile.total_wall_s > 0


def test_profile_contains_planner_stages_in_order():
    with SequenceIndex() as index:
        index.update(_sizeable_log(traces=20, repeats=2))
        _, _, profile = index.detect(["a", "b", "c", "d"], explain_profile=True)
    assert tuple(stage.name for stage in profile.stages) == STAGES


def test_stage_counters_describe_the_execution():
    with SequenceIndex() as index:
        index.update(_sizeable_log(traces=10, repeats=1))
        matches, _, profile = index.detect(["a", "b"], explain_profile=True)
    by_name = {stage.name: dict(stage.counters) for stage in profile.stages}
    assert by_name["plan"]["pairs"] == 1
    assert by_name["intersect"]["survivors"] == 10
    assert by_name["materialize"]["matches"] == len(matches)


def test_stage_timings_account_for_most_of_the_query_wall_time():
    """The stages must sum to <= the total and cover a meaningful share.

    Stage spans nest inside the root query span, so their sum can never
    exceed the root's wall time; on a sizeable in-memory log the traced
    stages are where the work happens, so they must also account for at
    least half of it (untraced glue is cache lookups and result copies).
    """
    with SequenceIndex() as index:
        index.update(_sizeable_log())
        _, _, profile = index.detect(["a", "b", "c", "d"], explain_profile=True)
    assert profile.accounted_wall_s <= profile.total_wall_s
    assert profile.accounted_fraction >= 0.5


def test_profile_bypasses_the_query_result_cache():
    with SequenceIndex() as index:
        index.update(_sizeable_log(traces=10, repeats=1))
        index.detect(["a", "b"])  # populate the cache
        _, _, profile = index.detect(["a", "b"], explain_profile=True)
    # A cache hit would execute no stages at all.
    assert profile.stages


def test_tracer_deactivated_after_profiled_query():
    with SequenceIndex() as index:
        index.update(_sizeable_log(traces=5, repeats=1))
        index.detect(["a", "b"], explain_profile=True)
        assert current_tracer() is NULL_TRACER


def test_plain_detect_unchanged_by_profile_support():
    with SequenceIndex() as index:
        index.update(_sizeable_log(traces=10, repeats=1))
        plain = index.detect(["a", "b", "c"])
        profiled, _, _ = index.detect(["a", "b", "c"], explain_profile=True)
        explained, _ = index.detect(["a", "b", "c"], explain=True)
    assert plain == profiled == explained
