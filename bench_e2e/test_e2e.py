"""Tests of the end-to-end benchmark itself, on small workloads.

Run from the repository root::

    python3 -m pytest bench_e2e/test_e2e.py -q
"""

import json
from pathlib import Path

import e2e
from e2e_spans import SpanRecorder

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _small_ycsb() -> e2e.Workload:
    return e2e.YcsbA(num_ops=2_000)


def _small_fleet() -> e2e.Workload:
    return e2e.Fleet(num_ops=3_000, tenants=8)


def test_every_benchmark_metric_is_emitted_with_its_unit():
    declared = {kind: {entry["name"]: entry["unit"]
                       for entry in BENCHMARK[kind]}
                for kind in ("end_to_end", "per_layer")}
    assert declared["end_to_end"] == e2e.END_TO_END
    assert declared["per_layer"] == e2e.PER_LAYER
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        report = e2e.measure(_small_fleet(), seed=5, seconds=0, trace=trace)
        line = e2e.result_line(report, trace)
        assert line["correct"] and line["failed"] == 0
        emitted = {name: entry["unit"]
                   for name, entry in line["metrics"].items()}
        assert emitted == declared[kind]


def test_self_time_on_a_synthetic_call_tree(tmp_path):
    now = [0.0]

    def clock() -> float:
        return now[0]

    def advance(seconds: float) -> None:
        now[0] += seconds

    recorder = SpanRecorder(clock)
    leaf = recorder.wrap(lambda: advance(1.0), "leaf")

    def middle_body() -> None:
        advance(2.0)
        leaf()
        leaf()

    middle = recorder.wrap(middle_body, "middle")

    def top_body() -> None:
        advance(0.5)
        middle()
        leaf()
        advance(0.25)

    top = recorder.wrap(top_body, "top")
    outside = recorder.wrap(lambda: advance(7.0), "outside")
    outside()  # not under a root: ignored
    with recorder.span("root"):
        advance(3.0)
        top()

    totals = recorder.totals("root")
    assert totals.self_s == {"root": 3.0, "top": 0.75, "middle": 2.0,
                             "leaf": 3.0}
    assert totals.total_s == {"root": 8.75, "top": 5.75, "middle": 4.0,
                              "leaf": 3.0}
    assert sum(totals.self_s.values()) == totals.total_s["root"]
    assert recorder.child_durations("middle", "leaf") == [1.0, 1.0]
    assert recorder.child_durations("top", "leaf") == [1.0]

    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(str(path))
    header, *rows = [json.loads(line) for line in path.read_text().split("\n")
                     if line]
    spans = [(header["names"][name], start, end, parent)
             for name, start, end, parent in rows]
    assert spans[0] == ("outside", 0.0, 7.0, -1)
    assert spans[1] == ("root", 7.0, 15.75, -1)
    assert spans[2] == ("top", 10.0, 15.75, 1)
    assert len(spans) == len(recorder) == 7


def test_wrappers_are_removed_after_tracing():
    e2e._set_up(_small_ycsb(), 87)
    targets = e2e.span_targets()
    before = [vars(owner).get(attr) if not isinstance(owner, dict)
              else owner[attr] for _, owner, attr in targets]
    with SpanRecorder().installed(targets):
        pass
    after = [vars(owner).get(attr) if not isinstance(owner, dict)
             else owner[attr] for _, owner, attr in targets]
    assert before == after


def test_traced_and_untraced_digests_are_equal():
    for make in (_small_ycsb, _small_fleet):
        workload = make()
        e2e._set_up(workload, 87)
        untraced = workload.run_pass(e2e.Stopwatch())
        recorder = SpanRecorder()
        with recorder.installed(e2e.span_targets()):
            watch = e2e.Stopwatch(recorder)
            traced = workload.run_pass(watch)
        assert traced.digest == untraced.digest
        metrics = e2e.layer_metrics(recorder, traced)
        assert metrics["workloads.replay_self_s"] > 0
    assert metrics["sharding.split_s"] > 0
    assert 0 < metrics["sharding.efficiency"] < 1
    # The wrapped layers cover the fleet: what no span claims is small.
    assert metrics["trace.unattributed_s"] < 0.1 * watch.seconds


def test_planted_digest_mismatch_fails_the_run(tmp_path, monkeypatch,
                                               capsys):
    planted = tmp_path / "expected.json"
    planted.write_text(json.dumps(
        {"seed": 87, "digests": {"ycsb-a": "0" * 64}}))
    monkeypatch.setattr(e2e, "EXPECTED_PATH", planted)
    monkeypatch.setattr(e2e, "WORKLOADS", {"ycsb-a": _small_ycsb})
    status = e2e.main(["--workload", "ycsb-a", "--seconds", "0"])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status != 0
    assert not line["correct"]
    assert line["failed"] == line["attempted"] > 0


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setattr(e2e, "ROOT", tmp_path)
    assert e2e.main(["--workload", "ycsb-a"]) == 2
    assert capsys.readouterr().out == ""


def test_default_ycsb_trace_is_the_legacy_replay_trace():
    workload = e2e.YcsbA()
    e2e._set_up(workload, e2e.DEFAULT_SEED)
    legacy = e2e._bench_runner().replay_trace(workload.config)
    assert workload.trace == legacy


def test_pinned_names_match_the_simulator():
    e2e._set_up(e2e.Runner(), 87)
    from repro.experiments.runner import EXPERIMENTS
    from repro.stats.events import AesKind, MacKind, ReadKind, WriteKind

    assert e2e.EXPERIMENT_IDS == tuple(EXPERIMENTS)
    for kinds, enum in ((e2e.READ_KINDS, ReadKind),
                        (e2e.WRITE_KINDS, WriteKind),
                        (e2e.MAC_KINDS, MacKind), (e2e.AES_KINDS, AesKind)):
        assert set(kinds) == {member.value for member in enum}
