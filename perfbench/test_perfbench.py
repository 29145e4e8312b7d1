"""Tests of the benchmark's own logic: percentiles, self time, the golden gate.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import json

import pytest

import run
import spans


@pytest.fixture(scope="module")
def prog():
    return run.load_program(run.ROOT)


@pytest.mark.parametrize("n", [100, 101, 109, 110, 250, 1000])
def test_p90_has_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)]
    value, beyond = run.percentile(samples, 0.9)
    assert beyond >= 10
    assert beyond == sum(s > value for s in samples)
    assert sum(s <= value for s in samples) >= 0.9 * n


def test_p90_refuses_too_few_samples():
    with pytest.raises(ValueError, match="beyond"):
        run.percentile(range(99), 0.9)


def test_self_time_on_nested_and_sibling_spans():
    tree = [
        spans.Span("root", 0.0, 10.0, None, 0),
        spans.Span("a", 1.0, 4.0, 0, 0),
        spans.Span("leaf", 2.0, 3.0, 1, 0),
        spans.Span("b", 5.0, 9.0, 0, 0),
        spans.Span("leaf", 6.0, 6.5, 3, 0),
        spans.Span("leaf", 7.0, 8.0, 3, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.0])
    totals = spans.layer_totals(tree)
    assert totals["leaf.calls"] == 3
    assert totals["leaf.s"] == pytest.approx(2.5)
    assert totals["b.self_s"] == pytest.approx(2.5)
    assert sum(v for k, v in totals.items() if k.endswith(".self_s")) == pytest.approx(10.0)


def test_tracer_links_children_to_the_enclosing_call():
    tracer = spans.Tracer(run=7)

    def inner():
        return 1

    wrapped_inner = tracer.wrap(inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert tracer.wrap(outer)() == 2
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert {s.run for s in tracer.spans} == {7}
    assert tracer.spans[0].name.endswith(".outer")


def test_patch_restores_the_original_functions(prog):
    original = prog["model"].backward
    tracer = spans.Tracer(run=0)
    with tracer.patch([(prog["model"], "backward")], {}):
        assert prog["model"].backward is not original
    assert prog["model"].backward is original


def _metrics_run(tmp_path, text):
    (tmp_path / "metrics.csv").write_text(text)
    return run.Run(traced=False, tracer=spans.Tracer(run=0))


def test_perturbed_metrics_csv_is_a_failed_run(tmp_path, prog):
    text = ("round,global_loss,top1_accuracy,uplink_bytes,downlink_bytes\n"
            "0,0.5,0.75,100,200\n")
    good = run.check_run(_metrics_run(tmp_path, text), tmp_path, None, "uploaded_delta",
                         prog["sparsify"].encoded_size)
    assert good.failure is None
    assert (good.accuracy, good.uplink, good.downlink) == (0.75, 100, 200)

    again = run.check_run(_metrics_run(tmp_path, text), tmp_path, good.sha256,
                          "uploaded_delta", prog["sparsify"].encoded_size)
    assert again.failure is None

    perturbed = run.check_run(_metrics_run(tmp_path, text.replace("0.75", "0.76")),
                              tmp_path, good.sha256, "uploaded_delta",
                              prog["sparsify"].encoded_size)
    assert "sha256" in perturbed.failure


def test_golden_mismatch_counts_as_failed_run(tmp_path, prog):
    golden = json.loads(run.GOLDEN.read_text())["metrics_csv_sha256"]["paper"]
    bench = run.Bench(prog, "paper", tmp_path)
    traced = bench.run(run.DEFAULT_SEED, True, golden)
    assert traced.failure is None
    assert traced.tracer.counts["model.backward.rows"] == traced.tracer.counts["samples"]
    assert traced.tracer.counts["sparsify.encode.bytes"] == traced.uplink
    assert bench.run(run.DEFAULT_SEED, False, "0" * 64).failure
    assert (bench.failed, bench.attempted) == (1, 2)


def test_command_exits_nonzero_on_golden_mismatch(tmp_path, monkeypatch, capsys, prog):
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps({"metrics_csv_sha256": {"paper": "0" * 64}}))
    monkeypatch.setattr(run, "GOLDEN", tampered)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # main sets it; restore afterwards
    assert run.main(["--workload", "paper", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)
