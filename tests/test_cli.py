"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.bench_harness import experiments
from repro.cli import main
from repro.forest.serialize import dumps_forest
from repro.forest.synthetic import random_forest


@pytest.fixture
def model_file(tmp_path):
    forest = random_forest(np.random.default_rng(1), [6, 7], max_depth=4)
    path = tmp_path / "model.txt"
    path.write_text(dumps_forest(forest))
    return str(path), forest


class TestInfo:
    def test_prints_statistics(self, model_file, capsys):
        path, forest = model_file
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert f"b={forest.branching}" in out
        assert "selected parameters" in out
        assert f"K={forest.max_multiplicity}" in out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent/model.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_model(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("this is not a model\n")
        assert main(["info", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestCompile:
    def test_stages_module(self, model_file, tmp_path, capsys):
        path, forest = model_file
        out_path = tmp_path / "staged.py"
        assert main(["compile", path, "-o", str(out_path)]) == 0
        assert out_path.exists()
        source = out_path.read_text()
        assert "Auto-generated" in source
        assert "def classify" in source

        # The staged module actually works.
        from repro.core.codegen import exec_generated_module
        from repro.core.runtime import DataOwner
        from repro.fhe.context import FheContext

        staged = exec_generated_module(source)
        ctx = FheContext()
        keys = ctx.keygen()
        enc = staged["encrypt_model"](ctx, keys.public)
        diane = DataOwner(staged["query_spec"](), keys)
        query = diane.prepare_query(ctx, [33, 99])
        result = diane.decrypt_result(
            ctx, staged["classify"](ctx, enc, query)
        )
        assert result.bitvector == forest.label_bitvector([33, 99])


class TestClassify:
    def test_encrypted_model(self, model_file, capsys):
        path, forest = model_file
        assert main(["classify", path, "--features", "33,99"]) == 0
        out = capsys.readouterr().out
        assert "plurality" in out
        assert "oracle agreement: ok" in out

    def test_plaintext_model(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["classify", path, "--features", "0,255", "--plaintext-model"]
        ) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_features(self, model_file, capsys):
        path, _ = model_file
        assert main(["classify", path, "--features", "a,b"]) == 2

    def test_out_of_domain_features(self, model_file, capsys):
        path, _ = model_file
        assert main(["classify", path, "--features", "999,0"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--plaintext-model"]])
    def test_plan_engine(self, model_file, capsys, extra):
        path, _ = model_file
        assert main(
            ["classify", path, "--features", "33,99", "--engine", "plan"]
            + extra
        ) == 0
        out = capsys.readouterr().out
        assert "engine: plan" in out
        assert "oracle agreement: ok" in out

    @pytest.mark.parametrize("extra", [[], ["--plaintext-model"]])
    def test_tape_engine(self, model_file, capsys, extra):
        path, _ = model_file
        assert main(
            ["classify", path, "--features", "33,99", "--engine", "tape"]
            + extra
        ) == 0
        out = capsys.readouterr().out
        assert "engine: tape" in out
        assert "oracle agreement: ok" in out

    def test_unknown_engine_rejected(self, model_file, capsys):
        path, _ = model_file
        with pytest.raises(SystemExit):
            main(["classify", path, "--features", "1,2", "--engine", "jit"])


class TestBatchClassify:
    def test_happy_path(self, model_file, capsys):
        path, forest = model_file
        assert main(
            ["batch-classify", path, "--features", "33,99;0,255;12,7",
             "--threads", "2", "--batch-size", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("oracle ok") == 3
        assert "amortized ms/query" in out

    def test_features_file(self, model_file, tmp_path, capsys):
        path, _ = model_file
        qfile = tmp_path / "queries.txt"
        qfile.write_text("33,99\n0,255\n")
        assert main(
            ["batch-classify", path, "--features-file", str(qfile)]
        ) == 0
        assert "queries served      : 2" in capsys.readouterr().out

    def test_missing_model_file(self, capsys):
        assert main(
            ["batch-classify", "/nonexistent/model.txt",
             "--features", "1,2"]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_feature_string(self, model_file, capsys):
        path, _ = model_file
        assert main(["batch-classify", path, "--features", "a,b"]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_features_given(self, model_file, capsys):
        path, _ = model_file
        assert main(["batch-classify", path]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_both_feature_sources_given(self, model_file, tmp_path, capsys):
        path, _ = model_file
        qfile = tmp_path / "q.txt"
        qfile.write_text("1,2\n")
        assert main(
            ["batch-classify", path, "--features", "1,2",
             "--features-file", str(qfile)]
        ) == 2

    def test_empty_features_string(self, model_file, capsys):
        path, _ = model_file
        assert main(["batch-classify", path, "--features", ";;"]) == 2
        assert "no queries" in capsys.readouterr().err

    def test_out_of_domain_feature(self, model_file, capsys):
        path, _ = model_file
        assert main(["batch-classify", path, "--features", "999,0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_threads_and_batch_size(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["batch-classify", path, "--features", "1,2", "--threads", "0"]
        ) == 2
        assert main(
            ["batch-classify", path, "--features", "1,2",
             "--batch-size", "0"]
        ) == 2


class TestServe:
    def test_happy_path(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "5", "--threads", "2",
             "--batch-size", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving" in out
        assert "queries served      : 5" in out
        assert "oracle agreement: ok" in out
        # The compiled-tape engine is the serve default.
        assert "tape_inference" in out

    def test_eager_engine_selectable(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "4", "--threads", "1",
             "--engine", "eager"]
        ) == 0
        out = capsys.readouterr().out
        assert "oracle agreement: ok" in out
        assert "tape_inference" not in out
        assert "phase comparison" in out

    def test_plaintext_model(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "3", "--plaintext-model"]
        ) == 0
        assert "oracle agreement: ok" in capsys.readouterr().out

    def test_missing_model_file(self, capsys):
        assert main(["serve", "/nonexistent/model.txt"]) == 2

    def test_bad_query_count(self, model_file, capsys):
        path, _ = model_file
        assert main(["serve", path, "--queries", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_threads(self, model_file, capsys):
        path, _ = model_file
        assert main(["serve", path, "--threads", "-1"]) == 2


class TestBench:
    def test_fig6_subset(self, capsys):
        assert main(
            ["bench", "fig6", "--workloads", "width55", "--queries", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "width55" in out

    def test_fig6_forwards_queries(self, capsys):
        """Regression: --queries used to be silently ignored."""
        experiments.clear_cache()
        assert main(
            ["bench", "fig6", "--workloads", "width55", "--queries", "2"]
        ) == 0
        runs = {(key[0], key[2]) for key in experiments._RECORD_CACHE}
        assert runs == {("width55", 2)}

    def test_table6(self, capsys):
        assert main(["bench", "table6"]) == 0
        assert "depth4" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["bench", "table2", "--workloads", "width55"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_fig10(self, capsys):
        assert main(["bench", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10a" in out and "Figure 10c" in out

    def test_table1_reachable(self, capsys):
        """Regression: table1 used to be implemented but not dispatchable."""
        assert main(["bench", "table1", "--workloads", "width55"]) == 0
        out = capsys.readouterr().out
        assert "Table 1(a)" in out and "Table 1(c)" in out

    @pytest.mark.parametrize("argv,refusal", [
        (["table6", "--workloads", "width55"],
         "section 'table6' does not take --workloads"),
        (["table6", "--queries", "9"],
         "section 'table6' does not take --queries"),
        (["table1", "--workloads", "width55", "--queries", "5"],
         "section 'table1' does not take --queries"),
        (["table5", "--queries", "3"],
         "section 'table5' does not take --queries"),
        (["table2", "--workloads", "width55,depth4"],
         "section 'table2' takes one workload in --workloads, got 2"),
        (["report", "--workloads", "width55"],
         "'report' does not take --workloads"),
        (["report", "--queries", "3"],
         "'report' does not take --queries"),
        (["report", "--backend", "vector"],
         "'report' does not take --backend"),
        (["table6", "--out", "t6.json"],
         "section 'table6' does not take --out"),
    ])
    def test_a_flag_the_section_does_not_take_is_refused(
        self, argv, refusal, capsys
    ):
        """Regression: a section used to drop silently what it does not
        take (a flag, or every workload past the first) and print its
        full table."""
        assert main(["bench", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert refusal in captured.err

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])

    @pytest.mark.parametrize("artifact", ["fig7", "fig8"])
    def test_multithreaded_figures_refused_without_an_op_dag(
        self, artifact, capsys
    ):
        """A DAG-less tracker has no parallel-time estimate: a vector
        run of Figure 7 / 8 fails instead of printing sequential times
        as multithreaded ones."""
        argv = ["bench", artifact, "--workloads", "width55"]
        assert main(argv + ["--backend", "vector"]) == 1
        captured = capsys.readouterr()
        assert "speedup" not in captured.out
        assert "threads=32" in captured.err and "'vector'" in captured.err


class TestServeScheduling:
    def test_serve_with_deadline_and_max_queue(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "8", "--threads", "2",
             "--batch-size", "4", "--deadline-ms", "10000",
             "--max-queue", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "oracle agreement: ok" in out
        assert "deadline misses" in out
        assert "scheduling:" in out

    def test_serve_rejects_bad_deadline(self, model_file, capsys):
        path, _ = model_file
        assert main(["serve", path, "--deadline-ms", "0"]) == 2
        assert "--deadline-ms" in capsys.readouterr().err

    def test_serve_rejects_bad_max_queue(self, model_file, capsys):
        path, _ = model_file
        assert main(["serve", path, "--max-queue", "0"]) == 2
        assert "--max-queue" in capsys.readouterr().err

    def test_serve_sheds_when_queue_bounded(self, model_file, capsys):
        """A tiny bound on a single worker forces visible admission
        control instead of unbounded queueing."""
        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "24", "--threads", "1",
             "--batch-size", "2", "--max-queue", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "oracle agreement: ok" in out

    def test_autoscale_scales_down_after_drain(self, model_file, capsys):
        """Bugfix lock: once load ends the control plane keeps ticking
        long enough for the sustain-down counter to fire, so an idle
        over-provisioned pool scales down before the report prints
        (previously no post-drain ticks meant no scale-down, ever)."""
        import re

        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "6", "--threads", "2",
             "--batch-size", "3", "--autoscale",
             "--workers-min", "1", "--workers-max", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "oracle agreement: ok" in out
        assert "control plane:" in out
        # The drained plant is idle with a free worker: the policy must
        # have proposed — and the guard rail applied — a scale-down.
        assert "sustained underload" in out
        applied = re.search(r"(\d+) actuations applied", out)
        assert applied is not None and int(applied.group(1)) >= 1


class TestServeWorkers:
    """``--workers`` edges: below-1 counts rejected by name, and a
    1-worker cluster serves the same bits as the in-process service."""

    def test_workers_zero_rejected(self, model_file, capsys):
        path, _ = model_file
        assert main(["serve", path, "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers" in err and ">= 1" in err

    def test_workers_negative_rejected(self, model_file, capsys):
        path, _ = model_file
        assert main(["serve", path, "--workers", "-3"]) == 2
        err = capsys.readouterr().err
        assert "--workers" in err and ">= 1" in err

    def test_workers_one_serves_via_cluster(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "4", "--workers", "1",
             "--batch-size", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 worker processes" in out
        assert "oracle agreement: ok" in out

    def test_workers_one_bit_identical_to_in_process(self, model_file):
        """The cluster transport must not change a single decrypted bit:
        a 1-process pool and the threaded service agree query for query."""
        import numpy as np

        from repro.serve import ClusterService, CopseService

        _, forest = model_file
        rng = np.random.default_rng(99)
        queries = [
            [int(v) for v in rng.integers(0, 256, forest.n_features)]
            for _ in range(5)
        ]
        with CopseService(threads=1) as service:
            service.register_model("m", forest, precision=8,
                                   max_batch_size=4)
            in_process = [
                r.bitvector
                for r in service.classify_many("m", queries)
            ]
        with ClusterService(workers=1) as service:
            service.register_model("m", forest, precision=8,
                                   max_batch_size=4)
            clustered = [
                r.bitvector
                for r in service.classify_many("m", queries)
            ]
        assert clustered == in_process

    def test_autoscale_flag_validation(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["serve", path, "--autoscale", "--workers-min", "0"]
        ) == 2
        assert "--workers-min" in capsys.readouterr().err
        assert main(
            ["serve", path, "--autoscale", "--workers-min", "4",
             "--workers-max", "2"]
        ) == 2
        assert "--workers-max" in capsys.readouterr().err
        assert main(
            ["serve", path, "--autoscale", "--control-interval", "0"]
        ) == 2
        assert "--control-interval" in capsys.readouterr().err

    def test_autoscale_prints_decision_log(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "4", "--autoscale",
             "--workers-max", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "control plane:" in out
        assert "oracle agreement: ok" in out


class TestBackendFlag:
    """``--backend`` rides the shared parent parser on every inference
    command (classify / batch-classify / serve / bench)."""

    def test_classify_vector_backend(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["classify", path, "--features", "33,99", "--backend", "vector"]
        ) == 0
        out = capsys.readouterr().out
        assert "backend: vector" in out
        assert "oracle agreement: ok" in out

    def test_classify_plaintext_backend(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["classify", path, "--features", "33,99",
             "--backend", "plaintext"]
        ) == 0
        assert "backend: plaintext" in capsys.readouterr().out

    def test_batch_classify_vector_backend(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["batch-classify", path, "--features", "33,99;0,255",
             "--backend", "vector", "--threads", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "fhe backends        : cli=vector" in out
        assert "MISMATCH" not in out

    def test_serve_vector_backend(self, model_file, capsys):
        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "4", "--threads", "1",
             "--backend", "vector"]
        ) == 0
        out = capsys.readouterr().out
        assert "backend vector" in out  # registered.describe()
        assert "oracle agreement: ok" in out

    def test_bench_backend_forwarded_and_restored(self, capsys, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert main(
            ["bench", "table2", "--workloads", "width55",
             "--backend", "vector"]
        ) == 0
        assert "Table 2" in capsys.readouterr().out
        # The process default is restored after the command returns.
        assert "REPRO_BACKEND" not in os.environ

    def test_unknown_backend_rejected(self, model_file):
        path, _ = model_file
        with pytest.raises(SystemExit):
            main(["classify", path, "--features", "1,2",
                  "--backend", "helib"])

    def test_seed_scoped_to_query_generating_commands(self, model_file,
                                                      capsys):
        path, _ = model_file
        # serve generates synthetic queries and accepts --seed ...
        assert main(
            ["serve", path, "--queries", "2", "--threads", "1",
             "--seed", "7"]
        ) == 0
        capsys.readouterr()
        # ... classify takes explicit features, so --seed is rejected
        # rather than silently ignored.
        with pytest.raises(SystemExit):
            main(["classify", path, "--features", "33,99", "--seed", "7"])


class TestTrace:
    def test_trace_tape_report(self, model_file, capsys):
        path, _ = model_file
        assert main(["trace", "tape", path, "--batch-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "tape profile" in out
        assert "profiled runs: 1" in out
        assert "opcode" in out and "op breakdown" in out
        assert "range" in out

    def test_trace_tape_json_record(self, model_file, tmp_path, capsys):
        import json

        path, _ = model_file
        out_path = tmp_path / "profile.json"
        assert main(
            ["trace", "tape", path, "--batch-size", "4",
             "--json", str(out_path)]
        ) == 0
        record = json.loads(out_path.read_text())
        assert record["runs"] == 1
        assert record["samples"] > 0
        assert record["op_totals"]
        assert record["model"] == path

    def test_trace_tape_rejects_bad_batch_size(self, model_file, capsys):
        path, _ = model_file
        assert main(["trace", "tape", path, "--batch-size", "0"]) == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_trace_sim_chrome_export(self, model_file, tmp_path, capsys):
        import json

        path, _ = model_file
        out_path = tmp_path / "trace.json"
        assert main(
            ["trace", "sim", path, "--queries", "40",
             "-o", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "simulated 40 submissions" in out
        doc = json.loads(out_path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in slices} >= {"batch", "assign"}

    def test_trace_sim_jsonl_export(self, model_file, tmp_path, capsys):
        import json

        path, _ = model_file
        out_path = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "sim", path, "--queries", "40",
             "--format", "jsonl", "-o", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert {"span", "name", "track", "t0", "t1"} <= set(first)

    def test_trace_sim_deterministic_per_seed(self, model_file, tmp_path,
                                              capsys):
        path, _ = model_file
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out_path in (a, b):
            assert main(
                ["trace", "sim", path, "--queries", "40",
                 "--seed", "99", "-o", str(out_path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace_requires_kind(self, model_file):
        path, _ = model_file
        with pytest.raises(SystemExit):
            main(["trace", path])


class TestMetricsCommand:
    def test_serve_stats_interval_emits_snapshots(self, model_file,
                                                  capsys):
        import json

        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "4", "--threads", "1",
             "--stats-interval", "2"]
        ) == 0
        out = capsys.readouterr().out
        snapshots = [
            json.loads(line) for line in out.splitlines()
            if line.startswith("{")
        ]
        # One line per 2 submissions plus the post-flush snapshot.
        assert len(snapshots) == 3
        for snap in snapshots:
            assert {"counters", "gauges", "histograms"} <= set(snap)
        final = snapshots[-1]
        assert final["counters"]["sched_completed"] == 4.0

    def test_serve_rejects_bad_stats_interval(self, model_file, capsys):
        path, _ = model_file
        assert main(["serve", path, "--stats-interval", "0"]) == 2
        assert "--stats-interval" in capsys.readouterr().err

    def test_metrics_pretty_prints_snapshot(self, model_file, tmp_path,
                                            capsys):
        path, _ = model_file
        assert main(
            ["serve", path, "--queries", "2", "--threads", "1",
             "--stats-interval", "2"]
        ) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("{")]
        snap_file = tmp_path / "snap.jsonl"
        snap_file.write_text("\n".join(lines) + "\n")
        assert main(["metrics", str(snap_file)]) == 0
        pretty = capsys.readouterr().out
        assert "metrics snapshot" in pretty
        assert "counters:" in pretty
        assert "sched_submitted" in pretty
        assert "histograms:" in pretty

    def test_metrics_rejects_non_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json\n")
        assert main(["metrics", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_metrics_rejects_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["metrics", str(empty)]) == 2

    def test_metrics_missing_file(self, capsys):
        assert main(["metrics", "/nonexistent/snap.json"]) == 2


class TestDlqCommand:
    def test_serve_dumps_dlq_in_thread(self, model_file, tmp_path,
                                       capsys):
        """``--dlq-out`` used to be refused without ``--workers``; the
        one facade has one dead-letter queue, empty where no worker can
        crash, and dumps it all the same."""
        import json

        path, _ = model_file
        dump = tmp_path / "dlq.json"
        assert main(
            ["serve", path, "--queries", "4", "--batch-size", "4",
             "--dlq-out", str(dump)]
        ) == 0
        assert "dead-letter queue: 0 entries" in capsys.readouterr().out
        assert json.loads(dump.read_text()) == []
        assert main(["dlq", str(dump)]) == 0

    def test_serve_dumps_dlq_and_cli_renders_it(self, model_file,
                                                tmp_path, capsys):
        """A clean clustered run writes an (empty) DLQ dump that the
        ``dlq`` command round-trips."""
        path, _ = model_file
        dump = tmp_path / "dlq.json"
        assert main(
            ["serve", path, "--queries", "4", "--workers", "1",
             "--batch-size", "4", "--dlq-out", str(dump)]
        ) == 0
        out = capsys.readouterr().out
        assert "dead-letter queue: 0 entries" in out
        assert "repro dlq" in out
        assert main(["dlq", str(dump)]) == 0
        pretty = capsys.readouterr().out
        assert "0 entries" in pretty
        assert "no query was quarantined" in pretty

    def test_dlq_renders_quarantine_entries(self, tmp_path, capsys):
        import json

        from repro.serve import DeadLetter

        entry = DeadLetter(
            model="toxic", tenant="acme", seq=7, origin_batch=3,
            attempts=2, reason="poison quarantine: crashed 2 workers",
            time=1.25,
        )
        dump = tmp_path / "dlq.json"
        dump.write_text(json.dumps([entry.as_dict()]))
        assert main(["dlq", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert "model=toxic" in out and "seq=7" in out
        assert "poison quarantine" in out

    def test_dlq_rejects_non_dump(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a list\"}\n")
        assert main(["dlq", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_dlq_rejects_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["dlq", str(empty)]) == 2

    def test_dlq_missing_file(self, capsys):
        assert main(["dlq", "/nonexistent/dlq.json"]) == 2


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])
