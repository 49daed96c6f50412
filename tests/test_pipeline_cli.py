"""End-to-end pipeline runs, report artifacts, and the CLI surface."""

import csv
import json
import os
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import miaudit as mi
from miaudit import attack_models as am
from miaudit.cli_runner import (
    ExperimentConfig,
    load_config,
    rerender_from_scores,
    run_pipeline,
)
from miaudit.cli_runner.cli import main
from miaudit.artifacts import _atomic_file_write
from miaudit.cli_runner import pipeline
from miaudit.cli_runner.pipeline import feature_chunks, prepare_target, score_samples
from miaudit.errors import TrainingError
from miaudit.scores import ALL_STRATEGIES, read_score_records, write_score_records

FAST_OVERRIDES = {
    "seed": "5",
    "dataset.n_per_class": "6",
    "dataset.classes": "3",
    "dataset.dim": "6",
    "dataset.separation": "1.0",
    "dataset.heldout_per_class": "6",
    "target.hidden_dims": "16",
    "target.epochs": "30",
    "target.batch_size": "8",
    "attack.n_iter": "8",
    "protocol.repeats": "3",
    "protocol.ratios": "2:1,1:1,1:2",
    "protocol.ratio_repeats": "3",
    "protocol.fpr_grid_points": "21",
    "histogram.bins": "10",
}


def fast_config(**extra):
    values = dict(FAST_OVERRIDES)
    values.update(extra)
    return ExperimentConfig(values)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One pipeline run with threshold and attacker strategies mixed."""
    out = tmp_path_factory.mktemp("audit")
    config = fast_config(
        **{"strategies": "loss,adv_dist,attacker_grad_w,attacker_ensemble"}
    )
    report, out_dir = run_pipeline(config, out_dir=out)
    return report, out_dir, config


class TestPipelineRun:
    def test_artifacts_exist(self, full_run):
        report, out, _ = full_run
        assert (out / "report.json").is_file()
        assert (out / "target.ckpt").is_file()
        assert (out / "attacker_grad_w.ckpt").is_file()
        assert (out / "attacker_ensemble.ckpt").is_file()
        for name in ("loss", "adv_dist", "attacker_grad_w", "attacker_ensemble"):
            assert (out / f"scores_{name}.csv").is_file()
            assert (out / f"roc_{name}.csv").is_file()
            assert (out / f"hist_{name}.csv").is_file()

    def test_report_shape(self, full_run):
        report, out, _ = full_run
        payload = json.loads((out / "report.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["seed"] == 5
        for key in ("config", "dataset", "target", "splits", "strategies"):
            assert key in payload
        assert set(payload["strategies"]) == {
            "loss",
            "adv_dist",
            "attacker_grad_w",
            "attacker_ensemble",
        }
        for name, block in payload["strategies"].items():
            assert block["kind"] == ("attacker" if name.startswith("attacker") else "threshold")
            assert 0.0 <= block["analysis1"]["auroc_mean"] <= 1.0
            assert len(block["analysis1"]["aurocs"]) == 3
            assert 0.0 <= block["analysis2"]["balanced_accuracy"] <= 1.0
            rule = block["analysis2"]["threshold_rule"]
            assert rule == ("fixed_0.5" if name.startswith("attacker") else "swept")

    def test_attacker_split_hygiene(self, full_run):
        report, out, _ = full_run
        payload = json.loads((out / "report.json").read_text())
        splits = payload["splits"]
        # 0.4 of min(18, 18) per side, balanced, removed from the eval pools
        assert splits["members_total"] == 18
        assert splits["nonmembers_total"] == 18
        assert splits["attacker_train_members"] == 7
        assert splits["attacker_train_nonmembers"] == 7
        assert splits["eval_members"] == 11
        assert splits["eval_nonmembers"] == 11

    def test_score_csv_matches_split(self, full_run):
        _, out, _ = full_run
        ids, _, members = read_score_records(out / "scores_loss.csv", "loss")
        assert members.sum() == 11 and (~members).sum() == 11
        # member ids precede nonmember ids in the global numbering
        assert ids[members].max() < ids[~members].min()

    def test_adv_dist_scores_within_budget(self, full_run):
        _, out, _ = full_run
        _, scores, _ = read_score_records(out / "scores_adv_dist.csv", "adv_dist")
        assert np.all((0.0 <= scores) & (scores <= 1.0))

    def test_attacker_scores_are_probabilities(self, full_run):
        _, out, _ = full_run
        _, scores, _ = read_score_records(out / "scores_attacker_ensemble.csv", "attacker_ensemble")
        assert np.all((0.0 <= scores) & (scores <= 1.0))

    def test_roc_csv_parses(self, full_run):
        _, out, _ = full_run
        rows = (out / "roc_loss.csv").read_text().strip().splitlines()
        assert rows[0] == "fpr,tpr_mean,tpr_std"
        assert len(rows) == 22
        first = rows[1].split(",")
        last = rows[-1].split(",")
        assert float(first[0]) == 0.0 and float(last[0]) == 1.0

    def test_hist_csv_parses(self, full_run):
        _, out, _ = full_run
        rows = (out / "hist_adv_dist.csv").read_text().strip().splitlines()
        assert rows[0] == "bin_lo,bin_hi,member_count,nonmember_count"
        assert len(rows) == 11
        assert float(rows[1].split(",")[0]) == 0.0
        total_members = sum(int(r.split(",")[2]) for r in rows[1:])
        assert total_members == 11

    def test_checkpoint_reloads(self, full_run):
        _, out, _ = full_run
        model = mi.load_checkpoint(out / "target.ckpt")
        assert model.layer_dims == [6, 16, 3]


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        config = fast_config(**{"strategies": "loss,attacker_grad_w"})
        _, out_a = run_pipeline(config, out_dir=tmp_path / "a")
        _, out_b = run_pipeline(config, out_dir=tmp_path / "b")
        for name in ("report.json", "scores_loss.csv", "roc_loss.csv", "target.ckpt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_changes_scores(self, tmp_path):
        base = fast_config(**{"strategies": "loss"})
        other = fast_config(**{"strategies": "loss", "seed": "6"})
        _, out_a = run_pipeline(base, out_dir=tmp_path / "a")
        _, out_b = run_pipeline(other, out_dir=tmp_path / "b")
        assert (out_a / "scores_loss.csv").read_bytes() != (out_b / "scores_loss.csv").read_bytes()


class TestRerender:
    def test_reproduces_analysis_sections(self, full_run, tmp_path):
        _, out, config = full_run
        _, out2 = rerender_from_scores(config, out, tmp_path / "rerender")
        rendered = sorted(p.name for p in out2.iterdir())
        audited = sorted(
            p.name
            for p in out.iterdir()
            if p.name == "report.json" or p.name.startswith(("roc_", "hist_"))
        )
        assert rendered == audited
        for name in rendered:
            assert (out2 / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize(
        "tamper",
        [
            "sample_ids",
            "strategy_column",
            "pool_size",
            "duplicate_id",
            "truncated_report",
            "list_report",
        ],
    )
    def test_rejects_disagreeing_score_files(self, full_run, tmp_path, tamper):
        _, out, config = full_run
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        for path in out.glob("scores_*.csv"):
            (scores_dir / path.name).write_bytes(path.read_bytes())
        target = scores_dir / "scores_adv_dist.csv"
        name = "adv_dist"
        ids, scores, members = read_score_records(target, name)
        if tamper == "sample_ids":
            ids = np.where(members, ids, ids + 1000)
        elif tamper == "strategy_column":
            name = "mentr"
        elif tamper == "pool_size":
            ids, scores, members = ids[:-1], scores[:-1], members[:-1]
        elif tamper == "truncated_report":
            (scores_dir / "report.json").write_bytes((out / "report.json").read_bytes()[:100])
        elif tamper == "list_report":
            (scores_dir / "report.json").write_text("[]\n")
        if tamper == "duplicate_id":
            # every file lists the first sample twice, so all files agree
            for path in scores_dir.glob("scores_*.csv"):
                strategy = path.stem[len("scores_"):]
                cols = read_score_records(path, strategy)
                write_score_records(path, strategy, *(np.append(c, c[:1]) for c in cols))
        else:
            write_score_records(target, name, ids, scores, members)
        with pytest.raises(mi.DataError):
            rerender_from_scores(config, scores_dir, tmp_path / "out")

    @pytest.mark.parametrize(
        "scores",
        # a span that overflows float64, and a constant where lo + 1.0 == lo
        [np.where(np.arange(40) % 2, 1e308, -1e308), np.full(40, 1e17)],
        ids=["overflowing_span", "large_constant"],
    )
    def test_histograms_of_extreme_score_ranges(self, tmp_path, capsys, scores):
        members = np.arange(40) < 20
        write_score_records(tmp_path / "scores_loss.csv", "loss", np.arange(40), scores, members)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strategies = loss\n")
        args = ["report", "--config", str(cfg), "--scores-dir", str(tmp_path), "--out", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 0, capsys.readouterr().err
        with open(tmp_path / "o" / "hist_loss.csv", newline="") as handle:
            rows = np.array([[float(v) for v in row] for row in list(csv.reader(handle))[1:]])
        edges = np.append(rows[:, 0], rows[-1, 1])
        assert np.array_equal(rows[1:, 0], rows[:-1, 1])
        assert np.isfinite(edges).all() and (np.diff(edges / 2) > 0).all()
        assert (rows[:, 2].sum(), rows[:, 3].sum()) == (20, 20)

    def test_missing_scores_dir(self, tmp_path):
        config = fast_config(**{"strategies": "loss"})
        with pytest.raises(mi.DataError):
            rerender_from_scores(config, tmp_path / "nowhere", tmp_path / "out")


class TestAtomicWrite:
    def test_failing_writer_leaves_nothing(self, tmp_path):
        other = tmp_path / "scores_loss.csv.tmp"  # another run's fixed-name temp file
        other.write_text("other run")

        def failing(path):
            path.write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError):
            _atomic_file_write(tmp_path / "scores_loss.csv", failing)
        assert sorted(p.name for p in tmp_path.iterdir()) == [other.name]
        assert other.read_text() == "other run"


class TestWorkers:
    # MIAUDIT_WORKERS is read by no command: whatever it says, the outputs stay
    def test_setting_changes_no_output_file(self, tmp_path, monkeypatch, assert_same_tree):
        # an unset variable and MIAUDIT_WORKERS=2 give the same tree, traces/ included
        config = fast_config(
            **{
                "strategies": "loss,adv_dist,attacker_ensemble",
                "debug.dump_traces": "true",
            }
        )
        monkeypatch.delenv("MIAUDIT_WORKERS", raising=False)
        _, out_unset = run_pipeline(config, out_dir=tmp_path / "unset")
        monkeypatch.setenv("MIAUDIT_WORKERS", "2")
        _, out_two = run_pipeline(config, out_dir=tmp_path / "two")
        assert len(list((out_unset / "traces").glob("trace_*.csv"))) == 36
        assert_same_tree(out_unset, out_two)

    def test_invalid_setting_changes_nothing(self, tmp_path, monkeypatch, assert_same_tree):
        # each run writes to the same paths, which the report echoes
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in FAST_OVERRIDES.items()) + "strategies = loss\n")
        audit, report = tmp_path / "audit", tmp_path / "report"
        for setting in (None, "zero"):
            if setting is None:
                monkeypatch.delenv("MIAUDIT_WORKERS", raising=False)
            else:
                monkeypatch.setenv("MIAUDIT_WORKERS", setting)
            assert main(["audit", "--config", str(cfg), "--out", str(audit)]) == 0
            args = ["report", "--config", str(cfg), "--scores-dir", str(audit), "--out", str(report)]
            assert main(args) == 0
            audit.rename(tmp_path / f"audit_{setting}")
            report.rename(tmp_path / f"report_{setting}")
        assert_same_tree(tmp_path / "audit_None", tmp_path / "audit_zero")
        assert_same_tree(tmp_path / "report_None", tmp_path / "report_zero")


class UnpicklableFailure(TrainingError):
    """A fit failure that holds a lambda, which pickle cannot send."""

    def __init__(self):
        super().__init__("no fit")
        self.hook = lambda: None


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def usable_cores(monkeypatch):
    """Sets the cores `fit_attackers` sees, and counts its forks."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return forks

    return use


class TestAttackerFits:
    def test_in_process_and_forked_fits_write_the_same_tree(self, tmp_path, usable_cores, assert_same_tree):
        config = fast_config(strategies=",".join(ALL_STRATEGIES))
        for cores, n_forks in ((1, 0), (2, 1)):
            forks = usable_cores(cores)
            forks.clear()
            run_pipeline(config, out_dir=tmp_path / str(cores))
            assert len(forks) == n_forks
            assert_no_child_left()
        assert len(ALL_STRATEGIES) == 11
        assert_same_tree(tmp_path / "1", tmp_path / "2")

    def test_first_failing_attacker_in_strategy_order_raises(self, tmp_path, monkeypatch, usable_cores):
        # attacker_wb (74 columns), the widest matrix, is fitted in this
        # process and attacker_int_outs (3 probabilities + 16 hidden units),
        # first in the configured order, in the forked one; each failing
        # set of widths, child, parent and both, is given with the width
        # whose error is raised
        fit = am.fit_mlp_attacker
        parent = os.getpid()
        config = fast_config(strategies="loss,attacker_int_outs,attacker_wb")
        forks = usable_cores(2)
        for failing, raised in (({19}, 19), ({74}, 74), ({19, 74}, 19)):

            def fit_or_fail(features, labels, seed, failing=failing, **kwargs):
                width = features.shape[1]
                assert (width == 19) == (os.getpid() != parent)
                if width in failing:
                    raise TrainingError(f"no fit on {width} columns")
                return fit(features, labels, seed, **kwargs)

            monkeypatch.setattr(am, "fit_mlp_attacker", fit_or_fail)
            forks.clear()
            with pytest.raises(TrainingError, match=rf"^\[stage:attackers\] no fit on {raised} columns$"):
                run_pipeline(config, out_dir=tmp_path / "o")
            assert len(forks) == 1
            assert_no_child_left()

    def test_fit_process_that_dies_is_a_typed_error(self, tmp_path, monkeypatch, usable_cores, capsys):
        parent = os.getpid()

        def dying(features, labels, seed, **kwargs):
            assert os.getpid() != parent
            os._exit(3)

        monkeypatch.setattr(am, "fit_logistic_attacker", dying)
        usable_cores(2)
        cfg = tmp_path / "run.cfg"
        settings = dict(FAST_OVERRIDES, strategies="loss,attacker_grad_x,attacker_wb")
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == (
            "error: [stage:attackers] the attacker fit process ended (exit status 3) "
            "without the fit of attacker_grad_x\n"
        )
        assert_no_child_left()

    # a fit process killed by a signal, and one whose failure cannot be
    # pickled: it cannot send it, and leaves with status 1 without a
    # traceback of its own (capfd sees both processes' stderr)
    @pytest.mark.parametrize("ended", ["signal 9", "exit status 1"], ids=["killed", "unpicklable"])
    def test_fit_process_that_sends_nothing_is_one_error_line(
        self, tmp_path, monkeypatch, usable_cores, capfd, ended
    ):
        parent = os.getpid()

        def fit(features, labels, seed, **kwargs):
            assert os.getpid() != parent
            if ended == "signal 9":
                os.kill(os.getpid(), signal.SIGKILL)
            raise UnpicklableFailure()

        monkeypatch.setattr(am, "fit_logistic_attacker", fit)
        forks = usable_cores(2)
        cfg = tmp_path / "run.cfg"
        settings = dict(FAST_OVERRIDES, strategies="loss,attacker_grad_x,attacker_wb")
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        capfd.readouterr()
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert capfd.readouterr().err == (
            f"error: [stage:attackers] the attacker fit process ended ({ended}) "
            "without the fit of attacker_grad_x\n"
        )
        assert len(forks) == 1
        assert_no_child_left()

    def test_failing_fit_here_stops_the_fit_process(self, tmp_path, monkeypatch, usable_cores):
        # attacker_wb, first in strategy order, fails here while the forked
        # process is blocked writing a result far beyond a pipe buffer, or
        # still fits for a minute
        parent = os.getpid()
        config = fast_config(strategies="loss,attacker_wb,attacker_int_outs")
        forks = usable_cores(2)
        for child_fit in (lambda: np.zeros(1 << 20), lambda: time.sleep(60)):

            def fit(features, labels, seed, child_fit=child_fit, **kwargs):
                if os.getpid() == parent:
                    raise TrainingError("no fit here")
                return child_fit()

            monkeypatch.setattr(am, "fit_mlp_attacker", fit)
            forks.clear()
            start = time.monotonic()
            with pytest.raises(TrainingError, match=r"^\[stage:attackers\] no fit here$"):
                run_pipeline(config, out_dir=tmp_path / "o")
            assert time.monotonic() - start < 30
            assert len(forks) == 1
            assert_no_child_left()


class TestScoreSamples:
    def test_ensemble_features_are_the_six_scores(self, monkeypatch):
        config = fast_config(**{"strategies": "attacker_ensemble,attacker_grad_x"})
        X, Y, _, model, _ = prepare_target(config)
        names = mi.THRESHOLD_STRATEGIES
        scores, traces = score_samples(config, model, X, Y, names)
        assert traces == []
        assert names == ("softmax", "mentr", "loss", "grad_w_norm", "grad_x_norm", "adv_dist")
        # 36 samples in chunks of 16, 16 and 4 rows
        monkeypatch.setattr(pipeline, "CHUNK_ROWS", 16)
        ids = np.arange(len(X))

        def features(name):
            chunks = list(feature_chunks(model, X, Y, scores, name, ids))
            assert [len(c) for c in chunks] == [16, 16, 4]
            return np.concatenate(chunks)

        assert np.array_equal(features("attacker_ensemble"), np.stack([scores[n] for n in names], axis=1))
        grad_x = features("attacker_grad_x")
        assert grad_x.shape == (len(X), 7)
        assert np.array_equal(grad_x[3], mi.extract_grad_x_stats(model, X[3:4], Y[3:4])[0])


class TestRowChunks:
    @pytest.mark.parametrize("norm", ["inf", "2"])
    def test_chunk_size_moves_no_byte(self, tmp_path, monkeypatch, norm, assert_same_tree):
        # the fast config scores 36 samples: one row at a time, in chunks of
        # 7 with a last one of 1, and all in one chunk
        config = fast_config(
            **{
                "strategies": ",".join(ALL_STRATEGIES),
                "attack.p": norm,
                "debug.dump_traces": "true",
                "debug.dump_features": "true",
            }
        )
        for rows in (1, 7, 1000):
            monkeypatch.setattr(pipeline, "CHUNK_ROWS", rows)
            run_pipeline(config, out_dir=tmp_path / str(rows))
        whole = tmp_path / "1000"
        assert len(list((whole / "traces").glob("trace_*.csv"))) == 36
        assert len(list(whole.glob("features_*.csv"))) == 4
        for rows in (1, 7):
            assert_same_tree(tmp_path / str(rows), whole)

    def test_audit_holds_less_than_the_white_box_block_of_all_samples(self, tmp_path, usable_cores):
        # 3,200 samples with 1,137 white-box columns each (a 64x16 gradient,
        # 16 deltas, the loss, 16 probabilities, 64 hidden units and a
        # 16-wide one-hot label): 29.1 MB over the whole pool.  The audit
        # holds the 35 % training rows' features while it fits, and the fit
        # scales their live columns in that same memory, which sets the
        # peak; the other rows are extracted, scaled and scored one chunk at
        # a time.  Every fit runs in this process, where tracemalloc sees it
        usable_cores(1)
        config = fast_config(
            **{
                "dataset.classes": "16",
                "dataset.n_per_class": "100",
                "dataset.heldout_per_class": "100",
                "target.hidden_dims": "64",
                "target.epochs": "3",
                "target.batch_size": "32",
                "attacker.train_fraction": "0.35",
                "strategies": "attacker_wb",
            }
        )
        block_bytes = 3200 * 1137 * 8
        tracemalloc.start()
        try:
            run_pipeline(config, out_dir=tmp_path / "o")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert am.load_attacker(tmp_path / "o" / "attacker_wb.ckpt").feature_length == 1137
        assert peak < 0.65 * block_bytes

    def test_scoring_holds_the_samples_once(self, tmp_path, monkeypatch):
        # 2,000 samples of dim 200: the scoring stage's X is 3.2 MB, the
        # data stage's own block, with no split copies beside it
        config = fast_config(
            **{
                "dataset.classes": "10",
                "dataset.n_per_class": "100",
                "dataset.heldout_per_class": "100",
                "dataset.dim": "200",
                "target.epochs": "1",
                "target.batch_size": "64",
                "strategies": "loss",
            }
        )
        seen = []

        def traced_entry(config, model, X, Y, names):
            seen.append((tracemalloc.get_traced_memory()[0], X.nbytes))
            return score_samples(config, model, X, Y, names)

        monkeypatch.setattr(pipeline, "score_samples", traced_entry)
        tracemalloc.start()
        try:
            run_pipeline(config, out_dir=tmp_path / "o")
        finally:
            tracemalloc.stop()
        ((traced, x_bytes),) = seen
        assert x_bytes == 2000 * 200 * 8
        assert traced < 1.5 * x_bytes


def test_audit_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, about 1 MB and 13-38 ms
    # in each process that fits an attacker; with one usable core every fit
    # runs in the subprocess that reports its modules.  multiprocessing
    # (12-15 ms) is loaded only to fork a fit process, so neither the CLI's
    # import nor this audit loads it
    cfg = tmp_path / "run.cfg"
    settings = dict(FAST_OVERRIDES, strategies=",".join(ALL_STRATEGIES))
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "def unwanted():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[:2] == ['numpy', 'ma'] or m.split('.')[0] == 'multiprocessing')\n"
        "from miaudit.cli_runner.cli import main\n"
        "print(unwanted())\n"
        f"assert main(['audit', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print(unwanted())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")
    assert len(list((tmp_path / "o").glob("attacker_*.ckpt"))) == 5


def test_every_text_artifact_has_one_format(tmp_path):
    # LF line ends, no CR, shortest-repr floats and no temp file left, in
    # every CSV and JSON file of the four commands that write them
    cfg = tmp_path / "run.cfg"
    settings = dict(FAST_OVERRIDES, strategies=",".join(ALL_STRATEGIES))
    settings.update({"debug.dump_traces": "true", "debug.dump_features": "true"})
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    out = tmp_path / "out"
    common = ["--config", str(cfg), "--out"]
    assert main(["audit", *common, str(out / "audit")]) == 0
    assert main(["report", *common, str(out / "report"), "--scores-dir", str(out / "audit")]) == 0
    assert main(["train-target", *common, str(out / "target")]) == 0
    assert main(["gen-data", *common, str(out / "data"), "--format", "csv"]) == 0
    files = [p for p in out.rglob("*") if p.is_file()]
    assert not [p for p in files if p.name.startswith(".") and p.name.endswith(".tmp")]
    text = [p for p in files if p.suffix in (".csv", ".json")]
    assert {p.parent.name for p in text} == {"audit", "traces", "report", "target", "data"}
    floats = 0
    for path in text:
        data = path.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, path
        if path.suffix != ".csv":
            continue
        for row in csv.reader(data.decode("utf-8").splitlines()):
            for field in row:
                try:
                    value = float(field)
                except ValueError:
                    continue
                if not field.lstrip("-").isdigit():
                    assert repr(value) == field, (path, field)
                    floats += 1
    assert floats > 0


class TestDebugDumps:
    def test_traces_and_features(self, tmp_path):
        config = fast_config(
            **{
                "strategies": "adv_dist,attacker_grad_x",
                "debug.dump_traces": "true",
                "debug.dump_features": "true",
            }
        )
        _, out = run_pipeline(config, out_dir=tmp_path / "dbg")
        traces = sorted((out / "traces").glob("trace_*.csv"))
        assert traces
        header = traces[0].read_text().splitlines()[0]
        assert header == "iteration,loss,distance,predicted_class"
        assert (out / "features_grad_x_stats.csv").is_file()


class TestTargetCheckpointReuse:
    def test_pretrained_target_loaded(self, tmp_path):
        config = fast_config(**{"strategies": "loss"})
        _, first = run_pipeline(config, out_dir=tmp_path / "first")
        reuse = fast_config(
            **{
                "strategies": "loss",
                "target.load_checkpoint": str(first / "target.ckpt"),
            }
        )
        report, second = run_pipeline(reuse, out_dir=tmp_path / "second")
        payload = json.loads((second / "report.json").read_text())
        assert payload["target"]["epochs_run"] == 0
        assert (first / "target.ckpt").read_bytes() == (second / "target.ckpt").read_bytes()
        # identical model and data leave the member scores unchanged
        assert (first / "scores_loss.csv").read_bytes() == (second / "scores_loss.csv").read_bytes()


class TestCli:
    def write_cfg(self, tmp_path, extra=""):
        lines = [f"{k} = {v}" for k, v in FAST_OVERRIDES.items()]
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines) + "\n" + extra)
        return path

    def test_audit_roundtrip(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "strategies = loss\n")
        rc = main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "report.json").is_file()
        shown = capsys.readouterr().out
        assert "loss" in shown and "auroc" in shown

    def test_gen_data_then_file_audit(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        rc = main(
            ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "ds"), "--format", "binary"]
        )
        assert rc == 0
        assert (tmp_path / "ds" / "train.bin").is_file()
        cfg2 = self.write_cfg(
            tmp_path,
            "strategies = loss\ndataset.source = binary\ndataset.path = "
            + str(tmp_path / "ds")
            + "\n",
        )
        cfg2 = cfg2.rename(tmp_path / "run2.cfg")
        rc = main(["audit", "--config", str(cfg2), "--out", str(tmp_path / "out2")])
        assert rc == 0

    @pytest.mark.parametrize("source, ext", [("csv", "csv"), ("binary", "bin")])
    def test_gen_data_writes_the_format_its_audit_reads(self, tmp_path, capsys, source, ext):
        ds = tmp_path / "ds"
        cfg = self.write_cfg(tmp_path, f"strategies = loss\ndataset.source = {source}\ndataset.path = {ds}\n")
        assert main(["gen-data", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in ds.iterdir()) == sorted([f"heldout.{ext}", "manifest.json", f"train.{ext}"])
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_train_target_writes_checkpoint(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "strategies = loss\n")
        rc = main(["train-target", "--config", str(cfg), "--out", str(tmp_path / "tt")])
        assert rc == 0
        assert (tmp_path / "tt" / "target.ckpt").is_file()
        summary = json.loads((tmp_path / "tt" / "target_summary.json").read_text())
        assert summary["train_accuracy"] >= 0.9
        # the summary is the audit report's target section, from the same model
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "au")]) == 0
        report = json.loads((tmp_path / "au" / "report.json").read_text())
        assert summary == report["target"]
        assert (tmp_path / "tt" / "target.ckpt").read_bytes() == (
            tmp_path / "au" / "target.ckpt"
        ).read_bytes()

    def test_report_rerenders(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "strategies = loss\n")
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rc = main(
            [
                "report",
                "--config",
                str(cfg),
                "--scores-dir",
                str(tmp_path / "out"),
                "--out",
                str(tmp_path / "re"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "re" / "report.json").is_file()

    @pytest.mark.parametrize(
        "changes, noted",
        [
            ({}, []),
            ({"protocol.repeats = 3": "protocol.repeats = 4"}, ["protocol.repeats"]),
            ({"attack.n_iter = 8": "attack.n_iter = 9"}, []),
            ({"seed = 5": "seed = 6", "histogram.bins = 10": "histogram.bins = 12"}, ["histogram.bins", "seed"]),
        ],
        ids=["same", "protocol_repeats", "search_only", "seed_and_bins"],
    )
    def test_report_notes_settings_that_differ_from_the_audit(self, tmp_path, capsys, changes, noted):
        cfg = self.write_cfg(tmp_path, "strategies = loss\n")
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        text = cfg.read_text()
        for old, new in changes.items():
            assert old in text
            text = text.replace(old, new)
        cfg2 = tmp_path / "report.cfg"
        cfg2.write_text(text)
        capsys.readouterr()
        args = ["report", "--config", str(cfg2), "--scores-dir", str(tmp_path / "out")]
        assert main(args + ["--out", str(tmp_path / "re")]) == 0
        shown = capsys.readouterr()
        assert shown.out == f"report re-rendered to {tmp_path / 're' / 'report.json'}\n"
        notes = shown.err.splitlines()
        assert [line.split()[1] for line in notes] == noted
        assert all(line.startswith("note: ") and "report.json was written with" in line for line in notes)

    @pytest.mark.parametrize(
        "tamper", ["cut_train", "cut_heldout", "bad_manifest", "label_11", "label_beyond_int64"]
    )
    def test_dataset_disagreeing_with_its_manifest_exit_code(self, tmp_path, capsys, tamper):
        cfg = self.write_cfg(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 0
        ds = tmp_path / "ds"
        if tamper == "bad_manifest":
            (ds / "manifest.json").write_text('{"train_size": 18,')
        elif tamper.startswith("label"):
            # the last field of the first data row is its label
            lines = (ds / "train.csv").read_text().splitlines(keepends=True)
            label = "11" if tamper == "label_11" else "99999999999999999999"
            lines[1] = lines[1].rsplit(",", 1)[0] + f",{label}\n"
            (ds / "train.csv").write_text("".join(lines))
        else:
            # 3 classes x 6 per class; a cut after 9 data rows is still valid CSV
            path = ds / ("train.csv" if tamper == "cut_train" else "heldout.csv")
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:10]))
        cfg2 = tmp_path / "run2.cfg"
        cfg2.write_text(cfg.read_text() + f"strategies = loss\ndataset.source = csv\ndataset.path = {ds}\n")
        assert main(["audit", "--config", str(cfg2), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_class_count_beyond_the_rows_exit_code(self, tmp_path, capsys, fmt):
        cfg = self.write_cfg(tmp_path)
        ds = tmp_path / "ds"
        assert main(["gen-data", "--config", str(cfg), "--out", str(ds), "--format", fmt]) == 0
        (ds / "manifest.json").unlink()
        if fmt == "csv":
            # the last field of the first data row is its label
            lines = (ds / "train.csv").read_text().splitlines(keepends=True)
            lines[1] = lines[1].rsplit(",", 1)[0] + ",5000000\n"
            (ds / "train.csv").write_text("".join(lines))
        else:
            # K is the third u32 after the magic, in both headers
            for name in ("train.bin", "heldout.bin"):
                blob = bytearray((ds / name).read_bytes())
                blob[16:20] = struct.pack("<I", 4_000_000_000)
                (ds / name).write_bytes(bytes(blob))
        cfg2 = tmp_path / "run2.cfg"
        cfg2.write_text(cfg.read_text() + f"strategies = loss\ndataset.source = {fmt}\ndataset.path = {ds}\n")
        assert main(["audit", "--config", str(cfg2), "--out", str(tmp_path / "o")]) == 3
        assert "more than the 36 rows of both splits" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper", ["cut_beside_report", "members_only", "nonmembers_only"])
    def test_report_on_cut_score_file_exit_code(self, tmp_path, capsys, tamper):
        cfg = self.write_cfg(tmp_path, "strategies = loss\n")
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        lines = (tmp_path / "out" / "scores_loss.csv").read_text().splitlines(keepends=True)
        # 18 member rows, then 18 nonmember rows
        if tamper == "cut_beside_report":
            (scores_dir / "report.json").write_bytes((tmp_path / "out" / "report.json").read_bytes())
            kept = lines[:-1]
        else:
            kept = lines[:19] if tamper == "members_only" else lines[:1] + lines[19:]
        (scores_dir / "scores_loss.csv").write_text("".join(kept))
        args = ["report", "--config", str(cfg), "--scores-dir", str(scores_dir)]
        assert main(args + ["--out", str(tmp_path / "re")]) == 3

    def test_report_on_oversized_score_field_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "strategies = loss\n")
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        lines = (tmp_path / "out" / "scores_loss.csv").read_text().splitlines(keepends=True)
        lines[5] = f"4,loss,{'9' * 140_000},1\n"  # over csv.field_size_limit()
        (scores_dir / "scores_loss.csv").write_text("".join(lines))
        args = ["report", "--config", str(cfg), "--scores-dir", str(scores_dir)]
        assert main(args + ["--out", str(tmp_path / "re")]) == 3
        assert "scores_loss.csv: line 6: field larger than field limit" in capsys.readouterr().err

    def test_report_on_undecodable_score_file_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "strategies = loss\n")
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        blob = (tmp_path / "out" / "scores_loss.csv").read_bytes()
        (scores_dir / "scores_loss.csv").write_bytes(blob + b"\xff")
        capsys.readouterr()
        args = ["report", "--config", str(cfg), "--scores-dir", str(scores_dir)]
        assert main(args + ["--out", str(tmp_path / "re")]) == 3
        assert "scores_loss.csv: line 38: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("n_lines", [20, 21])
    def test_report_on_pools_too_small_for_holdout_exit_code(self, tmp_path, capsys, n_lines):
        cfg = self.write_cfg(tmp_path, "strategies = loss\n")
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        lines = (tmp_path / "out" / "scores_loss.csv").read_text().splitlines(keepends=True)
        # header, 18 member rows and 1 or 2 nonmember rows, none of which
        # is left for evaluation after the default 0.8 holdout split
        (scores_dir / "scores_loss.csv").write_text("".join(lines[:n_lines]))
        capsys.readouterr()
        args = ["report", "--config", str(cfg), "--scores-dir", str(scores_dir)]
        assert main(args + ["--out", str(tmp_path / "re")]) == 3
        err = capsys.readouterr().err
        assert "scores_loss.csv" in err
        assert f"18 members and {n_lines - 19} nonmembers" in err

    @pytest.mark.parametrize("case", ["tiny_dataset", "holdout_fraction"])
    def test_audit_on_pools_too_small_for_holdout_exit_code(self, tmp_path, capsys, case):
        if case == "tiny_dataset":
            # 2 samples per pool: the 0.8 cut keeps both for picking tau
            cfg = tmp_path / "tiny.cfg"
            cfg.write_text(
                "dataset.classes = 2\ndataset.n_per_class = 1\ndataset.heldout_per_class = 1\n"
                "target.epochs = 2\nstrategies = loss\n"
            )
        else:
            # 18 samples per pool: the 0.99 cut leaves none to evaluate
            cfg = self.write_cfg(tmp_path, "strategies = loss\nprotocol.holdout_fraction = 0.99\n")
        capsys.readouterr()
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "protocol.holdout_fraction" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_derived_member_subset_empty_exit_code(self, tmp_path, monkeypatch, capsys):
        # 1:50 of 18 nonmembers rounds to 0 members per analysis1 draw,
        # which the pool sizes show before any sample is scored
        cfg = self.write_cfg(tmp_path, "strategies = loss\nprotocol.ratio = 1:50\n")

        def no_scoring(*args):
            raise AssertionError("scored an audit that cannot finish")

        monkeypatch.setattr(pipeline, "score_samples", no_scoring)
        capsys.readouterr()
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "config error: [stage:analysis1] derived member subset is empty"
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert main(["audit", "--config", str(missing)]) == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery.key = 1\n")
        assert main(["audit", "--config", str(bad)]) == 2
        assert "mystery.key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["strategies = loss,loss,attacker_ensemble,attacker_ensemble", "protocol.ratio_strategies = loss,loss"]
    )
    def test_repeated_strategy_exit_code(self, tmp_path, capsys, line):
        cfg = self.write_cfg(tmp_path, f"{line}\n")
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["audit", "report"])
    def test_empty_ratios_exit_code(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        lines = [f"{k} = {v}" for k, v in FAST_OVERRIDES.items() if k != "protocol.ratios"]
        cfg.write_text("\n".join([*lines, "strategies = loss,adv_dist", "protocol.ratios ="]) + "\n")
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "report":
            args += ["--scores-dir", str(tmp_path / "scores")]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: protocol.ratios lists no ratio for the protocol.ratio_strategies sweep"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "ratios, message",
        [
            ("1000:1", "score pools too small for the configured ratios"),
            ("1:1,1:1000", "ratio 1:1000 leaves no members"),
        ],
        ids=["no_nonmember_left", "no_member_left"],
    )
    def test_infeasible_ratio_sweep_exits_before_scoring(self, tmp_path, monkeypatch, capsys, ratios, message):
        # 18 + 18 evaluation samples: no nonmember is left beside 18 members
        # at 1000:1, and 18 nonmembers leave no member at 1:1000
        cfg = tmp_path / "run.cfg"
        settings = dict(FAST_OVERRIDES, strategies="loss,adv_dist")
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        scores = tmp_path / "scores"
        assert main(["audit", "--config", str(cfg), "--out", str(scores)]) == 0
        settings["protocol.ratios"] = ratios
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))

        def no_scoring(*args):
            raise AssertionError("scored an audit that cannot finish")

        monkeypatch.setattr(pipeline, "score_samples", no_scoring)
        capsys.readouterr()
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: [stage:ratio] {message}"]
        assert not (tmp_path / "out" / "report.json").exists()
        # the first score file gives the pool sizes: no other file is read
        # and no analysis runs
        reads = []

        def counted_read(*args):
            reads.append(args)
            return read_score_records(*args)

        def no_analysis(*args, **kwargs):
            raise AssertionError("analysed pools that cannot finish")

        monkeypatch.setattr(pipeline, "read_score_records", counted_read)
        for name in ("repeated_subset_experiment", "holdout_threshold_eval"):
            monkeypatch.setattr(pipeline, name, no_analysis)
        args = ["report", "--config", str(cfg), "--scores-dir", str(scores), "--out", str(tmp_path / "re")]
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"config error: [stage:ratio] {message}"
        assert len(reads) == 1
        assert not (tmp_path / "re" / "report.json").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_separation_exit_code(self, tmp_path, capsys, bad):
        cfg = tmp_path / "run.cfg"
        lines = [f"{k} = {v}" for k, v in FAST_OVERRIDES.items() if k != "dataset.separation"]
        cfg.write_text("\n".join([*lines, "strategies = loss", f"dataset.separation = {bad}"]) + "\n")
        capsys.readouterr()
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "dataset.separation" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\n")
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "bad.cfg" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["audit", "report"])
    @pytest.mark.parametrize(
        "line",
        [
            "attack.momentum = 0.75",
            "attack.initial_step_fraction = 2.0",
            "attack.n_restarts = 0",
            "protocol.holdout_fraction = 1.5",
        ],
    )
    def test_rejected_setting_exit_code(self, tmp_path, capsys, command, line):
        cfg = self.write_cfg(tmp_path, f"strategies = loss\n{line}\n")
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "report":
            args += ["--scores-dir", str(tmp_path / "scores")]
        assert main(args) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_data_error_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            "strategies = loss\ndataset.source = csv\ndataset.path = "
            + str(tmp_path / "missing_ds")
            + "\n",
        )
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("dims", [[6, 8, 2], [4, 8, 3]], ids=["classes", "width"])
    def test_checkpoint_not_fitting_the_data_exit_code(self, tmp_path, capsys, dims):
        # the fast config's data has 6 features and 3 classes
        ckpt = tmp_path / "target.ckpt"
        mi.save_checkpoint(mi.build_mlp(dims, seed=0), ckpt)
        cfg = self.write_cfg(tmp_path, f"strategies = loss\ntarget.load_checkpoint = {ckpt}\n")
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "checkpoint" in capsys.readouterr().err

    def test_module_entrypoint_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "miaudit", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        for sub in ("gen-data", "train-target", "audit", "report"):
            assert sub in proc.stdout


class TestLoadConfigEntry:
    def test_load_config_reexported(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 3\n")
        assert load_config(path).seed == 3
