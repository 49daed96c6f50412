"""Per-sample membership scores: formulas, orientation, CSV round trips."""

import csv
import gc
import math
import re
import tracemalloc
import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import miaudit as mi
from miaudit.errors import DataError
from miaudit.nn_core import classification_accuracy
from miaudit.scores import (
    SCORE_HEADER,
    _parse_plain_score_csv,
    read_score_records,
    write_score_records,
)
from test_nn_core import make_blobs


def fixed_prob_model(probs):
    """Zero-weight net whose bias logits reproduce the given distribution."""
    probs = np.asarray(probs, dtype=np.float64)
    logits = np.where(probs > 0, np.log(np.maximum(probs, 1e-300)), -800.0)
    k = probs.shape[0]
    return mi.MLPClassifier(
        [1, k],
        [np.zeros((1, k))],
        [logits],
    )


X0 = np.array([[0.3]])


class TestModifiedEntropy:
    def test_frozen_example(self):
        model = fixed_prob_model([0.7, 0.2, 0.1])
        (got,) = mi.modified_entropy(model, X0, [0])
        want = 0.3 * -math.log(0.7) + 0.2 * -math.log(0.8) + 0.1 * -math.log(0.9)
        assert abs(got - want) < 1e-12
        assert abs(mi.mentr_score(model, X0, [0])[0] + 0.16217) < 1e-4

    def test_confident_correct_is_zero(self):
        model = fixed_prob_model([1.0, 0.0])
        assert mi.forward_predict(model, X0)[0, 0] == 1.0
        assert mi.modified_entropy(model, X0, [0])[0] == 0.0

    def test_confident_wrong_is_large(self):
        model = fixed_prob_model([1.0, 0.0])
        assert mi.mentr_score(model, X0, [1])[0] <= -25.0

    def test_nonnegative(self, tiny_model, rng):
        for _ in range(30):
            X = rng.uniform(0, 1, (1, 4))
            assert mi.modified_entropy(model=tiny_model, X=X, Y=[int(rng.integers(3))])[0] >= 0.0


class TestSimpleScores:
    def test_softmax_response_range(self, tiny_model, rng):
        for _ in range(20):
            (s,) = mi.softmax_response(tiny_model, rng.uniform(0, 1, (1, 4)))
            assert 1.0 / 3 - 1e-12 <= s <= 1.0

    def test_softmax_response_is_max_prob(self, tiny_model, rng):
        X = rng.uniform(0, 1, (1, 4))
        assert mi.softmax_response(tiny_model, X)[0] == float(
            np.max(mi.forward_predict(tiny_model, X))
        )

    def test_loss_score_is_negated_loss(self, tiny_model, rng):
        X = rng.uniform(0, 1, (1, 4))
        (loss,) = mi.cross_entropy_loss(mi.forward_predict(tiny_model, X), [1])
        assert mi.loss_score(tiny_model, X, [1])[0] == -loss

    def test_grad_w_score_is_negated_squared_norm(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        grads, _ = mi.backward_gradients(tiny_model, x, 2)
        total = 0.0
        for g in grads:
            total += float(np.sum(np.square(g)))
        assert abs(mi.grad_w_norm_score(tiny_model, x[None, :], [2])[0] + total) < 1e-12

    def test_grad_x_score_is_negated_l2_not_squared(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        _, g_in = mi.backward_gradients(tiny_model, x, 0)
        norm = float(np.sqrt(np.sum(np.square(g_in))))
        assert abs(mi.grad_x_norm_score(tiny_model, x[None, :], [0])[0] + norm) < 1e-12

    def test_adv_dist_score_in_budget(self, tiny_model, rng):
        cfg = mi.AttackConfig(p=math.inf, epsilon=0.5, n_iter=10, seed=0)
        for _ in range(10):
            (s,) = mi.adv_dist_score(tiny_model, rng.uniform(0, 1, (1, 4)), [int(rng.integers(3))], cfg)
            assert 0.0 <= s <= 0.5

    def test_adv_dist_matches_search(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        cfg = mi.AttackConfig(p=2, epsilon=0.8, n_iter=12, seed=4)
        out = mi.find_adversarial(tiny_model, x, 1, cfg)
        assert mi.adv_dist_score(tiny_model, x[None, :], [1], cfg)[0] == out.distance


class TestDecision:
    def test_threshold_rule(self):
        assert mi.membership_decision(0.5, 0.5)
        assert mi.membership_decision(0.6, 0.5)
        assert not mi.membership_decision(0.4999, 0.5)


class TestDispatch:
    def test_all_strategies_covered(self, tiny_model, rng):
        X = rng.uniform(0, 1, (1, 4))
        cfg = mi.AttackConfig(n_iter=5)
        for name in mi.THRESHOLD_STRATEGIES:
            (val,) = mi.compute_score(tiny_model, X, [1], name, cfg)
            assert math.isfinite(val)

    def test_adv_dist_needs_config(self, tiny_model):
        with pytest.raises(DataError):
            mi.compute_score(tiny_model, np.full((1, 4), 0.5), [0], "adv_dist")

    def test_unknown_strategy(self, tiny_model):
        with pytest.raises(DataError):
            mi.compute_score(tiny_model, np.full((1, 4), 0.5), [0], "nope")

    def test_strategy_tuple_frozen(self):
        assert mi.THRESHOLD_STRATEGIES == (
            "softmax",
            "mentr",
            "loss",
            "grad_w_norm",
            "grad_x_norm",
            "adv_dist",
        )


class TestOrientation:
    def test_members_score_higher_on_average(self):
        # every strategy is oriented so larger means member; pooled over a
        # few interpolated targets the member mean must exceed the
        # nonmember mean for all six
        pooled = {name: ([], []) for name in mi.THRESHOLD_STRATEGIES}
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X, y = make_blobs(rng, 8, 4, 8, sep=0.5)
            Xh, yh = make_blobs(np.random.default_rng(seed + 50), 8, 4, 8, sep=0.5)
            model = mi.build_mlp([8, 48, 4], seed=seed)
            mi.train(
                model,
                X,
                y,
                mi.TrainConfig(epochs=400, batch_size=8, learning_rate=0.004, seed=seed),
            )
            assert classification_accuracy(model, X, y) == 1.0
            cfg = mi.AttackConfig(p=math.inf, epsilon=1.0, n_iter=15, seed=seed)
            for name in mi.THRESHOLD_STRATEGIES:
                mem, non = pooled[name]
                mem.extend(
                    mi.compute_score(model, X[i : i + 1], y[i : i + 1], name, cfg)[0]
                    for i in range(len(y))
                )
                non.extend(
                    mi.compute_score(model, Xh[i : i + 1], yh[i : i + 1], name, cfg)[0]
                    for i in range(len(yh))
                )
        for name, (mem, non) in pooled.items():
            assert np.mean(mem) > np.mean(non), name


class TestScoreRecords:
    def test_roundtrip_exact(self, tmp_path):
        ids, scores, members = [0, 1, 2], [-0.123456789012345, -2.5e-17, 0.75], [True, False, True]
        path = tmp_path / "scores.csv"
        write_score_records(path, "loss", ids, scores, members)
        back = read_score_records(path, "loss")
        assert [c.tolist() for c in back] == [ids, scores, members]

    def test_repr_floats_preserved(self, tmp_path, rng):
        scores = rng.normal(0, 1, 50)
        path = tmp_path / "scores.csv"
        write_score_records(path, "softmax", np.arange(50), scores, np.arange(50) % 2 == 1)
        assert read_score_records(path, "softmax")[1].tobytes() == scores.tobytes()

    def test_strategy_column_must_name_the_strategy(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,strategy,score,is_member\n0,loss,1.0,0\n1,mentr,1.0,1\n")
        with pytest.raises(DataError, match="row 3"):
            read_score_records(path, "loss")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,strategy,score\n0,loss,1.0\n")
        with pytest.raises(DataError):
            read_score_records(path, "loss")

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,strategy,score,is_member\n0,loss,1.0\n")
        with pytest.raises(DataError) as err:
            read_score_records(path, "loss")
        assert "row 2" in str(err.value)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,strategy,score,is_member\n0,loss,nan,1\n")
        with pytest.raises(DataError):
            read_score_records(path, "loss")

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,strategy,score,is_member\n0,loss,abc,1\n")
        with pytest.raises(DataError):
            read_score_records(path, "loss")

    @pytest.mark.parametrize("flag", ["2", "-1", "7", "yes", ""])
    def test_bad_member_flag_rejected(self, tmp_path, flag):
        path = tmp_path / "scores.csv"
        path.write_text(f"sample_id,strategy,score,is_member\n0,loss,1.0,0\n1,loss,1.0,{flag}\n")
        with pytest.raises(DataError, match="row 3"):
            read_score_records(path, "loss")

    def test_header_only_file_warns_nothing(self, tmp_path):
        # np.loadtxt warns "input contained no data"; the reader must not pass it on
        path = tmp_path / "scores.csv"
        write_score_records(path, "loss", [], [], [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            columns = read_score_records(path, "loss")
        assert caught == []
        assert [c.size for c in columns] == [0, 0, 0]

    @pytest.mark.parametrize("line", [1, 4, 296], ids=["header", "first_chunk", "second_chunk"])
    def test_oversized_field_is_a_data_error(self, tmp_path, line):
        lines = ["sample_id,strategy,score,is_member", *score_lines(512)]
        lines[line - 1] = f"7,loss,{'9' * 140_000},1"  # over csv.field_size_limit(), 131,072
        (tmp_path / "scores.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"scores.csv: line {line}: field larger than field limit"):
            read_score_records(tmp_path / "scores.csv", "loss")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bad", [b"\xff", b"\x80", b"\xc3"], ids=["ff", "continuation", "cut_sequence"])
    def test_undecodable_bytes_are_a_data_error(self, tmp_path, newline, bad):
        # line 500 starts past the first 8 KiB: a decoder reading the file in
        # 8 KiB chunks fails before the csv reader reaches it
        lines = ["sample_id,strategy,score,is_member", *score_lines(512)]
        blob = newline.join(lines + [""]).encode()
        at = blob.index(b"498,loss,") + 4
        assert at > 8192
        (tmp_path / "scores.csv").write_bytes(blob[:at] + bad + blob[at:])
        with pytest.raises(DataError, match="scores.csv: line 500: 'utf-8' codec can't decode byte"):
            read_score_records(tmp_path / "scores.csv", "loss")


def row_by_row_score_reader(path, strategy):
    """Reference reader: one row at a time, the first bad row raises.  A
    file that is not UTF-8 raises first, naming the first line (split at
    CRLF, CR or LF) that does not decode.  The header must be SCORE_HEADER,
    and a csv.Error (a NUL byte, a field over csv.field_size_limit()) names
    its line.  Per row the checks run in this order: field count, sample id
    (a 64-bit int), score (a float), finite score, strategy name, member
    flag."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        for lineno, line in enumerate(re.split(rb"\r\n|\r|\n", data), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
    ids, scores, members = array("q"), array("d"), []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != SCORE_HEADER:
                raise DataError(f"unexpected score CSV header in {path}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 4:
                    raise DataError(f"{path}: row {lineno} has {len(row)} fields, want 4")
                try:
                    ids.append(int(row[0]))
                    scores.append(float(row[2]))
                except (ValueError, OverflowError) as exc:
                    raise DataError(f"{path}: row {lineno}: {exc}") from exc
                if not math.isfinite(scores[-1]):
                    raise DataError(f"{path}: row {lineno}: non-finite score")
                if row[1] != strategy:
                    raise DataError(f"{path}: row {lineno}: strategy column does not name {strategy!r}")
                if row[3].strip() not in ("0", "1"):
                    raise DataError(f"{path}: row {lineno}: is_member must be 0 or 1, got {row[3]!r}")
                members.append(row[3].strip() == "1")
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    return np.array(ids, dtype=np.int64), np.array(scores), np.array(members, dtype=bool)


def score_lines(n):
    return [f"{i},loss,{0.001 * i - 1.5!r},{i % 2}" for i in range(n)]


def write_score_lines(path, lines, newline="\n"):
    path.write_bytes(newline.join(["sample_id,strategy,score,is_member", *lines, ""]).encode())


BAD_ROWS = {
    "field_count": "5,loss,1.0",
    "bad_int": "x5,loss,1.0,1",
    "id_beyond_64_bits": f"{2**64},loss,1.0,1",
    "id_below_64_bits": f"{-2**63 - 1},loss,1.0,0",
    "bad_float": "5,loss,abc,1",
    "inf": "5,loss,inf,1",
    "nan": "5,loss,NaN,0",
    "strategy": "5,mentr,1.0,1",
    "flag": "5,loss,1.0,2",
}


@pytest.mark.filterwarnings("error")
class TestScoreReaderParity:
    """read_score_records against the row-by-row reference: the same arrays,
    bitwise, or the same DataError message, with warnings as errors."""

    @staticmethod
    def assert_same_error(path, strategy="loss"):
        with pytest.raises(DataError) as want:
            row_by_row_score_reader(path, strategy)
        with pytest.raises(DataError) as got:
            read_score_records(path, strategy)
        assert str(got.value) == str(want.value)
        return str(got.value)

    @staticmethod
    def assert_same_arrays(path, strategy="loss"):
        want = row_by_row_score_reader(path, strategy)
        got = read_score_records(path, strategy)
        for w, g in zip(want, got):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        return got

    @pytest.mark.parametrize("defect", sorted(BAD_ROWS))
    @pytest.mark.parametrize(
        "n_rows, bad_at",
        [pytest.param(9, 4, id="first_chunk"), pytest.param(768, 384, id="second_chunk")],
    )
    def test_bad_row_in_the_middle(self, tmp_path, defect, n_rows, bad_at):
        lines = score_lines(n_rows)
        lines[bad_at] = BAD_ROWS[defect]
        write_score_lines(tmp_path / "scores.csv", lines)
        message = self.assert_same_error(tmp_path / "scores.csv")
        assert f"row {bad_at + 2}" in message

    def test_first_bad_row_wins_over_a_later_one(self, tmp_path):
        # the later row fails a check that runs earlier within a row
        lines = score_lines(300)
        lines[100] = BAD_ROWS["flag"]
        lines[200] = BAD_ROWS["field_count"]
        write_score_lines(tmp_path / "scores.csv", lines)
        assert "row 102" in self.assert_same_error(tmp_path / "scores.csv")

    def test_bad_row_before_a_csv_error_wins(self, tmp_path):
        lines = score_lines(300)
        lines[100] = BAD_ROWS["bad_float"]
        lines[200] = f"7,loss,{'9' * (csv.field_size_limit() + 1)},1"
        write_score_lines(tmp_path / "scores.csv", lines)
        assert "row 102" in self.assert_same_error(tmp_path / "scores.csv")

    def test_whitespace_quotes_and_crlf_load_the_same(self, tmp_path):
        lines = [
            " 3 ,loss, 0.25 , 1 ",
            '"4","loss","-1e-3","0"',
            '5,"loss",  7.5,"\t1"',
            "6,loss,+2.5, 0",
        ]
        for newline in ("\n", "\r\n"):
            write_score_lines(tmp_path / "scores.csv", lines, newline)
            ids, scores, members = self.assert_same_arrays(tmp_path / "scores.csv")
            assert ids.tolist() == [3, 4, 5, 6]
            assert scores.tolist() == [0.25, -1e-3, 7.5, 2.5]
            assert members.tolist() == [True, False, True, False]

    @pytest.mark.parametrize(
        "n_rows", [0, 1, 256, 257], ids=["empty", "one_row", "one_chunk", "one_chunk_plus_one"]
    )
    def test_chunk_edges_load_the_same(self, tmp_path, n_rows):
        write_score_lines(tmp_path / "scores.csv", score_lines(n_rows))
        ids, _, _ = self.assert_same_arrays(tmp_path / "scores.csv")
        assert ids.tolist() == list(range(n_rows))

    def test_read_triggers_no_cyclic_collection(self, tmp_path):
        write_score_lines(tmp_path / "scores.csv", score_lines(5120))
        collections = []
        gc.collect()
        gc.callbacks.append(lambda phase, info: collections.append(info["generation"]))
        try:
            read_score_records(tmp_path / "scores.csv", "loss")
        finally:
            gc.callbacks.pop()
        assert collections == []

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_written_files_load_the_same(self, tmp_path, rng, newline):
        # and in one pass: the row reader would give the same arrays, only slower
        path = tmp_path / "scores.csv"
        scores = rng.normal(0, 1, 300) * 10.0 ** rng.integers(-300, 300, 300)
        write_score_records(path, "adv_dist", np.arange(300) * 7 - 900, scores, rng.random(300) < 0.5)
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n").replace(b"\n", newline.encode()))
        assert self.assert_same_arrays(path, "adv_dist")[1].tobytes() == scores.tobytes()
        assert _parse_plain_score_csv(path.read_bytes(), "adv_dist") is not None

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param("0,loss,1.0,1\n\n1,loss,2.0,0\n", id="blank_line_in_the_middle"),
            pytest.param("0,loss,1.0,1\n1,loss,2.0,0\n\n", id="blank_line_at_the_end"),
            pytest.param("0,loss,1.0,1\n  \n1,loss,2.0,0\n", id="spaces_only_line"),
            pytest.param("0,loss,1.0,1\n1,loss,2.0,1\x00x\n", id="nul_in_flag"),
            pytest.param("0,loss,1.0,1\r1,loss,2.0,0\n", id="lone_cr_line_end"),
            pytest.param("0,loss,1.0,1\n1,loss,2.0,0\r", id="lone_cr_at_the_end"),
            pytest.param("0,loss,1.0,1\r\r\n1,loss,2.0,0\n", id="cr_cr_lf"),
            pytest.param("0,loss,1.0,1\r\n1,loss,2.0,0\n", id="mixed_line_ends"),
            pytest.param("", id="header_only"),
            pytest.param("0,loss,1.0,1\n1,loss,2.0,0", id="no_final_newline"),
            pytest.param("0,loss,1.0,1\n\n1,loss,2.0,0", id="blank_line_and_no_final_newline"),
            pytest.param("0,loss,1.0,1\n1,loss,2.0,0\r\n", id="crlf_at_the_end_only"),
            pytest.param(f"0,loss,0.{'0' * 140_000}1,1\n", id="finite_score_over_field_limit"),
            pytest.param(f"0,loss,1.0,1\n1,loss,{'0' * 131_068}1.5,1\n", id="line_at_field_limit"),
            pytest.param("0,loss,1.0,1\n1,loss,2.0,0\n2,loss,3.0,1\x00\n", id="trailing_nul"),
            pytest.param("0,loss,1.0,1\n1,loss ,2.0,0\n", id="space_after_strategy"),
            pytest.param("0,loss,1.0,1\n1,losss,2.0,0\n", id="longer_strategy"),
            pytest.param("0,loss,1.0,1\n1,los,2.0,0\n", id="shorter_strategy"),
            pytest.param("0,loss,1.0,1\n1,loss,2.0,0,\n", id="trailing_comma"),
            pytest.param("1.0,loss,1.0,1\n", id="float_id"),
            pytest.param("1_0,loss,1_0.5,1\n", id="underscores"),
            pytest.param("+ 1,loss,1.0,1\n", id="sign_space_id"),
            pytest.param("1,loss,1e400,1\n", id="score_overflows_to_inf"),
            pytest.param("1,loss,-0,1\n2,loss,  -1e-320 ,0\n", id="signed_zero_and_subnormal"),
            pytest.param("1,loss,infinity,1\n", id="infinity"),
            pytest.param("9223372036854775807,loss,1,1\n-9223372036854775808,loss,1,0\n", id="int64_ends"),
            *(
                pytest.param(f"0,loss,1.0,{flag}\n", id=f"flag_{name}")
                for name, flag in [("01", "01"), ("plus_1", "+1"), ("space_1", " 1"), ("1_space", "1 "), ("10", "10"), ("100", "100")]
            ),
            *(
                pytest.param(f"0,loss,1.0,1\n{field},1\n", id=f"hash_{i}")
                for i, field in enumerate(["#1,loss,2.0", "1#,loss,2.0", "1,#loss,2.0", "1,loss,#2.0", "1,loss,2.0#"])
            ),
            pytest.param("0,loss,1.0,#1\n", id="hash_in_flag"),
            *(
                pytest.param(row, id=f"x{ord(c):x}_{where}")
                for c in "\x1c\x1d\x1e\x1f"
                for where, row in [
                    ("before_id", f"{c}3,loss,1.0,1\n"),
                    ("after_id", f"3{c},loss,1.0,1\n"),
                    ("before_score", f"3,loss,{c}1.0,1\n"),
                    ("after_score", f"3,loss,1.0{c},1\n"),
                ]
            ),
            pytest.param("3,loss,\t1.0\t,\t1\t\n", id="tabs"),
            pytest.param("3,loss,\x0b1.0,1\n", id="vertical_tab"),
        ],
    )
    def test_layouts_loadtxt_could_misread(self, tmp_path, body):
        """Inputs on which a bare np.loadtxt parse reads differently from
        csv.reader, int() and float(), or on which the row reader fails."""
        (tmp_path / "scores.csv").write_bytes(("sample_id,strategy,score,is_member\n" + body).encode())
        assert_reads_like_reference(tmp_path / "scores.csv")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.one_of(
                    st.none(),
                    st.sampled_from(b'0123456789,.-+e \r\n#"\t\x00\x0b\x1c\x1flosinf'),
                    st.integers(0, 127),
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_random_byte_edits_read_the_same(self, tmp_path, edits):
        """Insert (a byte) or delete (None) at random offsets of a valid
        file; bytes stay ASCII, which every reader decodes alike."""
        blob = bytearray(b"sample_id,strategy,score,is_member\n0,loss,-0.25,1\n1,loss,1e-05,0\n12,loss,3.5,1\r\n")
        for offset, byte in edits:
            if byte is None:
                del blob[offset % len(blob)]
            else:
                blob.insert(offset % (len(blob) + 1), byte)
        (tmp_path / "scores.csv").write_bytes(bytes(blob))
        assert_reads_like_reference(tmp_path / "scores.csv")


def assert_reads_like_reference(path, strategy="loss"):
    """read_score_records gives whatever the reference gives: its arrays,
    bitwise, or its DataError message."""
    try:
        row_by_row_score_reader(path, strategy)
    except DataError:
        TestScoreReaderParity.assert_same_error(path, strategy)
    else:
        TestScoreReaderParity.assert_same_arrays(path, strategy)


class TestOnePassReader:
    """Files `write_score_records` writes, at the pool size of a paper-scale
    report, are parsed by the one-pass reader within a bounded peak memory."""

    N_ROWS = 20_000

    @pytest.fixture
    def written(self, tmp_path):
        rng = np.random.default_rng(20)
        n = self.N_ROWS
        path = tmp_path / "scores.csv"
        write_score_records(path, "loss", np.arange(n), -rng.exponential(1.0, n), np.arange(n) < n // 2)
        return path

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_written_files_take_the_one_pass_path(self, written, newline):
        # the parser turns any numpy warning into None, a silent fall back to
        # the row reader: a written file must come back as arrays
        written.write_bytes(written.read_bytes().replace(b"\r\n", b"\n").replace(b"\n", newline))
        columns = _parse_plain_score_csv(written.read_bytes(), "loss")
        assert columns is not None
        for got, want in zip(columns, row_by_row_score_reader(written, "loss")):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert len(columns[0]) == self.N_ROWS

    def test_peak_memory_is_bounded(self, written):
        size = written.stat().st_size
        read_score_records(written, "loss")  # first-call caches stay out of the trace
        tracemalloc.start()
        try:
            read_score_records(written, "loss")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bytes, the parsed table and the three columns come to about
        # 3.1x the file written with LF (4x with CRLF, which the parser
        # copies to LF); a decoded str copy of the file takes it to about 7.7x
        assert peak < 6 * size, f"peak {peak} B is {peak / size:.1f}x the {size} B file"
