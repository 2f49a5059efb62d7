"""Instance file parsing: worked examples, round trips, and fuzzing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcfw import (
    QapInstance,
    QaplibParseError,
    parse_qaplib,
    scan_directory,
    serialize_qaplib,
)


class TestParse:
    def test_worked_example(self):
        inst = parse_qaplib("2 0 1 1 0 0 2 2 0", name="tiny")
        assert inst.name == "tiny" and inst.n == 2
        assert np.array_equal(inst.A, [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(inst.B, [[0.0, 2.0], [2.0, 0.0]])

    def test_bytes_and_str_agree(self):
        a = parse_qaplib("1 3 4")
        b = parse_qaplib(b"1  3\n\t4\n")
        assert a.n == b.n == 1
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)

    def test_accepts_arbitrary_whitespace(self):
        inst = parse_qaplib(b"\n\n 2\r\n0 1\t1 0\n\n0 2\n2 0\n")
        assert inst.n == 2

    def test_empty_input(self):
        with pytest.raises(QaplibParseError) as info:
            parse_qaplib("   \n ")
        assert info.value.offset == 0

    def test_non_integer_size(self):
        with pytest.raises(QaplibParseError) as info:
            parse_qaplib("abc 1 2")
        assert "size token" in info.value.reason
        assert info.value.offset == 0

    def test_nonpositive_size(self):
        for text in ("0", "-3 1 2"):
            with pytest.raises(QaplibParseError) as info:
                parse_qaplib(text)
            assert "positive" in info.value.reason

    def test_too_few_tokens_points_past_the_end(self):
        data = "2 1 2 3"
        with pytest.raises(QaplibParseError) as info:
            parse_qaplib(data)
        assert info.value.offset == len(data)

    def test_too_many_tokens_points_at_first_extra(self):
        with pytest.raises(QaplibParseError) as info:
            parse_qaplib("1 1 2 3")
        assert info.value.offset == 6

    def test_non_numeric_entry(self):
        with pytest.raises(QaplibParseError) as info:
            parse_qaplib("2 0 1 1 0 0 2 2 x")
        assert info.value.offset == 16
        assert "not a number" in info.value.reason

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_entry(self, bad):
        with pytest.raises(QaplibParseError) as info:
            parse_qaplib(f"1 5 {bad}")
        assert "finite" in info.value.reason

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_qaplib("")


class TestRoundTrip:
    def test_integer_matrices_exact(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5):
            inst = QapInstance(
                name="t",
                n=n,
                A=rng.integers(-50, 50, (n, n)).astype(float),
                B=rng.integers(0, 1000, (n, n)).astype(float),
            )
            back = parse_qaplib(serialize_qaplib(inst), name="t")
            assert back.n == n
            assert np.array_equal(back.A, inst.A)
            assert np.array_equal(back.B, inst.B)

    def test_float_matrices_exact(self):
        rng = np.random.default_rng(1)
        inst = QapInstance(
            name="f", n=3, A=rng.standard_normal((3, 3)), B=rng.standard_normal((3, 3))
        )
        back = parse_qaplib(serialize_qaplib(inst))
        assert np.array_equal(back.A, inst.A)  # repr round-trips doubles
        assert np.array_equal(back.B, inst.B)

    def test_integral_floats_written_without_decimal_point(self):
        inst = QapInstance(name="i", n=1, A=np.array([[5.0]]), B=np.array([[-7.0]]))
        text = serialize_qaplib(inst)
        assert "5.0" not in text and "-7.0" not in text
        assert "5" in text and "-7" in text

    @settings(max_examples=100)
    @given(
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_random_integer_instances(self, n, seed):
        rng = np.random.default_rng(seed)
        inst = QapInstance(
            name="h",
            n=n,
            A=rng.integers(-1000, 1000, (n, n)).astype(float),
            B=rng.integers(-1000, 1000, (n, n)).astype(float),
        )
        back = parse_qaplib(serialize_qaplib(inst))
        assert np.array_equal(back.A, inst.A) and np.array_equal(back.B, inst.B)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_refuses_a_non_finite_entry(self, bad):
        B = np.ones((2, 2))
        B[1, 0] = bad
        with pytest.raises(ValueError, match="'inf2'.*B has a non-finite entry"):
            serialize_qaplib(QapInstance("inf2", 2, np.ones((2, 2)), B))

    @pytest.mark.parametrize(
        "A_shape, B_shape", [((2, 2), (2, 2)), ((3, 3), (3,)), ((9,), (3, 3))]
    )
    def test_refuses_matrices_that_are_not_n_by_n(self, A_shape, B_shape):
        inst = QapInstance("y", 3, np.ones(A_shape), np.ones(B_shape))
        with pytest.raises(ValueError, match="'y'.* has shape .*, expected \\(3, 3\\)"):
            serialize_qaplib(inst)

    @pytest.mark.parametrize(
        "n, error", [(0, ValueError), (-1, ValueError), (1.0, TypeError), (True, TypeError)]
    )
    def test_refuses_an_n_the_parser_refuses(self, n, error):
        with pytest.raises(error, match="n of instance 'z'"):
            serialize_qaplib(QapInstance("z", n, np.ones((1, 1)), np.ones((1, 1))))

    def test_a_signed_zero_round_trips(self):
        A = np.array([[-0.0, 0.0], [-0.0, 3.0]])
        inst = QapInstance("z", 2, A, -A)
        back = parse_qaplib(serialize_qaplib(inst))
        for before, after in ((inst.A, back.A), (inst.B, back.B)):
            assert np.array_equal(np.signbit(after), np.signbit(before))
            assert after.tobytes() == before.tobytes()

    def test_numpy_integer_n_round_trips(self):
        inst = QapInstance("np", np.int64(2), np.eye(2), np.ones((2, 2)))
        back = parse_qaplib(serialize_qaplib(inst))
        assert back.n == 2 and np.array_equal(back.A, inst.A)


class TestScanDirectory:
    def _build_corpus(self, root):
        rng = np.random.default_rng(2)
        good = QapInstance(
            name="g", n=3, A=rng.integers(0, 9, (3, 3)).astype(float),
            B=rng.integers(0, 9, (3, 3)).astype(float),
        )
        (root / "alpha.dat").write_text(serialize_qaplib(good))
        (root / "beta.dat").write_text("2 0 1 1 0 0 2 2 0")
        (root / "gamma.dat").write_text("1 5 5")
        (root / "broken1.dat").write_text("2 1 2 3")  # truncated
        (root / "broken2.dat").write_text("x 1 2")  # bad size
        (root / "broken3.dat").write_text("1 1 oops")  # bad entry
        (root / "notes.txt").write_text("not an instance")  # ignored
        return {"alpha", "beta", "gamma"}, {"broken1", "broken2", "broken3"}

    def test_partition(self, tmp_path):
        valid, invalid = self._build_corpus(tmp_path)
        report = scan_directory(tmp_path)
        assert set(report.valid) == valid
        assert {name for name, _ in report.invalid} == invalid
        assert report.valid == sorted(report.valid)
        for name, message in report.invalid:
            assert "offset" in message
        assert len(report.valid) + len(report.invalid) == 6

    def test_rejects_non_directory(self, tmp_path):
        target = tmp_path / "file.dat"
        target.write_text("1 1 1")
        with pytest.raises(NotADirectoryError):
            scan_directory(target)

    def test_empty_directory(self, tmp_path):
        report = scan_directory(tmp_path)
        assert report.valid == [] and report.invalid == []


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            length = int(rng.integers(0, 80))
            blob = bytes(rng.integers(0, 256, length, dtype=np.uint8))
            try:
                parse_qaplib(blob)
            except QaplibParseError:
                pass

    @settings(max_examples=200)
    @given(st.text(alphabet="0123456789 .-+eEnaif\n\t", max_size=60))
    def test_numeric_looking_text_never_crashes(self, text):
        try:
            parse_qaplib(text)
        except QaplibParseError:
            pass
