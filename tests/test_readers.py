"""The dataset CSV and emulate row-file readers: the orjson path against the per-line loops.

``trainer.load_csv_dataset`` and ``cli._load_input_rows`` read a file once and
decode it with ``trainer._read_number_rows`` when they can; every other file
goes to ``trainer._read_csv_rows`` or ``cli._rows_by_line``, which word the
errors. Here each file is read both ways and compared bit for bit: the arrays,
or the error text.
"""

import csv
import io
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from fixflow import cli, trainer

EDGE_FEATURES = ["-0.0", "-0", "0", "0.0", "5e-324", "-5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
                 "2.2250738585072011e-308", "1e-400", "-1e-400", "1e400", "-1e400", "1.7976931348623159e308",
                 "1.7976931348623157e308", "-1.7976931348623157e308", "3", "-7", "99999999999999999999",
                 "18446744073709551616", "1E5", "1e+5", "+1.5", ".5", "1.", "1_0.5", "nan", "inf", " 2.5", "2.5\t"]
EDGE_LABELS = ["0", "1", "+1", " 2", "3.0", "03", "1e20", "-0", "2 ", "\t1", "-1", "18446744073709551615"]


def _spellings(rng, n):
    """``n`` feature spellings: mostly random doubles as ``repr`` or ``%.25e``, some edges."""
    values = rng.normal(0, 1, n) * 10.0 ** rng.integers(-320, 300, n)
    texts = [repr(v) if rng.random() < 0.5 else "%.25e" % v for v in values.tolist()]
    for i in np.flatnonzero(rng.random(n) < 0.03):
        texts[i] = EDGE_FEATURES[rng.integers(len(EDGE_FEATURES))]
    return texts


def _outcome(read, *args):
    """The arrays a reader returns, as bytes, or the text of the ValueError it raises."""
    try:
        result = read(*args)
    except ValueError as exc:
        return str(exc)
    arrays = result if isinstance(result, tuple) else (result,)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _csv_both_ways(path):
    """``load_csv_dataset`` and the csv loop alone, on the file at ``path``."""
    def fast(p):
        data = trainer.load_csv_dataset(p)
        return data.features, data.labels
    with open(path, newline="") as fh:
        text = fh.read()
    return _outcome(fast, path), _outcome(trainer._read_csv_rows, io.StringIO(text, newline=""), path)


def _rows_both_ways(path):
    with open(path) as fh:
        text = fh.read()
    return _outcome(cli._load_input_rows, str(path), 0), _outcome(cli._rows_by_line, text, str(path))


def _random_csv(rng):
    width = int(rng.integers(1, 6))
    lines = [",".join([f"f{i}" for i in range(width)] + ["label"])]
    for _ in range(int(rng.integers(1, 30))):
        label = str(rng.integers(0, 5)) if rng.random() < 0.95 else EDGE_LABELS[rng.integers(len(EDGE_LABELS))]
        lines.append(",".join(_spellings(rng, width) + [label]))
        if rng.random() < 0.05:
            lines.append("")
    if rng.random() < 0.05:  # one row of another width
        lines.insert(int(rng.integers(1, len(lines))), ",".join(_spellings(rng, width + 1) + ["0"]))
    if rng.random() < 0.05:
        i = int(rng.integers(1, len(lines)))
        lines[i] = f'"{lines[i]}"' if rng.random() < 0.5 else lines[i].replace(",", "\x0c", 1)
    ending = ["\n", "\r\n", "\r"][rng.integers(3)]
    return ending.join(lines) + (ending if rng.random() < 0.8 else "")


def _random_rows(rng):
    width = int(rng.integers(1, 6))
    lines = []
    for _ in range(int(rng.integers(1, 20))):
        n = width + (rng.random() < 0.03)
        sep = " " if rng.random() < 0.97 else ["  ", "\t"][rng.integers(2)]
        lines.append(sep.join(_spellings(rng, n)))
        if rng.random() < 0.05:
            lines.append(" " * int(rng.integers(0, 2)))
    ending = ["\n", "\r\n", "\r"][rng.integers(3)]
    return ending.join(lines) + (ending if rng.random() < 0.8 else "")


class TestEquivalence:
    def test_csv_fast_path_equals_the_loop_on_seeded_files(self, tmp_path):
        rng = trainer.make_rng(2701)
        fast = 0
        for i in range(400):
            path = tmp_path / f"d{i}.csv"
            path.write_bytes(_random_csv(rng).encode())
            got, want = _csv_both_ways(path)
            assert got == want, path.read_bytes()[:300]
            with open(path, newline="") as fh:
                text = fh.read()
            line = text.splitlines()[0]
            fast += trainer._read_number_rows(text, len(line), len(line.split(",")), labelled=True) is not None
        assert 100 <= fast <= 380, fast  # both paths ran, on many files each

    def test_row_file_fast_path_equals_the_loop_on_seeded_files(self, tmp_path):
        rng = trainer.make_rng(2702)
        fast = 0
        for i in range(400):
            path = tmp_path / f"r{i}.txt"
            path.write_bytes(_random_rows(rng).encode())
            got, want = _rows_both_ways(path)
            assert got == want, path.read_bytes()[:300]
            fast += trainer._read_number_rows(path.read_text().replace(" ", ",")) is not None
        assert 100 <= fast <= 380, fast

    @pytest.mark.parametrize("feature", EDGE_FEATURES)
    @pytest.mark.parametrize("label", EDGE_LABELS[:3])
    def test_csv_edge_values(self, tmp_path, feature, label):
        path = tmp_path / "e.csv"
        path.write_text(f"a,b,label\n0.5,{feature},{label}\n{feature},-1.5,0\n")
        got, want = _csv_both_ways(path)
        assert got == want

    @pytest.mark.parametrize("label", EDGE_LABELS)
    def test_csv_edge_labels(self, tmp_path, label):
        path = tmp_path / "e.csv"
        path.write_text(f"a,label\n0.5,{label}\n1.5,1\n")
        got, want = _csv_both_ways(path)
        assert got == want

    @pytest.mark.parametrize("feature", EDGE_FEATURES)
    @pytest.mark.parametrize("sep", [" ", "  ", "\t"])
    def test_row_file_edge_values(self, tmp_path, feature, sep):
        path = tmp_path / "e.txt"
        path.write_text(f"0.5{sep}{feature}\n{feature}{sep}-1.5\n")
        got, want = _rows_both_ways(path)
        assert got == want

    @pytest.mark.parametrize("text", [
        "a,label\n1.5,0",  # no final newline
        "a,label\r\n1.5,0\r\n\r\n2.5,1\r\n",
        "a,label\r1.5,0\r\r2.5,1\r",
        "a,label\n\n\n1.5,0\n\n",
        "a,label\r\n1.5,0\n2.5,1\r3.5,0",  # mixed endings
        '"a","label"\n1.5,0\n',  # quotes
        "a,label\n1.5,\"0\"\n",
    ])
    def test_csv_line_ends_blank_lines_and_quotes(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_bytes(text.encode())
        got, want = _csv_both_ways(path)
        assert got == want and not isinstance(got, str)


class TestFastPath:
    """What the orjson path takes, and the files it leaves to the loops."""

    def test_plain_csv_takes_the_fast_path(self, tmp_path, monkeypatch):
        data = trainer.synthetic_task(seed=3, n_samples=300)
        trainer.save_csv_dataset(data, tmp_path / "d.csv")
        monkeypatch.setattr(trainer, "_read_csv_rows", None)  # the loop would fail
        back = trainer.load_csv_dataset(tmp_path / "d.csv")
        assert back.features.tobytes() == data.features.tobytes() and back.labels.tolist() == data.labels.tolist()
        assert back.features.flags.c_contiguous

    def test_blocks_cover_every_row(self, tmp_path, monkeypatch):
        # Many blocks, a line end straddling none of them.
        monkeypatch.setattr(trainer, "_READ_BLOCK_CHARS", 64)
        data = trainer.synthetic_task(seed=4, n_samples=200)
        trainer.save_csv_dataset(data, tmp_path / "d.csv")
        monkeypatch.setattr(trainer, "_read_csv_rows", None)
        back = trainer.load_csv_dataset(tmp_path / "d.csv")
        assert back.features.tobytes() == data.features.tobytes() and back.labels.tolist() == data.labels.tolist()

    def test_minus_zero_feature_is_minus_zero(self, tmp_path):
        # orjson reads the int -0 as 0; float("-0") is -0.0, so an int feature goes to the loop.
        path = tmp_path / "z.csv"
        path.write_text("a,b,label\n-0,1.5,0\n2.5,-0,1\n")
        features = trainer.load_csv_dataset(path).features
        assert np.signbit(features[[0, 1], [0, 1]]).all()
        (tmp_path / "z.txt").write_text("-0 1.5\n2.5 -0\n")
        rows = cli._load_input_rows(str(tmp_path / "z.txt"), 0)
        assert np.signbit(rows[[0, 1], [0, 1]]).all()

    def test_ragged_rows_name_the_line(self, tmp_path):
        # The widths even out over the file: only a per-row width check sees them.
        path = tmp_path / "r.csv"
        path.write_text("a,b,label\n1.5,2.5\n1,3.5,4.5,2\n5.5,6.5,0\n")
        with pytest.raises(ValueError, match=f"^{path}:2: 2 columns, the header has 3$"):
            trainer.load_csv_dataset(path)
        (tmp_path / "r.txt").write_text("1.5 2.5\n3.5\n4.5 5.5 6.5\n")
        with pytest.raises(ValueError, match=f"^{tmp_path / 'r.txt'}:2: 1 values, the first row has 2$"):
            cli._load_input_rows(str(tmp_path / "r.txt"), 0)

    def test_label_past_int64_names_the_line(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text(f"a,label\n1.5,0\n2.5,{2**64 - 1}\n")
        with pytest.raises(ValueError, match=f"^{path}:3: label {2**64 - 1} is past the int64 range$"):
            trainer.load_csv_dataset(path)

    def test_form_feed_stays_inside_a_field(self, tmp_path):
        # str.splitlines would end a line at \x0c and read two good rows.
        path = tmp_path / "f.csv"
        path.write_text("a,b,label\n1.5,2.5,0\x0c3.5,4.5,1\n")
        with pytest.raises(ValueError, match=f"^{path}:2: 5 columns, the header has 3$"):
            trainer.load_csv_dataset(path)

    def test_brackets_in_the_text_go_to_the_loop(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("a,label\n1.5,0],[2.5,1\n")
        with pytest.raises(ValueError, match=f"^{path}:2: 4 columns, the header has 2$"):
            trainer.load_csv_dataset(path)
        (tmp_path / "b.txt").write_text("1.5 [2.5]\n")
        with pytest.raises(ValueError, match="could not convert string to float: '\\[2.5\\]'"):
            cli._load_input_rows(str(tmp_path / "b.txt"), 0)

    def test_a_field_past_the_csv_limit_goes_to_the_loop(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("a,label\n1." + "0" * csv.field_size_limit() + ",0\n")
        with pytest.raises(csv.Error, match="field larger than field limit"):
            trainer.load_csv_dataset(path)


class TestReadOnce:
    """A pipe holds its data once: both paths must read it from one read."""

    @staticmethod
    def read_fifo(tmp_path, name, text, read):
        """``read(path)`` of a named pipe that another process writes ``text`` into once."""
        fifo = str(tmp_path / name)
        os.mkfifo(fifo)
        writer = subprocess.Popen([sys.executable, "-c", "import sys; open(sys.argv[1], 'w').write(sys.argv[2])",
                                   fifo, text])

        def overran(signum, frame):
            raise TimeoutError(f"{fifo} opened a second time")

        previous = signal.signal(signal.SIGALRM, overran)
        signal.alarm(10)
        try:
            return read(fifo)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            writer.kill()  # still waiting to open the pipe when the reader failed first
            writer.wait(timeout=10)

    def test_csv_from_a_pipe(self, tmp_path):
        data = self.read_fifo(tmp_path, "d.csv", "a,label\r\n1.5,0\r\n2.5,1\r\n", trainer.load_csv_dataset)
        assert data.features.tolist() == [[1.5], [2.5]] and data.labels.tolist() == [0, 1]

    def test_bad_csv_row_from_a_pipe_names_the_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"d\.csv:3: could not convert string to float: 'x'"):
            self.read_fifo(tmp_path, "d.csv", "a,label\n1.5,0\nx,1\n", trainer.load_csv_dataset)

    def test_row_file_from_a_pipe(self, tmp_path):
        rows = self.read_fifo(tmp_path, "r.txt", "1.5 2.5\n3.5 4.5\n", lambda p: cli._load_input_rows(p, 0))
        assert rows.tolist() == [[1.5, 2.5], [3.5, 4.5]]

    def test_bad_row_from_a_pipe_names_the_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"r\.txt:2: 1 values, the first row has 2"):
            self.read_fifo(tmp_path, "r.txt", "1.5 2.5\n3.5\n", lambda p: cli._load_input_rows(p, 0))
