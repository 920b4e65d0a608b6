import numpy as np
import pytest

from reldep.dataset import (
    DatasetError,
    JointSample,
    PreconditionError,
    Sample,
    align,
    load_csv,
    save_csv,
    split_half,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_basic_3x2(self, tmp_path):
        s = load_csv(write(tmp_path, "1,2\n3,4\n5,6\n"))
        assert (s.m, s.d) == (3, 2)
        assert np.array_equal(s.data, [[1, 2], [3, 4], [5, 6]])

    def test_header_skipped(self, tmp_path):
        s = load_csv(write(tmp_path, "a,b\n1,2\n3,4\n"), has_header=True)
        assert s.m == 2

    def test_nan_cell_is_named(self, tmp_path):
        with pytest.raises(DatasetError, match=r"line 2, column 1"):
            load_csv(write(tmp_path, "1,2\nNaN,4\n"))

    def test_non_numeric_cell_is_named(self, tmp_path):
        with pytest.raises(DatasetError, match=r"'oops' at line 1, column 2"):
            load_csv(write(tmp_path, "1,oops\n3,4\n"))

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(DatasetError, match=r"line 3 has 3 columns"):
            load_csv(write(tmp_path, "1,2\n3,4\n5,6,7\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_scientific_notation(self, tmp_path):
        s = load_csv(write(tmp_path, "1e-3,2.5E+2\n-1.25e1,0\n"))
        assert np.array_equal(s.data, [[1e-3, 250.0], [-12.5, 0.0]])

    def test_alternate_delimiter(self, tmp_path):
        s = load_csv(write(tmp_path, "1;2\n3;4\n"), delimiter=";")
        assert s.d == 2

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(write(tmp_path, ""))

    def test_round_trip_is_exact(self, tmp_path, rng):
        s = Sample(rng.standard_normal((20, 3)) * 1e3, "orig")
        out = tmp_path / "roundtrip.csv"
        save_csv(s, out)
        again = load_csv(out)
        assert np.array_equal(s.data, again.data)
        save_csv(again, out)
        assert np.array_equal(load_csv(out).data, again.data)


class TestSample:
    def test_vector_becomes_column(self):
        s = Sample(np.arange(4.0), "v")
        assert (s.m, s.d) == (4, 1)

    def test_rejects_nan(self):
        with pytest.raises(DatasetError, match="non-finite"):
            Sample(np.array([[1.0, np.nan]]), "bad")

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            Sample(np.empty((0, 2)), "empty")

    def test_data_is_readonly(self):
        s = Sample(np.ones((3, 2)), "s")
        with pytest.raises(ValueError):
            s.data[0, 0] = 2.0

    def test_caller_array_stays_writable(self):
        # The sample holds a read-only view of the array, not a copy.
        x = np.zeros((3, 2))
        s = Sample(x, "s")
        x[0, 0] = 1.0
        assert not s.data.flags.writeable and np.shares_memory(s.data, x)


class TestAlign:
    def test_matching_sizes(self, rng):
        xs = [Sample(rng.standard_normal((5, 2)), t) for t in "xyz"]
        j = align(*xs)
        assert j.m == 5
        assert np.array_equal(j.x.data, xs[0].data)

    def test_mismatch_lists_counts(self, rng):
        x = Sample(rng.standard_normal((5, 2)), "x")
        y = Sample(rng.standard_normal((4, 2)), "y")
        z = Sample(rng.standard_normal((5, 2)), "z")
        with pytest.raises(DatasetError, match=r"sample sizes 5,4,5 differ"):
            align(x, y, z)

    def test_self_alignment_allowed(self, rng):
        x = Sample(rng.standard_normal((6, 2)), "x")
        j = align(x, x, x)
        assert j.m == 6

    def test_two_variable_joint(self, rng):
        x = Sample(rng.standard_normal((5, 2)), "x")
        y = Sample(rng.standard_normal((5, 2)), "y")
        assert align(x, y).z is None


class TestSplitHalf:
    def make_joint(self, m, rng):
        return align(
            Sample(rng.standard_normal((m, 2)), "x"),
            Sample(rng.standard_normal((m, 2)), "y"),
            Sample(rng.standard_normal((m, 2)), "z"),
        )

    def test_even_split(self, rng):
        j = self.make_joint(10, rng)
        a, b = split_half(j)
        assert a.m == b.m == 5
        assert np.array_equal(a.x.data, j.x.data[:5])
        assert np.array_equal(a.y.data, j.y.data[:5])
        assert np.array_equal(b.x.data, j.x.data[5:10])
        assert np.array_equal(b.y.data, j.z.data[5:10])

    def test_odd_drops_last_row(self, rng):
        j = self.make_joint(11, rng)
        a, b = split_half(j)
        assert a.m == b.m == 5
        assert np.array_equal(b.x.data, j.x.data[5:10])

    def test_too_small_errors(self, rng):
        with pytest.raises(PreconditionError, match="m >= 8"):
            split_half(self.make_joint(7, rng))

    def test_needs_z(self, rng):
        x = Sample(rng.standard_normal((10, 2)), "x")
        with pytest.raises(PreconditionError, match="three variables"):
            split_half(align(x, x))

    def test_halves_disjoint_and_sized(self, rng):
        for m in (8, 9, 12, 13):
            j = self.make_joint(m, rng)
            a, b = split_half(j)
            assert a.m == b.m == m // 2
            # row contents must come from disjoint index ranges
            joined = np.vstack([a.x.data, b.x.data])
            assert joined.shape[0] == 2 * (m // 2)
            assert np.array_equal(joined, j.x.data[: 2 * (m // 2)])

    def test_shuffle_is_seeded_and_disjoint(self, rng):
        j = self.make_joint(12, rng)
        a1, b1 = split_half(j, shuffle_seed=7)
        a2, b2 = split_half(j, shuffle_seed=7)
        assert np.array_equal(a1.x.data, a2.x.data)
        assert np.array_equal(b1.y.data, b2.y.data)
        a3, _ = split_half(j, shuffle_seed=8)
        assert not np.array_equal(a1.x.data, a3.x.data)
        # shuffled halves still pair x rows with the matching y/z rows
        for row_x, row_y in zip(a1.x.data, a1.y.data):
            i = np.flatnonzero((j.x.data == row_x).all(axis=1))[0]
            assert np.array_equal(j.y.data[i], row_y)
