"""Reference-table, limit-constant, and comparison tests.

The limit constant is checked against the same period-6 block series used
in the special-function tests, and against the imaginary part of Li2 on
the unit circle; reference CSV parsing is exercised over every error path
with line numbers.
"""

import cmath
import math

import pytest

from olim41.errors import DomainError, ReferenceDataError
from olim41.geometry_reference import (
    GeometryReference,
    builtin_references,
    compare,
    infinity_solution,
    limit_infinity,
    load_references,
)
from olim41.saddle_solver import residual_fig8, track_geometric
from olim41.specfun import clausen2, dilog

PI = math.pi


class TestBuiltinReferences:
    def test_rows(self):
        by_p = {ref.p: ref for ref in builtin_references()}
        assert set(by_p) == {0, 4, 6}
        assert by_p[0].vol == 0.0 and by_p[0].cs == 0.0
        assert by_p[4].vol == 0.0 and by_p[4].cs == 0.1
        assert "inferred" in by_p[4].note
        assert by_p[6].vol == 1.2844853
        assert by_p[6].cs == 0.0679316734799
        assert all(ref.provenance == "paper-builtin" for ref in by_p.values())

    def test_cs_scale(self):
        ref = {r.p: r for r in builtin_references()}[6]
        # CS = 2 pi^2 cs; the rounded form 1.3409174875 quoted alongside V
        # differs from the exact product by 4e-10, so it is pinned loosely
        assert abs(ref.CS - 1.34091748710117261) < 1e-14
        assert abs(ref.CS - 1.3409174875) < 5e-10
        assert ref.target == complex(ref.CS, 1.2844853)

    def test_validation(self):
        with pytest.raises(DomainError):
            GeometryReference(p=1.5, vol=1.0, cs=0.0)
        with pytest.raises(DomainError):
            GeometryReference(p=1, vol=-0.5, cs=0.0)
        with pytest.raises(DomainError):
            GeometryReference(p=1, vol=math.inf, cs=0.0)
        with pytest.raises(DomainError):
            GeometryReference(p=1, vol=1.0, cs=math.nan)


class TestLoadReferences:
    def test_merge_and_override(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("# extra rows\np,vol,cs\n7, 2.5, 0.125\n6, 1.5, 0.05\n")
        refs = load_references(path)
        by_p = {ref.p: ref for ref in refs}
        assert set(by_p) == {0, 4, 6, 7}
        assert by_p[6].vol == 1.5 and by_p[6].provenance == "user-csv"
        assert by_p[7].cs == 0.125 and by_p[7].provenance == "user-csv"
        assert by_p[4].provenance == "paper-builtin"
        assert [ref.p for ref in refs] == [0, 4, 6, 7]

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet exports start the file with a UTF-8 byte-order mark
        path = tmp_path / "refs.csv"
        path.write_bytes(b"\xef\xbb\xbfp,vol,cs\n7,2.5,0.125\n")
        by_p = {ref.p: ref for ref in load_references(path)}
        assert by_p[7].vol == 2.5 and by_p[7].provenance == "user-csv"

    def test_header_only_keeps_builtins(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("p,vol,cs\n")
        assert [ref.p for ref in load_references(path)] == [0, 4, 6]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("vol,p,cs\n6,1,0\n")
        with pytest.raises(ReferenceDataError, match="line 1"):
            load_references(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("# nothing but comments\n")
        with pytest.raises(ReferenceDataError, match="header"):
            load_references(path)

    def test_malformed_field(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("p,vol,cs\n6,abc,0\n")
        with pytest.raises(ReferenceDataError, match="line 2"):
            load_references(path)

    def test_wrong_width(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("p,vol,cs\n6,1\n")
        with pytest.raises(ReferenceDataError, match="line 2"):
            load_references(path)

    def test_duplicate_framing(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("p,vol,cs\n6,1,0\n6,2,0\n")
        with pytest.raises(ReferenceDataError, match="line 3"):
            load_references(path)

    def test_negative_volume(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("p,vol,cs\n6,-1,0\n")
        with pytest.raises(ReferenceDataError, match="line 2"):
            load_references(path)


class TestLimitInfinity:
    def test_purely_imaginary(self):
        L = limit_infinity()
        assert L.real == 0.0
        assert L.imag == 2 * clausen2(PI / 3)

    def test_value(self, clausen_pi3_series):
        L = limit_infinity()
        assert abs(L.imag - 2.029883212819307) < 1e-14
        assert abs(L.imag - 2 * clausen_pi3_series) < 1e-9

    def test_cross_check_against_dilog(self):
        L = limit_infinity()
        assert abs(L.imag - 2 * dilog(cmath.exp(1j * PI / 3)).imag) < 1e-12


class TestInfinitySolution:
    def test_shape(self):
        zeta, omega = infinity_solution(100)
        assert abs(omega - cmath.exp(-1j * PI / 3)) < 1e-15
        assert abs(zeta - cmath.exp(-2j * PI / 100)) < 1e-15

    def test_residual_shrinks(self):
        residuals = [residual_fig8(p, *infinity_solution(p))
                     for p in (10, 100, 1000)]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[1] < 0.2

    def test_approaches_degenerate_point(self):
        zeta, _ = infinity_solution(10 ** 6)
        assert abs(zeta - 1) < 1e-5

    def test_validation(self):
        with pytest.raises(DomainError):
            infinity_solution(0)
        with pytest.raises(DomainError):
            infinity_solution(2.5)


class TestCompare:
    def test_match(self):
        ref = {r.p: r for r in builtin_references()}[6]
        report = compare(ref.target, ref, 1e-6)
        assert report.matched and report.abs_error == 0.0
        assert report.p == 6 and report.target == ref.target

    def test_mismatch(self):
        ref = {r.p: r for r in builtin_references()}[6]
        report = compare(ref.target + 1e-3, ref, 1e-6)
        assert not report.matched
        assert abs(report.abs_error - 1e-3) < 1e-12

    def test_tolerance_validated(self):
        ref = builtin_references()[0]
        with pytest.raises(DomainError):
            compare(0j, ref, 0.0)


class TestNeumannZagierRate:
    def test_error_is_order_p_minus_four(self):
        # V(p) = 2 i Cl2(pi/3) + pi^2/(p + 2 sqrt(3) i) + O(p^-4), with
        # 2 sqrt(3) i the cusp shape of 4_1: the imaginary part is the
        # Neumann-Zagier volume defect pi^2/Q(p, 1), the real part Yoshida's
        # Chern-Simons defect. |e| p^4 rises from 140 at p = 5 to 224.94 at
        # p = 640, its maximum on 5..640; the bound 230 sits just above it.
        framings = range(5, 641)
        for p, pt in zip(framings, track_geometric(framings)):
            e = pt.value - limit_infinity() - PI ** 2 / (p + 2j * math.sqrt(3))
            assert abs(e) * p ** 4 <= 230, p

    @pytest.mark.parametrize("p", [1835, 1862, 2350, 10 ** 4, 10 ** 6,
                                   3 * 10 ** 6, 10 ** 7, 7 * 10 ** 8, 10 ** 9])
    def test_far_framings(self, p):
        # far past solve_fig8's |p| <= 136 the continuation stands alone;
        # at p = 1835 its Newton stalls at a residual of 1.01e-13, just
        # above the stopping tolerance, on a point that meets the 1e-10
        # bound; at 3e6 and 1e7 the rounding of s^p leaves 1.66e-10 and
        # 2.61e-10, within the bound that grows with p; at 7e8 and 1e9 the
        # point lies 2 pi/p from z = 1, inside a fixed 1e-8 z = 1 radius
        pt, = track_geometric([p])
        e = pt.value - limit_infinity() - PI ** 2 / (p + 2j * math.sqrt(3))
        assert abs(e) < 1e-10
