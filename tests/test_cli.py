"""Command-line interface: exit codes, output formats, and determinism."""

import argparse
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qclab import cli
from qclab.cli import _AUDIT_READS, _parse_map, build_parser, main
from qclab.functionals import mean_distortion
from qclab.gauges import ConvexGauge
from qclab.geometry import AnnulusDomain, RectangleDomain, grid_for

# ``-W error``: a warning a run prints, numpy's included, fails its test
CMD = [sys.executable, "-W", "error", "-m", "qclab"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


class TestExitCodes:
    def test_version(self):
        res = run("--version")
        assert res.returncode == 0
        assert "0.1.0" in res.stdout

    def test_bad_parameter_is_usage_error(self):
        res = run("distortion", "--map", "gstar", "--q", "1.5", "--grid", "32x32")
        assert res.returncode == 2
        assert "q must be in (0, 1)" in res.stderr

    def test_unknown_map_is_usage_error(self):
        res = run("distortion", "--map", "bogus", "--grid", "32x32")
        assert res.returncode == 2

    def test_degenerate_experiment(self):
        res = run("fit", "--gauge", "linear", "--grid", "64x64")
        assert res.returncode == 3
        assert "strictly convex" in res.stderr

    def test_failed_audit(self):
        res = run("audit", "--lemma", "taylor", "--gauge", "flat")
        assert res.returncode == 4

    def test_overdeclared_curvature(self):
        res = run("audit", "--lemma", "taylor", "--gauge", "flat", "--c", "1.0")
        assert res.returncode == 2
        assert "exceeds the floor" in res.stderr

    def test_repeated_eps_is_usage_error(self):
        res = run("fit", "--grid", "64x64", "--eps", "0.01,0.01")
        assert res.returncode == 2
        assert "eps values must be distinct" in res.stderr
        assert res.stdout == ""

    def test_fit_rows_sharing_one_deficit_are_degenerate(self):
        res = run("fit", "--grid", "64x64", "--eps", "0.001,0.0010000000000000002")
        assert res.returncode == 3
        assert "two distinct deficits" in res.stderr
        assert res.stdout == ""

    def test_fit_grid_without_coarser_noise_grid(self):
        res = run("fit", "--grid", "2x1")
        assert res.returncode == 2
        assert "too coarse" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("family", ["gstar", "fstar"])
    def test_distortion_grid_without_coarser_error_grid(self, family):
        res = run("distortion", "--map", family, "--grid", "2x1")
        assert res.returncode == 2
        assert "too coarse" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("argv", [
        ("fit",),
        ("distortion", "--map", "geps:0.01", "--gauge", "square", "--density", "invsq"),
        ("distortion", "--map", "fstar"),
    ], ids=["fit", "geps", "fstar"])
    def test_grid_with_two_primary_cells_has_no_error_grid(self, argv):
        # the half grid 2x32 keeps both primary cells, and every integrand is
        # constant along the secondary axis: the error estimate would read 0
        res = run(*argv, "--grid", "2x64")
        assert res.returncode == 2
        assert "too coarse" in res.stderr
        assert res.stdout == ""

    def test_fit_with_an_overflowing_square_is_refused(self):
        # (k-1)**2 overflows a float at this k; q**k underflows
        res = run("fit", "--k", "1e308", "--grid", "16x16")
        assert res.returncode == 2
        assert "underflows at q = 0.5, k = 1e+308" in res.stderr
        assert res.stdout == ""

    def test_underflowed_distortion_is_degenerate(self):
        res = run("distortion", "--map", "gstar", "--k", "1e308", "--gauge",
                  "square", "--grid", "32x32")
        assert res.returncode == 3
        assert "1024 of 1024 cells have no defined distortion" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("k", ["1e16", "1e17"])
    def test_cancelled_distortion_is_undefined(self, k):
        # (k+1)/2 and (k-1)/2 round to the same float: K cannot be recovered,
        # and reading the zero difference as orientation reversal printed 1.0
        res = run("distortion", "--map", "fstar", "--k", k, "--grid", "16x16")
        assert res.returncode == 3
        assert "256 of 256 cells have no defined distortion" in res.stderr
        assert res.stdout == ""

    def test_large_resolved_distortion_is_exact(self):
        res = run("distortion", "--map", "fstar", "--k", "1e8", "--grid", "16x16",
                  "--format", "json")
        assert res.returncode == 0
        summary = json.loads(res.stdout)["summary"]
        assert summary["value"] == 1e8
        assert summary["degenerate_cells"] == 0

    @pytest.mark.parametrize("argv, radius", [
        (("distortion", "--map", "gstar", "--q", "1e-5", "--density", "invsq",
          "--gauge", "linear"), "1e-05"),
        (("fit", "--q", "1e-5"), "1e-05"),
        # the 512-ring grid resolves q = 0.003, its 256-ring half grid does not
        (("fit", "--q", "0.003"), "0.003"),
        # q**(k/2) = 1e-15 is a break the grid keeps; the density is refused
        (("fit", "--q", "1e-20", "--k", "1.5"), "1e-20"),
    ], ids=["distortion", "fit", "fit-half-grid", "fit-tiny-break"])
    def test_under_resolved_inverse_square_density(self, argv, radius):
        # a first ring 195 q wide put g*'s value at 94.20 with error estimate
        # 2.88, against the exact 2*pi*k*log(1/q) = 144.68
        res = run(*argv)
        assert res.returncode == 2
        assert "density is under-resolved: radial cell 0 is" in res.stderr
        assert f"wide at inner radius {radius};" in res.stderr
        assert res.stdout == ""

    def test_power_gauge_with_an_overflowing_floor_is_refused(self):
        res = run("audit", "--lemma", "taylor", "--gauge", "power:1e160")
        assert res.returncode == 2
        assert "exponent p = 1e+160 is too large" in res.stderr
        assert res.stdout == ""

    def test_overflowing_taylor_gap_is_degenerate(self):
        # 50**200 overflows, and inf - inf is NaN: the audit used to fail
        res = run("audit", "--lemma", "taylor", "--gauge", "power:200")
        assert res.returncode == 3
        assert "Taylor gap of gauge power:200 is not finite" in res.stderr
        assert res.stdout == ""

    def test_overflowing_gauged_distortion_is_degenerate(self):
        res = run("distortion", "--map", "gstar", "--gauge", "power:1100", "--grid", "16x16")
        assert res.returncode == 3
        assert "overflows a float under gauge power:1100" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("argv, code, message", [
        (("reconstruct", "--field", "conj", "--q", "0.999", "--grid", "16x16", "--points", "2"),
         2, "target (6.118643866452712e-17+0.999250375j) is within"),
        (("audit", "--lemma", "k-l2", "--gauge", "power:1100"),
         3, "non-finite sample inf at cell 0"),
    ], ids=["boundary-collar", "non-finite-sample"])
    def test_messages_print_plain_numbers(self, argv, code, message):
        # numpy scalars print as np.float64(...) under numpy 2
        res = run(*argv)
        assert res.returncode == code
        assert message in res.stderr
        assert "np." not in res.stderr

    def test_break_far_below_the_absolute_tolerance_is_kept(self):
        # the break sqrt(q) = 1e-15 lies inside (q, 1), though below 4e-12
        q, k, eps = 1e-30, 2.0, 0.01
        res = run("distortion", "--map", f"geps:{eps}", "--q", repr(q), "--gauge", "square",
                  "--grid", "64x64", "--format", "json")
        assert res.returncode == 0, res.stderr
        hi, lo = k + math.sqrt(eps), k - math.sqrt(eps)
        want = math.pi * (hi**2 * (1.0 - q) + lo**2 * (q - q * q))
        assert json.loads(res.stdout)["summary"]["value"] == pytest.approx(want, rel=1e-15)

    def test_passing_audit(self):
        res = run("audit", "--lemma", "gn-gap", "--q", "0.5", "--k", "2",
                  "--winding", "1", "--grid", "128x128")
        assert res.returncode == 0


_OVERFLOW = "degenerate experiment: the gauged distortion overflows a float under gauge power:1100"
_UNDEFINED = "cells have no defined distortion"
_UNRESOLVED = "error: the 1/|w|^2 density is under-resolved"
_GRID = ("--grid", "16x16")


class TestFaultExitCodes:
    """Each fault class gives one exit code on every subcommand that reaches it."""

    CASES = {
        # phi(K) overflows a float: a degenerate experiment
        "overflow-distortion": (("distortion", "--map", "gstar", "--gauge", "power:1100"), 3, _OVERFLOW),
        "overflow-fit": (("fit", "--gauge", "power:1100"), 3, _OVERFLOW),
        "overflow-gn-gap": (("audit", "--lemma", "gn-gap", "--gauge", "power:1100"), 3, _OVERFLOW),
        "overflow-k-l2": (("audit", "--lemma", "k-l2", "--gauge", "power:1100"), 3, _OVERFLOW),
        "overflow-k-mean": (("audit", "--lemma", "k-mean", "--gauge", "power:1100"), 3, _OVERFLOW),
        # K exceeds 2**43 on every cell: a degenerate experiment
        "undefined-distortion": (("distortion", "--map", "fstar", "--k", "1e16"), 3, _UNDEFINED),
        "undefined-gn-gap": (("audit", "--lemma", "gn-gap", "--k", "1e16"), 3, _UNDEFINED),
        "undefined-k-l2": (("audit", "--lemma", "k-l2", "--k", "1e16"), 3, _UNDEFINED),
        "undefined-k-mean": (("audit", "--lemma", "k-mean", "--k", "1e16"), 3, _UNDEFINED),
        # the ladder refuses its image annulus [q**k, 1] before any map runs
        "undefined-fit": (("fit", "--k", "1e16"), 2, "underflows at q = 0.5, k = 1e+16"),
        # a radial cell wider than its inner radius: bad input
        "unresolved-distortion": (
            ("distortion", "--map", "gstar", "--density", "invsq", "--q", "1e-5"), 2, _UNRESOLVED
        ),
        "unresolved-fit": (("fit", "--q", "1e-5"), 2, _UNRESOLVED),
        "unresolved-gn-gap": (("audit", "--lemma", "gn-gap", "--q", "1e-5"), 2, _UNRESOLVED),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fault_exit_code(self, name, capsys):
        argv, code, message = self.CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, *_GRID]) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestFitOutput:
    def test_csv_shape(self):
        res = run("fit", "--grid", "64x64", "--eps", "1e-4,1e-3,1e-2")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "eps,deficit,l1,dbar_mass"
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 4  # header + three rungs
        footer = [l for l in lines if l.startswith("#")]
        keys = [f.split("=")[0] for f in footer]
        assert keys == sorted(keys)
        assert any("version=0.1.0" in f for f in footer)
        assert any(f.startswith("# seed=") for f in footer)
        joined = "\n".join(footer).lower()
        assert "time" not in joined and "date" not in joined

    def test_repeat_runs_are_byte_identical(self):
        args = ("fit", "--grid", "64x64", "--eps", "1e-4,1e-3,1e-2")
        first, second = run(*args), run(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_out_file(self, tmp_path):
        target = tmp_path / "ladder.csv"
        res = run("fit", "--grid", "64x64", "--eps", "1e-4,1e-3,1e-2",
                  "--out", str(target))
        assert res.returncode == 0
        text = target.read_text()
        assert text.startswith("eps,deficit,l1,dbar_mass")

    def test_json_format(self):
        res = run("fit", "--grid", "64x64", "--eps", "1e-4,1e-3,1e-2",
                  "--format", "json")
        doc = json.loads(res.stdout)
        assert set(doc) == {"params", "rows", "summary"}
        assert list(doc) == sorted(doc)
        assert len(doc["rows"]) == 3
        assert 0.4 < doc["summary"]["slope"] < 0.6

    def test_json_summary_counts_the_rows(self):
        # at 16x16 the 1e-6 rung sits in the quadrature noise and is left out
        res = run("fit", "--grid", "16x16", "--eps", "1e-6,1e-3,1e-2",
                  "--format", "json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        rows, summary = doc["rows"], doc["summary"]
        assert [r["included"] for r in rows] == [False, True, True]
        assert summary["rows_total"] == len(rows) == 3
        assert summary["rows_used"] == sum(r["included"] for r in rows) == 2
        assert set(rows[0]) == {"eps", "deficit", "l1", "dbar_mass", "noise", "included"}


class TestFitBytes:
    """The emitted bytes of ``fit``, pinned as computed before the ladder's
    reference and rung rows shared one reduction per grid."""

    SEEDED = (
        "--k", "1.9268728488224802", "--eps",
        "0.0001377125419626388,0.0004031900886409748,0.0007980454214371649,"
        "0.003149009964122406,0.009545450413444956",
        "--grid", "512x512",
    )

    @pytest.mark.parametrize("argv, sha256", [
        ((), "1b03f6ad4645411d545446b0a52e321c20110d0e0ed50bb8fbe5c28cd0dadba2"),
        (SEEDED, "237b600db584be7e32227497bb80ab373fcb1b33190cf5de994ad248d14ff244"),
        # the twisted rungs, and a grid whose mass grid 300x150 is not a
        # power of two
        (("--theta", "0.7"), "b07f4c139370293afd0252f0c088e0451232fdaca8444c42eb763b13a57b6099"),
        (("--grid", "300x300"), "af1297eafacaf5dab2ea6ddbdce9d4726c0e774757e7f27c8a7c76224dc20488"),
    ])
    def test_json_output_is_pinned(self, tmp_path, argv, sha256):
        out = tmp_path / "fit.json"
        assert main(["fit", *argv, "--format", "json", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestGaugedBytes:
    """The emitted bytes of ``distortion`` and of the gauge-reading audits,
    pinned as computed before the power gauges shared one formula and
    ``distortion`` read both grids from one evaluation."""

    @pytest.mark.parametrize("argv, sha256", [
        (("gstar", "linear", "uniform"), "590d940473303d0a2ea51f41e28e64726feb18eefe674ebc54d2eecda42a4ceb"),
        (("gstar", "linear", "invsq"), "542a0dff0a29b443b68746db7aeeb05f8987cd5779fd1116868ecf159516c657"),
        (("gstar", "square", "uniform"), "c16dfab2a351880d3aa3ce9e55cd8f9e9ffd3afd22c2dd9b7d1a916edd61c33e"),
        (("gstar", "square", "invsq"), "10acc563286ed58c84721dd698f3bd4b55403170a0b2b0c8ee374cd8c2d5c27d"),
        (("gstar", "power:3", "uniform"), "305ab0829ba094d4ac5bdf58ac0d9ad4b59edb675b5c8a7a3f2a5bc9416badee"),
        (("gstar", "power:3", "invsq"), "2316e61ca3390bf6aac4675183695616863422ed9143ea5611199c804b2637d5"),
        (("gstar", "flat", "uniform"), "5903cda52b2a841b92b665ef500236d50c5c478a0c47be057f7811e2fb0781d5"),
        (("gstar", "flat", "invsq"), "6321c591fa9179da455f19a737d341a74357f4b64cfbc93e15301c4f7d883bdf"),
        (("geps:0.01", "linear", "uniform"), "e69ab2f3e53d691eb1e5ebef7b54ae95385f54ca0b1da06941a2cae889cb32ad"),
        (("geps:0.01", "linear", "invsq"), "79afe1a97adafc221626413efe0c731b8664eaa1a24713d1a49a625c8f91bacf"),
        (("geps:0.01", "square", "uniform"), "a8a14bde036b94806132ae31b006c6fa16ce5f719d29533e4ac8bda00ac32913"),
        (("geps:0.01", "square", "invsq"), "c0f748b8c9cb96ded6c6b55a1cd6f9818baeea2253b11abd1c9031b467492ef3"),
        (("geps:0.01", "power:3", "uniform"), "28ba954ff3643aecc09f1415145e602ed23a4e06c6be8e58924fa92c40867551"),
        (("geps:0.01", "power:3", "invsq"), "ec64ccd5bb5a637d00cc44756e9d275c6320ef0c2a00ab1f7afd9e80579acff7"),
        (("geps:0.01", "flat", "uniform"), "2fac67b5fe7bedd3551495fbdcde6996be01d0c81e7b1ccd6783b76ba82f18cb"),
        (("geps:0.01", "flat", "invsq"), "c60b7faf4ecdb8e7be18928370c6979c5946f3622f0dd8c565f0e2413946b72c"),
        (("fstar", "linear", "uniform"), "8a0a4929fd9e2f5d3f7b6d0493c36bfa3b0df5afa6fbbf04e9fe479ea7e08da7"),
        (("fstar", "square", "uniform"), "bd4ef3ad3880a1d9a5b105b006ef196fad93b6239d40ee39df04ee691737529d"),
        (("fstar", "power:3", "uniform"), "6ad4093b4fd77dd11cbb892f55015eb2147bab4f56a7f7e6480d9cfea60f3f70"),
        (("fstar", "flat", "uniform"), "c7b21642e51b936fe84a9ecc564aae5544aa32e84b4e662d4737221d2cac6a8e"),
        (("feps:0.01", "linear", "uniform"), "a0c4aae9bb73cbbe79e733bbab1b03fcb5af27945404514966d6901c8b66edd1"),
        (("feps:0.01", "square", "uniform"), "56c5d8bccf9d9510ce6ebb1ede9f8a4dac54e483c8c0025d96f69bc9564b700e"),
        (("feps:0.01", "power:3", "uniform"), "29aa55d8311ec1786eb24e13757c7cf27d051ff146c4bbbff123c341ffc1132b"),
        (("feps:0.01", "flat", "uniform"), "0f6f28069b7e37df33d74d976ab9c4da35d41a5143256c35f47ed381265e6f89"),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
    def test_distortion_json_is_pinned(self, tmp_path, argv, sha256):
        family, gauge, density = argv
        out = tmp_path / "distortion.json"
        assert main(["distortion", "--map", family, "--gauge", gauge, "--density", density,
                     "--grid", "64x64", "--format", "json", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("lemma, gauge, code, sha256", [
        ("taylor", "square", 0, "45bb9a2832503f12b94adebdca2f1d4060a11768de67ead0fe84bfb764a44c3b"),
        ("taylor", "power:3", 0, "952fbf946f0515877776c3989ff1b99831ff5b75bb4063770015c31b755e8ce7"),
        ("taylor", "flat", 4, "f9994bcea462405c0e3771c823b8743fadc37ef9353695a96a6fd18539b23e1d"),
        ("k-l2", "square", 0, "1a59da9fd6c3b27f52659400f55b2b17ec79da72501d8875452eb8060ea09c15"),
        ("k-l2", "power:3", 0, "1b75cea488b941559a6bbd23afdd3fd0d48f253d075f26c9ea2cc6933fc750b9"),
        ("k-mean", "square", 0, "0b914d6ff1cee27b55d66f0eb59bd5abf1ffe82005b546322fb212357cfad94d"),
        ("k-mean", "power:3", 0, "b2b47e66a8cffc675675d3cfcf5ce77abad98e921eaf8da800ce429798280c74"),
        ("k-mean", "linear", 0, "99b8115cf2901e94d23d808421c8c7c8480034cd76f2418bdb15ba203f6d1573"),
    ])
    def test_audit_json_is_pinned(self, tmp_path, lemma, gauge, code, sha256):
        out = tmp_path / "audit.json"
        argv = ["audit", "--lemma", lemma, "--gauge", gauge, "--format", "json", "--out", str(out)]
        assert main(argv) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestReconstructBytes:
    """The emitted bytes of ``reconstruct``, pinned as computed before the
    area's near runs were summed one target at a time; the ``phi-eps`` pins
    were re-recorded when its field was first sampled once per ring.  Two of
    the grids have a number of angular cells that is not a multiple of the
    kernel's block, so a run starts mid-block and a misplaced pad moves the
    bits."""

    @pytest.mark.parametrize("argv, sha256", [
        (("--field", "conj"), "1d43477eb3068723bc01be647aa3ece9f7374a71f42d85340740db393a0da79d"),
        (("--field", "phi-eps:1e-3"),
         "3dbda839f1436a766ce7989bbea61b96a44055e24fe4ec5d3dc694ca3fe4134a"),
        (("--field", "phi-eps:2e-2", "--k", "3", "--grid", "100x70", "--seed", "5"),
         "99ea0b21faf036a799bc7cacd4f6483c5a0fee7bcf2b8f7555fd6267916d3627"),
        (("--field", "conj", "--grid", "16x4096", "--points", "8"),
         "b7d15bdbe21fd6ec65ca3c988ba53db058b67340f58a8e6f11d07cdd9ac36da6"),
    ], ids=["conj", "phi-eps", "phi-eps-100x70", "conj-16x4096"])
    def test_json_output_is_pinned(self, tmp_path, argv, sha256):
        out = tmp_path / "reconstruct.json"
        assert main(["reconstruct", *argv, "--format", "json", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestDistortion:
    def test_known_value(self):
        res = run("distortion", "--map", "gstar", "--gauge", "linear",
                  "--density", "invsq", "--grid", "256x256")
        assert res.returncode == 0
        header = res.stdout.splitlines()[0].split(",")
        row = res.stdout.splitlines()[1].split(",")
        value = float(row[header.index("value")])
        assert value == pytest.approx(8.710338369121956, rel=1e-9)

    def test_json_has_error_estimate(self):
        res = run("distortion", "--map", "gstar", "--gauge", "linear",
                  "--density", "invsq", "--grid", "128x128", "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["summary"]["error_estimate"] > 0

    def test_thin_annulus_keeps_its_area(self):
        # pi*(1 - q**2) cancels to 5e-11 relative at q = 0.999999, past the
        # grid's 1e-12 area check; the midpoint error of k/r on [q, 1] is
        # about 2e-17 relative at 64 rings, so only rounding is left
        q, k = 0.999999, 2.0
        res = run("distortion", "--map", "gstar", "--density", "invsq",
                  "--q", repr(q), "--grid", "64x64", "--format", "json")
        assert res.returncode == 0, res.stderr
        value = json.loads(res.stdout)["summary"]["value"]
        assert value == pytest.approx(2.0 * math.pi * k * -math.log(q), rel=1e-12)


class TestThinAnnulus:
    """At q = 0.999999 the break circle sqrt(q) lies 1.2e-13 from a ring
    edge of a 64-ring grid: it is snapped onto that edge, not spliced in
    beside it as a ring whose midpoint is inside the break check's 1e-12."""

    ARGS = ("--q", "0.999999", "--grid", "64x64", "--format", "json")

    def test_fit_deficits_are_eps_over_k_squared(self):
        res = run("fit", *self.ARGS)
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["summary"]["rows_used"] == 5
        for row in doc["rows"]:
            assert row["deficit"] == pytest.approx(row["eps"] / 4.0, rel=1e-6)

    def test_two_speed_distortion_has_its_closed_form(self):
        q, k, eps = 0.999999, 2.0, 0.01
        res = run("distortion", "--map", f"geps:{eps}", "--gauge", "square",
                  "--density", "invsq", *self.ARGS)
        assert res.returncode == 0, res.stderr
        value = json.loads(res.stdout)["summary"]["value"]
        # half the log-measure at k + sqrt(eps), half at k - sqrt(eps)
        want = 2.0 * math.pi * -math.log(q) * (k * k + eps)
        assert value == pytest.approx(want, rel=1e-10)


class TestAuditOutput:
    def test_k_mean_json(self):
        res = run("audit", "--lemma", "k-mean", "--map", "feps:0.01",
                  "--gauge", "square", "--grid", "128x16", "--format", "json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert set(doc) == {"params", "rows", "summary"}
        assert doc["summary"]["passed"] is True
        assert doc["summary"]["constant_C"] == pytest.approx(0.5)

    def test_alignment_row(self):
        res = run("audit", "--lemma", "alignment", "--map", "feps:0.01",
                  "--grid", "128x16", "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["summary"]["passed"] is True
        row = doc["rows"][0]
        assert row["absdiff_mass"] == pytest.approx(0.1 / 3.0, rel=1e-9)
        assert row["r"] == pytest.approx(2.0)


class TestReconstruct:
    def test_conjugation_summary(self):
        res = run("reconstruct", "--field", "conj", "--grid", "128x128",
                  "--nodes", "1024", "--points", "16", "--format", "json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["summary"]["median_residual"] < 1e-3
        assert doc["summary"]["max_residual"] < 1e-2
        assert "n_near_break" in doc["summary"]

    def test_summary_counts_the_masked_and_the_direct_cells(self, capsys):
        # 32 corner targets mask 4 cells each; of the other 130,944
        # cell-target pairs, 94,784 are summed term by term and the rest by
        # ring series.  Neither count depends on the lane or on timing.
        argv = ["reconstruct", "--field", "conj", "--grid", "64x64", "--format", "json"]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert (summary["masked_cells"], summary["direct_cells"]) == (128, 94_784)

    def test_phi_eps_field(self):
        res = run("reconstruct", "--field", "phi-eps:0.01", "--grid", "128x128",
                  "--nodes", "1024", "--points", "8", "--format", "json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["summary"]["median_residual"] < 1e-2

    def test_identity_is_tiny(self):
        res = run("reconstruct", "--field", "identity", "--grid", "64x64",
                  "--nodes", "1024", "--points", "8", "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["summary"]["max_residual"] < 1e-10

    # --k is checked as a stretch exponent before the image annulus [q**k, 1]
    # is built, so no refusal names the inner radius the user never typed
    @pytest.mark.parametrize("k", ["-1", "0.5"])
    def test_exponent_below_one_is_usage_error(self, capsys, k):
        assert main(["reconstruct", "--field", "conj", "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: k must be >= 1\n"
        assert captured.out == ""

    def test_underflowing_inner_radius_names_the_options(self, capsys):
        assert main(["reconstruct", "--field", "conj", "--k", "2000"]) == 2
        captured = capsys.readouterr()
        assert "underflows at q = 0.5, k = 2000.0" in captured.err
        assert "inner_radius" not in captured.err
        assert captured.out == ""


def test_importing_the_cli_leaves_fft_and_random_unimported():
    # start-up is most of a CLI run: numpy.fft (the Pompeiu far rings) and
    # numpy.random (the seeded targets and audits) are imported on first use
    code = "import sys, qclab.cli; print([m for m in ('numpy.fft', 'numpy.random') if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestInProcess:
    """Repeated ``main`` calls in one process share one parser."""

    ARGS = ["distortion", "--map", "gstar", "--grid", "16x16", "--format", "json"]

    def test_calls_after_a_usage_error_are_byte_identical(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["distortion", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        first_rc = main(self.ARGS)
        first = capsys.readouterr()
        second_rc = main(self.ARGS)
        second = capsys.readouterr()
        assert first_rc == second_rc == 0
        assert first.out == second.out == run(*self.ARGS).stdout
        assert first.err == second.err == ""
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["distortion", "--map", "gN:1.5"], "map token 'gN:1.5'"),
            (["distortion", "--map", "geps:x"], "map token 'geps:x'"),
            (["distortion", "--map", "feps:"], "map token 'feps:'"),
            (["reconstruct", "--field", "Phi-Eps:x"], "field token 'Phi-Eps:x'"),
        ],
        ids=["gN", "geps", "feps", "phi-eps"],
    )
    def test_malformed_number_token(self, capsys, argv, token):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: malformed {token}\n"
        assert captured.out == ""


class TestCountMessages:
    """A refused count names the option that set it."""

    @pytest.mark.parametrize(
        "argv, option, least",
        [
            (["audit", "--lemma", "taylor", "--samples", "0"], "samples", 1),
            (["audit", "--lemma", "theta", "--samples", "0"], "samples", 1),
            (["reconstruct", "--field", "conj", "--nodes", "4"], "nodes", 8),
            (["reconstruct", "--field", "conj", "--points", "0"], "points", 1),
        ],
        ids=["taylor-samples", "theta-samples", "nodes", "points"],
    )
    def test_is_usage_error(self, capsys, argv, option, least):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {option} must be an integer >= {least}\n"
        assert captured.out == ""


def _assert_grid_honours(family, domain, grid):
    """``grid`` splices in ``family``'s breaks, and the functionals accept it."""
    assert grid.domain is domain
    assert grid.mandatory_breaks == grid.breaks_of(family)
    mean_distortion(family, ConvexGauge.parse("linear"), grid)  # checks the breaks


class TestMapDomains:
    """Each map comes with its domain, and ``grid_for`` builds a grid honouring it."""

    @pytest.mark.parametrize(
        "token, kind",
        [
            ("gstar", AnnulusDomain),
            ("gn:2", AnnulusDomain),
            ("geps:0.01", AnnulusDomain),
            ("fstar", RectangleDomain),
            ("feps:0.01", RectangleDomain),
        ],
    )
    def test_map_tokens(self, token, kind):
        args = build_parser().parse_args(["distortion", "--map", token])
        family, domain = _parse_map(args.map, args)
        assert type(domain) is kind
        _assert_grid_honours(family, domain, grid_for(family, domain, 16, 8))

    @pytest.mark.parametrize("field", ["identity", "conj", "phi-eps:1e-3"])
    def test_reconstruct_fields(self, monkeypatch, capsys, field):
        built = []

        def recording(family, domain, n_primary, n_secondary):
            grid = grid_for(family, domain, n_primary, n_secondary)
            built.append((family, domain, grid))
            return grid

        monkeypatch.setattr(cli, "grid_for", recording)
        argv = ["reconstruct", "--field", field, "--grid", "16x16", "--nodes", "512",
                "--points", "4"]
        assert main(argv) == 0
        capsys.readouterr()
        ((family, domain, grid),) = built
        assert type(domain) is AnnulusDomain
        _assert_grid_honours(family, domain, grid)


def _subparsers(parser):
    """``{name: subparser}`` of a parser's subcommands."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


ROUTING = {"command", "func", "out", "format"}


class TestParamsEcho:
    """``params`` is every option of the subcommand, as parsed, plus the version."""

    # one cheap run per subcommand, and the alignment audit, whose row and
    # summary differ from the other lemmas
    RUNS = {
        "distortion": ["distortion", "--map", "fstar", "--grid", "16x16"],
        "fit": ["fit", "--grid", "16x16", "--eps", "1e-3,1e-2"],
        "audit": ["audit", "--lemma", "theta", "--samples", "100"],
        "audit-alignment": ["audit", "--lemma", "alignment", "--grid", "16x8"],
        "reconstruct": ["reconstruct", "--field", "identity", "--grid", "16x16",
                        "--nodes", "512", "--points", "4"],
    }

    @staticmethod
    def doc(capsys, argv):
        assert main(argv + ["--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "first, second",
        [
            (["audit", "--lemma", "k-l2", "--grid", "32x8"],
             ["audit", "--lemma", "k-l2", "--grid", "64x8"]),
            (["audit", "--lemma", "k-l2", "--grid", "32x8", "--map", "feps:0.01"],
             ["audit", "--lemma", "k-l2", "--grid", "32x8", "--map", "feps:0.02"]),
            (["distortion", "--map", "fstar", "--grid", "16x16", "--n", "0.0"],
             ["distortion", "--map", "fstar", "--grid", "16x16", "--n", "0.3"]),
        ],
        ids=["k-l2-grid", "k-l2-map", "distortion-n"],
    )
    def test_different_runs_print_different_params(self, capsys, first, second):
        assert self.doc(capsys, first)["params"] != self.doc(capsys, second)["params"]

    def test_keys_are_the_declared_options(self, capsys):
        subs = _subparsers(build_parser())
        assert set(subs) == {argv[0] for argv in self.RUNS.values()}
        for argv in self.RUNS.values():
            sub = subs[argv[0]]
            declared = {a.dest for a in sub._actions if a.default is not argparse.SUPPRESS}
            declared |= set(sub._defaults)
            expected = (declared - ROUTING) | {"version"}
            assert set(self.doc(capsys, argv)["params"]) == expected, argv[0]

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_params_and_summary_share_no_key(self, capsys, name):
        # the CSV footer merges them into one sorted list
        doc = self.doc(capsys, self.RUNS[name])
        assert not set(doc["params"]) & set(doc["summary"])

    def test_values_are_echoed_as_typed(self, capsys):
        argv = ["audit", "--lemma", "taylor", "--samples", "100", "--gauge", "Square"]
        params = self.doc(capsys, argv)["params"]
        assert params["gauge"] == "Square" and params["samples"] == 100
        assert params["c"] is None
        assert main(argv) == 0
        footer = capsys.readouterr().out.splitlines()
        assert "# c=" in footer and "# gauge=Square" in footer

    def test_out_path_is_not_echoed(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            assert main(self.RUNS["fit"] + ["--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestAuditOptions:
    """``audit`` refuses the options its lemma does not read, and a non-finite ``--c``."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--lemma", "theta", "--samples", "200", "--c", "5", "--map", "gstar",
              "--grid", "1x1"], "theta audit does not read --c, --grid, --map;"),
            (["--lemma", "k-l2", "--c", "5"], "k-l2 audit does not read --c;"),
            (["--lemma", "k-l2", "--q", "0.3", "--theta", "5", "--winding", "7"],
             "k-l2 audit does not read --q, --theta, --winding;"),
            (["--lemma", "alignment", "--gauge", "flat"],
             "alignment audit does not read --gauge;"),
            (["--lemma", "taylor", "--c=-inf"], "curvature c must be a finite number"),
            (["--lemma", "taylor", "--c=nan"], "curvature c must be a finite number"),
        ],
        ids=["theta", "k-l2-c", "k-l2-annulus", "alignment", "c-minus-inf", "c-nan"],
    )
    def test_is_usage_error(self, capsys, argv, message):
        assert main(["audit"] + argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_every_declared_option_is_read(self):
        audit = _subparsers(build_parser())["audit"]
        (lemma,) = [a for a in audit._actions if a.dest == "lemma"]
        assert set(_AUDIT_READS) == set(lemma.choices)
        declared = {a.dest for a in audit._actions if a.default is not argparse.SUPPRESS}
        read = set().union(*_AUDIT_READS.values())
        assert read == declared - {"lemma", "out", "format", "seed"}

    def test_benchmark_sweep_sets_only_read_options(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        op = next(workloads.op_stream("sweep", 0))
        audits = [call.argv[1:] for call in op.calls if call.argv[0] == "audit"]
        assert audits
        for argv in audits:
            args = build_parser().parse_args(["audit", *argv])
            given = {tok[2:] for tok in argv if tok.startswith("--")}
            assert given - {"lemma", "seed"} <= set(_AUDIT_READS[args.lemma]), argv
