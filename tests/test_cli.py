"""Command-line interface: exit codes, output formats, and determinism."""

import json
import subprocess
import sys

import pytest

from qclab.cli import build_parser, main

CMD = [sys.executable, "-m", "qclab"]


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

    def test_passing_audit(self):
        res = run("audit", "--lemma", "gn-gap", "--q", "0.5", "--k", "2",
                  "--winding", "1", "--grid", "128x128")
        assert res.returncode == 0


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
