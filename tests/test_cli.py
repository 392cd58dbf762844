"""End-to-end tests of the command line interface.

Subcommands run in process through main(argv); one subprocess test
checks the installed module entry point.  File outputs must be byte
reproducible across runs; manifests carry the only timestamp and are
compared structurally instead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditprod
from quditprod import (
    ComplexShape,
    complex_from_text,
    complex_to_text,
    count_rank_matrices,
    matrix_from_text,
    mc_uniform_low_weight,
    random_boundary,
    trial_rng,
    validate,
)
from quditprod import gf
from quditprod.gf import FieldSpec
from quditprod import cli
from quditprod.cli import MODE_FLAGS, build_parser, main

from support import FIELD3


def run(args, tmp_path=None):
    return main([str(a) for a in args])


def sample(tmp_path, name, seed=0, dim=3, n=3, H=1):
    out = tmp_path / name
    assert run(["sample-complex", "--dim", dim, "--n", n, "--H", H,
                "--seed", seed, "--out", out]) == 0
    return out


class TestTopLevel:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_every_module_all_entry_resolves(self):
        """The benchmark tracer wraps every ``__all__`` name of every
        module, so a stale entry would break it.  ``__main__`` runs the
        CLI on import and has no ``__all__``."""
        for info in pkgutil.iter_modules(quditprod.__path__):
            if info.name == "__main__":
                continue
            mod = importlib.import_module(f"quditprod.{info.name}")
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), f"quditprod.{info.name}.__all__ names missing {name!r}"

    def test_every_mode_flag_is_registered(self):
        subcommands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        for command, modes in MODE_FLAGS.items():
            dests = {a.dest for a in subcommands[command]._actions}
            for required, optional in modes.values():
                assert {*required, *optional} <= dests, command

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        """One parser serves every in-process call: after an argparse
        refusal (exit 2) and a mode-flag refusal (exit 1), a valid count
        prints what a fresh process prints."""
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as refused:
            main(["count", "--what", "Q"])
        assert refused.value.code == 2
        assert main(["count", "--what", "E", "--A", "2", "--B", "2", "--R", "1", "--H", "7"]) == 1
        capsys.readouterr()
        argv = ["count", "--what", "E", "--A", "2", "--B", "2", "--R", "1"]
        assert main(argv) == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "quditprod", *argv], capture_output=True, text=True, check=True
        )
        assert capsys.readouterr().out == fresh.stdout

    def test_version_via_module_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quditprod", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"quditprod {quditprod.__version__}"

    def test_closed_stdout_exits_1_silently(self):
        """A stdout whose reader is gone is not bad input: no error line
        and no shutdown traceback.  Run in a subprocess, since main
        points the closed fd 1 at devnull."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quditprod", "count", "--what", "E", "--dim", "3",
                 "--A", "2", "--B", "2", "--R", "1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1


class TestSampleComplex:
    def test_output_parses_and_validates(self, tmp_path, capsys):
        out = sample(tmp_path, "c.txt", seed=5)
        c = complex_from_text(out.read_text())
        assert validate(c) == []
        assert c.dim_plus == 3

    def test_reproducible_bytes(self, tmp_path):
        a = sample(tmp_path, "a.txt", seed=7)
        b = sample(tmp_path, "b.txt", seed=7)
        assert a.read_bytes() == b.read_bytes()
        assert sample(tmp_path, "c.txt", seed=8).read_bytes() != a.read_bytes()

    def test_manifest_contents(self, tmp_path):
        out = sample(tmp_path, "c.txt", seed=5)
        manifest = json.loads((tmp_path / "c.txt.manifest.json").read_text())
        assert manifest["tool"] == "quditprod"
        assert manifest["version"] == quditprod.__version__
        assert manifest["subcommand"] == "sample-complex"
        assert manifest["parameters"]["seed"] == 5
        assert manifest["outputs"] == [str(out)]
        assert "created" in manifest

    def test_rho_form(self, tmp_path):
        out = tmp_path / "r.txt"
        assert run(["sample-complex", "--dim", 3, "--n", 6, "--rho", "1/3",
                    "--seed", 1, "--out", out]) == 0
        c = complex_from_text(out.read_text())
        assert c.dim_plus == 6

    def test_shape_required(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run(["sample-complex", "--dim", 3, "--n", 3,
                    "--seed", 1, "--out", out]) == 1
        assert capsys.readouterr().err == "error: one of H or rho must be given\n"

    def test_h_and_rho_together_refused(self, tmp_path):
        out = tmp_path / "x.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "quditprod", "sample-complex", "--dim", "3", "--n", "3",
             "--H", "1", "--rho", "1/3", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: give only one of H or rho\n"
        assert not out.exists()

    def test_composite_dim_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run(["sample-complex", "--dim", 4, "--n", 3, "--H", 1,
                    "--seed", 1, "--out", out]) == 1
        assert "error" in capsys.readouterr().err


class TestPipeline:
    def test_product_and_css_extract(self, tmp_path):
        c1 = sample(tmp_path, "c1.txt", seed=5)
        c2 = sample(tmp_path, "c2.txt", seed=6)
        prod = tmp_path / "prod.txt"
        assert run(["product", "--in1", c1, "--in2", c2, "--out", prod]) == 0
        pc = complex_from_text(prod.read_text())
        assert validate(pc) == []
        assert pc.dim_plus == 18

        code = tmp_path / "code.json"
        assert run(["css-extract", "--in", prod, "--out", code]) == 0
        payload = json.loads(code.read_text())
        assert payload["dim"] == 3
        assert payload["n_phys"] == 18
        assert payload["k"] == 2
        assert payload["stab_weight"] <= 6
        z = matrix_from_text(payload["z_gens"])
        x = matrix_from_text(payload["x_gens"])
        assert (x @ z).is_zero()

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert run(["product", "--in1", tmp_path / "nope1.txt",
                    "--in2", tmp_path / "nope2.txt",
                    "--out", tmp_path / "p.txt"]) == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_input_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a complex\n")
        assert run(["css-extract", "--in", bad, "--out", tmp_path / "c.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_trailing_content_fails_cleanly(self, tmp_path, capsys):
        """A complex file with a line after its blocks exits 1; blank
        trailing lines are accepted."""
        c = sample(tmp_path, "c.txt")
        out = tmp_path / "code.json"
        c.write_text(c.read_text() + "\n\n")
        assert run(["css-extract", "--in", c, "--out", out]) == 0
        out.unlink()
        c.write_text(c.read_text() + "extra\n")
        capsys.readouterr()
        assert run(["css-extract", "--in", c, "--out", out]) == 1
        assert capsys.readouterr().err == "error: trailing content after the complex blocks\n"
        assert not out.exists()

    def test_blocks_of_unequal_rank_fail_as_a_header_mismatch(self, tmp_path, capsys):
        """A valid complex whose blocks differ in rank exits 1 with the
        reader's refusal and writes no code file."""
        c = tmp_path / "c.txt"
        c.write_text("3 1 1 0\n3 1 1\n1\n3 1 1\n0\n")
        out = tmp_path / "code.json"
        assert run(["css-extract", "--in", c, "--out", out]) == 1
        assert capsys.readouterr().err == "error: header shape disagrees with the matrices\n"
        assert not out.exists()
        assert not (tmp_path / "code.json.manifest.json").exists()

    def test_oversized_matrix_header_fails_cleanly(self, tmp_path):
        # The header asks for a 1 x 10^11 block; the one row has 1 entry.
        bad = tmp_path / "huge.txt"
        bad.write_text("3 1 1 2\n3 1 100000000000\n0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "quditprod", "css-extract", "--in", str(bad),
             "--out", str(tmp_path / "c.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: row 0 has 1 entries, expected 100000000000")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "--experiment", "kernel", "--dim", "3", "--n", "3", "--H", "1", "--c", "1/0"],
            ["mc", "--experiment", "kernel", "--dim", "3", "--n", "3", "--rho", "1/0", "--c", "1/2"],
            ["mc", "--experiment", "ulw", "--dim", "3", "--nprime", "2", "--rank", "1",
             "--cprime", "1/0"],
            ["sample-complex", "--dim", "3", "--n", "3", "--rho", "1/0"],
        ],
        ids=["mc-c", "mc-rho", "mc-cprime", "sample-complex-rho"],
    )
    def test_zero_denominator_fails_cleanly(self, tmp_path, argv):
        if argv[0] == "sample-complex":
            extra = ["--out", str(tmp_path / "c.txt")]
        else:
            extra = ["--trials", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "quditprod", *argv, *extra, "--seed", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


@st.composite
def damaged_complex_texts(draw):
    """The text of a seeded complex over GF(3/5/7), either cut before
    the last entry of its last row or with one token replaced by a
    token no valid file holds (dropped, non-integer or negative)."""
    order = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 4))
    L = draw(st.integers(0, n // 2))
    c, _, _ = random_boundary(
        ComplexShape(n, n - 2 * L, L), FieldSpec(order), trial_rng(draw(st.integers(0, 99)), 0)
    )
    text = complex_to_text(c)
    if draw(st.booleans()):
        return text[: draw(st.integers(0, text.rstrip().rindex(" ")))]
    tokens = [line.split(" ") for line in text.splitlines()]
    i = draw(st.integers(0, len(tokens) - 1))
    j = draw(st.integers(0, len(tokens[i]) - 1))
    tokens[i][j] = draw(st.sampled_from(["", "x", "-1", "1/2"]))
    return "\n".join(" ".join(t for t in line if t) for line in tokens) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    text=damaged_complex_texts(),
    command=st.sampled_from(["product", "css-extract", "distance", "reduce"]),
)
def test_damaged_input_file_exits_1(text, command):
    """Every subcommand that reads a complex file refuses a truncated or
    corrupted one with exit 1 and an ``error:`` line, raising nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        bad = root / "bad.txt"
        bad.write_text(text)
        good = sample(root, "good.txt")
        out = root / "out"
        argv = {
            "product": ["product", "--in1", bad, "--in2", good, "--out", out],
            "css-extract": ["css-extract", "--in", bad, "--out", out],
            "distance": ["distance", "--in", bad, "--out", out],
            "reduce": ["reduce", "--in", bad, "--nprime", 1, "--out", out],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(argv) == 1
        assert err.getvalue().startswith("error: ")
        assert not out.exists()
        assert not (root / "out.manifest.json").exists()


@pytest.mark.parametrize(
    "command", ["sample-complex", "product", "css-extract", "distance", "reduce", "mc"]
)
def test_manifest_names_its_one_output(command, tmp_path):
    """Every file-writing subcommand's manifest records the subcommand,
    its parameters and the one output it wrote."""
    c1, c2 = sample(tmp_path, "c1.txt", seed=0), sample(tmp_path, "c2.txt", seed=1)
    out = tmp_path / "out"
    argv, params = {
        "sample-complex": (
            ["--dim", 3, "--n", 3, "--H", 1, "--seed", 4, "--out", out],
            {"dim": 3, "n": 3, "H": 1, "rho": None, "seed": 4},
        ),
        "product": (["--in1", c1, "--in2", c2, "--out", out], {"in1": str(c1), "in2": str(c2)}),
        "css-extract": (["--in", c1, "--out", out], {"in": str(c1)}),
        "distance": (["--in", c1, "--out", out], {"in": str(c1), "mode": "exhaustive"}),
        # trial_rng(0, 0) draws a complex that is good for n' = 2
        "reduce": (
            ["--in", c1, "--nprime", 2, "--out", out], {"in": str(c1), "nprime": 2, "check": False}
        ),
        "mc": (
            ["--experiment", "ulw", "--dim", 3, "--nprime", 2, "--rank", 1, "--cprime", "1/2",
             "--trials", 5, "--seed", 0, "--csv", out],
            {"experiment": "ulw", "dim": 3, "trials": 5, "seed": 0,
             "nprime": "2", "rank": "1", "cprime": "1/2"},
        ),
    }[command]
    assert run([command, *argv]) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["subcommand"] == command
    assert manifest["parameters"] == params
    assert manifest["outputs"] == [str(out)]
    assert out.stat().st_size > 0


@pytest.mark.parametrize("target", ["", "nodir/out", "folder"], ids=["empty", "no-dir", "a-dir"])
@pytest.mark.parametrize(
    "command", ["sample-complex", "product", "css-extract", "distance", "reduce", "mc"]
)
def test_unwritable_output_path_refused_before_any_work(command, target, tmp_path, monkeypatch,
                                                        capsys):
    """An ``--out`` or ``--csv`` that is empty, names a directory, or
    lies in a directory that does not exist is refused by name before
    the subcommand runs: exit 1, one error line, nothing on stdout and
    no file written, manifest included (an empty path would put it at
    ``.manifest.json`` in the working directory)."""
    c1 = sample(tmp_path, "c1.txt", seed=0)
    (tmp_path / "folder").mkdir()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))
    argv, flag = {
        "sample-complex": (["--dim", 3, "--n", 3, "--H", 1, "--seed", 4], "--out"),
        "product": (["--in1", c1, "--in2", c1], "--out"),
        "css-extract": (["--in", c1], "--out"),
        "distance": (["--in", c1], "--out"),
        "reduce": (["--in", c1, "--nprime", 2], "--out"),
        "mc": (["--experiment", "ulw", "--dim", 3, "--nprime", 2, "--rank", 1, "--cprime", "1/2",
                "--trials", 5, "--seed", 0], "--csv"),
    }[command]
    assert run([command, *argv, flag, target]) == 1
    message = f"error: {flag} {target!r} is not a file in an existing directory\n"
    assert capsys.readouterr() == ("", message)
    assert sorted(tmp_path.rglob("*")) == before


def test_mc_that_cannot_save_prints_no_report(tmp_path, monkeypatch, capsys):
    """mc saves its CSV before it prints its report, so a write that
    fails late leaves one error line and no report."""
    def full(out, text, subcommand, params):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_save", full)
    assert run(["mc", "--experiment", "ulw", "--dim", 3, "--nprime", 2, "--rank", 1,
                "--cprime", "1/2", "--trials", 5, "--seed", 0, "--csv", tmp_path / "u.csv"]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["sample-complex", "--H", "0", "--seed", "0", "--out"],
        ["mc", "--experiment", "goodness", "--H", "0", "--nprime", "5", "--trials", "2",
         "--seed", "0", "--csv"],
    ],
    ids=["sample-complex", "mc-goodness"],
)
def test_size_the_machine_cannot_allocate_exits_1(argv, tmp_path, capsys):
    """A sector dimension of 10^8 asks numpy for blocks of petabytes,
    beyond any address space, so the allocation fails at once, with
    nothing allocated: one error line and no output, manifest or
    report."""
    out = tmp_path / "out"
    assert run([argv[0], "--dim", 3, "--n", 10**8, *argv[1:], out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_memory_error_without_a_message_names_itself(tmp_path, monkeypatch, capsys):
    """A MemoryError raised by Python itself has no message; the error
    line still says what failed."""
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "product", exhausted)
    c1 = sample(tmp_path, "c1.txt")
    capsys.readouterr()
    assert run(["product", "--in1", c1, "--in2", c1, "--out", tmp_path / "p.txt"]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.parametrize("H", [[], ["--H", "1"]], ids=["rho-alone", "with-H"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sample-complex", "--dim", "3", "--n", "3", "--seed", "0", "--out"],
        ["mc", "--experiment", "goodness", "--dim", "3", "--n", "3", "--nprime", "2",
         "--trials", "3", "--seed", "0", "--csv"],
    ],
    ids=["sample-complex", "mc-goodness"],
)
def test_empty_rho_is_a_bad_fraction(argv, H, tmp_path, capsys):
    """An empty --rho is given, so it is parsed, with --H or without:
    both subcommands refuse it before any output or manifest."""
    out = tmp_path / "out"
    assert run([*argv, out, *H, "--rho", ""]) == 1
    assert capsys.readouterr() == ("", "error: Invalid literal for Fraction: ''\n")
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


class TestDistance:
    def test_report_file_is_deterministic(self, tmp_path, capsys):
        cfile = sample(tmp_path, "c.txt", seed=5)
        r1 = tmp_path / "d1.json"
        r2 = tmp_path / "d2.json"
        assert run(["distance", "--in", cfile, "--out", r1]) == 0
        assert run(["distance", "--in", cfile, "--out", r2]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        payload = json.loads(r1.read_text())
        assert payload["method"] == "exhaustive"
        assert payload["k"] == 1
        assert payload["d_z"] >= 1 and payload["d_x"] >= 1
        # wall time never lands in the artifact
        assert "elapsed" not in payload
        manifest = json.loads((tmp_path / "d1.json.manifest.json").read_text())
        assert manifest["parameters"] == {"in": str(cfile), "mode": "exhaustive"}

    def test_stdout_report_carries_timing(self, tmp_path, capsys):
        cfile = sample(tmp_path, "c.txt", seed=5)
        assert run(["distance", "--in", cfile, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "elapsed" in payload
        assert payload["elapsed"] >= 0

    def test_bounded_mode(self, tmp_path, capsys):
        cfile = sample(tmp_path, "c.txt", seed=5)
        assert run(["distance", "--in", cfile, "--mode", "bounded",
                    "--wmax", 3, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "bounded"
        assert payload["d_z_lower"] >= 1


class TestReduce:
    def test_reduce_with_check(self, tmp_path):
        # trial_rng(0, 0) draws a complex that is good for n' = 2
        cfile = sample(tmp_path, "c.txt", seed=0)
        out = tmp_path / "red.txt"
        assert run(["reduce", "--in", cfile, "--nprime", 2,
                    "--out", out, "--check"]) == 0
        q = complex_from_text(out.read_text())
        assert q.dim_plus == 1
        assert validate(q) == []

    def test_failed_check_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """A failed --check exits 1 with one stderr line per problem and
        leaves neither the quotient nor its manifest behind."""
        monkeypatch.setattr(cli, "reduced_kerim_check", lambda rc: ["-+ block: im d' != phi(im d)"])
        cfile = sample(tmp_path, "c.txt", seed=0)
        out = tmp_path / "red.txt"
        assert run(["reduce", "--in", cfile, "--nprime", 2,
                    "--out", out, "--check"]) == 1
        assert capsys.readouterr().err == "check failed: -+ block: im d' != phi(im d)\n"
        assert not out.exists()
        assert not (tmp_path / "red.txt.manifest.json").exists()

    def test_unwritable_quotient_writes_nothing(self, tmp_path, capsys):
        """A quotient whose sectors differ in dimension cannot be
        serialized: the command exits 1 with the refusal and leaves
        neither an empty file nor a manifest behind."""
        cfile = sample(tmp_path, "c.txt", seed=2, dim=5, n=5)
        capsys.readouterr()
        out = tmp_path / "r.txt"
        assert run(["reduce", "--in", cfile, "--nprime", 3,
                    "--check", "--out", out]) == 1
        assert capsys.readouterr().err == "error: serialization requires equal sector dimensions\n"
        assert not out.exists()
        assert not (tmp_path / "r.txt.manifest.json").exists()

    def test_invalid_nprime(self, tmp_path, capsys):
        cfile = sample(tmp_path, "c.txt", seed=0)
        assert run(["reduce", "--in", cfile, "--nprime", 1,
                    "--out", tmp_path / "r.txt"]) == 1
        assert "error" in capsys.readouterr().err


class TestCount:
    @pytest.mark.parametrize(
        "args, expected",
        [
            (["--what", "E", "--A", 2, "--B", 2, "--R", 1], 32),
            (["--what", "Eext", "--a", 1, "--b", 1, "--r", 1,
              "--A", 2, "--B", 2, "--R", 1], 9),
            (["--what", "Z", "--H", 1, "--L", 1, "--rplus", 1, "--rminus", 1], 1348),
            (["--what", "Gamma", "--n", 3, "--nprime", 2, "--H", 1, "--L", 1,
              "--Rplus", 1, "--Rminus", 1], 1024),
        ],
    )
    def test_count_goldens(self, args, expected, capsys):
        assert run(["count", "--dim", 3, *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == expected
        assert payload["dim"] == 3

    def test_verify_passes(self, capsys):
        assert run(["count", "--dim", 3, "--verify"]) == 0
        assert "all count oracles agree" in capsys.readouterr().out

    @pytest.mark.parametrize("dim, skipped", [(3, 0), (5, 0), (7, 2), (19, 14)])
    def test_verify_skips_only_what_the_oracles_refuse(self, dim, skipped, capsys):
        """GF(3) and GF(5) check every instance.  Over GF(7) the full 3x3
        space (7^9) and the cycle census (7^10) are above the enumeration
        limit.  Over GF(19) a 3-wide subspace table is above its cap, so
        even a 3x3 extension of 5 free entries (19^5) is skipped, and the
        reduced-cycle census (19^8) is above the enumeration limit."""
        assert run(["count", "--dim", dim, "--verify"]) == 0
        note = f" ({skipped} enumerations over the enumeration or subspace-table cap skipped)"
        assert capsys.readouterr().out == "all count oracles agree" + (note if skipped else "") + "\n"

    @pytest.mark.parametrize("dim", [3, 7])
    def test_verify_fails_on_a_wrong_closed_form(self, dim, capsys, monkeypatch):
        def wrong(A, B, R, field):
            return count_rank_matrices(A, B, R, field) + 1

        monkeypatch.setattr(cli, "count_rank_matrices", wrong)
        assert run(["count", "--dim", dim, "--verify"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mismatch: rank count (1,1,0)" in captured.err

    @pytest.mark.parametrize(
        "form, first",
        [
            ("count_rank_extensions", "extension count (1,1,0)->(1,1,0)"),
            ("count_cycles_by_rank", "cycle count (1,1,0,0)"),
            ("count_reduced_cycles", "reduced cycle count (3,2,1,1,0,0)"),
        ],
    )
    def test_verify_checks_every_closed_form(self, form, first, capsys, monkeypatch):
        """Each closed form the test above leaves out, made wrong, fails
        the run at its first instance."""
        right = getattr(cli, form)
        monkeypatch.setattr(cli, form, lambda *args: right(*args) + 1)
        assert run(["count", "--dim", 3, "--verify"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"mismatch: {first}: ")

    def test_verify_counts_each_refusal_as_a_skip(self, capsys, monkeypatch):
        """With no enumeration allowed, every oracle refuses: the 9 rank
        counts, the 54 extension counts and the two cycle censuses are
        skipped, and nothing fails."""
        monkeypatch.setattr(gf, "ENUMERATION_LIMIT", 0)
        assert run(["count", "--dim", 3, "--verify"]) == 0
        note = " (65 enumerations over the enumeration or subspace-table cap skipped)"
        assert capsys.readouterr().out == "all count oracles agree" + note + "\n"

    def test_count_above_the_int_digit_limit_prints(self, capsys):
        """A count of about 4770 digits prints whole, and main leaves the
        int-to-str digit limit as it found it."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        assert run(["count", "--dim", 3, "--what", "E", "--A", 100, "--B", 100, "--R", 100]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        digits = json.loads(capsys.readouterr().out, parse_int=str)["count"]
        assert len(digits) > 4300
        assert int(Decimal(digits)) == count_rank_matrices(100, 100, 100, FIELD3)

    def test_what_required_without_verify(self, capsys):
        assert run(["count", "--dim", 3]) == 1
        assert "--what" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--what", "E", "--A", 2], "--B, --R"),
            (["--what", "Z", "--rplus", 1, "--rminus", 1], "--H, --L"),
            (["--what", "Gamma", "--n", 3, "--nprime", 2], "--H, --L, --Rplus, --Rminus"),
            (["--what", "Gamma", "--n", 3, "--nprime", 4, "--H", 1, "--L", 1,
              "--Rplus", 0, "--Rminus", 0], "need n_prime <= n"),
        ],
    )
    def test_missing_count_flags_fail_cleanly(self, args, message, capsys):
        assert run(["count", "--dim", 3, *args]) == 1
        assert message in capsys.readouterr().err


class TestMonteCarlo:
    def test_ulw_matches_library_call(self, tmp_path, capsys):
        csv_path = tmp_path / "ulw.csv"
        assert run(["mc", "--experiment", "ulw", "--dim", 3, "--nprime", 2,
                    "--rank", 1, "--cprime", "1/2", "--trials", 50,
                    "--seed", 21, "--csv", csv_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        rep = mc_uniform_low_weight(FIELD3, 2, 1, Fraction(1, 2), 50, 21)
        assert payload["successes"] == rep.successes
        assert payload["estimate"] == rep.estimate
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("experiment,")
        assert (tmp_path / "ulw.csv.manifest.json").exists()

    def test_goodness_needs_nprime(self, capsys):
        assert run(["mc", "--experiment", "goodness", "--dim", 3, "--n", 3,
                    "--H", 1, "--trials", 5, "--seed", 1]) == 1
        assert "nprime" in capsys.readouterr().err

    def test_kernel_needs_c(self, capsys):
        assert run(["mc", "--experiment", "kernel", "--dim", 3, "--n", 3,
                    "--H", 1, "--trials", 5, "--seed", 1]) == 1
        assert "--c" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, extra", [("kernel", ["--c", "1/2"]), ("goodness", ["--nprime", "2"])]
    )
    def test_h_and_rho_together_refused(self, experiment, extra):
        proc = subprocess.run(
            [sys.executable, "-m", "quditprod", "mc", "--experiment", experiment, "--dim", "3",
             "--n", "3", "--H", "1", "--rho", "1/3", *extra, "--trials", "5", "--seed", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: give only one of H or rho\n"
        assert proc.stdout == ""

    def test_kernel_small_run(self, capsys):
        assert run(["mc", "--experiment", "kernel", "--dim", 3, "--n", 3,
                    "--H", 1, "--c", "1/2", "--trials", 20, "--seed", 7]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 20
        assert 0 <= payload["successes"] <= 20

    @pytest.mark.parametrize(
        "argv",
        [
            ["--experiment", "kernel", "--n", "6", "--rho", "1/3", "--c", "1/3"],
            ["--experiment", "goodness", "--n", "5", "--H", "1", "--nprime", "4"],
            ["--experiment", "ulw", "--nprime", "3", "--rank", "2", "--cprime", "1/3"],
        ],
        ids=["kernel", "goodness", "ulw"],
    )
    def test_manifest_reruns_its_csv(self, argv, tmp_path):
        """The mc manifest's parameters are the flags given: the argv
        rebuilt from them writes the same CSV bytes."""
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert run(["mc", "--dim", 5, *argv, "--trials", 30, "--seed", 3, "--csv", first]) == 0
        params = json.loads((tmp_path / "first.csv.manifest.json").read_text())["parameters"]
        assert params == {
            "dim": 5, "trials": 30, "seed": 3,
            **{key.lstrip("-"): value for key, value in zip(argv[::2], argv[1::2])},
        }
        rebuilt = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
        proc = subprocess.run(
            [sys.executable, "-m", "quditprod", "mc", *rebuilt, "--csv", str(again)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-complex", "--dim", "3", "--n", "3", "--H", "1", "--out"],
            ["mc", "--experiment", "kernel", "--dim", "3", "--n", "3", "--H", "1", "--c", "1/2",
             "--trials", "5", "--csv"],
            ["mc", "--experiment", "ulw", "--dim", "3", "--nprime", "2", "--rank", "1",
             "--cprime", "1/2", "--trials", "5", "--csv"],
        ],
        ids=["sample-complex", "mc-kernel", "mc-ulw"],
    )
    def test_negative_seed_refused_by_name(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([*argv, out, "--seed", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: --seed must be non-negative, got -1\n")
        assert not out.exists()
        assert not (tmp_path / "out.manifest.json").exists()

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["mc", "--experiment", "ulw", "--nprime", "2", "--rank", "1", "--cprime", "1/2",
              "--n", "7", "--rho", "abc"], "ulw experiment does not take --n, --rho"),
            (["mc", "--experiment", "kernel", "--n", "3", "--H", "1", "--c", "1/2",
              "--rank", "1"], "kernel experiment does not take --rank"),
            (["mc", "--experiment", "goodness", "--n", "3", "--H", "1", "--nprime", "2",
              "--c", "1/2"], "goodness experiment does not take --c"),
            (["count", "--what", "E", "--A", "2", "--B", "2", "--R", "1", "--H", "7"],
             "count --what E does not take --H"),
            (["count", "--verify", "--what", "Z"], "count --verify does not take --what"),
            (["count", "--verify", "--A", "2"], "count --verify does not take --A"),
            (["distance", "--mode", "exhaustive", "--wmax", "2"],
             "distance --mode exhaustive does not take --wmax"),
            (["distance", "--mode", "bounded"], "distance --mode bounded needs --wmax"),
        ],
        ids=["ulw-n-rho", "kernel-rank", "goodness-c", "count-E-H", "count-verify-what",
             "count-verify-A", "distance-exhaustive-wmax", "distance-bounded"],
    )
    def test_flag_the_experiment_ignores_fails(self, argv, refused, tmp_path, capsys):
        """count, mc and distance take only the flags their mode reads
        (``cli.MODE_FLAGS``): anything else, or a missing required flag,
        exits 1 with one error line, before any output is written."""
        out = tmp_path / "out"
        if argv[0] == "mc":
            argv = [*argv, "--dim", 3, "--trials", 5, "--seed", 1, "--csv", out]
        elif argv[0] == "distance":
            argv = [*argv, "--in", sample(tmp_path, "c.txt", seed=5), "--out", out]
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {refused}\n")
        assert not out.exists()
        assert not (tmp_path / "out.manifest.json").exists()
