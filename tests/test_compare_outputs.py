"""The output comparator, run on a small grid against an unchanged tree, and
the A/B fit timer, run on one short fit.

The tree is a throwaway git repository holding a copy of ``src``, so the
check neither needs this checkout to be a clean git work tree nor touches it.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
AB_FITS = ROOT / "scripts" / "ab_fits.py"


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


@pytest.fixture
def unchanged_repo(tmp_path):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__"))
    _git(repo, "init", "-q")
    _git(repo, "add", "src")
    _git(repo, "commit", "-q", "-m", "snapshot")
    return repo


def _compare(repo, *extra):
    return subprocess.run([sys.executable, str(SCRIPT), "--repo", str(repo), "--ref", "HEAD", "--grid", "small", *extra],
                          capture_output=True, text=True, timeout=300)


def test_unchanged_tree_shows_no_difference(unchanged_repo):
    proc = _compare(unchanged_repo)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 groups moved" in proc.stdout
    assert "infeasible starts (ref" in proc.stdout
    # the temporary worktree is gone again
    listing = subprocess.run(["git", "-C", str(unchanged_repo), "worktree", "list"],
                             capture_output=True, text=True, check=True).stdout
    assert len(listing.splitlines()) == 1


def test_a_moved_output_fails_unless_expected(unchanged_repo):
    # in the working tree only, mog's cdf and the gamma base's sf move by one
    # part in 1e12
    ft = unchanged_repo / "src" / "genfit" / "family_transforms.py"
    ft.write_text(ft.read_text() + (
        "\n_unmoved_cdf = family_cdf\n\n\n"
        "def family_cdf(family, *args, **kw):\n"
        "    out = _unmoved_cdf(family, *args, **kw)\n"
        "    return out * (1.0 - 1e-12) if family == 'mog' else out\n"
    ))
    bd = unchanged_repo / "src" / "genfit" / "base_distributions.py"
    bd.write_text(bd.read_text() + (
        "\n_unmoved_sf = base_sf\n\n\n"
        "def base_sf(name, *args):\n"
        "    return _unmoved_sf(name, *args) * (1.0 - 1e-12) if name == 'gamma' else _unmoved_sf(name, *args)\n"
    ))
    proc = _compare(unchanged_repo)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    flagged = [line.split()[0] for line in proc.stdout.splitlines() if line.endswith("UNEXPECTED")]
    assert "base_sf:-:gamma" in flagged
    assert any("cdf" in name.split(":")[0] and ":mog:" in name for name in flagged)
    assert all(name == "base_sf:-:gamma" or "cdf" in name.split(":")[0] and ":mog:" in name for name in flagged)
    proc = _compare(unchanged_repo, "--expect", "*cdf*:mog:*", "--expect", "base_sf:-:gamma")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_a_deleted_name_is_listed_as_moved(unchanged_repo):
    # the working tree drops the public base_log_hazard; the grid still asks
    # for it, and the working tree's answer is an AttributeError
    genfit = unchanged_repo / "src" / "genfit"
    init = genfit / "__init__.py"
    init.write_text(init.read_text().replace('    base_log_hazard,\n', '').replace('    "base_log_hazard",\n', ''))
    bd = genfit / "base_distributions.py"
    bd.write_text(bd.read_text() + "\ndel base_log_hazard\n")
    proc = _compare(unchanged_repo)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    flagged = [line.split()[0] for line in proc.stdout.splitlines() if line.endswith("UNEXPECTED")]
    assert flagged == ["base_log_hazard:-:gamma", "base_log_hazard:-:weibull"]


def _ab_fits(repo):
    # the reference layout's six fits, once per side
    return subprocess.run([sys.executable, str(AB_FITS), "--repo", str(repo), "--ref", "HEAD", "--layout", "reference",
                           "--rounds", "1"], capture_output=True, text=True, timeout=300)


def test_ab_fits_on_an_unchanged_tree(unchanged_repo):
    proc = _ab_fits(unchanged_repo)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bearing:weibullgxweibull:nelder-mead" in proc.stdout
    assert "6 of 6 fits identical between the sides" in proc.stdout
    listing = subprocess.run(["git", "-C", str(unchanged_repo), "worktree", "list"],
                             capture_output=True, text=True, check=True).stdout
    assert len(listing.splitlines()) == 1


def test_ab_fits_fails_on_a_moved_fit(unchanged_repo):
    # in the working tree only, every fit's S moves by one part in 1e12
    mf = unchanged_repo / "src" / "genfit" / "mps_fit.py"
    mf.write_text(mf.read_text() + (
        "\n_unmoved_fit = fit\n\n\n"
        "def fit(ctx, config=None):\n"
        "    res = _unmoved_fit(ctx, config)\n"
        "    res.s_opt *= 1.0 - 1e-12\n"
        "    return res\n"
    ))
    proc = _ab_fits(unchanged_repo)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "bearing:weibullgxweibull:nelder-mead: the outputs differ between the sides" in proc.stdout
