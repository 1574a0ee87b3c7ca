"""tools/compare_runs.py: the CSV diff of two theorem-suite output trees."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_runs", Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_runs)


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


BASE = {
    "energy/norms.csv": "t[code-units],l2,s0u\n1.0,2.0,100.0\n2.0,2.5,1e-3\n",
    "packet/gamma.csv": "t[code-units],abs_gamma_dot\n10.0,\n11.0,0.5\n",
}


def run(tmp_path, other, tol=None):
    a = write_tree(tmp_path / "a", BASE)
    b = write_tree(tmp_path / "b", other)
    return compare_runs.main([str(a), str(b)] + ([] if tol is None else ["--tol", str(tol)]))


def test_identical_trees_match(tmp_path):
    assert run(tmp_path, BASE) == 0


def test_difference_relative_to_column_max(tmp_path):
    # 1e-10 on a 1e-3 entry is 1e-12 of the s0u column's largest value
    files = dict(BASE, **{"energy/norms.csv": "t[code-units],l2,s0u\n1.0,2.0,100.0\n2.0,2.5,0.0010000001\n"})
    assert run(tmp_path, files, tol=1e-11) == 0
    assert run(tmp_path, files, tol=1e-13) == 1


@pytest.mark.parametrize("rel, text", [
    ("energy/norms.csv", "t[code-units],l2,s0u\n1.0,2.0,100.0\n2.01,2.5,1e-3\n"),   # times
    ("energy/norms.csv", "t[code-units],l2,x\n1.0,2.0,100.0\n2.0,2.5,1e-3\n"),      # header
    ("energy/norms.csv", "t[code-units],l2,s0u\n1.0,2.0,100.0\n"),                  # rows
    ("packet/gamma.csv", "t[code-units],abs_gamma_dot\n10.0,0.0\n11.0,0.5\n"),      # text cell
])
def test_layout_differences_fail(tmp_path, rel, text):
    assert run(tmp_path, dict(BASE, **{rel: text})) == 1


def test_every_column_over_the_tolerance_is_named(tmp_path, capsys):
    files = dict(BASE, **{"energy/norms.csv": "t[code-units],l2,s0u\n1.0,2.1,100.0\n2.0,2.5,2e-3\n"})
    assert run(tmp_path, files) == 1
    out = capsys.readouterr().out
    assert "(l2)" in out and "(s0u)" in out


def test_missing_file_fails(tmp_path):
    assert run(tmp_path, {"energy/norms.csv": BASE["energy/norms.csv"]}) == 1
