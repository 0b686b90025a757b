"""Every narrative script in demos/ runs to completion against the
current package and prints what tests/golden_demos/ holds for it, byte for
byte.  `python tests/test_demos.py` rewrites that directory from the
current tree."""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
GOLDEN_DIR = Path(__file__).resolve().parent / "golden_demos"


def _demo_output(path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = _demo_output(path)
    assert out.strip()
    assert out.encode() == (GOLDEN_DIR / f"{path.stem}.out").read_bytes()


def test_every_demo_has_a_golden_output():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == \
        sorted(f"{p.stem}.out" for p in DEMOS)


def test_golden_rewrite_keeps_the_tree_when_a_demo_fails(tmp_path,
                                                         monkeypatch):
    (tmp_path / "old.out").write_text("old")

    def fail_on_last(path):
        if path == DEMOS[-1]:
            raise RuntimeError("broken demo")
        return "output\n"

    monkeypatch.setattr(sys.modules[__name__], "_demo_output", fail_on_last)
    assert "broken demo" in _write_golden(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["old.out"]


def _write_golden(golden_dir):
    """Rewrite golden_dir from the demos.  If one raises, leave the
    directory as it is and return a message naming it."""
    outputs = {}
    for path in DEMOS:
        try:
            outputs[f"{path.stem}.out"] = _demo_output(path)
        except Exception as exc:
            return f"{path.name} failed: {exc!r}; {golden_dir} not written"
    golden_dir = Path(golden_dir)
    golden_dir.mkdir(exist_ok=True)
    for old in golden_dir.iterdir():
        old.unlink()
    for name, out in outputs.items():
        (golden_dir / name).write_bytes(out.encode())
    return None


if __name__ == "__main__":
    sys.exit(_write_golden(GOLDEN_DIR))
