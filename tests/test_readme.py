"""The README's code runs against the current API."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    # the first python fence: generate, route, solve, lift, verify, audit
    code = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert "cert" in namespace  # the tour's instance is YES, so the lift ran
    assert "PASS" in capsys.readouterr().out
