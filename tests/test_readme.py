"""The README's code runs against the current API."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    # every python fence, in order and in one namespace: the tour
    # (generate, route, solve, lift, verify, audit), then the size calls,
    # which read the tour's instance
    fences = [
        block.split("```", 1)[0] for block in README.read_text().split("```python\n")[1:]
    ]
    assert len(fences) >= 2
    namespace = {}
    for code in fences:
        exec(compile(code, str(README), "exec"), namespace)
    assert "cert" in namespace  # the tour's instance is YES, so the lift ran
    assert "PASS" in capsys.readouterr().out
