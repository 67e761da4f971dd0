"""The README's library quick start runs as written."""

import re
from pathlib import Path

from blindcapon import capon_ive

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_snippets():
    """The python blocks of the README's "Library quick start" section."""
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_library_snippets_run(tmp_path, monkeypatch, broadband_fixture, capsys):
    # the broadband snippet reads mix.wav from the working directory: the
    # five-channel fixture, whose sources are at 63.43 and 90 degrees
    fx = broadband_fixture
    monkeypatch.chdir(tmp_path)
    capon_ive.write_wav("mix.wav", fx.sample_rate, fx.mix)
    narrowband, broadband = quick_start_snippets()
    exec(narrowband, {})
    assert len(capsys.readouterr().out.splitlines()) == 2
    scope = {}
    exec(broadband, scope)
    assert scope["fields"]["converged"]
    assert abs(scope["fields"]["theta_hat_deg"] - fx.thetas_deg[1]) < 0.5
    assert scope["y"].shape == (fx.mix.shape[1],)
