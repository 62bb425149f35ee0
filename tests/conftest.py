from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return ROOT / "corpus"


@pytest.fixture
def walks(monkeypatch) -> dict:
    """side -> the _Walk that served it in the latest analyze.

    analyze keeps only a Walked record of each walk, so a test of what a
    walk decided on its way (its call memo, verdicts or demands) reads the
    walk here.  The walks of one analyze share one call memo; a walk with
    another memo starts the next analyze's sides.
    """
    from exspace import spacecheck  # imported late, under tests.linetrace's trace

    served = {}
    run = spacecheck._Walk.run

    def recording(walk):
        if any(w.calls is not walk.calls for w in served.values()):
            served.clear()
        served.update(dict.fromkeys(walk.natives, walk))
        run(walk)

    monkeypatch.setattr(spacecheck._Walk, "run", recording)
    return served
