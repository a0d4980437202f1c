"""tools/output_digests.py: the eval outputs keep their bytes."""

from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_eval_bytes_are_pinned(tmp_path, monkeypatch):
    """far_frr.csv, summary.csv and histogram.csv of the seed-0 eval recipe.
    Their bytes call no BLAS routine; the gallery's norms go through BLAS
    ddot, so its digests are left out."""
    monkeypatch.syspath_prepend(str(TOOLS))  # restores sys.path, which the tool extends
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # restores what the tool sets
    import output_digests

    found = output_digests.digests(0, tmp_path)
    assert {name: found[name] for name in ("far_frr.csv", "summary.csv", "histogram.csv")} == {
        "far_frr.csv": "5f4a924654157d3a16a12caea80a4f1f28a896673dd2120a8ec7dcb922a4d441",
        "summary.csv": "e3bb21c95b4b717cb20aa71c8b587b6b5d331e18ef6916b06956ec0d3c0b13d3",
        "histogram.csv": "c2492a31f6d335ccf49476869db3d638362cc35223fd67469f6cfb4f30bad81d",
    }
