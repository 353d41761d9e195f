"""The output as it is: three small scenarios against the committed reference.

``tests/golden/reference.json`` holds, per artifact, a fixed sample of its
data lines and its SHA-256.  The sampled numbers are always compared, to
GOLDEN_ATOL; the hashes only under the Python, numpy and scipy versions
that wrote the reference.  ``tests/golden/write_reference.py`` rewrites the
reference and prints how far each artifact moved.
"""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), "golden", "write_reference.py")
_spec = importlib.util.spec_from_file_location("write_reference", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

#: 100x below the default step_tol, 10x above the largest drift of a change
#: that moved states in their last digits
GOLDEN_ATOL = 1e-8


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden")
    golden.run_scenarios(str(outdir))
    with open(golden.REFERENCE) as fh:
        reference = json.load(fh)
    return reference, golden.read_artifacts(str(outdir))


def test_golden_numbers_match_the_reference(outputs):
    reference, artifacts = outputs
    assert sorted(artifacts) == sorted(reference["artifacts"])
    moved = {key: golden.sample_difference(entry, artifacts[key])
             for key, entry in reference["artifacts"].items()}
    assert all(len(entry["sample"]) for entry in reference["artifacts"].values())
    assert max(moved.values()) <= GOLDEN_ATOL, {k: v for k, v in moved.items()
                                                if v > GOLDEN_ATOL}


def test_golden_bytes_match_under_the_recorded_versions(outputs):
    reference, artifacts = outputs
    changed = [key for key, entry in reference["artifacts"].items()
               if golden.describe(artifacts[key])["sha256"] != entry["sha256"]]
    if reference["versions"] != golden.versions():
        # `pytest -rs` then tells how far the bits of each artifact moved
        moved = ", ".join(
            f"{key} {golden.sample_difference(entry, artifacts[key]):.3g}"
            if key in changed else f"{key} same bytes"
            for key, entry in sorted(reference["artifacts"].items()))
        pytest.skip(f"reference written under {reference['versions']}, "
                    f"running under {golden.versions()}; largest sampled "
                    f"difference per artifact: {moved}")
    assert not changed
