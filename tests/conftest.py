"""Checks that hold in every test, whichever test builds the object."""

import json

import pytest

from deformcs.dda_registry import SampledField
from deformcs.errors import InvalidInputError


@pytest.fixture(autouse=True)
def _pairs_built_fields_round_trip(monkeypatch):
    """Every SampledField a test builds from pairs must come back from its own JSON text
    through ``from_json`` with the same grid and stacks, bit for bit."""
    build = SampledField.__init__

    def checked(self, *args, **kwargs):
        build(self, *args, **kwargs)
        try:
            back = SampledField.from_json(json.loads(json.dumps(self.to_json())))
        except InvalidInputError as exc:   # a failure, not an error the test may expect
            pytest.fail(f"a field built from pairs does not load from its own JSON: {exc}")
        for a, b in ((self.grid, back.grid), (self.C1, back.C1), (self.C2, back.C2)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    monkeypatch.setattr(SampledField, "__init__", checked)
