"""Engine selection: the option every engine is chosen through.

The reference-vs-lishi comparison itself lives in
``tests/core/test_lishi_engine.py``; these checks pin the
:class:`~repro.core.dp.DPOptions` ``engine`` field both engines share.
"""

import pytest

from repro import DPOptions


class TestEngineOption:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            DPOptions(engine="turbo")

    def test_default_engine_is_reference(self):
        assert DPOptions().engine == "reference"
