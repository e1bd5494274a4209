"""The composition kernel on hand-checked label rows."""

import pytest

from blockperm import _glue_py


class TestPureKernel:
    def test_canonical_labels(self):
        assert _glue_py.canonical_labels((1, 0, 1), (0, 1, 1)) == ((0, 1, 0), (1, 0, 0))
        assert _glue_py.canonical_labels((), ()) == ((), ())

    def test_canonical_rejects_bottom_only_component(self):
        with pytest.raises(ValueError, match="no top vertex"):
            _glue_py.canonical_labels((0, 0), (0, 1))

    def test_glue_identity(self):
        top = (0, 1, 2)
        assert _glue_py.glue_labels(top, top, top, top) == (top, top)

    def test_glue_swap_squares_to_identity(self):
        top, bot = (0, 1), (1, 0)
        assert _glue_py.glue_labels(top, bot, top, bot) == ((0, 1), (0, 1))
