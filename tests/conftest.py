import gc

import hypothesis
import pytest

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.register_profile("thorough", max_examples=400, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collecting(request):
    """The collector's state at entry to the call under test, restored
    afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()
