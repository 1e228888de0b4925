"""Every test starts with cold caches, so no test sees what an earlier one computed."""

import pytest

from loopcomm import catalog, gradedalg, steenrod, sullivan


def _clear_caches() -> None:
    for module in (catalog, gradedalg, steenrod, sullivan):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Clear every `lru_cache` of the package; a test may call the returned function to clear again."""
    _clear_caches()
    return _clear_caches
