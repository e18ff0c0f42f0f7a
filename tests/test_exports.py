"""Every name a package exports resolves, so no export outlives its code."""

import pytest

import teeguard
import teeguard.sense


@pytest.mark.parametrize("package", [teeguard, teeguard.sense], ids=lambda p: p.__name__)
def test_all_names_resolve(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


def test_package_exports_are_fixed():
    assert teeguard.__all__ == [
        "PipelineConfig", "PipelineError", "RunMetrics", "RunResult",
        "audio", "cli", "cloud", "driver", "pipeline", "pta", "relay",
        "run_pipeline", "sense", "tcbtrace", "tee", "words",
    ]
    assert teeguard.run_pipeline is teeguard.pipeline.run_pipeline
    assert not hasattr(teeguard, "no_such_name")
