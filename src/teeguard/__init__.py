"""Simulated TrustZone pipeline that keeps microphone audio inside a secure
enclave, classifies its transcript for sensitivity, and redacts before any
byte leaves for the cloud.

Submodules and the pipeline names below load on first use (PEP 562), so
`import teeguard` loads nothing else, and the collector (`teeguard serve`)
never imports numpy, the driver, the PTA or the classifiers.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = {
    "audio", "cli", "cloud", "driver", "pipeline", "pta", "relay", "sense", "tcbtrace",
    "tee", "words",
}
_PIPELINE_NAMES = {"PipelineConfig", "PipelineError", "RunMetrics", "RunResult", "run_pipeline"}

__all__ = sorted(_SUBMODULES | _PIPELINE_NAMES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _PIPELINE_NAMES:
        return getattr(importlib.import_module(f"{__name__}.pipeline"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
