"""Baselines: native execution (``mode="native"``) and the Faasm platform model."""

from repro.baselines.faasm import FaabricMessageBus, FaasmConfig, FaasmPlatform

__all__ = ["FaasmPlatform", "FaasmConfig", "FaabricMessageBus"]
