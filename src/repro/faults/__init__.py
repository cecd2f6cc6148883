"""Fault injection, degraded-mode execution and elastic re-planning.

Deterministic chaos testing for the Mobius reproduction: declarative fault
models (:mod:`~repro.faults.models`), retry/degraded-mode recovery inside
one simulated step (:mod:`~repro.faults.recovery`), MIP re-planning after
GPU dropout (:mod:`~repro.faults.replan`) and the ``repro bench chaos`` harness
(:mod:`~repro.faults.chaos`) that proves recovery with the
:mod:`repro.check` verifiers.
"""
